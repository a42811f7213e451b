//! `cargo xtask` — the repo's dependency-free automation entry point.
//!
//! Subcommands:
//!
//! * `lint`  — run the token-level static analyzer (see
//!   [`xtask::lint`]) over the repository. Prints
//!   `file:line:col: [rule] message` diagnostics and exits nonzero if
//!   any deny-severity finding fires. Flags:
//!   * `--list` — print the generated rule table (id, severity, scope,
//!     summary) and exit;
//!   * `--rule <id>` (repeatable) — narrow *output* to the named rules
//!     (every rule still executes, so `unused-allow` stays accurate);
//!   * `--format json` — emit the versioned JSON document on stdout
//!     (human diagnostics go to stderr), schema-checked before
//!     printing.
//! * `ci`    — the whole gate in one command, stopping at the first
//!   failing stage:
//!   1. `build` — `cargo build --release`;
//!   2. `test` — `cargo test -q`, which is Tier-1: the root manifest's
//!      `default-members` make it every member's suites, this crate's
//!      lint self-test and the binaries' end-to-end tests (resume,
//!      traces, fuzz seeds) included;
//!   3. `test (audit)` — the root package, `tcn-sim` and `tcn-net`
//!      again in release with `--features audit`, the only run of that
//!      feature path (test builds audit through `debug_assertions`);
//!   4. `lint` — the registry in `--format json` mode, the document
//!      schema-checked (no test drives that path of the CLI);
//!   5. `benchmark (verify)` — the benchmark's cells still equal the
//!      figure code's.
//!
//! Everything here is pure std: the harness must work in an offline
//! container with nothing but the Rust toolchain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::env;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use xtask::engine::{filter_rules, Severity};
use xtask::{jsonck, lint, rules};

/// A named `cargo xtask ci` stage.
type Stage = (&'static str, fn(&Path) -> ExitCode);

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let repo = repo_root();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint_cli(&repo, &args[1..]),
        Some("ci") => {
            let stages: [Stage; 5] = [
                ("build", |r| run_cargo(r, &["build", "--release"])),
                ("test", |r| run_cargo(r, &["test", "-q"])),
                ("test (audit)", |r| {
                    run_cargo(
                        r,
                        &[
                            "test", "-q", "--release", "--features", "audit", "-p", "tcn-repro",
                            "-p", "tcn-sim", "-p", "tcn-net",
                        ],
                    )
                }),
                ("lint", |r| run_lint_cli(r, &["--format".to_string(), "json".to_string()])),
                // Run as `tcn-bench`'s bin, the same `main.rs` as the
                // benchmark's own package, so the stage reuses the build
                // stage's artifacts.
                ("benchmark (verify)", |r| {
                    run_cargo(
                        r,
                        &[
                            "run", "--release", "-p", "tcn-bench", "--bin", "benchmark", "--",
                            "verify", "--seed", "1",
                        ],
                    )
                }),
            ];
            for (name, stage) in stages {
                eprintln!("xtask ci: {name}");
                let code = stage(&repo);
                if code != ExitCode::SUCCESS {
                    eprintln!("xtask ci: {name} FAILED");
                    return code;
                }
            }
            eprintln!("xtask ci: all stages passed");
            ExitCode::SUCCESS
        }
        Some("help") | None => {
            eprintln!(
                "usage: cargo xtask <lint|ci>\n\
                 \n\
                 lint      token-level static analysis (18 rules: panic/print\n\
                 \x20         discipline, unsafe bans, doc provenance, and the\n\
                 \x20         determinism family — no-hash-iter,\n\
                 \x20         no-thread-outside-runner, no-ambient-entropy,\n\
                 \x20         no-raw-tick-arith, no-process-env-in-lib,\n\
                 \x20         exhaustive-kind-tags, scenario-step-doc, …)\n\
                 \x20         [--list | --rule <id>]... [--format json]\n\
                 ci        build + test (Tier-1: every crate's suites) +\n\
                 \x20         test(audit) + lint(json) + benchmark(verify)"
            );
            if args.is_empty() {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        Some(other) => {
            eprintln!("xtask: unknown subcommand `{other}` (try `cargo xtask help`)");
            ExitCode::from(2)
        }
    }
}

/// The workspace root: parent of the `xtask/` directory this binary was
/// built from, falling back to the current directory (the `cargo xtask`
/// alias always runs at the root).
fn repo_root() -> PathBuf {
    let manifest = env!("CARGO_MANIFEST_DIR");
    Path::new(manifest)
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// The `lint` subcommand: parse `--list` / `--rule <id>` /
/// `--format json`, run the registry, print, gate on deny findings.
fn run_lint_cli(repo: &Path, flags: &[String]) -> ExitCode {
    let mut only: Vec<String> = Vec::new();
    let mut json = false;
    let mut i = 0;
    while i < flags.len() {
        match flags[i].as_str() {
            "--list" => {
                print!("{}", lint::rule_table());
                return ExitCode::SUCCESS;
            }
            "--rule" => {
                let Some(id) = flags.get(i + 1) else {
                    eprintln!("xtask lint: --rule needs a rule id (see --list)");
                    return ExitCode::from(2);
                };
                if !rules::registry().iter().any(|r| r.id() == id) {
                    // Same convention as `figs scenario <id>`: exit 2
                    // with a nearest-match suggestion when one is close.
                    match rules::nearest_rule(id) {
                        Some(close) => eprintln!(
                            "xtask lint: unknown rule `{id}` — did you mean `{close}`? \
                             (see `cargo xtask lint --list`)"
                        ),
                        None => eprintln!(
                            "xtask lint: unknown rule `{id}` (see `cargo xtask lint --list`)"
                        ),
                    }
                    return ExitCode::from(2);
                }
                only.push(id.clone());
                i += 2;
            }
            "--format" => {
                match flags.get(i + 1).map(String::as_str) {
                    Some("json") => json = true,
                    Some("text") => json = false,
                    other => {
                        eprintln!("xtask lint: --format takes `json` or `text`, got {other:?}");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            other => {
                eprintln!("xtask lint: unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let diags = filter_rules(lint::lint_repo(repo), &only);
    if json {
        let doc = xtask::engine::to_json(&diags);
        if let Err(e) = jsonck::validate_lint_json(&doc) {
            eprintln!("xtask lint: internal error — emitted JSON failed its own schema: {e}");
            return ExitCode::FAILURE;
        }
        println!("{doc}");
        for d in &diags {
            eprintln!("{d}");
        }
    } else {
        for d in &diags {
            println!("{d}");
        }
    }
    let denies = diags.iter().filter(|d| d.severity == Severity::Deny).count();
    if denies == 0 {
        eprintln!("xtask lint: clean ({} finding(s))", diags.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: {denies} violation(s)");
        ExitCode::FAILURE
    }
}

fn run_cargo(repo: &Path, args: &[&str]) -> ExitCode {
    match Command::new("cargo").args(args).current_dir(repo).status() {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(status) => {
            eprintln!("xtask: `cargo {}` exited with {status}", args.join(" "));
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask: failed to spawn cargo: {e}");
            ExitCode::FAILURE
        }
    }
}
