//! The lint driver: wires the repo walk to the token
//! [`engine`](crate::engine) and the [`rules`](crate::rules) registry.
//!
//! Design constraints (mirroring the simulator's own rules):
//!
//! * **Pure std.** No regex crate, no syn, no cargo metadata — the
//!   container must never need the network. The engine lexes each file
//!   with a hand-rolled Rust lexer ([`crate::lex`]) and rules match
//!   token sequences, so `HashMap` in a string literal or a comment is
//!   never a finding.
//! * **Span-accurate.** Diagnostics carry `file:line:col` from real
//!   token positions.
//! * **Test-aware.** `#[cfg(test)] mod … { … }` blocks are excluded
//!   from rules that only govern production code (tests may
//!   `.unwrap()`); determinism rules opt out of the exemption — a test
//!   that observes hash order flakes like any library would.
//! * **Escapable with a paper trail.** A trailing
//!   `lint:allow(<rule>): <justification>` comment suppresses one rule
//!   on one line; an allow *without* a justification is itself a
//!   violation, and an allow that suppresses nothing is an
//!   `unused-allow` finding (stale escapes rot into lies).
//!
//! The rule table below is generated from the registry
//! (`cargo xtask lint --list` prints the same rows); a self-test
//! asserts this doc, the README, and the registry cannot drift.
//!
//! | rule | severity | scope | what it catches |
//! |------|----------|-------|-----------------|
//! | `no-unwrap` | deny | library crate `src/` (core, sim, net, sched, baselines, transport) | `.unwrap()` / `.expect(` in production code — return an error or restructure |
//! | `no-panic-in-lib` | deny | library `src/` trees except `src/bin/`, experiments, bench, xtask | `panic!` in library code (plus `.unwrap()`/`.expect(` where `no-unwrap` does not reach) — return a `TcnError` |
//! | `no-println-in-lib` | deny | library `src/` trees except `src/bin/`, experiments, bench, xtask | `println!` / `eprintln!` in library code — emit a telemetry event instead |
//! | `no-float-time` | deny | every `.rs` file except `sim/src/time.rs` | `.as_ps() as f64`-style raw picosecond float casts — use the named `Time` accessors |
//! | `no-wallclock` | deny | every `.rs` file except `crates/bench/`, `xtask/` | host-clock reads (`std::time::Instant`, `SystemTime`) — simulation code runs on virtual `Time` only |
//! | `no-unsafe` | deny | every `.rs` file | the `unsafe` keyword anywhere in the repo (tests included) |
//! | `forbid-unsafe-attr` | deny | every crate root (`src/lib.rs`, `src/main.rs`) | a crate root missing `#![forbid(unsafe_code)]` |
//! | `aqm-doc-cite` | deny | `crates/core/src`, `crates/baselines/src` | a public AQM whose doc comment never cites a paper section (`§`) |
//! | `fault-kind-doc` | deny | every `.rs` file | a `FaultKind` variant without a doc comment naming its real-world failure mode |
//! | `no-hash-iter` | deny | every `.rs` file (tests included) | `HashMap` / `HashSet` (hash-order iteration is seeded per process) — use `BTreeMap` / `BTreeSet` |
//! | `no-thread-outside-runner` | deny | every `.rs` file except `experiments/src/runner.rs`, `crates/bench/`, `xtask/` | `std::thread` use outside the deterministic sweep runner — route parallelism through it |
//! | `no-ambient-entropy` | deny | every `.rs` file (tests included) | ambient randomness (`RandomState`, `thread_rng`, `OsRng`, …) — draw from the run's seeded `Rng` |
//! | `no-raw-tick-arith` | deny | every `.rs` file except `sim/src/time.rs` | `+`/`-` on a raw `.as_ps()` tick count — do the arithmetic on `Time` (checked), convert at the edge |
//! | `exhaustive-kind-tags` | deny | every `.rs` file (fires where `enum TcnError` is defined) | a `TcnError` variant without a doc comment or without an explicit stable string tag in `kind()` |
//! | `scenario-step-doc` | deny | every `.rs` file (fires where `enum StepMutation` is defined) | a `StepMutation` variant whose doc comment lacks a unique backticked `step:<tag>` marker |
//! | `cc-doc-cite` | deny | `crates/transport/src` | a congestion controller whose doc comment never cites its source RFC/paper section (`§`) |
//! | `no-process-env-in-lib` | deny | library `src/` trees except `src/bin/` and `main.rs` (so not `benches/`, `examples/`, `tests/`, `xtask/`) | `env::args` / `env::var` / `env::set_var` (and kin) in library code — take the value as an argument from the binary's `RunOptions` |
//! | `unused-allow` | deny | every `.rs` file | a `lint:allow(<rule>)` escape that suppresses zero diagnostics (stale or unknown rule) — delete it |

use std::path::Path;

use crate::engine::{load_repo, run, Diagnostic};
use crate::rules::registry;

/// Run the full registry over the repository rooted at `repo`. Returns
/// all diagnostics (suppressions already applied), sorted by
/// `(file, line, col, rule)`.
pub fn lint_repo(repo: &Path) -> Vec<Diagnostic> {
    run(&load_repo(repo), &registry())
}

/// The `--list` output: one generated markdown row per registered rule,
/// header included — the exact rows embedded in this module's doc and
/// in `README.md`.
pub fn rule_table() -> String {
    let mut s = String::from(
        "| rule | severity | scope | what it catches |\n\
         |------|----------|-------|-----------------|\n",
    );
    for rule in registry() {
        s.push_str(&crate::rules::table_row(rule.as_ref()));
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_doc_table_matches_registry() {
        let src = include_str!("lint.rs");
        for rule in registry() {
            let row = crate::rules::table_row(rule.as_ref());
            assert!(
                src.contains(&row),
                "rule table row for `{}` missing from or stale in \
                 xtask/src/lint.rs module docs — regenerate with \
                 `cargo xtask lint --list`:\n{row}",
                rule.id()
            );
        }
    }

    #[test]
    fn rule_table_lists_every_rule_once() {
        let table = rule_table();
        for rule in registry() {
            assert_eq!(
                table.matches(&format!("| `{}` |", rule.id())).count(),
                1,
                "{}",
                rule.id()
            );
        }
    }
}
