//! The lint engine's own gate, part of Tier-1 (`cargo test -q` at the
//! root) and so of `cargo xtask ci`'s `test` stage, which runs before
//! its `lint` stage:
//!
//! 1. **Fixture corpus** — every registered rule has a positive
//!    (`<rule>.bad.rs`) and negative (`<rule>.good.rs`) fixture under
//!    `tests/fixtures/`; the rule must fire on the positive and stay
//!    silent on the negative.
//! 2. **Differential** — the nine rules migrated from the substring
//!    engine are replayed through the retired engine (`xtask::legacy`)
//!    on every fixture *and* on the live repo; both engines must report
//!    the same `(file, line, rule)` findings.
//! 3. **Docs** — the rule tables in `README.md` are regenerated from
//!    the registry and must not drift (`xtask/src/lint.rs`'s table has
//!    its own unit test).
//! 4. **Cleanliness** — the live repo lints clean, and the JSON
//!    serialization of any diagnostic set round-trips through the
//!    schema validator.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use xtask::engine::{filter_rules, run, to_json, SourceFile};
use xtask::rules::{registry, table_row, MIGRATED_RULES, NO_UNWRAP_CRATES};
use xtask::{jsonck, legacy, lint};

/// The workspace root (parent of `xtask/`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// The virtual repo-relative path each rule's fixtures lint under —
/// chosen so the fixture is *in scope* for its rule (and, for the
/// migrated rules, under the same scope the legacy driver used).
const FIXTURE_PATHS: &[(&str, &str)] = &[
    ("no-unwrap", "crates/sim/src/fixture.rs"),
    ("no-panic-in-lib", "crates/stats/src/fixture.rs"),
    ("no-println-in-lib", "crates/stats/src/fixture.rs"),
    ("no-float-time", "crates/net/src/fixture.rs"),
    ("no-wallclock", "crates/net/src/fixture.rs"),
    ("no-unsafe", "crates/net/src/fixture.rs"),
    ("forbid-unsafe-attr", "crates/fake/src/lib.rs"),
    ("aqm-doc-cite", "crates/baselines/src/fixture.rs"),
    ("fault-kind-doc", "crates/sim/src/fixture.rs"),
    ("no-hash-iter", "crates/net/src/fixture.rs"),
    ("no-thread-outside-runner", "crates/net/src/fixture.rs"),
    ("no-ambient-entropy", "crates/sim/src/fixture.rs"),
    ("no-raw-tick-arith", "crates/net/src/fixture.rs"),
    ("exhaustive-kind-tags", "crates/core/src/error_fixture.rs"),
    ("scenario-step-doc", "crates/experiments/src/scenario/fixture.rs"),
    ("cc-doc-cite", "crates/transport/src/fixture.rs"),
    ("no-process-env-in-lib", "crates/experiments/src/fixture.rs"),
    ("unused-allow", "crates/net/src/fixture.rs"),
];

fn virtual_path(rule: &str) -> &'static Path {
    FIXTURE_PATHS
        .iter()
        .find(|(r, _)| *r == rule)
        .map(|(_, p)| Path::new(*p))
        .unwrap_or_else(|| panic!("no fixture path mapped for rule `{rule}`"))
}

/// Read `tests/fixtures/<rule>.<kind>.rs`.
fn fixture_src(rule: &str, kind: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{rule}.{kind}.rs"));
    fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

/// Run the full registry over one fixture and keep `rule`'s findings
/// (every rule executes so the suppression ledger behaves as in
/// production).
fn new_engine_lines(rule: &str, kind: &str) -> Vec<usize> {
    let file = SourceFile::new(virtual_path(rule).to_path_buf(), fixture_src(rule, kind));
    let diags = filter_rules(run(&[file], &registry()), &[rule.to_string()]);
    diags.iter().map(|d| d.line).collect()
}

/// Replay one migrated rule through the retired substring engine.
fn legacy_lines(rule: &str, kind: &str) -> Vec<usize> {
    let path = virtual_path(rule);
    let raw = fixture_src(rule, kind);
    let diags = match rule {
        "no-unwrap" => legacy::check_no_unwrap(path, &raw),
        "no-panic-in-lib" => {
            let covered = NO_UNWRAP_CRATES.iter().any(|c| path.starts_with(c));
            legacy::check_no_panic(path, &raw, !covered)
        }
        "no-println-in-lib" => legacy::check_no_println(path, &raw),
        "no-float-time" => legacy::check_no_float_time(path, &raw),
        "no-wallclock" => legacy::check_no_wallclock(path, &raw),
        "no-unsafe" => legacy::check_no_unsafe(path, &raw),
        "forbid-unsafe-attr" => legacy::check_forbid_attr(path, &raw),
        "aqm-doc-cite" => legacy::check_aqm_doc_cite(path, &raw),
        "fault-kind-doc" => legacy::check_fault_kind_doc(path, &raw),
        other => panic!("`{other}` is not a migrated rule"),
    };
    diags.iter().map(|d| d.line).collect()
}

#[test]
fn every_rule_fires_on_its_positive_fixture() {
    for rule in registry() {
        let lines = new_engine_lines(rule.id(), "bad");
        assert!(
            !lines.is_empty(),
            "rule `{}` reported nothing on tests/fixtures/{}.bad.rs",
            rule.id(),
            rule.id()
        );
    }
}

#[test]
fn every_rule_is_silent_on_its_negative_fixture() {
    for rule in registry() {
        let lines = new_engine_lines(rule.id(), "good");
        assert!(
            lines.is_empty(),
            "rule `{}` fired on tests/fixtures/{}.good.rs at lines {lines:?}",
            rule.id(),
            rule.id()
        );
    }
}

#[test]
fn migrated_rules_agree_with_legacy_engine_on_fixtures() {
    for rule in MIGRATED_RULES {
        for kind in ["bad", "good"] {
            let old = legacy_lines(rule, kind);
            let new = new_engine_lines(rule, kind);
            assert_eq!(
                old, new,
                "engines disagree on `{rule}` over tests/fixtures/{rule}.{kind}.rs \
                 (legacy={old:?}, token={new:?})"
            );
        }
    }
}

#[test]
fn live_corpus_differential() {
    let repo = repo_root();
    let old: BTreeSet<(String, usize, String)> = legacy::lint_repo(&repo)
        .into_iter()
        .map(|d| (d.file.display().to_string(), d.line, d.rule.to_string()))
        .collect();
    let new: BTreeSet<(String, usize, String)> = lint::lint_repo(&repo)
        .into_iter()
        .filter(|d| MIGRATED_RULES.contains(&d.rule))
        .map(|d| (d.file.display().to_string(), d.line, d.rule.to_string()))
        .collect();
    let only_old: Vec<_> = old.difference(&new).collect();
    let only_new: Vec<_> = new.difference(&old).collect();
    assert!(
        only_old.is_empty() && only_new.is_empty(),
        "substring and token engines disagree on the live corpus:\n\
         legacy-only: {only_old:?}\ntoken-only: {only_new:?}"
    );
}

#[test]
fn live_repo_lints_clean() {
    let repo = repo_root();
    let diags = lint::lint_repo(&repo);
    assert!(
        diags.is_empty(),
        "the live repo must lint clean; found:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn readme_rule_table_matches_registry() {
    let readme = fs::read_to_string(repo_root().join("README.md")).expect("README.md");
    for rule in registry() {
        let row = table_row(rule.as_ref());
        assert!(
            readme.contains(&row),
            "rule table row for `{}` missing from or stale in README.md — \
             regenerate with `cargo xtask lint --list`:\n{row}",
            rule.id()
        );
    }
}

#[test]
fn fixture_diagnostics_serialize_to_valid_json() {
    // The bad fixtures collectively exercise every rule id, multi-line
    // messages, and path escaping — a denser schema check than the
    // (clean) live corpus.
    let files: Vec<SourceFile> = registry()
        .iter()
        .map(|r| {
            SourceFile::new(virtual_path(r.id()).to_path_buf(), fixture_src(r.id(), "bad"))
        })
        .collect();
    let diags = run(&files, &registry());
    assert!(!diags.is_empty());
    let doc = to_json(&diags);
    jsonck::validate_lint_json(&doc).expect("lint JSON failed its own schema");
}
