//! The rule registry: every lint rule on the token engine, the path
//! scopes they run under, and the shared pattern-matching helpers.
//!
//! Rules are grouped by what they defend:
//!
//! * [`panics`] — failure discipline: `no-unwrap`, `no-panic-in-lib`,
//!   `no-println-in-lib` (failures surface as `TcnError`, output goes
//!   through telemetry).
//! * [`safety`] — `no-unsafe`, `forbid-unsafe-attr`.
//! * [`docs`] — provenance and taxonomy docs: `aqm-doc-cite`,
//!   `cc-doc-cite`, `fault-kind-doc`, `exhaustive-kind-tags`,
//!   `scenario-step-doc`.
//! * [`determinism`] — the byte-identity discipline: `no-float-time`,
//!   `no-wallclock`, `no-hash-iter`, `no-thread-outside-runner`,
//!   `no-ambient-entropy`, `no-raw-tick-arith`, `no-process-env-in-lib`.
//!
//! [`registry`] returns them all in table order; `unused-allow` (the
//! engine-level stale-escape check) is registered last so it lists and
//! documents like any other rule.

pub mod determinism;
pub mod docs;
pub mod panics;
pub mod safety;

use std::path::Path;

use crate::engine::{Diagnostic, Rule, Scope, Severity, SourceFile, UNUSED_ALLOW};
use crate::lex::{Token, TokenKind};

// ---------------------------------------------------------------------------
// Shared scope constants (the single source of truth; the legacy
// differential oracle imports these too)
// ---------------------------------------------------------------------------

/// Library crates whose `src/` trees must be panic-free in production
/// paths (the simulation core; binaries and experiment drivers may be
/// more relaxed).
pub const NO_UNWRAP_CRATES: &[&str] = &[
    "crates/core",
    "crates/sim",
    "crates/net",
    "crates/sched",
    "crates/baselines",
    "crates/transport",
];

/// The one module allowed to do raw arithmetic and float conversions on
/// tick counts: it *defines* the sanctioned operations.
pub const TIME_SANCTUARY: &str = "crates/sim/src/time.rs";

/// Repo path prefixes allowed to read the host clock: the benchmark
/// harness exists to measure wall time, and the `xtask` automation may
/// time its own stages.
pub const WALLCLOCK_SANCTUARIES: &[&str] = &["crates/bench", "xtask"];

/// Repo path prefixes whose whole purpose is terminal output.
pub const PRINTLN_SANCTUARIES: &[&str] = &["crates/experiments", "crates/bench", "xtask"];

/// Repo path prefixes exempt from `no-panic-in-lib`: leaf executables
/// already under the runner's panic isolation, plus the `xtask` CLI.
pub const PANIC_SANCTUARIES: &[&str] = &["crates/experiments", "crates/bench", "xtask"];

/// The one module allowed to touch `std::thread`: the deterministic
/// work-stealing sweep runner (canonical merge order, byte-identical at
/// any thread count). `crates/bench` and `xtask` may also thread — they
/// never produce experiment bytes.
pub const THREAD_SANCTUARY: &str = "crates/experiments/src/runner.rs";

/// Path prefixes `no-thread-outside-runner` exempts wholesale.
pub const THREAD_SANCTUARY_PREFIXES: &[&str] = &["crates/bench", "xtask"];

// ---------------------------------------------------------------------------
// Scope predicates (plain fns so `Scope` stays a Copy fn-pointer table)
// ---------------------------------------------------------------------------

pub(crate) fn every_file(_: &Path) -> bool {
    true
}

pub(crate) fn in_no_unwrap_crates(p: &Path) -> bool {
    NO_UNWRAP_CRATES
        .iter()
        .any(|c| p.starts_with(c) && p.strip_prefix(c).is_ok_and(|r| r.starts_with("src")))
}

/// Library `src/` trees: everything under `crates/*/src` and the
/// facade's `src/`, minus `src/bin/` (printing and exiting is a
/// binary's job).
pub(crate) fn in_lib_src(p: &Path) -> bool {
    (p.starts_with("crates") || p.starts_with("src"))
        && p.components().any(|c| c.as_os_str() == "src")
        && !p.components().any(|c| c.as_os_str() == "bin")
}

pub(crate) fn println_scope(p: &Path) -> bool {
    in_lib_src(p) && !PRINTLN_SANCTUARIES.iter().any(|s| p.starts_with(s))
}

pub(crate) fn panic_scope(p: &Path) -> bool {
    in_lib_src(p) && !PANIC_SANCTUARIES.iter().any(|s| p.starts_with(s))
}

pub(crate) fn outside_time_sanctuary(p: &Path) -> bool {
    p != Path::new(TIME_SANCTUARY)
}

pub(crate) fn wallclock_scope(p: &Path) -> bool {
    !WALLCLOCK_SANCTUARIES.iter().any(|s| p.starts_with(s))
}

pub(crate) fn thread_scope(p: &Path) -> bool {
    p != Path::new(THREAD_SANCTUARY)
        && !THREAD_SANCTUARY_PREFIXES.iter().any(|s| p.starts_with(s))
}

/// Library code that must not read the process environment: the
/// library `src/` trees minus any `main.rs`.
pub(crate) fn env_scope(p: &Path) -> bool {
    in_lib_src(p) && !p.ends_with("main.rs")
}

/// Crate roots: any `src/lib.rs` or `src/main.rs`.
pub(crate) fn crate_root(p: &Path) -> bool {
    p.ends_with("src/lib.rs") || p.ends_with("src/main.rs")
}

/// Where AQM implementations live.
pub(crate) fn aqm_scope(p: &Path) -> bool {
    (p.starts_with("crates/core") || p.starts_with("crates/baselines"))
        && p.components().any(|c| c.as_os_str() == "src")
}

/// Where congestion-control implementations live.
pub(crate) fn transport_scope(p: &Path) -> bool {
    p.starts_with("crates/transport") && p.components().any(|c| c.as_os_str() == "src")
}

// ---------------------------------------------------------------------------
// Token pattern helpers
// ---------------------------------------------------------------------------

/// One element of a token pattern.
pub(crate) enum Pat {
    /// An identifier with exactly this text.
    Id(&'static str),
    /// Any identifier.
    AnyId,
    /// A punct with exactly this text.
    Pu(&'static str),
}

/// True when `pat` matches `code` starting at index `i`.
pub(crate) fn seq_at(code: &[Token], i: usize, pat: &[Pat]) -> bool {
    pat.iter().enumerate().all(|(k, p)| match (code.get(i + k), p) {
        (Some(t), Pat::Id(s)) => t.is_ident(s),
        (Some(t), Pat::AnyId) => t.kind == TokenKind::Ident,
        (Some(t), Pat::Pu(s)) => t.is_punct(s),
        _ => false,
    })
}

/// Build a diagnostic anchored at a token (severity is stamped by the
/// engine).
pub(crate) fn diag_at(file: &SourceFile, t: &Token, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        file: file.path.clone(),
        line: t.line,
        col: t.col,
        rule,
        severity: Severity::Deny,
        message,
    }
}

// ---------------------------------------------------------------------------
// The engine-level stale-escape rule (registered so it lists/documents
// like any other; its diagnostics are produced by `engine::run`)
// ---------------------------------------------------------------------------

/// `unused-allow`: a `lint:allow(<rule>)` comment that suppresses zero
/// diagnostics — or names a rule that does not exist — is itself a
/// violation. The check lives in [`crate::engine::run`] because it
/// needs the usage ledger across every rule; this type only carries the
/// rule's identity for `--list` and the doc tables.
pub struct UnusedAllow;

impl Rule for UnusedAllow {
    fn id(&self) -> &'static str {
        UNUSED_ALLOW
    }
    fn summary(&self) -> &'static str {
        "a `lint:allow(<rule>)` escape that suppresses zero diagnostics (stale or unknown rule) — delete it"
    }
    fn scope(&self) -> Scope {
        Scope { desc: "every `.rs` file", applies: every_file }
    }
    fn check(&self, _file: &SourceFile, _out: &mut Vec<Diagnostic>) {
        // Emitted by engine::run from the suppression ledger.
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Every rule, in the order the doc tables present them: the nine
/// migrated substring-era rules first, then the determinism family this
/// engine was built to express, then the stale-escape check.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(panics::NoUnwrap),
        Box::new(panics::NoPanicInLib),
        Box::new(panics::NoPrintlnInLib),
        Box::new(determinism::NoFloatTime),
        Box::new(determinism::NoWallclock),
        Box::new(safety::NoUnsafe),
        Box::new(safety::ForbidUnsafeAttr),
        Box::new(docs::AqmDocCite),
        Box::new(docs::FaultKindDoc),
        Box::new(determinism::NoHashIter),
        Box::new(determinism::NoThreadOutsideRunner),
        Box::new(determinism::NoAmbientEntropy),
        Box::new(determinism::NoRawTickArith),
        Box::new(docs::ExhaustiveKindTags),
        Box::new(docs::ScenarioStepDoc),
        Box::new(docs::CcDocCite),
        Box::new(determinism::NoProcessEnvInLib),
        Box::new(UnusedAllow),
    ]
}

/// Levenshtein distance between two ASCII-ish strings (two-row DP).
/// Small inputs only — rule ids are short.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The registered rule id closest to a mistyped `id`, when one is
/// plausibly close (same convention as `figs scenario <id>`): ties
/// break alphabetically, and anything farther than half the input's
/// length plus slack is no suggestion at all.
pub fn nearest_rule(id: &str) -> Option<&'static str> {
    registry()
        .iter()
        .map(|r| (edit_distance(id, r.id()), r.id()))
        .min()
        .filter(|&(d, _)| d <= id.len() / 2 + 2)
        .map(|(_, name)| name)
}

/// The ids of the nine rules migrated from the substring engine — the
/// set the old-vs-new differential self-test compares.
pub const MIGRATED_RULES: &[&str] = &[
    "no-unwrap",
    "no-panic-in-lib",
    "no-println-in-lib",
    "no-float-time",
    "no-wallclock",
    "no-unsafe",
    "forbid-unsafe-attr",
    "aqm-doc-cite",
    "fault-kind-doc",
];

/// One markdown row of the rule table, exactly as `--list` prints it
/// and as the doc tables in `xtask/src/lint.rs` and `README.md` embed
/// it (a self-test asserts the three cannot drift).
pub fn table_row(rule: &dyn Rule) -> String {
    format!(
        "| `{}` | {} | {} | {} |",
        rule.id(),
        rule.severity().as_str(),
        rule.scope().desc,
        rule.summary()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn registry_ids_are_unique_and_kebab_case() {
        let rules = registry();
        let mut ids: Vec<&str> = rules.iter().map(|r| r.id()).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate rule ids");
        for id in ids {
            assert!(
                id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "rule id `{id}` is not kebab-case"
            );
        }
    }

    #[test]
    fn registry_covers_migrated_and_determinism_families() {
        let rules = registry();
        let ids: Vec<&str> = rules.iter().map(|r| r.id()).collect();
        for m in MIGRATED_RULES {
            assert!(ids.contains(m), "migrated rule `{m}` missing");
        }
        for d in [
            "no-hash-iter",
            "no-thread-outside-runner",
            "no-ambient-entropy",
            "no-raw-tick-arith",
            "exhaustive-kind-tags",
            "scenario-step-doc",
            "cc-doc-cite",
            "no-process-env-in-lib",
            "unused-allow",
        ] {
            assert!(ids.contains(&d), "rule `{d}` missing");
        }
        assert_eq!(rules.len(), 18);
    }

    #[test]
    fn nearest_rule_suggests_and_gives_up() {
        assert_eq!(nearest_rule("no-unwarp"), Some("no-unwrap"));
        assert_eq!(nearest_rule("scenario-step-docs"), Some("scenario-step-doc"));
        assert_eq!(nearest_rule("exhaustive-kind-tag"), Some("exhaustive-kind-tags"));
        // An exact id is its own nearest match (distance zero).
        assert_eq!(nearest_rule("unused-allow"), Some("unused-allow"));
        // Nothing plausibly close: stay silent rather than mislead.
        assert_eq!(nearest_rule("zzz"), None);
    }

    #[test]
    fn scope_predicates() {
        let p = PathBuf::from;
        assert!(in_no_unwrap_crates(&p("crates/sim/src/engine.rs")));
        assert!(!in_no_unwrap_crates(&p("crates/sim/tests/t.rs")));
        assert!(!in_no_unwrap_crates(&p("crates/stats/src/lib.rs")));
        assert!(in_lib_src(&p("crates/stats/src/lib.rs")));
        assert!(in_lib_src(&p("src/lib.rs")));
        assert!(!in_lib_src(&p("crates/experiments/src/bin/tcnsim.rs")));
        assert!(!in_lib_src(&p("examples/leaf_spine.rs")));
        assert!(!println_scope(&p("crates/experiments/src/figs.rs")));
        assert!(println_scope(&p("crates/net/src/port.rs")));
        assert!(!outside_time_sanctuary(&p("crates/sim/src/time.rs")));
        assert!(outside_time_sanctuary(&p("crates/sim/src/engine.rs")));
        assert!(!wallclock_scope(&p("xtask/src/main.rs")));
        assert!(!thread_scope(&p("crates/experiments/src/runner.rs")));
        assert!(thread_scope(&p("crates/experiments/src/figs.rs")));
        assert!(!thread_scope(&p("crates/bench/src/bin/benchmark/measure.rs")));
        assert!(crate_root(&p("crates/net/src/lib.rs")));
        assert!(crate_root(&p("xtask/src/main.rs")));
        assert!(!crate_root(&p("crates/net/src/port.rs")));
        assert!(aqm_scope(&p("crates/baselines/src/red.rs")));
        assert!(!aqm_scope(&p("crates/net/src/port.rs")));
    }
}
