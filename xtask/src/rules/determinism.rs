//! The determinism rule family: the byte-identity discipline that makes
//! a sweep reproducible from `(config, seed)` alone. Each rule names one
//! way nondeterminism historically sneaks into a DES — hash-order
//! iteration, ambient threads, ambient entropy, wall clocks, hidden
//! inputs read from the process environment, and raw arithmetic on tick
//! counts outside the checked `Time` sanctuary.

use crate::engine::{Diagnostic, Rule, Scope, SourceFile};
use crate::lex::TokenKind;
use crate::rules::{
    diag_at, env_scope, every_file, outside_time_sanctuary, seq_at, thread_scope, wallclock_scope,
    Pat,
};

/// `no-float-time`: raw tick counts must not be cast to floats outside
/// the `Time` module — use `as_secs_f64()` / `as_us_f64()` which carry
/// their unit in the name. Token pattern: `. as_xx ( ) as f64|f32`.
pub struct NoFloatTime;

const TICK_ACCESSORS: &[&str] = &["as_ps", "as_ns", "as_us", "as_ms"];

impl Rule for NoFloatTime {
    fn id(&self) -> &'static str {
        "no-float-time"
    }
    fn summary(&self) -> &'static str {
        "`.as_ps() as f64`-style raw picosecond float casts — use the named `Time` accessors"
    }
    fn scope(&self) -> Scope {
        Scope { desc: "every `.rs` file except `sim/src/time.rs`", applies: outside_time_sanctuary }
    }
    fn exempts_tests(&self) -> bool {
        true
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let code = &file.code;
        for i in 0..code.len() {
            for m in TICK_ACCESSORS {
                for ty in ["f64", "f32"] {
                    let pat = [
                        Pat::Pu("."),
                        Pat::Id(m),
                        Pat::Pu("("),
                        Pat::Pu(")"),
                        Pat::Id("as"),
                        Pat::Id(ty),
                    ];
                    if seq_at(code, i, &pat) {
                        out.push(diag_at(
                            file,
                            &code[i],
                            self.id(),
                            format!(
                                "`.{m}() as {ty}` casts a raw tick count to float; use \
                                 Time::as_secs_f64()/as_us_f64() (only sim/src/time.rs \
                                 may do raw conversions)"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// `no-wallclock`: host-clock reads outside the sanctuaries. Applies to
/// test code too — tests must be as deterministic as the simulator they
/// check.
pub struct NoWallclock;

impl Rule for NoWallclock {
    fn id(&self) -> &'static str {
        "no-wallclock"
    }
    fn summary(&self) -> &'static str {
        "host-clock reads (`std::time::Instant`, `SystemTime`) — simulation code runs on virtual `Time` only"
    }
    fn scope(&self) -> Scope {
        Scope { desc: "every `.rs` file except `crates/bench/`, `xtask/`", applies: wallclock_scope }
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let code = &file.code;
        let pats: &[(&[Pat], &str)] = &[
            (
                &[Pat::Id("std"), Pat::Pu("::"), Pat::Id("time"), Pat::Pu("::"), Pat::Id("Instant")],
                "std::time::Instant",
            ),
            (&[Pat::Id("Instant"), Pat::Pu("::"), Pat::Id("now")], "Instant::now"),
            (&[Pat::Id("SystemTime")], "SystemTime"),
        ];
        for i in 0..code.len() {
            for (pat, needle) in pats {
                if seq_at(code, i, pat) {
                    out.push(diag_at(
                        file,
                        &code[i],
                        self.id(),
                        format!(
                            "`{needle}` reads the host clock; simulation code runs on \
                             virtual Time only (wall-clock timing belongs in \
                             crates/bench or xtask)"
                        ),
                    ));
                }
            }
        }
    }
}

/// `no-hash-iter`: `HashMap` / `HashSet` anywhere in the repo. Their
/// iteration order depends on `RandomState`'s per-process seed, so any
/// loop, `extend`, or debug dump over one is a nondeterminism hazard —
/// and at token level we cannot see which uses iterate, so the type
/// itself is banned in favour of `BTreeMap` / `BTreeSet` (deterministic
/// order, and every key this repo indexes by is `Ord`). Tests get no
/// exemption: a test that observes hash order flakes.
pub struct NoHashIter;

impl Rule for NoHashIter {
    fn id(&self) -> &'static str {
        "no-hash-iter"
    }
    fn summary(&self) -> &'static str {
        "`HashMap` / `HashSet` (hash-order iteration is seeded per process) — use `BTreeMap` / `BTreeSet`"
    }
    fn scope(&self) -> Scope {
        Scope { desc: "every `.rs` file (tests included)", applies: every_file }
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        for t in &file.code {
            for name in ["HashMap", "HashSet"] {
                if t.is_ident(name) {
                    out.push(diag_at(
                        file,
                        t,
                        self.id(),
                        format!(
                            "`{name}` iterates in RandomState order — use \
                             BTreeMap/BTreeSet (deterministic, Ord keys), or append \
                             `lint:allow(no-hash-iter): <why order is provably \
                             unobservable>`"
                        ),
                    ));
                }
            }
        }
    }
}

/// `no-thread-outside-runner`: `std::thread` use outside the sweep
/// runner. Threads reorder everything they touch; the runner is the one
/// module engineered to thread deterministically (canonical merge
/// order, byte-identical at any worker count), so all parallelism must
/// route through it.
pub struct NoThreadOutsideRunner;

impl Rule for NoThreadOutsideRunner {
    fn id(&self) -> &'static str {
        "no-thread-outside-runner"
    }
    fn summary(&self) -> &'static str {
        "`std::thread` use outside the deterministic sweep runner — route parallelism through it"
    }
    fn scope(&self) -> Scope {
        Scope {
            desc: "every `.rs` file except `experiments/src/runner.rs`, `crates/bench/`, `xtask/`",
            applies: thread_scope,
        }
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let code = &file.code;
        let pats: &[(&[Pat], &str)] = &[
            (&[Pat::Id("std"), Pat::Pu("::"), Pat::Id("thread")], "std::thread"),
            (&[Pat::Id("thread"), Pat::Pu("::"), Pat::Id("spawn")], "thread::spawn"),
            (&[Pat::Id("thread"), Pat::Pu("::"), Pat::Id("scope")], "thread::scope"),
            (&[Pat::Id("thread"), Pat::Pu("::"), Pat::Id("Builder")], "thread::Builder"),
        ];
        for i in 0..code.len() {
            for (pat, needle) in pats {
                if seq_at(code, i, pat) {
                    out.push(diag_at(
                        file,
                        &code[i],
                        self.id(),
                        format!(
                            "`{needle}` outside the sweep runner: threads reorder \
                             events and merges — route parallelism through \
                             experiments::runner (deterministic at any worker count)"
                        ),
                    ));
                }
            }
        }
    }
}

/// `no-ambient-entropy`: randomness sources the seed does not control.
/// Every random draw in this repo must come from the run's seeded
/// `Rng` (and its derived sub-streams) so that `(config, seed)` fully
/// determines the output bytes.
pub struct NoAmbientEntropy;

const ENTROPY_IDENTS: &[&str] = &[
    "RandomState",
    "DefaultHasher",
    "thread_rng",
    "from_entropy",
    "getrandom",
    "OsRng",
];

impl Rule for NoAmbientEntropy {
    fn id(&self) -> &'static str {
        "no-ambient-entropy"
    }
    fn summary(&self) -> &'static str {
        "ambient randomness (`RandomState`, `thread_rng`, `OsRng`, …) — draw from the run's seeded `Rng`"
    }
    fn scope(&self) -> Scope {
        Scope { desc: "every `.rs` file (tests included)", applies: every_file }
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        for t in &file.code {
            for name in ENTROPY_IDENTS {
                if t.is_ident(name) {
                    out.push(diag_at(
                        file,
                        t,
                        self.id(),
                        format!(
                            "`{name}` is entropy the seed does not control — derive \
                             randomness from the run's `Rng::stream` sub-streams so \
                             `(config, seed)` determines every byte"
                        ),
                    ));
                }
            }
        }
    }
}

/// `no-process-env-in-lib`: library code reading (or writing) the
/// process arguments or environment. A result must be a function of
/// values handed down from the binary edge — `RunOptions::parse` in the
/// experiments crate is the one reader — or "what produced this file"
/// has no answer. `env::temp_dir`, `env!` and `option_env!` are not
/// run inputs and stay legal. Tests get no exemption: a unit test that
/// reads the environment passes or fails by who runs it.
pub struct NoProcessEnvInLib;

const PROCESS_ENV_FNS: &[&str] =
    &["args", "args_os", "var", "var_os", "vars", "set_var", "remove_var"];

impl Rule for NoProcessEnvInLib {
    fn id(&self) -> &'static str {
        "no-process-env-in-lib"
    }
    fn summary(&self) -> &'static str {
        "`env::args` / `env::var` / `env::set_var` (and kin) in library code — take the value as an argument from the binary's `RunOptions`"
    }
    fn scope(&self) -> Scope {
        Scope {
            desc: "library `src/` trees except `src/bin/` and `main.rs` (so not `benches/`, `examples/`, `tests/`, `xtask/`)",
            applies: env_scope,
        }
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let code = &file.code;
        for i in 0..code.len() {
            if !seq_at(code, i, &[Pat::Id("env"), Pat::Pu("::"), Pat::AnyId]) {
                continue;
            }
            let name = code[i + 2].text.as_str();
            if PROCESS_ENV_FNS.contains(&name) {
                out.push(diag_at(
                    file,
                    &code[i],
                    self.id(),
                    format!(
                        "`env::{name}` makes the process environment a hidden input of \
                         library code — parse it once at the binary edge \
                         (`RunOptions::parse`) and pass the value down"
                    ),
                ));
            }
        }
    }
}

/// `no-raw-tick-arith`: `+`/`-` on raw `.as_ps()`-style tick counts
/// outside the `Time` sanctuary. Raw u64 arithmetic wraps silently in
/// release builds; `Time`'s own operators are overflow-checked, so the
/// add/subtract must happen on `Time` and the conversion at the edge.
/// Scaling (`*`, `/`, `%` — quantization, rate math) is left alone.
pub struct NoRawTickArith;

const ARITH: &[&str] = &["+", "-", "+=", "-="];

impl Rule for NoRawTickArith {
    fn id(&self) -> &'static str {
        "no-raw-tick-arith"
    }
    fn summary(&self) -> &'static str {
        "`+`/`-` on a raw `.as_ps()` tick count — do the arithmetic on `Time` (checked), convert at the edge"
    }
    fn scope(&self) -> Scope {
        Scope { desc: "every `.rs` file except `sim/src/time.rs`", applies: outside_time_sanctuary }
    }
    fn exempts_tests(&self) -> bool {
        true
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let code = &file.code;
        for i in 0..code.len() {
            let is_call = TICK_ACCESSORS.iter().any(|m| {
                seq_at(code, i, &[Pat::Pu("."), Pat::Id(m), Pat::Pu("("), Pat::Pu(")")])
            });
            if !is_call {
                continue;
            }
            let accessor = &code[i + 1].text;
            // `….as_ps() + …` / `….as_ps() - …`
            let after = code.get(i + 4);
            let flagged_after =
                after.is_some_and(|t| t.kind == TokenKind::Punct && ARITH.contains(&t.text.as_str()));
            // `… + x.as_ps()`: walk back over the receiver chain
            // (idents, field/path separators, balanced groups) to the
            // operator that feeds it.
            let flagged_before = {
                let start = receiver_start(code, i);
                start > 0
                    && code[start - 1].kind == TokenKind::Punct
                    && ARITH.contains(&code[start - 1].text.as_str())
            };
            if flagged_after || flagged_before {
                out.push(diag_at(
                    file,
                    &code[i],
                    self.id(),
                    format!(
                        "`+`/`-` on a raw `.{accessor}()` tick count wraps silently in \
                         release builds — do the arithmetic on `Time` (checked, in \
                         sim/src/time.rs) and convert at the edge, or append \
                         `lint:allow(no-raw-tick-arith): <why>`"
                    ),
                ));
            }
        }
    }
}

/// Index where the receiver expression of the method call whose `.`
/// sits at `code[dot]` begins: walks back over identifiers, `.`/`::`
/// separators, and balanced `(…)` / `[…]` groups.
fn receiver_start(code: &[crate::lex::Token], dot: usize) -> usize {
    let mut k = dot;
    while k > 0 {
        let t = &code[k - 1];
        if t.kind == TokenKind::Ident || t.is_punct(".") || t.is_punct("::") {
            k -= 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            let (open, close) = if t.is_punct(")") { ("(", ")") } else { ("[", "]") };
            let mut depth = 0i64;
            let mut j = k - 1;
            loop {
                if code[j].is_punct(close) {
                    depth += 1;
                } else if code[j].is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            k = j;
        } else {
            break;
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use std::path::PathBuf;

    fn lint_one(path: &str, src: &str, rule: Box<dyn Rule>) -> Vec<Diagnostic> {
        run(
            &[SourceFile::new(PathBuf::from(path), src.to_string())],
            &[rule],
        )
    }

    #[test]
    fn float_time_cast_is_caught_and_named_accessor_is_clean() {
        let d = lint_one(
            "crates/net/src/x.rs",
            "pub fn f(t: Time) -> f64 {\n    t.as_ps() as f64\n}\n",
            Box::new(NoFloatTime),
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        assert!(lint_one(
            "crates/net/src/x.rs",
            "pub fn f(t: Time) -> f64 {\n    t.as_us_f64()\n}\n",
            Box::new(NoFloatTime)
        )
        .is_empty());
    }

    #[test]
    fn wallclock_is_caught_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::SystemTime::now(); }\n}\n";
        let d = lint_one("crates/net/src/x.rs", src, Box::new(NoWallclock));
        assert_eq!(d.len(), 1, "tests get no wallclock exemption");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn wallclock_full_path_dedupes_to_one_diag() {
        let src = "pub fn f() {\n    let t0 = std::time::Instant::now();\n    let _ = t0;\n}\n";
        let d = lint_one("crates/net/src/x.rs", src, Box::new(NoWallclock));
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn wallclock_in_comment_or_string_is_clean() {
        let src = "// Instant::now is banned\nlet s = \"std::time::Instant\";\n";
        assert!(lint_one("crates/net/src/x.rs", src, Box::new(NoWallclock)).is_empty());
    }

    #[test]
    fn hash_map_is_caught_in_tests_too() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        let d = lint_one("crates/net/src/x.rs", src, Box::new(NoHashIter));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("BTreeMap"));
    }

    #[test]
    fn btree_map_and_hash_in_string_are_clean() {
        let src = "use std::collections::BTreeMap;\nlet s = \"HashMap\"; // HashMap in a comment\n";
        assert!(lint_one("crates/net/src/x.rs", src, Box::new(NoHashIter)).is_empty());
    }

    #[test]
    fn thread_spawn_is_caught_outside_runner_only() {
        let src = "pub fn f() {\n    std::thread::spawn(|| {});\n}\n";
        let d = lint_one("crates/net/src/x.rs", src, Box::new(NoThreadOutsideRunner));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(lint_one(
            "crates/experiments/src/runner.rs",
            src,
            Box::new(NoThreadOutsideRunner)
        )
        .is_empty());
        assert!(lint_one(
            "crates/bench/src/bin/benchmark/measure.rs",
            src,
            Box::new(NoThreadOutsideRunner)
        )
        .is_empty());
    }

    #[test]
    fn ambient_entropy_idents_are_caught() {
        for (frag, name) in [
            ("use std::collections::hash_map::RandomState;", "RandomState"),
            ("let h = DefaultHasher::new();", "DefaultHasher"),
            ("let r = thread_rng();", "thread_rng"),
        ] {
            let d = lint_one(
                "crates/net/src/x.rs",
                &format!("{frag}\n"),
                Box::new(NoAmbientEntropy),
            );
            assert_eq!(d.len(), 1, "{name}");
            assert!(d[0].message.contains(name), "{}", d[0].message);
        }
    }

    #[test]
    fn process_env_reads_are_caught_in_lib_code_only() {
        let src = "pub fn f() -> bool {\n    std::env::args().any(|a| a == \"--full\")\n}\n";
        let d = lint_one("crates/experiments/src/figs.rs", src, Box::new(NoProcessEnvInLib));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 2);
        for path in [
            "crates/experiments/src/bin/figs.rs",
            "crates/fake/src/main.rs",
            "crates/sim/tests/engine_differential.rs",
            "examples/leaf_spine.rs",
            "tests/determinism.rs",
            "xtask/src/main.rs",
        ] {
            assert!(lint_one(path, src, Box::new(NoProcessEnvInLib)).is_empty(), "{path}");
        }
        let fine = "let d = std::env::temp_dir();\nlet m = env!(\"CARGO_MANIFEST_DIR\");\n";
        assert!(lint_one("crates/net/src/x.rs", fine, Box::new(NoProcessEnvInLib)).is_empty());
    }

    #[test]
    fn raw_tick_add_is_caught_in_both_directions() {
        let d = lint_one(
            "crates/net/src/x.rs",
            "let x = t.as_ps() + 1;\n",
            Box::new(NoRawTickArith),
        );
        assert_eq!(d.len(), 1, "{d:?}");
        let d = lint_one(
            "crates/net/src/x.rs",
            "let x = 1 + self.profile.jitter.as_ps();\n",
            Box::new(NoRawTickArith),
        );
        assert_eq!(d.len(), 1, "operator feeding the receiver: {d:?}");
        let d = lint_one(
            "crates/net/src/x.rs",
            "let x = f(a, b).as_ps() - g();\n",
            Box::new(NoRawTickArith),
        );
        assert_eq!(d.len(), 1, "call receiver: {d:?}");
    }

    #[test]
    fn tick_scaling_and_comparisons_are_clean() {
        for src in [
            "let q = Time::from_ps(t.as_ps() / w * w);\n",
            "let ok = a.as_ps() >= b.as_ps();\n",
            "let v = t.as_ps();\n",
            "let s = t.as_secs_f64() + 1.0;\n",
        ] {
            let d = lint_one("crates/net/src/x.rs", src, Box::new(NoRawTickArith));
            assert!(d.is_empty(), "{src}: {d:?}");
        }
    }

    #[test]
    fn raw_tick_arith_in_tests_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = x.as_ps() + 1; }\n}\n";
        assert!(lint_one("crates/net/src/x.rs", src, Box::new(NoRawTickArith)).is_empty());
    }

    #[test]
    fn time_sanctuary_is_out_of_scope_for_tick_rules() {
        let src = "let x = t.as_ps() + 1;\nlet y = t.as_ps() as f64;\n";
        assert!(lint_one("crates/sim/src/time.rs", src, Box::new(NoRawTickArith)).is_empty());
        assert!(lint_one("crates/sim/src/time.rs", src, Box::new(NoFloatTime)).is_empty());
    }
}
