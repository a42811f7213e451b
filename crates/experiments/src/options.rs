//! The one place command-line flags and `TCN_*` environment variables
//! enter the program.
//!
//! [`RunOptions::parse`] is a pure function of the argument list and an
//! environment lookup; `bin/figs.rs` and `bin/tcnsim.rs` call it once,
//! before anything runs, and hand the result down. Library code never
//! reads the process environment (`cargo xtask lint` enforces it with
//! `no-process-env-in-lib`), so the `Debug` rendering of one
//! [`RunOptions`] is the complete list of inputs behind a result.
//!
//! Parsing is strict: an unknown flag, a missing or malformed value and
//! a malformed environment value are all errors. Where a value has both
//! spellings (`--threads` / `TCN_THREADS`, `--seeds` / `TCN_FUZZ_SEEDS`)
//! the flag wins. An environment variable that is set but blank counts
//! as unset.

use std::path::PathBuf;
use std::str::FromStr;

use tcn_net::Watchdog;

use crate::common::Scale;
use crate::fct_sweep::SweepOpts;
use crate::json::ToJson;
use crate::runner::default_threads;
use crate::scenario::library::nearest_of;
use crate::scenario::FuzzOpts;

/// The scale preset flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// `--quick`: CI scale.
    Quick,
    /// `--medium`: the scale EXPERIMENTS.md records.
    Medium,
    /// `--full`: the paper's flow counts, load sweep and fabric.
    Full,
}

/// Every value a run can be given from outside, parsed once. `None`
/// and `false` mean "not given"; the default then comes from whoever
/// consumes the value ([`Scale`], [`SweepOpts`], [`FuzzOpts`], the
/// figure), so no default is written down twice.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOptions {
    /// `--quick|--medium|--full`. `None` is distinct from `--quick`:
    /// sweeps default to quick scale, while `figs mixed` and
    /// `figs scenario` shorten their runs only when it is given.
    pub preset: Option<Preset>,
    /// `--flows N`: flows per sweep cell, or `figs fairness`' flow count.
    pub flows: Option<usize>,
    /// `--seed N`.
    pub seed: Option<u64>,
    /// `--loads a,b,…`: the loads a sweep visits.
    pub loads: Option<&'static [f64]>,
    /// `--json`: also write `results/<name>.json`.
    pub json: bool,
    /// `--svg`: also write `results/<name>.svg` charts.
    pub svg: bool,
    /// `--trace`: figs 2 and 3 print their time series as CSV.
    pub trace: bool,
    /// `--cdf`: fig 4 prints its CDF points as CSV.
    pub cdf: bool,
    /// `--fanout N`: senders per wave of `figs incast`.
    pub fanout: Option<usize>,
    /// `--threads N`, else `TCN_THREADS`: sweep workers (output is
    /// byte-identical at any count). `None` means the host's parallelism.
    pub threads: Option<usize>,
    /// `--trace-out F`: JSONL telemetry trace of `figs mixed` or of one
    /// `figs scenario`.
    pub trace_out: Option<PathBuf>,
    /// `--out F`: where `figs trace` writes its JSONL trace.
    pub out: Option<PathBuf>,
    /// `--tag T`: filter of `figs scenario list`.
    pub tag: Option<String>,
    /// `--seeds N`, else `TCN_FUZZ_SEEDS`: scenarios `figs fuzz` generates
    /// (16 when absent).
    pub fuzz_seeds: Option<usize>,
    /// `TCN_FUZZ_STEP_BUDGET`: most steps in one generated scenario.
    pub fuzz_step_budget: Option<usize>,
    /// `TCN_CHECKPOINT`: JSONL file for kill-and-resume of a sweep or of
    /// `figs scenario all`.
    pub checkpoint: Option<PathBuf>,
    /// `TCN_RETRY_ATTEMPTS`: attempts per sweep cell before quarantine.
    pub retry_attempts: Option<u32>,
    /// `TCN_STALL_BUDGET`: events at one simulated instant before a cell
    /// counts as stalled; 0 disables the watchdog.
    pub stall_budget: Option<u64>,
    /// `TCN_EVENT_BUDGET`: absolute event cap per cell.
    pub event_budget: Option<u64>,
    /// `TCN_ABORT_AFTER_CELLS`: exit 3 after this many newly completed
    /// cells (the resume test's simulated kill).
    pub abort_after_cells: Option<usize>,
    /// `TCN_INJECT_PANIC`: grid cell that panics on every attempt.
    pub inject_panic: Option<usize>,
}

/// Every flag, for the unknown-flag suggestion.
const FLAGS: &[&str] = &[
    "--quick", "--medium", "--full", "--flows", "--seed", "--loads", "--json", "--svg",
    "--trace", "--cdf", "--fanout", "--threads", "--trace-out", "--out", "--tag", "--seeds",
];

fn number<T: FromStr>(name: &str, text: &str) -> Result<T, String> {
    text.trim()
        .parse()
        .map_err(|_| format!("{name}: `{text}` is not a non-negative integer in range"))
}

fn loads(text: &str) -> Result<&'static [f64], String> {
    let loads = text
        .split(',')
        .map(|s| match s.trim().parse::<f64>() {
            Ok(load) if load.is_finite() && load > 0.0 => Ok(load),
            _ => Err(format!("--loads: `{s}` in `{text}` is not a positive number")),
        })
        .collect::<Result<Vec<f64>, String>>()?;
    // `Scale` is a plain `Copy` struct with a `'static` load list; the
    // options are parsed once per process, so the list is leaked.
    Ok(Box::leak(loads.into_boxed_slice()))
}

impl RunOptions {
    /// Split `args` (the process arguments after the program name) into
    /// the options and the positional words, reading `TCN_*` variables
    /// through `env`.
    ///
    /// # Errors
    /// One line naming the offending flag or variable; the binaries print
    /// it and exit 2.
    pub fn parse(
        args: &[String],
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<(RunOptions, Vec<String>), String> {
        let env_number = |name: &str| -> Result<Option<u64>, String> {
            match env(name) {
                Some(v) if !v.trim().is_empty() => number(name, &v).map(Some),
                _ => Ok(None),
            }
        };
        let mut o = RunOptions::default();
        let mut words = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || {
                it.next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{arg} needs a value"))
            };
            let preset = |o: &mut RunOptions, p: Preset| match o.preset.replace(p) {
                Some(earlier) if earlier != p => {
                    Err(format!("{arg} conflicts with an earlier scale preset"))
                }
                _ => Ok(()),
            };
            match arg.as_str() {
                "--quick" => preset(&mut o, Preset::Quick)?,
                "--medium" => preset(&mut o, Preset::Medium)?,
                "--full" => preset(&mut o, Preset::Full)?,
                "--flows" => o.flows = Some(number(arg, value()?)?),
                "--seed" => o.seed = Some(number(arg, value()?)?),
                "--loads" => o.loads = Some(loads(value()?)?),
                "--json" => o.json = true,
                "--svg" => o.svg = true,
                "--trace" => o.trace = true,
                "--cdf" => o.cdf = true,
                "--fanout" => o.fanout = Some(number(arg, value()?)?),
                "--threads" => o.threads = Some(number(arg, value()?)?),
                "--trace-out" => o.trace_out = Some(PathBuf::from(value()?)),
                "--out" => o.out = Some(PathBuf::from(value()?)),
                "--tag" => o.tag = Some(value()?.clone()),
                "--seeds" => o.fuzz_seeds = Some(number(arg, value()?)?),
                flag if flag.starts_with('-') => {
                    return Err(match nearest_of(flag, FLAGS.iter().copied()) {
                        Some(close) => format!("unknown flag `{flag}` — did you mean `{close}`?"),
                        None => format!("unknown flag `{flag}`"),
                    });
                }
                word => words.push(word.to_string()),
            }
        }
        // A malformed variable is an error even when a flag overrides it.
        let env_threads = env_number("TCN_THREADS")?.map(|n| n as usize);
        o.threads = o.threads.or(env_threads).map(|n| n.max(1));
        let env_seeds = env_number("TCN_FUZZ_SEEDS")?.map(|n| n as usize);
        o.fuzz_seeds = o.fuzz_seeds.or(env_seeds);
        o.fuzz_step_budget = env_number("TCN_FUZZ_STEP_BUDGET")?.map(|n| (n as usize).max(1));
        o.checkpoint = env("TCN_CHECKPOINT")
            .filter(|p| !p.trim().is_empty())
            .map(PathBuf::from);
        o.retry_attempts = env_number("TCN_RETRY_ATTEMPTS")?
            .map(|n| u32::try_from(n).unwrap_or(u32::MAX).max(1));
        o.stall_budget = env_number("TCN_STALL_BUDGET")?;
        o.event_budget = env_number("TCN_EVENT_BUDGET")?.filter(|&n| n > 0);
        o.abort_after_cells = env_number("TCN_ABORT_AFTER_CELLS")?.map(|n| n as usize);
        o.inject_panic = env_number("TCN_INJECT_PANIC")?.map(|n| n as usize);
        Ok((o, words))
    }

    /// The sweep scale: the preset (quick when absent; `testbed` picks
    /// the paper's flow count under `--full`) with `--flows`, `--seed`
    /// and `--loads` applied on top.
    pub fn scale(&self, testbed: bool) -> Scale {
        let mut scale = match self.preset {
            Some(Preset::Full) => Scale::full(testbed),
            Some(Preset::Medium) => Scale::medium(),
            Some(Preset::Quick) | None => Scale::quick(),
        };
        scale.flows = self.flows.unwrap_or(scale.flows);
        scale.seed = self.seed.unwrap_or(scale.seed);
        scale.loads = self.loads.unwrap_or(scale.loads);
        scale
    }

    /// Was `--quick` given?
    pub fn quick(&self) -> bool {
        self.preset == Some(Preset::Quick)
    }

    /// Was `--full` given?
    pub fn full(&self) -> bool {
        self.preset == Some(Preset::Full)
    }

    /// Worker threads: the configured count, else the host's parallelism.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(default_threads)
    }

    /// The resilience harness settings of a sweep: [`SweepOpts`]'
    /// defaults with what was given applied on top.
    pub fn sweep(&self) -> SweepOpts {
        let default = SweepOpts::default();
        let watchdog = match self.stall_budget {
            Some(0) => None,
            Some(stall) => Some(Watchdog::new(stall)),
            None => default.watchdog,
        };
        SweepOpts {
            threads: self.threads(),
            attempts: self.retry_attempts.unwrap_or(default.attempts),
            watchdog: match self.event_budget {
                Some(total) => watchdog.map(|wd| wd.with_total_budget(total)),
                None => watchdog,
            },
            checkpoint: self.checkpoint.clone(),
            abort_after: self.abort_after_cells,
            inject_panic: self.inject_panic,
        }
    }

    /// The scenario fuzzer's settings: [`FuzzOpts`]' defaults for 16
    /// seeds with what was given applied on top.
    pub fn fuzz(&self) -> FuzzOpts {
        let default = FuzzOpts::new(self.fuzz_seeds.unwrap_or(16));
        FuzzOpts {
            step_budget: self.fuzz_step_budget.unwrap_or(default.step_budget),
            threads: self.threads(),
            ..default
        }
    }

    /// Write `results/<name>.json` when `--json` was given. Prints the
    /// path on success; failures are reported, not fatal (the table on
    /// stdout is the primary output).
    pub fn write_json<T: ToJson>(&self, name: &str, value: &T) {
        if self.json {
            write_result(&format!("{name}.json"), &value.to_json().pretty());
        }
    }

    /// Write the chart `results/<name>.svg` when `--svg` was given.
    pub fn write_svg(&self, name: &str, svg: &str) {
        if self.svg {
            write_result(&format!("{name}.svg"), svg);
        }
    }
}

fn write_result(file: &str, text: &str) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("results dir: {e}");
        return;
    }
    let path = dir.join(file);
    match std::fs::write(&path, text) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `TCN_*` variables of one case, as `(name, value)` pairs.
    type Env = [(&'static str, &'static str)];

    fn parse(args: &[&str], env: &Env) -> Result<(RunOptions, Vec<String>), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        RunOptions::parse(&args, |name| {
            env.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string())
        })
    }

    fn opts(args: &[&str], env: &Env) -> RunOptions {
        parse(args, env).unwrap_or_else(|e| panic!("{args:?} {env:?}: {e}")).0
    }

    #[test]
    fn nothing_given_is_the_defaults_and_no_words() {
        assert_eq!(parse(&[], &[]), Ok((RunOptions::default(), vec![])));
        let d = RunOptions::default();
        assert_eq!(d.scale(true), Scale::quick());
        assert_eq!(d.threads(), default_threads());
        assert_eq!(format!("{:?}", d.sweep()), format!("{:?}", SweepOpts::default()));
        assert_eq!(format!("{:?}", d.fuzz()), format!("{:?}", FuzzOpts::new(16)));
    }

    /// Every flag and every variable lands in its own field.
    #[test]
    fn each_spelling_sets_exactly_its_field() {
        let d = RunOptions::default;
        let path = |p: &str| Some(PathBuf::from(p));
        let cases: Vec<(&[&str], &Env, RunOptions)> = vec![
            (&["--quick"], &[], RunOptions { preset: Some(Preset::Quick), ..d() }),
            (&["--medium"], &[], RunOptions { preset: Some(Preset::Medium), ..d() }),
            (&["--full"], &[], RunOptions { preset: Some(Preset::Full), ..d() }),
            (&["--flows", "10"], &[], RunOptions { flows: Some(10), ..d() }),
            (&["--seed", "7"], &[], RunOptions { seed: Some(7), ..d() }),
            (&["--loads", "0.3, 0.9"], &[], RunOptions { loads: Some(&[0.3, 0.9]), ..d() }),
            (&["--json"], &[], RunOptions { json: true, ..d() }),
            (&["--svg"], &[], RunOptions { svg: true, ..d() }),
            (&["--trace"], &[], RunOptions { trace: true, ..d() }),
            (&["--cdf"], &[], RunOptions { cdf: true, ..d() }),
            (&["--fanout", "48"], &[], RunOptions { fanout: Some(48), ..d() }),
            (&["--threads", "2"], &[], RunOptions { threads: Some(2), ..d() }),
            (&[], &[("TCN_THREADS", " 4 ")], RunOptions { threads: Some(4), ..d() }),
            (&[], &[("TCN_THREADS", "0")], RunOptions { threads: Some(1), ..d() }),
            (&["--trace-out", "t.jsonl"], &[], RunOptions { trace_out: path("t.jsonl"), ..d() }),
            (&["--out", "o.jsonl"], &[], RunOptions { out: path("o.jsonl"), ..d() }),
            (&["--tag", "incast"], &[], RunOptions { tag: Some("incast".into()), ..d() }),
            (&["--seeds", "3"], &[], RunOptions { fuzz_seeds: Some(3), ..d() }),
            (&[], &[("TCN_FUZZ_SEEDS", "9")], RunOptions { fuzz_seeds: Some(9), ..d() }),
            (&[], &[("TCN_FUZZ_STEP_BUDGET", "0")], RunOptions { fuzz_step_budget: Some(1), ..d() }),
            (&[], &[("TCN_CHECKPOINT", "ck")], RunOptions { checkpoint: path("ck"), ..d() }),
            (&[], &[("TCN_CHECKPOINT", " ")], d()),
            (&[], &[("TCN_RETRY_ATTEMPTS", "3")], RunOptions { retry_attempts: Some(3), ..d() }),
            (&[], &[("TCN_RETRY_ATTEMPTS", "0")], RunOptions { retry_attempts: Some(1), ..d() }),
            (&[], &[("TCN_STALL_BUDGET", "0")], RunOptions { stall_budget: Some(0), ..d() }),
            (&[], &[("TCN_EVENT_BUDGET", "200")], RunOptions { event_budget: Some(200), ..d() }),
            (&[], &[("TCN_EVENT_BUDGET", "0")], d()),
            (&[], &[("TCN_ABORT_AFTER_CELLS", "2")], RunOptions { abort_after_cells: Some(2), ..d() }),
            (&[], &[("TCN_INJECT_PANIC", "3")], RunOptions { inject_panic: Some(3), ..d() }),
            (&[], &[("TCN_INJECT_PANIC", "")], d()),
        ];
        for (args, env, want) in cases {
            assert_eq!(opts(args, env), want, "{args:?} {env:?}");
        }
    }

    #[test]
    fn a_flag_beats_its_environment_spelling_both_ways_round() {
        assert_eq!(opts(&["--threads", "2"], &[("TCN_THREADS", "8")]).threads, Some(2));
        assert_eq!(opts(&["--seeds", "3"], &[("TCN_FUZZ_SEEDS", "9")]).fuzz_seeds, Some(3));
        assert_eq!(opts(&["--seeds", "3"], &[("TCN_FUZZ_SEEDS", "9")]).fuzz().seeds, 3);
    }

    #[test]
    fn words_keep_their_order_and_flag_values_are_not_words() {
        let (o, words) = parse(&["trace", "fig10", "--out", "t.jsonl", "--full"], &[]).unwrap();
        assert_eq!(words, ["trace", "fig10"]);
        assert_eq!((o.out, o.preset), (Some(PathBuf::from("t.jsonl")), Some(Preset::Full)));
        let (_, words) = parse(&["--json", "cfg.json"], &[]).unwrap();
        assert_eq!(words, ["cfg.json"], "tcnsim takes its flags on either side");
    }

    #[test]
    fn absent_preset_is_not_quick() {
        let (absent, quick) = (opts(&[], &[]), opts(&["--quick"], &[]));
        assert_eq!(absent.scale(false), quick.scale(false), "sweeps default to quick scale");
        assert!(!absent.quick() && quick.quick(), "mixed and scenario test for the flag");
        let full = opts(&["--full", "--flows", "99", "--seed", "5", "--loads", "0.6"], &[]);
        let scale = Scale { flows: 99, loads: &[0.6], seed: 5 };
        assert_eq!(full.scale(false), scale);
        assert_eq!(opts(&["--full"], &[]).scale(true).flows, 5_000);
        assert_eq!(opts(&["--full"], &[]).scale(false).flows, 50_000);
        assert_eq!(opts(&["--medium"], &[]).scale(true), Scale::medium());
    }

    #[test]
    fn sweep_and_fuzz_settings_are_derived() {
        let o = opts(
            &["--threads", "3"],
            &[("TCN_RETRY_ATTEMPTS", "2"), ("TCN_EVENT_BUDGET", "500"), ("TCN_CHECKPOINT", "ck")],
        );
        let s = o.sweep();
        assert_eq!((s.threads, s.attempts), (3, 2));
        assert_eq!(s.checkpoint, Some(PathBuf::from("ck")));
        let wd = Watchdog::new(crate::fct_sweep::DEFAULT_STALL_BUDGET).with_total_budget(500);
        assert_eq!(format!("{:?}", s.watchdog), format!("{:?}", Some(wd)));
        assert!(opts(&[], &[("TCN_STALL_BUDGET", "0")]).sweep().watchdog.is_none());
        let f = opts(&["--seeds", "4"], &[("TCN_FUZZ_STEP_BUDGET", "9")]).fuzz();
        assert_eq!((f.seeds, f.step_budget), (4, 9));
    }

    #[test]
    fn everything_else_is_rejected() {
        let cases: Vec<(&[&str], &Env, &str)> = vec![
            (&["fig6", "--flws", "10"], &[], "unknown flag `--flws` — did you mean `--flows`?"),
            (&["--sed", "1"], &[], "unknown flag `--sed` — did you mean `--seed`?"),
            (&["--nonsense-entirely-unlike-anything"], &[], "unknown flag `--nonsense-entirely-unlike-anything`"),
            (&["-q"], &[], "unknown flag `-q`"),
            (&["--flows"], &[], "--flows needs a value"),
            (&["--out", "--json"], &[], "--out needs a value"),
            (&["--threads"], &[], "--threads needs a value"),
            (&["--flows", "abc"], &[], "--flows: `abc` is not a non-negative integer"),
            (&["--seed", "-1"], &[], "--seed: `-1` is not a non-negative integer"),
            (&["--fanout", "1.5"], &[], "--fanout: `1.5` is not a non-negative integer"),
            (&["--loads", ""], &[], "--loads: `` in `` is not a positive number"),
            (&["--loads", "0.5,x"], &[], "--loads: `x` in `0.5,x` is not a positive number"),
            (&["--loads", "0.5,0"], &[], "--loads: `0` in `0.5,0` is not a positive number"),
            (&["--loads", "0.5,,0.8"], &[], "--loads: `` in `0.5,,0.8` is not a positive number"),
            (&["--quick", "--full"], &[], "--full conflicts with an earlier scale preset"),
            (&[], &[("TCN_STALL_BUDGET", "abc")], "TCN_STALL_BUDGET: `abc` is not a non-negative integer"),
            (&[], &[("TCN_THREADS", "zero")], "TCN_THREADS: `zero` is not a non-negative integer"),
            (&["--threads", "2"], &[("TCN_THREADS", "zero")], "TCN_THREADS: `zero`"),
            (&[], &[("TCN_RETRY_ATTEMPTS", "-1")], "TCN_RETRY_ATTEMPTS: `-1`"),
            (&[], &[("TCN_FUZZ_SEEDS", "many")], "TCN_FUZZ_SEEDS: `many`"),
        ];
        for (args, env, want) in cases {
            let err = parse(args, env).expect_err(want);
            assert!(err.starts_with(want), "{args:?} {env:?}: {err}");
        }
        assert!(parse(&["--quick", "--quick"], &[]).is_ok(), "a repeated preset is not a conflict");
    }
}
