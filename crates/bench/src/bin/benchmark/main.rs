//! `benchmark` — the repo's end-to-end and per-layer benchmark.
//!
//! See `README.md` beside this file for the metric and workload
//! definitions. Two ways in:
//!
//! * the driver contract, one workload per process:
//!   `benchmark --workload W --seed N --seconds S --trace 0|1`, whose
//!   last stdout line is one JSON object `{correct, attempted, failed,
//!   metrics}`;
//! * the subcommands `run`, `trace`, `compare` and `verify`, which run
//!   every workload (each in a child process of the first kind) and
//!   print tables.

#![forbid(unsafe_code)]

mod kernels;
mod manifest;
mod measure;
mod spans;
mod summary;
mod verify;
mod workloads;

use std::process::{Command, ExitCode};

use tcn_experiments::json::{Json, ToJson};

use crate::workloads::Workload;

/// How long one run measures when `--seconds` is not given; the same
/// value as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 16;

const USAGE: &str = "usage:
  benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--detail F]
  benchmark run     [--workload W] [--seed N] [--seconds S] [--out F]
  benchmark trace   [--workload W] [--seed N] [--seconds S] [--out F]
  benchmark compare A.json B.json
  benchmark verify  [--seed N]
workloads: incast_fifo star_mq fabric_paper fabric_faults mixed_cc";

/// Parsed `--flag value` options.
struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    detail: Option<String>,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        detail: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => o.out = Some(value()?.clone()),
            "--detail" => o.detail = Some(value()?.clone()),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(a.clone()),
        }
    }
    Ok(o)
}

/// The driver contract: measure one workload in this process, print
/// its table, then the result object as the last line.
fn driver(o: &Opts) -> Result<ExitCode, String> {
    let w = o.workload.ok_or("--workload is required")?;
    let m = measure::measure(w, o.seed, o.seconds, o.trace);
    print!("{}", m.table());
    if let Some(path) = &o.detail {
        std::fs::write(path, m.detail().pretty() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", m.result_line().compact());
    Ok(ExitCode::SUCCESS)
}

/// `run` / `trace`: one child process per workload, so each workload's
/// peak RSS is its own; merge the children's detail files into `--out`.
fn fan_out(o: &Opts, trace: bool) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let manifest = manifest::manifest(o.seed, o.seconds);
    let selected: Vec<Workload> = o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut details = Vec::new();
    let mut all_correct = true;
    for w in selected {
        let part = o.out.as_ref().map(|out| format!("{out}.{}.part", w.name()));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if let Some(p) = &part {
            cmd.args(["--detail", p]);
        }
        let output = cmd
            .output()
            .map_err(|e| format!("spawn {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.trim_end().lines().last().unwrap_or("");
        // Everything but the machine-readable last line is the table.
        print!("{}", &stdout[..stdout.trim_end().len() - last.len()]);
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let correct = output.status.success()
            && Json::parse(last)
                .ok()
                .and_then(|j| j.get("correct").cloned())
                == Some(Json::Bool(true));
        if !correct {
            println!("{}: FAILED its output checks", w.name());
        }
        all_correct &= correct;
        if let Some(p) = &part {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            details.push(Json::parse(&text).map_err(|e| format!("{p}: {e}"))?);
            std::fs::remove_file(p).map_err(|e| format!("{p}: {e}"))?;
        }
    }
    if let Some(out) = &o.out {
        let doc = Json::obj(vec![
            ("manifest", manifest),
            ("mode", if trace { "trace" } else { "run" }.to_json()),
            ("workloads", Json::Arr(details)),
        ]);
        std::fs::write(out, doc.pretty() + "\n").map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(o: &Opts) -> Result<ExitCode, String> {
    let [_, a, b] = o.positional.as_slice() else {
        return Err("compare takes two files".to_string());
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (report, ok) = summary::compare(&load(a)?, &load(b)?)?;
    print!("{report}");
    println!(
        "{}",
        if ok {
            "compare: every bound holds"
        } else {
            "compare: FAILED"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_opts(&args).and_then(|o| match o.positional.first().map(String::as_str) {
        None => driver(&o),
        Some("run") => fan_out(&o, false),
        Some("trace") => fan_out(&o, true),
        Some("compare") => compare(&o),
        Some("verify") => Ok(verify::verify(o.seed)),
        Some(other) => Err(format!("unknown command {other}")),
    });
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{Better, END_TO_END};

    /// What `BENCHMARK.json` at the repo root must say, built from the
    /// tables the harness itself prints from.
    /// The benchmark's directory, from the repo root.
    const DIR: &str = "crates/bench/src/bin/benchmark";

    fn expected_benchmark_json() -> Json {
        let dir = DIR;
        let better = |b: Better| match b {
            Better::Lower => "lower".to_json(),
            Better::Higher => "higher".to_json(),
        };
        let command: Vec<String> = [
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--manifest-path",
            &format!("{dir}/Cargo.toml"),
            "--",
        ]
        .map(String::from)
        .to_vec();
        Json::obj(vec![
            ("command", command.to_json()),
            ("paths", vec![dir].to_json()),
            ("run_seconds", DEFAULT_SECONDS.to_json()),
            (
                "workloads",
                Json::Arr(
                    Workload::ALL
                        .iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("name", w.name().to_json()),
                                ("why", w.why().to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::Arr(
                    END_TO_END
                        .iter()
                        // Always 0 on a healthy run: carried by `failed`/`attempted`.
                        .filter(|d| d.name != "fail_share")
                        .map(|d| {
                            Json::obj(vec![
                                ("name", d.name.to_json()),
                                ("unit", d.unit.to_json()),
                                ("better", better(d.better)),
                                ("bound", d.bound.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Json::Arr(
                    measure::per_layer_defs()
                        .iter()
                        .map(|(name, unit, b)| {
                            Json::obj(vec![
                                ("name", name.to_json()),
                                ("unit", unit.to_json()),
                                ("better", better(*b)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// `path`, relative to the repo root, as text.
    fn repo_file(path: &str) -> String {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|d| d.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the manifest dir");
        std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// The settings of `manifest`'s `[profile.release]` table, sorted.
    fn release_profile(manifest: &str) -> Vec<String> {
        let mut settings: Vec<String> = manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| l.split_whitespace().collect())
            .collect();
        settings.sort();
        settings
    }

    /// The benchmark's own package cannot inherit the root manifest's
    /// profile; this keeps its copy from drifting, so the benchmark
    /// measures the build that `cargo build --release` ships.
    #[test]
    fn own_package_repeats_the_root_release_profile() {
        let root = release_profile(&repo_file("Cargo.toml"));
        let own = release_profile(&repo_file(&format!("{DIR}/Cargo.toml")));
        assert!(!root.is_empty(), "root manifest has a release profile");
        assert_eq!(
            own, root,
            "copy the root [profile.release] into {DIR}/Cargo.toml"
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_prints() {
        let text = repo_file("BENCHMARK.json");
        let found = Json::parse(&text).expect("BENCHMARK.json parses");
        let expected = expected_benchmark_json();
        assert!(
            found == expected,
            "BENCHMARK.json should read:\n{}",
            expected.pretty()
        );
    }

    #[test]
    fn options_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o =
            parse_opts(&args("--workload star_mq --seed 9 --seconds 3 --trace 1")).expect("valid");
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Some(Workload::StarMq), 9, 3, true)
        );
        let o = parse_opts(&args("compare a.json b.json")).expect("valid");
        assert_eq!(o.positional, ["compare", "a.json", "b.json"]);
        assert_eq!((o.seed, o.seconds, o.trace), (1, DEFAULT_SECONDS, false));
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed",
            "--seed x",
            "--frobnicate 1",
        ] {
            assert!(parse_opts(&args(bad)).is_err(), "{bad} should be rejected");
        }
    }
}
