//! `figs` — every figure of the paper behind one binary.
//!
//! Usage:
//!   figs <figure> [flags]          run one figure (figs list shows them)
//!   figs all [--threads N] [flags] run every figure in-process, then
//!                                  the whole scenario library
//!   figs list                      list figures
//!   figs trace <figure> --out F    run one sweep cell with telemetry,
//!                                  write a JSONL trace, print the
//!                                  run-summary report
//!   figs check-trace <file>        validate a JSONL trace's schema
//!   figs scenario list [--tag T]   list the named chaos scenarios
//!   figs scenario all [--quick]    run the whole library (honours
//!                                  TCN_CHECKPOINT for kill-and-resume)
//!   figs scenario <id> [--quick] [--trace-out F]
//!                                  run one named scenario
//!   figs fuzz [--seeds N]          run the seeded scenario fuzzer
//!                                  (TCN_FUZZ_SEEDS / TCN_FUZZ_STEP_BUDGET)
//!
//! Figure flags (`--quick|--medium|--full`, `--flows N`, `--seed N`,
//! `--json`, …) are read by the figure entries themselves and work
//! exactly as they did when each figure was its own binary.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;

use tcn_experiments::common::{maybe_write_json, Scale};
use tcn_experiments::fct_sweep::{self, SweepConfig};
use tcn_experiments::figs;
use tcn_experiments::scenario;
use tcn_experiments::trace::{validate_trace, JsonlSink};
use tcn_net::LeafSpineConfig;
use tcn_sim::Time;
use tcn_stats::TelemetrySummary;
use tcn_telemetry::Telemetry;

fn usage() -> ! {
    eprintln!(
        "usage: figs <figure|all|list|trace|check-trace|scenario|fuzz> [flags]\n       figs list  # figure names\n       figs scenario list  # chaos scenario names"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "list" => {
            for f in figs::FIGURES {
                println!("{:<10} {}", f.name, f.about);
            }
        }
        "all" => run_all(&args[1..]),
        "trace" => run_trace(&args[1..]),
        "check-trace" => check_trace(&args[1..]),
        "scenario" => run_scenario_cmd(&args[1..]),
        "fuzz" => run_fuzz_cmd(&args[1..]),
        name => match figs::find(name) {
            Some(f) => (f.run)(),
            None => {
                eprintln!("unknown figure {name:?} — `figs list` shows the menu");
                std::process::exit(2);
            }
        },
    }
}

fn flag_value<'a>(rest: &'a [String], flag: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a == flag)
        .and_then(|i| rest.get(i + 1))
        .map(String::as_str)
}

fn run_scenario_cmd(rest: &[String]) {
    let Some(sub) = rest.first() else {
        eprintln!("usage: figs scenario <list|all|id> [--tag T] [--quick] [--trace-out F]");
        std::process::exit(2);
    };
    let quick = rest.iter().any(|a| a == "--quick");
    match sub.as_str() {
        "list" => {
            let tag = flag_value(rest, "--tag");
            for named in scenario::LIBRARY {
                let sc = scenario::load(named.id).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(1);
                });
                if let Some(t) = tag {
                    if !sc.tags.iter().any(|x| x == t) {
                        continue;
                    }
                }
                println!("{:<24} [{}] {}", sc.id, sc.tags.join(", "), sc.about);
            }
        }
        "all" => {
            let checkpoint = std::env::var("TCN_CHECKPOINT").ok().map(PathBuf::from);
            let batch = scenario::run_library(
                quick,
                tcn_experiments::runner::default_threads(),
                checkpoint.as_deref(),
            )
            .unwrap_or_else(|e| {
                eprintln!("scenario batch: {e}");
                std::process::exit(1);
            });
            for r in &batch.reports {
                println!(
                    "{:<24} {}/{} flows, {} steps applied, drops {}, marks {}, avg {:.0} us",
                    r.id, r.completed, r.flows, r.reconfigs.len(), r.drops, r.marks, r.avg_fct_us
                );
            }
            maybe_write_json("scenario_all", &batch.reports);
            if !batch.failures.is_empty() {
                eprintln!("{}/{} scenarios FAILED:", batch.failures.len(), scenario::LIBRARY.len());
                for (id, error) in &batch.failures {
                    eprintln!("  {id}: {error}");
                }
                std::process::exit(1);
            }
            println!("all {} scenarios succeeded", scenario::LIBRARY.len());
        }
        id => {
            if scenario::find(id).is_none() {
                // Same convention as `xtask lint --rule`: exit 2 with a
                // nearest-match suggestion.
                match scenario::nearest(id) {
                    Some(close) => eprintln!(
                        "unknown scenario {id:?} — did you mean `{close}`? (`figs scenario list` shows the menu)"
                    ),
                    None => eprintln!(
                        "unknown scenario {id:?} — `figs scenario list` shows the menu"
                    ),
                }
                std::process::exit(2);
            }
            let sc = scenario::load(id).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
            let result = match flag_value(rest, "--trace-out") {
                Some(out_path) => {
                    let file = File::create(out_path).unwrap_or_else(|e| {
                        eprintln!("create {out_path}: {e}");
                        std::process::exit(1);
                    });
                    let bus = Telemetry::new();
                    bus.add_sink(Box::new(JsonlSink::new(BufWriter::new(file))));
                    let r = scenario::engine::run_scenario_traced(&sc, quick, &bus);
                    if r.is_ok() {
                        println!("trace written to {out_path}");
                    }
                    r
                }
                None => scenario::run_scenario(&sc, quick),
            };
            match result {
                Ok(report) => {
                    println!("scenario {} — {}", report.id, sc.about);
                    println!(
                        "  {}/{} flows, drops {} (drains {}, injected loss {}, corrupt {}), marks {}",
                        report.completed,
                        report.flows,
                        report.drops,
                        report.drain_drops,
                        report.loss_drops,
                        report.corrupt_drops,
                        report.marks
                    );
                    println!(
                        "  fct avg {:.0} us, p99 {:.0} us",
                        report.avg_fct_us, report.p99_fct_us
                    );
                    if !report.reconfigs.is_empty() {
                        println!("  reconfigurations ({}):", report.reconfigs.len());
                        for line in &report.reconfigs {
                            println!("    {line}");
                        }
                    }
                    maybe_write_json(&format!("scenario_{}", report.id), &report);
                }
                Err(e) => {
                    eprintln!("scenario {id}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

fn run_fuzz_cmd(rest: &[String]) {
    let seeds = flag_value(rest, "--seeds")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(16);
    let opts = scenario::FuzzOpts::new(seeds).from_env();
    let report = scenario::run_fuzz(&opts);
    for line in &report.lines {
        println!("{line}");
    }
    maybe_write_json("fuzz", &report);
    if report.failures.is_empty() {
        println!("fuzz: {} seeds, zero violations", report.seeds);
    } else {
        eprintln!("fuzz: {}/{} seeds FAILED", report.failures.len(), report.seeds);
        std::process::exit(1);
    }
}

fn run_all(rest: &[String]) {
    if let Some(i) = rest.iter().position(|a| a == "--threads") {
        let Some(t) = rest.get(i + 1) else {
            eprintln!("--threads needs a value");
            std::process::exit(2);
        };
        // The sweeps' parallel cell runner reads TCN_THREADS; output is
        // byte-identical at any value.
        std::env::set_var("TCN_THREADS", t);
    }
    let failures = figs::run_all();
    if !failures.is_empty() {
        eprintln!("{}/{} figures FAILED:", failures.len(), figs::FIGURES.len());
        for f in &failures {
            eprintln!("  {}: {}", f.name, f.error);
        }
        std::process::exit(1);
    }
}

/// The sweep configuration behind a `figs trace` target.
fn sweep_config(name: &str) -> Option<SweepConfig> {
    let small = LeafSpineConfig::small;
    Some(match name {
        "fig6" => SweepConfig::fig6(),
        "fig7" => SweepConfig::fig7(),
        "fig8" => SweepConfig::fig8(),
        "fig9" => SweepConfig::fig9(),
        "fig10" => SweepConfig::fig10(small()),
        "fig11" => SweepConfig::fig11(small()),
        "fig12" => SweepConfig::fig12(small()),
        "fig13" => SweepConfig::fig13(small()),
        _ => return None,
    })
}

fn run_trace(rest: &[String]) {
    let Some(name) = rest.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: figs trace <fig6..fig13> --out <file.jsonl> [scale flags]");
        std::process::exit(2);
    };
    let Some(cfg) = sweep_config(name) else {
        eprintln!("figs trace supports the FCT sweeps (fig6..fig13), not {name:?}");
        std::process::exit(2);
    };
    let Some(out_path) = rest
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| rest.get(i + 1))
    else {
        eprintln!("figs trace needs --out <file.jsonl>");
        std::process::exit(2);
    };
    let scale = Scale::from_args(matches!(name.as_str(), "fig6" | "fig7" | "fig8" | "fig9"));
    // One representative cell: the paper's scheme at the highest load.
    let scheme = cfg.schemes()[0];
    let load = *scale.loads.last().expect("scale has loads");

    let file = File::create(out_path).unwrap_or_else(|e| {
        eprintln!("create {out_path}: {e}");
        std::process::exit(1);
    });
    let bus = Telemetry::new();
    let summary = TelemetrySummary::new(Time::from_ms(1));
    bus.add_sink(Box::new(JsonlSink::new(BufWriter::new(file))));
    bus.add_sink(Box::new(summary.handle()));
    let cell = fct_sweep::run_cell_traced(&cfg, &scale, scheme, load, &bus);

    println!(
        "{name} traced cell: scheme {} load {:.1} — {}/{} flows, avg {:.0} us, drops {}",
        cell.scheme, cell.load, cell.completed, cell.flows, cell.overall_avg_us, cell.drops
    );
    let c = summary.counters();
    println!(
        "events: {} enq / {} deq / {} marks / {} mark-decisions ({} marked) / {} drops",
        c.enqueues,
        c.dequeues,
        c.marks,
        c.mark_decisions,
        c.mark_decisions_marked,
        c.buffer_drops + c.aqm_drops,
    );
    println!("\nper-queue sojourn (us):");
    println!(
        "{:>5} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "port", "queue", "dequeues", "mean", "p50", "p99", "max"
    );
    for ((port, queue), q) in summary.queues() {
        println!(
            "{port:>5} {queue:>5} {:>9} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            q.dequeues,
            q.mean_ps() / 1e6,
            q.p50_ps() / 1e6,
            q.p99_ps() / 1e6,
            q.max_ps as f64 / 1e6,
        );
    }
    println!("\ntrace written to {out_path}");
}

fn check_trace(rest: &[String]) {
    let Some(path) = rest.first() else {
        eprintln!("usage: figs check-trace <file.jsonl>");
        std::process::exit(2);
    };
    let file = File::open(path).unwrap_or_else(|e| {
        eprintln!("open {path}: {e}");
        std::process::exit(1);
    });
    match validate_trace(BufReader::new(file)) {
        Ok(stats) => {
            println!("{path}: OK — {} events, {} epochs", stats.events, stats.epochs);
            for (kind, n) in &stats.by_kind {
                println!("  {kind:<14} {n}");
            }
        }
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            std::process::exit(1);
        }
    }
}
