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
//!
//! Flags and `TCN_*` variables are parsed once, here, into a
//! [`RunOptions`] that every command takes as an argument; anything
//! unknown or malformed exits 2 before a simulation starts.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use tcn_experiments::fct_sweep;
use tcn_experiments::figs;
use tcn_experiments::options::RunOptions;
use tcn_experiments::scenario;
use tcn_experiments::trace::{validate_trace, JsonlSink};
use tcn_sim::Time;
use tcn_stats::TelemetrySummary;
use tcn_telemetry::Telemetry;

fn usage(line: &str) -> ! {
    eprintln!("usage: {line}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, words) = RunOptions::parse(&args, |name| std::env::var(name).ok())
        .unwrap_or_else(|e| {
            eprintln!("figs: {e}");
            std::process::exit(2);
        });
    let words: Vec<&str> = words.iter().map(String::as_str).collect();
    match words.as_slice() {
        ["list"] => {
            for f in figs::FIGURES {
                println!("{:<10} {}", f.name, f.about);
            }
        }
        ["all"] => run_all(&opts),
        ["trace", name] => run_trace(name, &opts),
        ["trace", ..] => usage("figs trace <fig6..fig13> --out <file.jsonl> [scale flags]"),
        ["check-trace", path] => check_trace(path),
        ["check-trace", ..] => usage("figs check-trace <file.jsonl>"),
        ["scenario", sub] => run_scenario_cmd(sub, &opts),
        ["scenario", ..] => {
            usage("figs scenario <list|all|id> [--tag T] [--quick] [--trace-out F]")
        }
        ["fuzz"] => run_fuzz_cmd(&opts),
        [name] => match figs::find(name) {
            Some(f) => (f.run)(&opts),
            None => {
                eprintln!("unknown figure {name:?} — `figs list` shows the menu");
                std::process::exit(2);
            }
        },
        _ => usage(
            "figs <figure|all|list|trace|check-trace|scenario|fuzz> [flags]\n       figs list  # figure names\n       figs scenario list  # chaos scenario names",
        ),
    }
}

fn run_scenario_cmd(sub: &str, opts: &RunOptions) {
    let quick = opts.quick();
    match sub {
        "list" => {
            for named in scenario::LIBRARY {
                let sc = scenario::load(named.id).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(1);
                });
                if let Some(t) = &opts.tag {
                    if !sc.tags.iter().any(|x| x == t) {
                        continue;
                    }
                }
                println!("{:<24} [{}] {}", sc.id, sc.tags.join(", "), sc.about);
            }
        }
        "all" => {
            let batch = scenario::run_library(quick, opts.threads(), opts.checkpoint.as_deref())
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
            opts.write_json("scenario_all", &batch.reports);
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
            let result = match &opts.trace_out {
                Some(out_path) => {
                    let bus = Telemetry::new();
                    bus.add_sink(Box::new(JsonlSink::new(create(out_path))));
                    let r = scenario::engine::run_scenario_traced(&sc, quick, &bus);
                    if r.is_ok() {
                        println!("trace written to {}", out_path.display());
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
                    opts.write_json(&format!("scenario_{}", report.id), &report);
                }
                Err(e) => {
                    eprintln!("scenario {id}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

fn run_fuzz_cmd(opts: &RunOptions) {
    let report = scenario::run_fuzz(&opts.fuzz());
    for line in &report.lines {
        println!("{line}");
    }
    opts.write_json("fuzz", &report);
    if report.failures.is_empty() {
        println!("fuzz: {} seeds, zero violations", report.seeds);
    } else {
        eprintln!("fuzz: {}/{} seeds FAILED", report.failures.len(), report.seeds);
        std::process::exit(1);
    }
}

fn run_all(opts: &RunOptions) {
    let failures = figs::run_all(opts);
    if !failures.is_empty() {
        eprintln!("{}/{} figures FAILED:", failures.len(), figs::FIGURES.len());
        for f in &failures {
            eprintln!("  {}: {}", f.name, f.error);
        }
        std::process::exit(1);
    }
}

/// Create `path` for a trace writer, or report and exit 1.
fn create(path: &Path) -> BufWriter<File> {
    BufWriter::new(File::create(path).unwrap_or_else(|e| {
        eprintln!("create {}: {e}", path.display());
        std::process::exit(1);
    }))
}

fn run_trace(name: &str, opts: &RunOptions) {
    let Some(fig) = figs::find_sweep(name) else {
        eprintln!("figs trace supports the FCT sweeps (fig6..fig13), not {name:?}");
        std::process::exit(2);
    };
    let Some(out_path) = &opts.out else {
        eprintln!("figs trace needs --out <file.jsonl>");
        std::process::exit(2);
    };
    let (cfg, scale) = fig.resolve(opts);
    // One representative cell: the paper's scheme at the highest load.
    let scheme = cfg.schemes()[0];
    let load = *scale.loads.last().expect("scale has loads");

    let bus = Telemetry::new();
    let summary = TelemetrySummary::new(Time::from_ms(1));
    bus.add_sink(Box::new(JsonlSink::new(create(out_path))));
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
    println!("\ntrace written to {}", out_path.display());
}

fn check_trace(path: &str) {
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
