//! `tcnsim` — run a scenario document and print its FCT report.
//!
//! Usage:
//!   tcnsim <scenario.json5>          run it, print the FCT report
//!   tcnsim --example                 print a ready-to-edit example document
//!   tcnsim <scenario.json5> --json   also print the report as JSON

use tcn_experiments::config::{example_json, RunReport};
use tcn_experiments::json::{Json, ToJson};
use tcn_experiments::options::RunOptions;
use tcn_experiments::scenario::{engine::build_sim, parse_scenario};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--example") {
        println!("{}", example_json());
        return;
    }
    let (opts, words) = RunOptions::parse(&args, |name| std::env::var(name).ok())
        .unwrap_or_else(|e| {
            eprintln!("tcnsim: {e}");
            std::process::exit(2);
        });
    let [path] = words.as_slice() else {
        eprintln!("usage: tcnsim <scenario.json5> [--json] | tcnsim --example");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("read {path}: {e}")));
    let sc = Json::parse_json5(&text)
        .and_then(|v| parse_scenario(&v).map_err(|e| format!("invalid configuration: {e}")))
        .unwrap_or_else(|e| fail(format!("{path}: {e}")));
    let t0 = std::time::Instant::now(); // lint:allow(no-wallclock): CLI convenience — reports elapsed wall time, never feeds the sim
    let mut sim = build_sim(&sc, false).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    if let Err(e) = sim.run_to_completion(sc.base.deadline) {
        fail(format!("run {path}: {e}"));
    }
    let report = RunReport::of(&sim);
    println!("flows      : {}/{}", report.completed, report.flows);
    println!("overall avg: {:.0} us", report.overall_avg_us);
    println!("small avg  : {:.0} us", report.small_avg_us);
    println!("small p99  : {:.0} us", report.small_p99_us);
    println!("large avg  : {:.0} us", report.large_avg_us);
    println!("timeouts   : {}", report.timeouts);
    println!("drops      : {}", report.drops);
    println!(
        "events     : {} in {:.2}s wall",
        report.events,
        t0.elapsed().as_secs_f64()
    );
    if opts.json {
        println!("{}", report.to_json().pretty());
    }
}

/// Print `message` and exit 1.
fn fail(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}
