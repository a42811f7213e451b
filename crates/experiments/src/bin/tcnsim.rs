//! `tcnsim` — run a declarative JSON experiment.
//!
//! Usage:
//!   tcnsim <config.json>      run the experiment, print the FCT report
//!   tcnsim --example          print a ready-to-edit example config
//!   tcnsim <config.json> --json   also print the report as JSON

use tcn_experiments::config::{example_json, ExperimentCfg};
use tcn_experiments::json::ToJson;
use tcn_experiments::options::RunOptions;

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
        eprintln!("usage: tcnsim <config.json> [--json] | tcnsim --example");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("read {path}: {e}");
        std::process::exit(1);
    });
    let cfg = ExperimentCfg::from_json(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    let t0 = std::time::Instant::now(); // lint:allow(no-wallclock): CLI convenience — reports elapsed wall time, never feeds the sim
    let report = cfg.run().unwrap_or_else(|e| {
        eprintln!("run {path}: {e}");
        std::process::exit(1);
    });
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
