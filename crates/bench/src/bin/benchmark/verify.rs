//! `verify`: the hand-assembled cells measure what the figures run.
//!
//! At 200 flows, every `star_mq` and `fabric_paper` cell must report
//! exactly what the same cell of `fct_sweep::run_schemes_with_threads`
//! reports, and a 200 ms `mixed_cc` window exactly what `mixed::run`
//! reports. Untimed.

use std::process::ExitCode;

use tcn_experiments::common::Scale;
use tcn_experiments::{fct_sweep, mixed};
use tcn_sim::Time;

use crate::spans::Tracer;
use crate::workloads::{run_cell, CellKind, Sizes, Workload};

/// Print one comparison row; returns whether the two sides are equal.
fn row(cell: &str, what: &str, mine: f64, theirs: f64) -> bool {
    let same = mine == theirs;
    println!(
        "{cell:<16} {what:<16} {mine:>18.6} {theirs:>18.6}  {}",
        if same { "ok" } else { "DIFFERS" }
    );
    same
}

/// Run the comparison at `seed`; success iff every row is equal.
pub fn verify(seed: u64) -> ExitCode {
    let sizes = Sizes::VERIFY;
    let mut ok = true;
    println!(
        "{:<16} {:<16} {:>18} {:>18}",
        "cell", "field", "benchmark", "figure code"
    );
    for w in [Workload::StarMq, Workload::FabricPaper] {
        for cell in w.cells(&sizes) {
            let CellKind::Sweep {
                cfg,
                scheme,
                load,
                flows,
                ..
            } = cell.kind
            else {
                unreachable!("{} has only sweep cells", w.name())
            };
            let mine =
                run_cell(&cell, seed, &mut Tracer::off(), None).expect("benchmark cell runs");
            // `Scale` wants a 'static load list; one leak per cell of a
            // one-shot command.
            let loads: &'static [f64] = Box::leak(vec![load].into_boxed_slice());
            let scale = Scale { flows, loads, seed };
            let sweep = fct_sweep::run_schemes_with_threads(&cfg, &scale, &[scheme], 1);
            let Some(theirs) = sweep.cells.first() else {
                println!(
                    "{:<16} fct_sweep quarantined the cell: {:?}",
                    cell.label, sweep.quarantined
                );
                ok = false;
                continue;
            };
            let (c, b) = (&mine.counts, &mine.breakdown);
            let rows = [
                (
                    "completed",
                    c.get("stats.flows_completed"),
                    theirs.completed as f64,
                ),
                ("flows", c.get("workloads.flows"), theirs.flows as f64),
                ("overall_avg_us", b.overall_avg_us, theirs.overall_avg_us),
                ("small_avg_us", b.small_avg_us, theirs.small_avg_us),
                ("small_p99_us", b.small_p99_us, theirs.small_p99_us),
                ("large_avg_us", b.large_avg_us, theirs.large_avg_us),
                (
                    "small_timeouts",
                    b.small_timeouts as f64,
                    theirs.small_timeouts as f64,
                ),
                ("drops", c.get("net.port_drops"), theirs.drops as f64),
            ];
            for (what, a, b) in rows {
                ok &= row(cell.label, what, a, b);
            }
        }
    }

    let window = sizes.mixed_sim;
    let family = mixed::run(Time::ZERO, window, None);
    for cell in Workload::MixedCc.cells(&sizes) {
        let CellKind::Mixed { sched, scheme, .. } = cell.kind else {
            unreachable!("mixed_cc has only tenant cells")
        };
        let mine = run_cell(&cell, seed, &mut Tracer::off(), None).expect("benchmark cell runs");
        let total: f64 = mine.tenant_bytes.iter().map(|&b| b as f64).sum();
        for (cc, &bytes) in mixed::TENANTS.iter().zip(&mine.tenant_bytes) {
            let theirs = family.cells.iter().find(|c| {
                c.sched.eq_ignore_ascii_case(sched.name())
                    && c.scheme == scheme.name()
                    && c.tenant == cc.name()
            });
            let Some(theirs) = theirs else {
                println!("{:<16} mixed::run has no {} row", cell.label, cc.name());
                ok = false;
                continue;
            };
            let goodput = bytes as f64 * 8.0 / window.as_secs_f64() / 1e6;
            ok &= row(
                cell.label,
                &format!("{}_mbps", cc.name()),
                goodput,
                theirs.goodput_mbps,
            );
            ok &= row(
                cell.label,
                &format!("{}_share", cc.name()),
                bytes as f64 / total,
                theirs.share,
            );
        }
    }
    println!(
        "verify: {}",
        if ok {
            "every cell matches the figure code"
        } else {
            "FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
