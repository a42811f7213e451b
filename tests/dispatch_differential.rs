//! Dispatch byte-identity on what the figures actually simulate: the
//! batched same-timestamp drain (with its per-port TxDone coalescing)
//! must be *indistinguishable* from the per-event reference loop in
//! every number a figure reads — same per-flow FCTs, drops, marks,
//! timeouts, fault counts and reconfiguration log.
//!
//! Each sim comes from the figure code's own constructor
//! (`fct_sweep::build_cell`, `scenario::engine::build_sim`) and is built
//! twice: one copy stays on the default batched loop, the other is put
//! on the reference loop through `NetworkSim::set_dispatch_mode` — a
//! per-simulation seam, so nothing here is process-wide. Thread-count
//! invariance is `determinism.rs`'s and `cc_differential.rs`'s job.

use tcn_experiments::common::Scale;
use tcn_experiments::fct_sweep::{self, SweepConfig};
use tcn_experiments::scenario::{engine, fuzz};
use tcn_net::{DispatchMode, NetworkSim};
use tcn_sim::Time;

/// Run `sim` to completion under `mode` and render everything a figure
/// could read from it. `events_processed` is deliberately absent:
/// coalescing legitimately elides trailing TxDone events.
fn run_bytes(mut sim: NetworkSim, mode: DispatchMode, deadline: Time) -> String {
    sim.set_dispatch_mode(mode);
    let done = sim.run_to_completion(deadline).expect("run failed");
    let ports: Vec<_> = (0..sim.num_links()).map(|l| sim.port(l).stats()).collect();
    format!(
        "done={done} now={:?} timeouts={}\n{:?}\n{ports:?}\n{:?}\n{:?}",
        sim.now(),
        sim.total_timeouts(),
        sim.fct_records(),
        sim.fault_stats(),
        sim.reconfig_log(),
    )
}

fn assert_mode_invariant(build: impl Fn() -> NetworkSim, deadline: Time, tag: &str) {
    let batched = run_bytes(build(), DispatchMode::Batched, deadline);
    assert!(
        batched.starts_with("done=true"),
        "{tag}: flows did not finish"
    );
    let per_event = run_bytes(build(), DispatchMode::PerEvent, deadline);
    assert_eq!(
        batched, per_event,
        "{tag}: batched dispatch diverged from the reference loop"
    );
}

/// Every (scheme, load) cell of a one-load slice of a figure sweep —
/// enough flows for queues to build and drop.
fn assert_slice_mode_invariant(cfg: &SweepConfig, tag: &str) {
    let scale = Scale {
        flows: 300,
        loads: &[0.8],
        seed: 11,
    };
    for (scheme, li, load) in fct_sweep::sweep_grid(&scale, &cfg.schemes()) {
        assert_mode_invariant(
            || fct_sweep::build_cell(cfg, &scale, scheme, li, load, 0).expect("cell builds"),
            Time::from_secs(10_000),
            &format!("{tag}/{}", scheme.name()),
        );
    }
}

/// Fig. 6 slice (DWRR switch ports — coalescing-ineligible scheduler,
/// so this exercises the plain batched drain behind coalescing host
/// NICs).
#[test]
fn fig6_slice_is_dispatch_mode_invariant() {
    assert_slice_mode_invariant(&SweepConfig::fig6(), "fig6");
}

/// Fig. 7 slice (WFQ switch ports — a pure-idle-select scheduler, so
/// batched mode coalesces trailing TxDone wakes at the switch too).
#[test]
fn fig7_slice_is_dispatch_mode_invariant() {
    assert_slice_mode_invariant(&SweepConfig::fig7(), "fig7");
}

/// The seeded scenario fuzzer's scenarios — flows under link flaps,
/// loss, jitter and live reconfiguration.
#[test]
fn fuzz_seeds_are_dispatch_mode_invariant() {
    for seed in 0..8 {
        let sc = fuzz::gen_scenario(0xC4A0_5EED, seed, 6);
        assert_mode_invariant(
            || engine::build_sim(&sc, true).expect("scenario builds"),
            sc.base.deadline,
            &format!("fuzz seed {seed}"),
        );
    }
}
