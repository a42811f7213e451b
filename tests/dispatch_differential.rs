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
//!
//! `engine_counts_are_pinned` holds the engine's exact counts — arena,
//! events per dispatch mode, `QueueStats` — at fixed values: they repeat
//! on any host, so a change to what the simulator does moves one.

use tcn_experiments::common::{params, switch_port, Scale, SchedKind};
use tcn_experiments::fct_sweep::{self, SweepConfig};
use tcn_experiments::scenario::{engine, fuzz};
use tcn_experiments::Scheme;
use tcn_net::{
    single_switch, DispatchMode, LeafSpineConfig, NetworkSim, TaggingPolicy, TransportChoice,
};
use tcn_sim::{QueueStats, Rate, Rng, Time};
use tcn_workloads::{gen_incast, gen_many_to_one, Workload};

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

/// Fig. 6 slice (DWRR switch ports, whose trailing wakes the batched
/// loop holds like every other port's).
#[test]
fn fig6_slice_is_dispatch_mode_invariant() {
    assert_slice_mode_invariant(&SweepConfig::fig6(), "fig6");
}

/// Fig. 7 slice (WFQ switch ports).
#[test]
fn fig7_slice_is_dispatch_mode_invariant() {
    assert_slice_mode_invariant(&SweepConfig::fig7(), "fig7");
}

/// Fig. 10 slice: the paper's own fabric, SP/DWRR on every switch port
/// of a leaf-spine, four hops per packet. A fabric cell costs what its
/// largest flow costs (DESIGN §7.7), and seed 1's first 60 flows stop
/// short of its ~0.9 GB flow, so this is the TCN cell at 60 flows.
#[test]
fn fig10_slice_is_dispatch_mode_invariant() {
    let cfg = SweepConfig::fig10(LeafSpineConfig::small());
    let scale = Scale {
        flows: 60,
        loads: &[0.7],
        seed: 1,
    };
    let tcn = Scheme::Tcn {
        threshold: params::sim::TCN_T_DCTCP,
    };
    assert_mode_invariant(
        || fct_sweep::build_cell(&cfg, &scale, tcn, 0, 0.7, 0).expect("cell builds"),
        Time::from_secs(10_000),
        "fig10/TCN",
    );
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

/// A 600-flow web-search fig6 testbed star under TCN: eight senders into
/// one 1 Gbps DWRR port, load 0.7.
fn fig6_star() -> NetworkSim {
    let cfg = SweepConfig::fig6();
    let scheme = Scheme::Tcn {
        threshold: params::testbed::TCN_T,
    };
    let mut sim = single_switch(
        9,
        cfg.rate,
        params::testbed::LINK_DELAY,
        TransportChoice::TestbedDctcp.config(),
        TaggingPolicy::Fixed,
        || {
            switch_port(
                cfg.nqueues,
                Some(cfg.buffer),
                None,
                cfg.sched,
                scheme,
                cfg.rate,
                1500,
                1,
            )
        },
    )
    .expect("topology is well-formed");
    let mut rng = Rng::new(42);
    let senders: Vec<u32> = (0..8).collect();
    let services: Vec<u8> = (0..4).collect();
    let cdf = Workload::WebSearch.cdf();
    for f in gen_many_to_one(
        &mut rng,
        600,
        &senders,
        8,
        &cdf,
        0.7,
        cfg.rate,
        &services,
        Time::ZERO,
    ) {
        sim.add_flow(f);
    }
    sim
}

/// 32 senders fire five synchronized 64 KB waves, 2 ms apart, at one
/// receiver through a FIFO+TCN switch on 10 Gbps links: dense
/// same-timestamp batches on all-FIFO ports.
fn incast_star() -> NetworkSim {
    let rate = Rate::from_gbps(10);
    let scheme = Scheme::Tcn {
        threshold: params::sim::TCN_T_DCTCP,
    };
    let mut sim = single_switch(
        33,
        rate,
        Time::from_us(20),
        TransportChoice::SimDctcp.config(),
        TaggingPolicy::Fixed,
        || {
            switch_port(
                1,
                Some(params::sim::BUFFER),
                None,
                SchedKind::Fifo,
                scheme,
                rate,
                1500,
                5,
            )
        },
    )
    .expect("topology is well-formed");
    let senders: Vec<u32> = (0..32).collect();
    let mut rng = Rng::new(77);
    for w in 0..5 {
        let at = Time::from_ms(2 * w + 1);
        for spec in gen_incast(&mut rng, &senders, 32, 64_000, at, Time::ZERO, 0) {
            sim.add_flow(spec);
        }
    }
    sim
}

/// Run the incast under `mode`: `(events, FCT checksum, drops, QueueStats)`.
fn incast_counts(mode: DispatchMode) -> (u64, u64, u64, QueueStats) {
    let mut sim = incast_star();
    sim.set_dispatch_mode(mode);
    assert!(sim.run_to_completion(Time::from_secs(60)).expect("run"));
    let fct_sum = sim.fct_records().iter().map(|r| r.fct.as_ps()).sum();
    (
        sim.events_processed(),
        fct_sum,
        sim.total_drops(),
        sim.queue_stats(),
    )
}

/// Exact counts that repeat on any host (DESIGN §7.2, §7.4–7.6): the
/// packet arena stops allocating after 36 slots, and the batched drain
/// with wake coalescing pops fewer events than the per-event loop on
/// the same simulation — on the fig6 star's DWRR ports as on the
/// incast's FIFO ports.
#[test]
fn engine_counts_are_pinned() {
    let star_events = |mode| {
        let mut star = fig6_star();
        star.set_dispatch_mode(mode);
        assert!(star
            .run_to_completion(Time::from_secs(10_000))
            .expect("run"));
        (star.events_processed(), star.arena_stats())
    };
    let (star_per_event, _) = star_events(DispatchMode::PerEvent);
    let (star_batched, a) = star_events(DispatchMode::Batched);
    assert_eq!(
        (a.inserted, a.slot_allocs, a.recycled, a.high_water),
        (2_789_192, 36, 2_789_156, 36),
        "fig6 star arena counters"
    );
    assert_eq!(
        (star_per_event, star_batched),
        (5_582_656, 3_727_675),
        "fig6 star events (per-event, batched)"
    );

    let (per_event, pe_fct, pe_drops, _) = incast_counts(DispatchMode::PerEvent);
    let (batched, ba_fct, ba_drops, stats) = incast_counts(DispatchMode::Batched);
    assert_eq!(
        (pe_fct, pe_drops),
        (ba_fct, ba_drops),
        "incast FCTs and drops differ by dispatch mode"
    );
    assert_eq!(
        (per_event, batched),
        (68_988, 47_575),
        "incast events (per-event, batched)"
    );
    assert_eq!(
        stats,
        QueueStats {
            advances: 10_309,
            bucket_allocs: 85,
            pool_high_water: 65,
            overflow_pushes: 460,
            overflow_migrated: 389,
            active_high_water: 42,
            late_pushes: 33,
        },
        "batched incast QueueStats"
    );
}
