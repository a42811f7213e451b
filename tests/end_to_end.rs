//! Cross-crate integration tests: the paper's central claim exercised
//! end to end — TCN composes with *any* scheduler (including ones
//! MQ-ECN cannot touch) while preserving the scheduling policy and
//! keeping queueing delay near the threshold.

use tcn_repro::prelude::*;

/// Build a 3-sender/1-receiver star where every switch port runs the
/// given scheduler factory with TCN marking.
fn star_with(
    nqueues: usize,
    mk_sched: impl Fn() -> Box<dyn Scheduler> + Clone + 'static,
) -> NetworkSim {
    let tcn_t = standard_sojourn_threshold(Time::from_us(250), 1.0);
    single_switch(
        4,
        Rate::from_gbps(1),
        Time::from_us(62),
        TcpConfig::preset(Cc::Dctcp).testbed(),
        TaggingPolicy::Fixed,
        move || {
            let mk_sched = mk_sched.clone();
            PortSetup {
                nqueues,
                buffer: Some(96_000),
                tx_rate: None,
                make_sched: Box::new(move || mk_sched()),
                make_aqm: Box::new(move || Box::new(Tcn::new(tcn_t))),
            }
        },
    )
    .expect("star topology is well-formed")
}

/// Start one long flow per service (hosts 0..2 → host 3) and return the
/// per-service goodput shares measured over [100 ms, 400 ms].
fn service_shares(mut sim: NetworkSim, services: &[u8]) -> Vec<f64> {
    let flows: Vec<FlowId> = services
        .iter()
        .enumerate()
        .map(|(i, &svc)| {
            sim.add_flow(FlowSpec {
                src: i as u32,
                dst: 3,
                size: 1 << 40,
                start: Time::ZERO,
                service: svc,
            })
        })
        .collect();
    sim.run_until(Time::from_ms(100)).expect("run");
    let before: Vec<u64> = flows.iter().map(|&f| sim.delivered_bytes(f)).collect();
    sim.run_until(Time::from_ms(400)).expect("run");
    let deltas: Vec<f64> = flows
        .iter()
        .zip(&before)
        .map(|(&f, &b)| (sim.delivered_bytes(f) - b) as f64)
        .collect();
    let total: f64 = deltas.iter().sum();
    assert!(total > 0.0);
    deltas.iter().map(|d| d / total).collect()
}

#[test]
fn tcn_preserves_wfq_weights() {
    // Weights 2:1:1 → byte shares 50/25/25.
    let sim = star_with(3, || Box::new(Wfq::new(vec![2.0, 1.0, 1.0])));
    let shares = service_shares(sim, &[0, 1, 2]);
    assert!((shares[0] - 0.50).abs() < 0.05, "shares {shares:?}");
    assert!((shares[1] - 0.25).abs() < 0.05, "shares {shares:?}");
    assert!((shares[2] - 0.25).abs() < 0.05, "shares {shares:?}");
}

#[test]
fn tcn_preserves_dwrr_quanta() {
    let sim = star_with(3, || Box::new(Dwrr::new(vec![3_000, 1_500, 1_500])));
    let shares = service_shares(sim, &[0, 1, 2]);
    assert!((shares[0] - 0.50).abs() < 0.05, "shares {shares:?}");
    assert!((shares[1] - 0.25).abs() < 0.05, "shares {shares:?}");
}

#[test]
fn tcn_preserves_strict_priority() {
    // Queue 0 strictly dominates: the other services starve while it is
    // backlogged. (SP over saturated long flows → near-total capture.)
    let sim = star_with(2, || Box::new(StrictPriority::new(2)));
    let shares = service_shares(sim, &[0, 1, 1]);
    assert!(shares[0] > 0.9, "SP queue should dominate: {shares:?}");
}

#[test]
fn tcn_preserves_pifo_stfq_weights() {
    // The "beyond MQ-ECN" case: a programmable PIFO scheduler running
    // STFQ ranks with weights 3:1 — no rounds anywhere, TCN unaffected.
    let sim = star_with(2, || Box::new(Pifo::new(2, StfqRank::new(vec![3.0, 1.0]))));
    let shares = service_shares(sim, &[0, 1, 1]);
    // Queues get 75/25; services 1&2 share queue 1.
    assert!((shares[0] - 0.75).abs() < 0.06, "shares {shares:?}");
}

#[test]
fn tcn_keeps_sojourn_near_threshold_under_load() {
    // With DCTCP + TCN at T, the queue's standing occupancy must hover
    // around T × drain-rate, far below the 96 KB buffer.
    let mut sim = star_with(2, || Box::new(Wfq::equal(2)));
    for i in 0..3u32 {
        sim.add_flow(FlowSpec {
            src: i,
            dst: 3,
            size: 1 << 40,
            start: Time::ZERO,
            service: (i % 2) as u8,
        });
    }
    sim.run_until(Time::from_ms(50)).expect("run");
    // Sample the receiver downlink occupancy for a while.
    let link = tcn_net::single_switch_downlink(3);
    let mut peak = 0u64;
    for step in 0..200u64 {
        sim.run_until(Time::from_ms(50) + Time::from_us(step * 100)).expect("run");
        peak = peak.max(sim.port(link).occupancy());
    }
    // T = 256 us at 1 Gbps = 32 KB equivalent; DCTCP hovers around it.
    assert!(peak > 8_000, "queue never built? peak {peak}");
    assert!(peak < 90_000, "queue ran away: peak {peak}");
}

#[test]
fn probabilistic_tcn_also_preserves_wfq() {
    // The §4.3 extension composes the same way.
    let mk = || {
        let t = Time::from_us(200);
        PortSetup {
            nqueues: 2,
            buffer: Some(96_000),
            tx_rate: None,
            make_sched: Box::new(|| Box::new(Wfq::equal(2))),
            make_aqm: Box::new(move || {
                Box::new(ProbabilisticTcn::new(t / 2, t * 2, 0.8, 9))
            }),
        }
    };
    let sim = single_switch(
        4,
        Rate::from_gbps(1),
        Time::from_us(62),
        TcpConfig::preset(Cc::Dctcp).testbed(),
        TaggingPolicy::Fixed,
        mk,
    ).expect("topology is well-formed");
    let shares = service_shares(sim, &[0, 1, 1]);
    assert!((shares[0] - 0.5).abs() < 0.07, "shares {shares:?}");
}

#[test]
fn mixed_short_and_long_flows_all_complete() {
    let mut sim = star_with(4, || Box::new(Dwrr::equal(4, 1_500)));
    let mut rng = Rng::new(3);
    let senders = [0u32, 1, 2];
    for spec in gen_many_to_one(
        &mut rng,
        300,
        &senders,
        3,
        &Workload::Cache.cdf(),
        0.5,
        Rate::from_gbps(1),
        &[0, 1, 2, 3],
        Time::ZERO,
    ) {
        sim.add_flow(spec);
    }
    assert!(sim.run_to_completion(Time::from_secs(100)).expect("run"));
    let b = FctBreakdown::from_records(&sim.fct_records());
    assert_eq!(b.count, 300);
    assert!(b.small_avg_us > 0.0);
}

#[test]
fn ecnstar_and_dctcp_both_sustain_line_rate() {
    for cfg in [TcpConfig::preset(Cc::Dctcp).sim(), TcpConfig::preset(Cc::EcnStar).sim()] {
        let tcn_t = Time::from_us(100);
        let mut sim = single_switch(
            3,
            Rate::from_gbps(10),
            Time::from_us(25),
            cfg,
            TaggingPolicy::Fixed,
            move || PortSetup {
                nqueues: 1,
                buffer: Some(2_000_000),
                tx_rate: None,
                make_sched: Box::new(|| Box::new(Fifo::new())),
                make_aqm: Box::new(move || Box::new(Tcn::new(tcn_t))),
            },
        ).expect("topology is well-formed");
        let f = sim.add_flow(FlowSpec {
            src: 0,
            dst: 2,
            size: 1 << 40,
            start: Time::ZERO,
            service: 0,
        });
        sim.run_until(Time::from_ms(100)).expect("run");
        let gbps = sim.delivered_bytes(f) as f64 * 8.0 / 0.1 / 1e9;
        assert!(gbps > 8.5, "throughput {gbps} Gbps under {:?}", cfg.cc);
    }
}

/// 400 web-search flows at load 0.7 from eight senders into one 1 Gbps
/// port with four equal DWRR queues, marked by TCN at `threshold`.
fn dwrr_star_fcts(threshold: Time) -> FctBreakdown {
    let mut sim = single_switch(
        9,
        Rate::from_gbps(1),
        Time::from_us(62),
        TcpConfig::preset(Cc::Dctcp).testbed(),
        TaggingPolicy::Fixed,
        move || PortSetup {
            nqueues: 4,
            buffer: Some(96_000),
            tx_rate: None,
            make_sched: Box::new(|| Box::new(Dwrr::equal(4, 1_500))),
            make_aqm: Box::new(move || Box::new(Tcn::new(threshold))),
        },
    )
    .expect("topology is well-formed");
    let mut rng = Rng::new(2);
    let senders: Vec<u32> = (0..8).collect();
    for spec in gen_many_to_one(
        &mut rng,
        400,
        &senders,
        8,
        &Workload::WebSearch.cdf(),
        0.7,
        Rate::from_gbps(1),
        &[0, 1, 2, 3],
        Time::ZERO,
    ) {
        sim.add_flow(spec);
    }
    assert!(sim.run_to_completion(Time::from_secs(1_000)).expect("run"));
    FctBreakdown::from_records(&sim.fct_records())
}

#[test]
fn tcn_threshold_trades_small_flow_latency_against_throughput() {
    // The paper's T = RTT × λ (Eq. 3) is 256 µs here. A grossly
    // oversized T lets queues build, so small flows wait longer; an
    // undersized one marks away throughput, so large flows gain nothing.
    let tight = dwrr_star_fcts(Time::from_us(64));
    let paper = dwrr_star_fcts(Time::from_us(256));
    let loose = dwrr_star_fcts(Time::from_us(2048));
    assert!(
        loose.small_avg_us > paper.small_avg_us,
        "oversized T should inflate small-flow FCT: {} vs {} us",
        loose.small_avg_us,
        paper.small_avg_us
    );
    assert!(
        tight.large_avg_us >= paper.large_avg_us * 0.95,
        "undersized T must not beat the paper's T on large flows: {} vs {} us",
        tight.large_avg_us,
        paper.large_avg_us
    );
}
