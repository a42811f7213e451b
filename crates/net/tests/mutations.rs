//! Integration tests for the runtime-reconfiguration surface
//! ([`NetworkSim::schedule_mutation`], the one way to mutate a live
//! run): target validation, mid-run AQM retuning, administrative switch
//! drains, fault profile swaps, and the fixed ordering of same-instant
//! mutations. All
//! runs execute under the `NetAudit` conservation checker in debug
//! builds, so a drain that loses track of a byte fails loudly here.

use tcn_core::{AqmParams, Tcn};
use tcn_net::{
    single_switch, single_switch_downlink, FlowSpec, NetMutation, NetworkSim, PortSetup,
    TaggingPolicy,
};
use tcn_sched::Dwrr;
use tcn_sim::{LinkFaultProfile, Rate, Time};
use tcn_transport::{Cc, TcpConfig};

fn tcn_port(threshold: Time) -> impl Fn() -> PortSetup {
    move || PortSetup {
        nqueues: 2,
        buffer: Some(300_000),
        tx_rate: None,
        make_sched: Box::new(|| Box::new(Dwrr::equal(2, 1500))),
        make_aqm: Box::new(move || Box::new(Tcn::new(threshold))),
    }
}

/// 4 hosts around one switch, 8 staggered flows converging on hosts
/// 0 and 1 — enough congestion that TCN marks under a tight threshold.
fn star_sim(threshold: Time) -> NetworkSim {
    let mut sim = single_switch(
        4,
        Rate::from_gbps(1),
        Time::from_us(25),
        TcpConfig::preset(Cc::Dctcp).sim(),
        TaggingPolicy::Fixed,
        tcn_port(threshold),
    )
    .unwrap();
    for i in 0..8u32 {
        sim.add_flow(FlowSpec {
            src: 2 + ((i / 2) % 2),
            dst: i % 2,
            size: 200_000 + u64::from(i) * 10_000,
            start: Time::from_us(u64::from(i) * 50),
            service: 0,
        });
    }
    sim
}

fn total_marks(sim: &NetworkSim) -> u64 {
    (0..sim.num_links())
        .map(|l| sim.port(l).stats().total_marks())
        .sum()
}

fn total_drain_drops(sim: &NetworkSim) -> u64 {
    (0..sim.num_links())
        .map(|l| sim.port(l).stats().drain_drops)
        .sum()
}

#[test]
fn unknown_targets_are_config_errors() {
    let mut sim = star_sim(Time::from_us(100));
    let err = sim
        .schedule_mutation(
            Time::from_ms(1),
            NetMutation::LinkAdmin { link: 999, up: false },
        )
        .expect_err("link 999 does not exist");
    assert_eq!(err.kind(), "config");
    assert!(err.to_string().contains("unknown link 999"), "{err}");

    let err = sim
        .schedule_mutation(Time::from_ms(1), NetMutation::DrainSwitch { node: 77 })
        .expect_err("node 77 does not exist");
    assert_eq!(err.kind(), "config");
    assert!(err.to_string().contains("unknown node 77"), "{err}");

    let params = AqmParams::Tcn { threshold: Time::from_us(1) };
    let err = sim
        .schedule_mutation(Time::from_ms(1), NetMutation::AqmParams { link: 500, params })
        .expect_err("link 500 does not exist");
    assert_eq!(err.kind(), "config");
}

#[test]
fn scheduled_tcn_retune_changes_marking() {
    // Baseline: tight threshold marks heavily.
    let mut base = star_sim(Time::from_us(100));
    assert!(base.run_to_completion(Time::from_secs(10)).unwrap());
    let base_marks = total_marks(&base);
    assert!(base_marks > 0, "baseline must mark under congestion");

    // Same sim, but every downlink's threshold is raised sky-high by a
    // scheduled mutation before congestion builds: marks must collapse.
    let mut retuned = star_sim(Time::from_us(100));
    for h in 0..4u32 {
        retuned
            .schedule_mutation(
                Time::ZERO,
                NetMutation::AqmParams {
                    link: single_switch_downlink(h) as u32,
                    params: AqmParams::Tcn { threshold: Time::from_secs(1) },
                },
            )
            .unwrap();
    }
    assert!(retuned.run_to_completion(Time::from_secs(10)).unwrap());
    assert!(
        total_marks(&retuned) < base_marks,
        "raising the threshold must reduce marks: {} vs {base_marks}",
        total_marks(&retuned)
    );
    assert_eq!(retuned.reconfig_log().len(), 4);
    assert!(retuned.reconfig_log()[0].1.contains("aqm link=1"));
}

#[test]
fn aqm_family_mismatch_surfaces_at_apply_time() {
    let mut sim = star_sim(Time::from_us(100));
    // Scheduling succeeds — the link exists — but a TCN port cannot take
    // a CoDel parameter set, and the run must return that as a typed
    // error when the mutation fires.
    sim.schedule_mutation(
        Time::from_us(10),
        NetMutation::AqmParams {
            link: single_switch_downlink(0) as u32,
            params: AqmParams::CoDel { target: Time::from_us(50) },
        },
    )
    .expect("scheduling validates only the target");
    let err = sim
        .run_to_completion(Time::from_secs(10))
        .expect_err("family mismatch must fail the run");
    assert_eq!(err.kind(), "config");
    assert!(err.to_string().contains("TCN"), "{err}");
}

#[test]
fn drain_discards_backlog_and_flows_still_complete() {
    let mut sim = star_sim(Time::from_us(100));
    // Let congestion build, then administratively drain the switch.
    let at = Time::from_us(300);
    sim.schedule_mutation(at, NetMutation::DrainSwitch { node: 4 }).expect("switch node is 4");
    sim.run_until(at).unwrap();
    let log = sim.reconfig_log();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].0, at);
    let dropped: u64 = log[0]
        .1
        .split_once("dropped=")
        .and_then(|(_, n)| n.parse().ok())
        .unwrap_or_else(|| panic!("drain log must carry the count: {}", log[0].1));
    assert!(dropped > 0, "a congested switch must have backlog to drain");
    assert_eq!(total_drain_drops(&sim), dropped);
    // Retransmission recovers everything the drain threw away.
    assert!(sim.run_to_completion(Time::from_secs(10)).unwrap());
    assert_eq!(sim.completed_flows(), sim.num_flows());
}

#[test]
fn scheduled_drain_is_deterministic() {
    let run = || {
        let mut sim = star_sim(Time::from_us(100));
        sim.schedule_mutation(Time::from_us(300), NetMutation::DrainSwitch { node: 4 })
            .unwrap();
        assert!(sim.run_to_completion(Time::from_secs(10)).unwrap());
        (
            sim.fct_records().iter().map(|r| r.fct.as_ps()).collect::<Vec<_>>(),
            total_drain_drops(&sim),
            sim.reconfig_log().to_vec(),
        )
    };
    let (fcts_a, drops_a, log_a) = run();
    let (fcts_b, drops_b, log_b) = run();
    assert!(drops_a > 0);
    assert_eq!(fcts_a, fcts_b);
    assert_eq!(drops_a, drops_b);
    assert_eq!(log_a, log_b);
}

#[test]
fn mid_run_loss_injection_and_clearing() {
    let uplink = single_switch_downlink(0) as u32 - 1; // host 0 → switch
    let mut sim = star_sim(Time::from_us(100));
    // Make host 2's uplink lossy mid-run, then quiet it again.
    let lossy = single_switch_downlink(2) as u32 - 1;
    sim.schedule_mutation(
        Time::from_us(200),
        NetMutation::LinkConditions { link: lossy, profile: LinkFaultProfile::loss(0.05) },
    )
    .unwrap();
    sim.schedule_mutation(
        Time::from_ms(5),
        NetMutation::LinkConditions { link: lossy, profile: LinkFaultProfile::NONE },
    )
    .unwrap();
    assert!(sim.run_to_completion(Time::from_secs(10)).unwrap());
    assert!(
        sim.fault_stats().loss_drops > 0,
        "the lossy window must claim some packets"
    );
    assert_eq!(sim.completed_flows(), sim.num_flows());
    assert_eq!(sim.reconfig_log().len(), 2);
    // The untouched uplink never drew from the fault RNG.
    let _ = uplink;
}

#[test]
fn same_instant_mutations_apply_in_schedule_order() {
    // Two retunes of the same port at the same instant: the one
    // scheduled last wins, and the log preserves schedule order — the
    // step-edge semantics scenario steps rely on.
    let link = single_switch_downlink(0) as u32;
    let at = Time::from_us(123);
    let mut sim = star_sim(Time::from_us(100));
    sim.schedule_mutation(
        at,
        NetMutation::AqmParams { link, params: AqmParams::Tcn { threshold: Time::from_us(7) } },
    )
    .unwrap();
    sim.schedule_mutation(
        at,
        NetMutation::AqmParams { link, params: AqmParams::Tcn { threshold: Time::from_us(9) } },
    )
    .unwrap();
    assert!(sim.run_to_completion(Time::from_secs(10)).unwrap());
    let log = sim.reconfig_log();
    assert_eq!(log.len(), 2);
    assert_eq!(log[0].0, at);
    assert_eq!(log[1].0, at);
    assert!(log[0].1.contains("7"), "first scheduled applies first: {}", log[0].1);
    assert!(log[1].1.contains("9"), "last scheduled applies last: {}", log[1].1);
}

#[test]
fn link_admin_mutation_downs_and_restores_a_link() {
    let mut sim = star_sim(Time::from_us(100));
    let downlink = single_switch_downlink(0) as u32;
    sim.schedule_mutation(
        Time::from_us(400),
        NetMutation::LinkAdmin { link: downlink, up: false },
    )
    .unwrap();
    sim.schedule_mutation(
        Time::from_ms(2),
        NetMutation::LinkAdmin { link: downlink, up: true },
    )
    .unwrap();
    assert!(sim.run_to_completion(Time::from_secs(10)).unwrap());
    let fs = sim.fault_stats();
    assert_eq!(fs.link_downs, 1);
    assert_eq!(fs.link_ups, 1);
    assert!(sim.link_is_up(downlink as usize));
    assert_eq!(sim.completed_flows(), sim.num_flows());
}

#[test]
fn cc_switch_mutation_migrates_live_flows_of_one_service() {
    let mut sim = star_sim(Time::from_us(100));
    let flows: Vec<_> = (0..sim.num_flows() as u64).map(tcn_core::FlowId).collect();
    for &f in &flows {
        assert_eq!(sim.flow_cc(f), Cc::Dctcp);
    }
    // Every star_sim flow is service 0 and still live at 300 µs
    // (200 KB+ each at 1 Gbps): all of them must migrate.
    sim.schedule_mutation(
        Time::from_us(300),
        NetMutation::CcSwitch { service: 0, cc: Cc::Cubic },
    )
    .unwrap();
    // A class with no flows is a valid no-op target, not an error.
    sim.schedule_mutation(
        Time::from_us(300),
        NetMutation::CcSwitch { service: 9, cc: Cc::Bbr },
    )
    .unwrap();
    assert!(sim.run_to_completion(Time::from_secs(10)).unwrap());
    assert_eq!(sim.completed_flows(), sim.num_flows());
    for &f in &flows {
        assert_eq!(sim.flow_cc(f), Cc::Cubic, "flow {f:?} kept its old controller");
    }
    let log = sim.reconfig_log();
    assert!(log.iter().any(|(_, l)| l.contains("cc-switch service=0 cc=cubic")), "{log:?}");
}
