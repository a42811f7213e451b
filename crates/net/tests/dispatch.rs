//! Integration tests for the dispatch hot path: the batched
//! same-timestamp drain plus per-port TxDone coalescing must be
//! byte-identical to the per-event reference loop — on a star, on a
//! multi-hop fabric, and under faults and live reconfiguration. All
//! runs execute under the `NetAudit` conservation checker in debug
//! builds.

use tcn_core::Tcn;
use tcn_net::{
    leaf_spine, single_switch, DispatchMode, FaultStats, FlowSpec, LeafSpineConfig, NetMutation,
    NetworkSim, PortSetup, TaggingPolicy,
};
use tcn_sched::{Dwrr, SpHybrid, Wfq};
use tcn_sim::{FaultPlan, LinkFaultProfile, Rate, Time};
use tcn_transport::{Cc, TcpConfig};

/// 4 hosts around one switch, 8 staggered flows converging on hosts
/// 0 and 1 — enough congestion for queueing, marking, and drops.
fn star_sim(wfq: bool) -> NetworkSim {
    let mut sim = single_switch(
        4,
        Rate::from_gbps(1),
        Time::from_us(25),
        TcpConfig::preset(Cc::Dctcp).sim(),
        TaggingPolicy::Fixed,
        || PortSetup {
            nqueues: 2,
            buffer: Some(120_000),
            tx_rate: None,
            make_sched: if wfq {
                Box::new(|| Box::new(Wfq::equal(2)))
            } else {
                Box::new(|| Box::new(Dwrr::equal(2, 1500)))
            },
            make_aqm: Box::new(|| Box::new(Tcn::new(Time::from_us(100)))),
        },
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

/// 4×4 leaf-spine with cross-leaf flows from leaf 0 to leaf 3, so every
/// byte crosses four links and ECMP spreads over the spines. Switch
/// ports run WFQ over two queues or, as in the paper's fabric, SP/DWRR:
/// one strict queue above two DWRR queues.
fn fabric_sim(sp_dwrr: bool) -> NetworkSim {
    let nqueues = if sp_dwrr { 3 } else { 2 };
    let mut sim = leaf_spine(
        LeafSpineConfig::small(),
        TcpConfig::preset(Cc::Dctcp).sim(),
        TaggingPolicy::Fixed,
        || PortSetup {
            nqueues,
            buffer: Some(300_000),
            tx_rate: None,
            make_sched: if sp_dwrr {
                Box::new(|| Box::new(SpHybrid::new(1, Dwrr::equal(2, 1500))))
            } else {
                Box::new(|| Box::new(Wfq::equal(2)))
            },
            make_aqm: Box::new(|| Box::new(Tcn::new(Time::from_us(100)))),
        },
    )
    .unwrap();
    for i in 0..16u32 {
        sim.add_flow(FlowSpec {
            src: i % 4,
            dst: 12 + (i % 4),
            size: 300_000,
            start: Time::from_us(u64::from(i / 4) * 10),
            service: (i as usize % nqueues) as u8,
        });
    }
    sim
}

/// The WFQ [`fabric_sim`] on a bad day: loss and jitter on every wire, the
/// leaf0→spine0 uplink flapped by `LinkAdmin` mutations (routing
/// reconverges twice), and leaf0→spine1 stepped down to 1 Gbps
/// mid-transfer.
fn faulty_fabric_sim() -> NetworkSim {
    let mut sim = fabric_sim(false);
    sim.install_faults(
        &FaultPlan {
            default_profile: LinkFaultProfile {
                loss: 0.005,
                jitter_prob: 0.1,
                jitter_max: Time::from_us(30),
                ..LinkFaultProfile::NONE
            },
            ..FaultPlan::quiet(17)
        }
        .with_detection_delay(Time::from_us(100)),
    );
    // Fabric links follow the 2-per-host access links; leaf0's uplinks
    // are every other one from there.
    let uplink0 = LeafSpineConfig::small().num_hosts() as u32 * 2;
    let uplink1 = uplink0 + 2;
    let admin = |up| NetMutation::LinkAdmin { link: uplink0, up };
    let slow = NetMutation::LinkRate {
        link: uplink1,
        rate: Rate::from_gbps(1),
    };
    for (us, m) in [(300, admin(false)), (500, slow), (900, admin(true))] {
        sim.schedule_mutation(Time::from_us(us), m).unwrap();
    }
    sim
}

type Counters = Vec<(u64, u64, u64)>;

/// Everything a figure could read from a finished run, rendered
/// comparable: per-flow FCTs, timeouts, per-port tx/mark/drop counters
/// and what the fault layer did. Deliberately excludes
/// `events_processed` — coalescing legitimately elides trailing TxDone
/// events.
fn fingerprint(sim: &NetworkSim) -> (Counters, Counters, FaultStats) {
    let fcts = sim
        .fct_records()
        .iter()
        .map(|r| (r.flow.0, r.fct.as_ps(), r.timeouts))
        .collect();
    let ports = (0..sim.num_links())
        .map(|l| {
            let s = sim.port(l).stats();
            (s.tx_packets, s.total_marks(), s.total_drops())
        })
        .collect();
    (fcts, ports, sim.fault_stats())
}

/// Run `build()` under both loops, require equal fingerprints, and
/// hand back the (shared) fingerprint.
fn assert_modes_agree(
    name: &str,
    build: impl Fn() -> NetworkSim,
) -> (Counters, Counters, FaultStats) {
    let run = |mode: DispatchMode| {
        let mut sim = build();
        sim.set_dispatch_mode(mode);
        assert!(
            sim.run_to_completion(Time::from_secs(60)).unwrap(),
            "{name}"
        );
        fingerprint(&sim)
    };
    let batched = run(DispatchMode::Batched);
    assert_eq!(
        batched,
        run(DispatchMode::PerEvent),
        "dispatch modes diverged ({name})"
    );
    batched
}

#[test]
fn batched_dispatch_is_byte_identical_to_per_event() {
    // Batched mode elides trailing TxDone wakes on every port, DWRR
    // and WFQ alike — output must not move, on one hop or four, quiet
    // or under faults and mid-run mutations.
    assert_modes_agree("star/dwrr", || star_sim(false));
    assert_modes_agree("star/wfq", || star_sim(true));
    assert_modes_agree("fabric/wfq", || fabric_sim(false));
    assert_modes_agree("fabric/sp-dwrr", || fabric_sim(true));
    let (_, _, fs) = assert_modes_agree("fabric/wfq + faults + mutations", faulty_fabric_sim);
    // The bad day actually happened.
    assert!(fs.loss_drops > 0 && fs.jitter_delays > 0);
    assert_eq!((fs.link_downs, fs.link_ups, fs.reconvergences), (1, 1, 2));
}

/// Held wakes (`BusyHeld`) exist only as reserved sequence numbers that
/// the batched loop resolves, so the reference loop may not take over a
/// run in progress.
#[test]
#[should_panic(expected = "before the first event")]
fn dispatch_mode_is_fixed_once_an_event_has_run() {
    let mut sim = star_sim(true);
    sim.run_until(Time::from_us(100)).unwrap();
    sim.set_dispatch_mode(DispatchMode::PerEvent);
}
