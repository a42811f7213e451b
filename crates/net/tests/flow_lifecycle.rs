//! A flow's sender and receiver exist only while the flow is live: they
//! are built by the first event that touches the flow (its start, or a
//! `CcSwitch` naming its service before it starts) and released once
//! its last byte is acknowledged. Every per-flow accessor must read the
//! same before, during and after, and the values pinned here are the
//! ones the simulator produced when every flow kept its endpoints for
//! the whole run.

use tcn_core::{FlowId, Tcn};
use tcn_net::{single_switch, FlowSpec, NetMutation, NetworkSim, PortSetup, TaggingPolicy};
use tcn_sched::Dwrr;
use tcn_sim::{FaultPlan, LinkFaultProfile, Rate, Time};
use tcn_transport::{Cc, EcnPathState, TcpConfig};

/// Three hosts on one 1 Gbps switch with two DWRR queues under TCN.
fn star(tcp: TcpConfig) -> NetworkSim {
    single_switch(
        3,
        Rate::from_gbps(1),
        Time::from_us(25),
        tcp,
        TaggingPolicy::Fixed,
        || PortSetup {
            nqueues: 2,
            buffer: Some(120_000),
            tx_rate: None,
            make_sched: Box::new(|| Box::new(Dwrr::equal(2, 1500))),
            make_aqm: Box::new(|| Box::new(Tcn::new(Time::from_us(100)))),
        },
    )
    .unwrap()
}

fn flow(src: u32, size: u64, start: Time, service: u8) -> FlowSpec {
    FlowSpec {
        src,
        dst: 2,
        size,
        start,
        service,
    }
}

/// What the accessors say of one flow: controller, ECN path verdict,
/// delivered bytes, RTO expiries and ECN reductions.
type Snapshot = (Cc, EcnPathState, u64, u64, u64);

fn snapshot(sim: &NetworkSim, f: u64) -> Snapshot {
    let f = FlowId(f);
    (
        sim.flow_cc(f),
        sim.flow_ecn_path_state(f),
        sim.delivered_bytes(f),
        sim.flow_timeouts(f),
        sim.flow_ecn_reductions(f),
    )
}

/// Two 300 KB flows collide on a lossy star with ECN path validation on;
/// a third starts long after both are done and reuses a released slot.
#[test]
fn accessors_read_the_same_before_during_and_after_release() {
    let mut sim = star(TcpConfig::preset(Cc::Dctcp).sim().with_ecn_validation(true));
    sim.install_faults(&FaultPlan {
        default_profile: LinkFaultProfile {
            loss: 0.03,
            ..LinkFaultProfile::NONE
        },
        ..FaultPlan::quiet(7)
    });
    sim.add_flow(flow(0, 300_000, Time::ZERO, 0));
    sim.add_flow(flow(1, 300_000, Time::ZERO, 0));
    sim.add_flow(flow(0, 200_000, Time::from_ms(500), 0));
    let unstarted = (Cc::Dctcp, EcnPathState::Testing, 0, 0, 0);
    assert_eq!(snapshot(&sim, 0), unstarted);
    assert_eq!(sim.endpoint_high_water(), 0, "built in add_flow");

    sim.run_until(Time::from_ms(1)).unwrap();
    assert_eq!(sim.endpoint_high_water(), 2);
    assert_eq!(snapshot(&sim, 2), unstarted, "flow 2 before it starts");
    let live = [snapshot(&sim, 0), snapshot(&sim, 1)];
    for (f, s) in live.iter().enumerate() {
        assert!(s.2 > 0 && s.2 < 300_000, "flow {f} is live: {s:?}");
    }
    assert_eq!(
        live,
        [
            (Cc::Dctcp, EcnPathState::Capable, 64_240, 0, 2),
            (Cc::Dctcp, EcnPathState::Capable, 46_720, 0, 1),
        ],
        "live flows at 1 ms"
    );

    sim.run_until(Time::from_secs(2)).unwrap();
    assert_eq!(sim.completed_flows(), 3);
    assert_eq!(
        sim.endpoint_high_water(),
        2,
        "flow 2 reuses a released slot"
    );
    let fcts: Vec<u64> = sim.fct_records().iter().map(|r| r.fct.as_ps()).collect();
    assert_eq!(
        fcts,
        [20_161_200_000, 17_448_080_000, 39_012_240_000],
        "FCTs (ps)"
    );
    assert_eq!(
        [snapshot(&sim, 0), snapshot(&sim, 1), snapshot(&sim, 2)],
        [
            (Cc::Dctcp, EcnPathState::Capable, 300_000, 3, 3),
            (Cc::Dctcp, EcnPathState::Capable, 300_000, 2, 1),
            (Cc::Dctcp, EcnPathState::Capable, 200_000, 6, 0),
        ],
        "released flows"
    );
    assert_eq!(
        (
            sim.total_timeouts(),
            sim.total_delivered_bytes(),
            sim.total_fast_retransmits(),
            sim.total_retransmitted_packets(),
            sim.total_retransmitted_bytes(),
        ),
        (11, 800_000, 20, 42, 61_300),
        "sums over every flow"
    );
}

/// A `CcSwitch` that fires before its flow starts switches that flow:
/// the switch is the flow's first touch and builds its endpoints.
#[test]
fn cc_switch_before_start_builds_and_switches_the_flow() {
    let mut sim = star(TcpConfig::preset(Cc::Dctcp).sim());
    sim.add_flow(flow(0, 1_000_000, Time::ZERO, 0));
    sim.add_flow(flow(1, 1_000_000, Time::from_ms(1), 1));
    let switch = NetMutation::CcSwitch {
        service: 1,
        cc: Cc::Cubic,
    };
    sim.schedule_mutation(Time::from_us(500), switch).unwrap();
    sim.run_until(Time::from_us(600)).unwrap();
    assert_eq!(sim.endpoint_high_water(), 2, "the switch built flow 1");
    assert_eq!(sim.delivered_bytes(FlowId(1)), 0);
    assert!(sim.run_to_completion(Time::from_secs(1)).unwrap());
    let fcts: Vec<u64> = sim.fct_records().iter().map(|r| r.fct.as_ps()).collect();
    assert_eq!(fcts, [17_081_040_000, 11_217_200_000], "FCTs (ps)");
    assert_eq!(
        (sim.flow_cc(FlowId(0)), sim.flow_cc(FlowId(1))),
        (Cc::Dctcp, Cc::Cubic)
    );
}
