//! Canned topology builders for the paper's experimental setups.
//!
//! All builders take a **port factory** — a closure producing the
//! [`PortSetup`] for each *switch* egress port — so the same topology runs
//! under any (scheduler, AQM) pair. Host NIC ports are single-queue
//! drop-tail with unbounded buffer ([`PortSetup::host_nic`]), matching the
//! role host NICs play in the paper's testbed (the qdisc switch is the
//! contended element).

use tcn_core::TcnError;
use tcn_sim::{Rate, Time};
use tcn_transport::TcpConfig;

use crate::network::{LinkSpec, NetworkSim, NodeId, TaggingPolicy};
use crate::port::PortSetup;

/// A star: `n_hosts` hosts around one switch — the shape of the paper's
/// 9-server testbed (§6.1) and of the single-switch simulations
/// (Figs. 1–3).
///
/// * host uplinks: `host_nic()`, propagation `delay`;
/// * switch downlinks: `mk_port()`, propagation `delay`.
///
/// Base RTT = 4 × `delay` (+ serialization).
///
/// # Errors
/// [`TcnError::Config`] if `n_hosts < 2`.
pub fn single_switch(
    n_hosts: usize,
    rate: Rate,
    delay: Time,
    tcp: TcpConfig,
    tagging: TaggingPolicy,
    mk_port: impl Fn() -> PortSetup,
) -> Result<NetworkSim, TcnError> {
    if n_hosts < 2 {
        return Err(TcnError::config("single-switch needs at least two hosts"));
    }
    let switch: NodeId = n_hosts as NodeId;
    let mut links = Vec::new();
    for h in 0..n_hosts as NodeId {
        links.push(LinkSpec {
            from: h,
            to: switch,
            rate,
            delay,
            setup: PortSetup::host_nic(),
        });
        links.push(LinkSpec {
            from: switch,
            to: h,
            rate,
            delay,
            setup: mk_port(),
        });
    }
    NetworkSim::new(
        n_hosts + 1,
        (0..n_hosts as NodeId).collect(),
        links,
        tcp,
        tagging,
    )
}

/// The link index of the switch's egress port toward `host` in a
/// [`single_switch`] topology (for reading port stats / occupancy).
pub fn single_switch_downlink(host: u32) -> usize {
    host as usize * 2 + 1
}

/// Parameters of the paper's large-scale fabric (§6.2): 12 leaves × 12
/// spines × 12 hosts per leaf = 144 hosts, all links 10 Gbps,
/// non-blocking, ECMP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafSpineConfig {
    /// Number of leaf (ToR) switches.
    pub leaves: usize,
    /// Number of spine (core) switches.
    pub spines: usize,
    /// Hosts per leaf.
    pub hosts_per_leaf: usize,
    /// Uniform link rate.
    pub rate: Rate,
    /// Host-link propagation delay (models end-host latency; the paper's
    /// base RTT spends "80 us at end hosts").
    pub host_delay: Time,
    /// Fabric-link propagation delay.
    pub fabric_delay: Time,
}

impl LeafSpineConfig {
    /// The paper's configuration: base RTT across the spine =
    /// 4 × 20 µs (hosts) + 4 × 1.3 µs (fabric) = 85.2 µs.
    pub fn paper() -> Self {
        LeafSpineConfig {
            leaves: 12,
            spines: 12,
            hosts_per_leaf: 12,
            rate: Rate::from_gbps(10),
            host_delay: Time::from_us(20),
            fabric_delay: Time::from_ns(1300),
        }
    }

    /// A scaled-down fabric with the same shape, for tests and CI-speed
    /// experiment runs.
    pub fn small() -> Self {
        LeafSpineConfig {
            leaves: 4,
            spines: 4,
            hosts_per_leaf: 4,
            rate: Rate::from_gbps(10),
            host_delay: Time::from_us(20),
            fabric_delay: Time::from_ns(1300),
        }
    }

    /// Total hosts.
    pub fn num_hosts(&self) -> usize {
        self.leaves * self.hosts_per_leaf
    }

    /// Base RTT across the spine (4 host-link + 4 fabric-link
    /// traversals).
    pub fn base_rtt(&self) -> Time {
        self.host_delay * 4 + self.fabric_delay * 4
    }
}

/// Build the leaf-spine fabric. Node layout: hosts `0..H`, then leaves,
/// then spines. Every switch egress port (leaf→host, leaf→spine,
/// spine→leaf) uses `mk_port()`.
///
/// # Errors
/// [`TcnError::Topology`] if the resulting fabric is not fully routable.
pub fn leaf_spine(
    cfg: LeafSpineConfig,
    tcp: TcpConfig,
    tagging: TaggingPolicy,
    mk_port: impl Fn() -> PortSetup,
) -> Result<NetworkSim, TcnError> {
    let hosts = cfg.num_hosts();
    let leaf0 = hosts as NodeId;
    let spine0 = (hosts + cfg.leaves) as NodeId;
    let num_nodes = hosts + cfg.leaves + cfg.spines;
    let mut links = Vec::new();
    // Host <-> leaf.
    for h in 0..hosts {
        let leaf = leaf0 + (h / cfg.hosts_per_leaf) as NodeId;
        links.push(LinkSpec {
            from: h as NodeId,
            to: leaf,
            rate: cfg.rate,
            delay: cfg.host_delay,
            setup: PortSetup::host_nic(),
        });
        links.push(LinkSpec {
            from: leaf,
            to: h as NodeId,
            rate: cfg.rate,
            delay: cfg.host_delay,
            setup: mk_port(),
        });
    }
    // Leaf <-> spine full mesh.
    for l in 0..cfg.leaves {
        for s in 0..cfg.spines {
            let leaf = leaf0 + l as NodeId;
            let spine = spine0 + s as NodeId;
            links.push(LinkSpec {
                from: leaf,
                to: spine,
                rate: cfg.rate,
                delay: cfg.fabric_delay,
                setup: mk_port(),
            });
            links.push(LinkSpec {
                from: spine,
                to: leaf,
                rate: cfg.rate,
                delay: cfg.fabric_delay,
                setup: mk_port(),
            });
        }
    }
    NetworkSim::new(
        num_nodes,
        (0..hosts as NodeId).collect(),
        links,
        tcp,
        tagging,
    )
}

/// A three-tier k-ary fat-tree (Clos), the other canonical datacenter
/// fabric: `k` pods of `k/2` edge + `k/2` aggregation switches, `(k/2)^2`
/// cores, `k^3/4` hosts, uniform `rate`, ECMP at every tier. Extension
/// beyond the paper's leaf-spine — the AQM/scheduler code paths are
/// identical, only the route diversity changes.
///
/// # Errors
/// [`TcnError::Config`] unless `k` is even and >= 2.
#[allow(clippy::too_many_arguments)] // experiment knobs, one call site each
pub fn fat_tree(
    k: usize,
    rate: Rate,
    host_delay: Time,
    fabric_delay: Time,
    tcp: TcpConfig,
    tagging: TaggingPolicy,
    mk_port: impl Fn() -> PortSetup,
) -> Result<NetworkSim, TcnError> {
    if k < 2 || !k.is_multiple_of(2) {
        return Err(TcnError::config(format!("fat-tree arity must be even, got {k}")));
    }
    let half = k / 2;
    let hosts = k * half * half;
    let edges = k * half;
    let aggs = k * half;
    let edge0 = hosts;
    let agg0 = edge0 + edges;
    let core0 = agg0 + aggs;
    let num_nodes = hosts + edges + aggs + half * half;
    let mut links = Vec::new();
    let both = |from: usize, to: usize, delay: Time, links: &mut Vec<LinkSpec>, host: bool| {
        links.push(LinkSpec {
            from: from as NodeId,
            to: to as NodeId,
            rate,
            delay,
            setup: if host { PortSetup::host_nic() } else { mk_port() },
        });
        links.push(LinkSpec {
            from: to as NodeId,
            to: from as NodeId,
            rate,
            delay,
            setup: mk_port(),
        });
    };
    // Hosts <-> edges.
    for h in 0..hosts {
        both(h, edge0 + h / half, host_delay, &mut links, true);
    }
    // Edges <-> aggregations: full bipartite within each pod.
    for pod in 0..k {
        for e in 0..half {
            for a in 0..half {
                both(
                    edge0 + pod * half + e,
                    agg0 + pod * half + a,
                    fabric_delay,
                    &mut links,
                    false,
                );
            }
        }
    }
    // Aggregations <-> cores: agg `a` of each pod reaches cores
    // a*half..(a+1)*half.
    for pod in 0..k {
        for a in 0..half {
            for c in 0..half {
                both(
                    agg0 + pod * half + a,
                    core0 + a * half + c,
                    fabric_delay,
                    &mut links,
                    false,
                );
            }
        }
    }
    NetworkSim::new(
        num_nodes,
        (0..hosts as NodeId).collect(),
        links,
        tcp,
        tagging,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{FlowSpec, ProbeConfig};
    use tcn_core::Tcn;
    use tcn_sched::Dwrr;
    use tcn_transport::Cc;

    fn tcn_port() -> PortSetup {
        PortSetup {
            nqueues: 2,
            buffer: Some(300_000),
            tx_rate: None,
            make_sched: Box::new(|| Box::new(Dwrr::equal(2, 1500))),
            make_aqm: Box::new(|| Box::new(Tcn::new(Time::from_us(100)))),
        }
    }

    #[test]
    fn single_flow_completes_with_correct_bytes() {
        let mut sim = single_switch(
            3,
            Rate::from_gbps(1),
            Time::from_us(25),
            TcpConfig::preset(Cc::Dctcp).sim(),
            TaggingPolicy::Fixed,
            tcn_port,
        )
        .unwrap();
        let f = sim.add_flow(FlowSpec {
            src: 0,
            dst: 2,
            size: 1_000_000,
            start: Time::ZERO,
            service: 0,
        });
        assert!(sim.run_to_completion(Time::from_secs(5)).unwrap());
        assert_eq!(sim.delivered_bytes(f), 1_000_000);
        let recs = sim.fct_records();
        assert_eq!(recs.len(), 1);
        // 1 MB at 1 Gbps ≥ 8 ms; with slow start it's strictly more,
        // but it must stay well under a second.
        assert!(recs[0].fct > Time::from_ms(8));
        assert!(recs[0].fct < Time::from_ms(200), "fct {}", recs[0].fct);
    }

    #[test]
    fn fct_scales_with_flow_size() {
        let run = |size: u64| {
            let mut sim = single_switch(
                3,
                Rate::from_gbps(1),
                Time::from_us(25),
                TcpConfig::preset(Cc::Dctcp).sim(),
                TaggingPolicy::Fixed,
                tcn_port,
            )
            .unwrap();
            sim.add_flow(FlowSpec {
                src: 0,
                dst: 2,
                size,
                start: Time::ZERO,
                service: 0,
            });
            assert!(sim.run_to_completion(Time::from_secs(10)).unwrap());
            sim.fct_records()[0].fct
        };
        let small = run(20_000);
        let large = run(10_000_000);
        // Small flow: ~1 RTT + transmission ≈ 100-400 us. Large: ~82 ms.
        assert!(small < Time::from_ms(1), "small fct {small}");
        assert!(large > Time::from_ms(70), "large fct {large}");
    }

    #[test]
    fn two_flow_fair_share_throughput() {
        // Two long flows to the same receiver through one 1 Gbps port:
        // each should get ≈ 475 Mbps of goodput.
        let mut sim = single_switch(
            3,
            Rate::from_gbps(1),
            Time::from_us(25),
            TcpConfig::preset(Cc::Dctcp).sim(),
            TaggingPolicy::Fixed,
            tcn_port,
        )
        .unwrap();
        let a = sim.add_flow(FlowSpec {
            src: 0,
            dst: 2,
            size: 1 << 40,
            start: Time::ZERO,
            service: 0,
        });
        let b = sim.add_flow(FlowSpec {
            src: 1,
            dst: 2,
            size: 1 << 40,
            start: Time::ZERO,
            service: 0,
        });
        sim.run_until(Time::from_ms(200)).unwrap();
        let ga = sim.delivered_bytes(a) as f64;
        let gb = sim.delivered_bytes(b) as f64;
        let total_gbps = (ga + gb) * 8.0 / 0.2 / 1e9;
        assert!(total_gbps > 0.90, "aggregate goodput {total_gbps} Gbps");
        let ratio = ga / gb;
        assert!((0.7..1.4).contains(&ratio), "fairness ratio {ratio}");
    }

    #[test]
    fn probe_measures_base_rtt_on_idle_network() {
        let mut sim = single_switch(
            3,
            Rate::from_gbps(1),
            Time::from_us(25),
            TcpConfig::preset(Cc::Dctcp).sim(),
            TaggingPolicy::Fixed,
            tcn_port,
        )
        .unwrap();
        sim.add_prober(ProbeConfig {
            src: 0,
            dst: 2,
            dscp: 1,
            interval: Time::from_ms(1),
            start: Time::ZERO,
            size: 64,
        });
        sim.run_until(Time::from_ms(10)).unwrap();
        let rtts = sim.probe_rtts(0);
        assert!(rtts.len() >= 9, "got {} probes", rtts.len());
        // Base RTT = 4 × 25 us + 4 × (64 B serialization ≈ 0.512 us).
        let rtt = rtts[0].1;
        assert!(rtt >= Time::from_us(100), "rtt {rtt}");
        assert!(rtt < Time::from_us(110), "rtt {rtt}");
    }

    #[test]
    fn leaf_spine_cross_rack_flow() {
        let cfg = LeafSpineConfig::small();
        let mut sim = leaf_spine(cfg, TcpConfig::preset(Cc::Dctcp).sim(), TaggingPolicy::Fixed, tcn_port).unwrap();
        // Host 0 (leaf 0) to a host on the last leaf.
        let dst = (cfg.num_hosts() - 1) as u32;
        let f = sim.add_flow(FlowSpec {
            src: 0,
            dst,
            size: 500_000,
            start: Time::ZERO,
            service: 0,
        });
        assert!(sim.run_to_completion(Time::from_secs(2)).unwrap());
        assert_eq!(sim.delivered_bytes(f), 500_000);
    }

    #[test]
    fn leaf_spine_base_rtt_matches_paper() {
        assert_eq!(LeafSpineConfig::paper().base_rtt(), Time::from_ps(85_200_000));
        assert_eq!(LeafSpineConfig::paper().num_hosts(), 144);
    }

    #[test]
    fn leaf_spine_ecmp_spreads_flows() {
        // Many flows between the same pair of racks must use more than
        // one spine.
        let cfg = LeafSpineConfig::small();
        let mut sim = leaf_spine(cfg, TcpConfig::preset(Cc::Dctcp).sim(), TaggingPolicy::Fixed, tcn_port).unwrap();
        for i in 0..16 {
            sim.add_flow(FlowSpec {
                src: i % 4,
                dst: 12 + (i % 4),
                size: 100_000,
                start: Time::from_us(u64::from(i) * 10),
                service: 0,
            });
        }
        assert!(sim.run_to_completion(Time::from_secs(2)).unwrap());
        // Count leaf0-uplink ports that carried traffic: links are laid
        // out hosts first (2 per host), then leaf-spine pairs.
        let first_fabric = cfg.num_hosts() * 2;
        let mut used = 0;
        for l in 0..cfg.spines {
            let port = sim.port(first_fabric + l * 2);
            if port.stats().tx_packets > 0 {
                used += 1;
            }
        }
        assert!(used >= 2, "ECMP used only {used} spine uplinks");
    }

    #[test]
    fn pias_tagging_splits_priorities() {
        let mut sim = single_switch(
            3,
            Rate::from_gbps(1),
            Time::from_us(25),
            TcpConfig::preset(Cc::Dctcp).sim(),
            TaggingPolicy::Pias { threshold: 100_000 },
            tcn_port,
        )
        .unwrap();
        // Service 1 ⇒ low-priority dscp 1; first 100 KB ride dscp 0.
        let f = sim.add_flow(FlowSpec {
            src: 0,
            dst: 2,
            size: 400_000,
            start: Time::ZERO,
            service: 1,
        });
        assert!(sim.run_to_completion(Time::from_secs(2)).unwrap());
        assert_eq!(sim.delivered_bytes(f), 400_000);
        // The switch downlink to host 2 saw both queues used.
        let port = sim.port(single_switch_downlink(2));
        assert!(port.stats().tx_bytes >= 400_000);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = single_switch(
                4,
                Rate::from_gbps(1),
                Time::from_us(25),
                TcpConfig::preset(Cc::Dctcp).sim(),
                TaggingPolicy::Fixed,
                tcn_port,
            )
            .unwrap();
            for i in 0..8u32 {
                sim.add_flow(FlowSpec {
                    src: i % 3,
                    dst: 3,
                    size: 50_000 + u64::from(i) * 7_000,
                    start: Time::from_us(u64::from(i) * 13),
                    service: (i % 2) as u8,
                });
            }
            assert!(sim.run_to_completion(Time::from_secs(2)).unwrap());
            sim.fct_records()
                .iter()
                .map(|r| r.fct.as_ps())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "identical runs must produce identical FCTs");
    }
}

#[cfg(test)]
mod fat_tree_tests {
    use super::*;
    use crate::network::FlowSpec;
    use tcn_core::Tcn;
    use tcn_sched::Dwrr;
    use tcn_transport::Cc;

    fn tcn_port() -> PortSetup {
        PortSetup {
            nqueues: 2,
            buffer: Some(300_000),
            tx_rate: None,
            make_sched: Box::new(|| Box::new(Dwrr::equal(2, 1500))),
            make_aqm: Box::new(|| Box::new(Tcn::new(Time::from_us(78)))),
        }
    }

    #[test]
    fn k4_dimensions() {
        // k=4: 16 hosts, 8 edge, 8 agg, 4 core; cross-pod flows work.
        let mut sim = fat_tree(
            4,
            Rate::from_gbps(10),
            Time::from_us(20),
            Time::from_ns(1300),
            tcn_transport::TcpConfig::preset(Cc::Dctcp).sim(),
            TaggingPolicy::Fixed,
            tcn_port,
        )
        .unwrap();
        // Host 0 (pod 0) to host 15 (pod 3).
        let f = sim.add_flow(FlowSpec {
            src: 0,
            dst: 15,
            size: 300_000,
            start: Time::ZERO,
            service: 0,
        });
        assert!(sim.run_to_completion(Time::from_secs(2)).unwrap());
        assert_eq!(sim.delivered_bytes(f), 300_000);
    }

    #[test]
    fn same_pod_and_same_edge_paths() {
        let mut sim = fat_tree(
            4,
            Rate::from_gbps(10),
            Time::from_us(20),
            Time::from_ns(1300),
            tcn_transport::TcpConfig::preset(Cc::Dctcp).sim(),
            TaggingPolicy::Fixed,
            tcn_port,
        )
        .unwrap();
        // Same edge (hosts 0,1), same pod different edge (0,2).
        for (src, dst) in [(0u32, 1u32), (0, 2)] {
            sim.add_flow(FlowSpec {
                src,
                dst,
                size: 50_000,
                start: Time::ZERO,
                service: 0,
            });
        }
        assert!(sim.run_to_completion(Time::from_secs(2)).unwrap());
    }

    #[test]
    fn odd_arity_rejected() {
        let Err(err) = fat_tree(
            3,
            Rate::from_gbps(10),
            Time::from_us(20),
            Time::from_ns(1300),
            tcn_transport::TcpConfig::preset(Cc::Dctcp).sim(),
            TaggingPolicy::Fixed,
            PortSetup::host_nic,
        ) else {
            panic!("odd arity must be rejected");
        };
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("arity must be even"), "{err}");
    }

    #[test]
    fn run_sampled_ticks_expected_count() {
        let mut sim = fat_tree(
            4,
            Rate::from_gbps(10),
            Time::from_us(20),
            Time::from_ns(1300),
            tcn_transport::TcpConfig::preset(Cc::Dctcp).sim(),
            TaggingPolicy::Fixed,
            tcn_port,
        )
        .unwrap();
        sim.add_flow(FlowSpec {
            src: 0,
            dst: 15,
            size: 1_000_000,
            start: Time::ZERO,
            service: 0,
        });
        let mut samples = 0;
        sim.run_sampled(Time::from_ms(1), Time::from_us(100), |_s| samples += 1)
            .unwrap();
        assert_eq!(samples, 10);
        // The clock sits at the last processed event, never beyond the
        // horizon.
        assert!(sim.now() <= Time::from_ms(1));
    }
}
