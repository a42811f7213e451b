//! Fluent construction of whole network simulations.
//!
//! The topology functions in [`crate::topology`] take positional
//! `(tcp, tagging, mk_port)` arguments and leave fault plans and
//! telemetry as separate post-construction installs. [`NetworkBuilder`]
//! is the front door that folds all of it into one chained expression:
//! pick a topology preset, set the port knobs (queues, shared buffer,
//! shaping, scheduler, AQM), optionally attach a fault plan and a
//! telemetry bus, and `build()`.
//!
//! ```
//! use tcn_net::NetworkBuilder;
//! use tcn_sim::{Rate, Time};
//!
//! let sim = NetworkBuilder::single_switch(4, Rate::from_gbps(1), Time::from_us(10))
//!     .queues(2)
//!     .buffer(96_000)
//!     .scheduler(|| Box::new(tcn_sched::Dwrr::equal(2, 1_500)))
//!     .aqm(|| Box::new(tcn_core::Tcn::new(Time::from_us(256))))
//!     .build()?;
//! assert_eq!(sim.num_links(), 8);
//! # Ok::<(), tcn_core::TcnError>(())
//! ```

use std::rc::Rc;

use tcn_core::aqm::Aqm;
use tcn_core::TcnError;
use tcn_sched::Scheduler;
use tcn_sim::{FaultPlan, Rate, Time};
use tcn_telemetry::Telemetry;
use tcn_transport::{Cc, TcpConfig};

use crate::network::{LinkSpec, NetworkSim, NodeId, TaggingPolicy};
use crate::port::PortSetup;
use crate::topology::{fat_tree, leaf_spine, single_switch, LeafSpineConfig};
use crate::watchdog::Watchdog;

/// Which canned topology the builder will instantiate.
enum Topo {
    SingleSwitch {
        hosts: usize,
        rate: Rate,
        delay: Time,
    },
    LeafSpine {
        cfg: LeafSpineConfig,
    },
    FatTree {
        k: usize,
        rate: Rate,
        host_delay: Time,
        fabric_delay: Time,
    },
    Custom {
        num_nodes: usize,
        hosts: Vec<NodeId>,
        links: Vec<LinkSpec>,
    },
}

/// Fluent constructor for a [`NetworkSim`]: topology preset + port
/// knobs + transport + optional fault plan and telemetry bus.
///
/// Defaults: DCTCP with the paper's simulation parameters, fixed DSCP
/// tagging, one FIFO queue per port, unbounded buffer, no AQM, no
/// shaping, no faults, no telemetry — every knob below overrides one of
/// those.
pub struct NetworkBuilder {
    topo: Topo,
    tcp: TcpConfig,
    tagging: TaggingPolicy,
    nqueues: usize,
    buffer: Option<u64>,
    tx_rate: Option<Rate>,
    make_sched: Rc<dyn Fn() -> Box<dyn Scheduler>>,
    make_aqm: Rc<dyn Fn() -> Box<dyn Aqm>>,
    port_factory: Option<Box<dyn Fn() -> PortSetup>>,
    faults: Option<FaultPlan>,
    telemetry: Option<Telemetry>,
    watchdog: Option<Watchdog>,
}

impl NetworkBuilder {
    fn with_topo(topo: Topo) -> Self {
        NetworkBuilder {
            topo,
            tcp: TcpConfig::preset(Cc::Dctcp).sim(),
            tagging: TaggingPolicy::Fixed,
            nqueues: 1,
            buffer: None,
            tx_rate: None,
            make_sched: Rc::new(|| Box::new(tcn_sched::Fifo::new())),
            make_aqm: Rc::new(|| Box::new(tcn_core::aqm::NoAqm)),
            port_factory: None,
            faults: None,
            telemetry: None,
            watchdog: None,
        }
    }

    /// A star: `hosts` hosts around one switch (the testbed shape, §6.1).
    pub fn single_switch(hosts: usize, rate: Rate, delay: Time) -> Self {
        Self::with_topo(Topo::SingleSwitch { hosts, rate, delay })
    }

    /// A leaf-spine fabric (the §6.2 shape).
    pub fn leaf_spine(cfg: LeafSpineConfig) -> Self {
        Self::with_topo(Topo::LeafSpine { cfg })
    }

    /// A k-ary fat tree.
    pub fn fat_tree(k: usize, rate: Rate, host_delay: Time, fabric_delay: Time) -> Self {
        Self::with_topo(Topo::FatTree {
            k,
            rate,
            host_delay,
            fabric_delay,
        })
    }

    /// An arbitrary hand-wired topology: `num_nodes` nodes, the given
    /// host set and directed links. Escape hatch for shapes the presets
    /// do not cover; [`Self::build`] rejects unroutable wirings with
    /// [`TcnError::Topology`] instead of silently misdelivering.
    pub fn custom(num_nodes: usize, hosts: Vec<NodeId>, links: Vec<LinkSpec>) -> Self {
        Self::with_topo(Topo::Custom {
            num_nodes,
            hosts,
            links,
        })
    }

    /// Transport configuration for every flow.
    pub fn transport(mut self, tcp: TcpConfig) -> Self {
        self.tcp = tcp;
        self
    }

    /// How hosts stamp DSCPs onto data packets.
    pub fn tagging(mut self, tagging: TaggingPolicy) -> Self {
        self.tagging = tagging;
        self
    }

    /// Egress queues per switch port.
    pub fn queues(mut self, nqueues: usize) -> Self {
        assert!(nqueues > 0, "port needs at least one queue");
        self.nqueues = nqueues;
        self
    }

    /// Shared buffer per switch port, in bytes (default: unbounded).
    pub fn buffer(mut self, bytes: u64) -> Self {
        self.buffer = Some(bytes);
        self
    }

    /// Shape switch ports below line rate (§5 "Rate Limiter").
    pub fn tx_rate(mut self, rate: Rate) -> Self {
        self.tx_rate = Some(rate);
        self
    }

    /// Scheduler factory, called once per switch port.
    pub fn scheduler(mut self, make: impl Fn() -> Box<dyn Scheduler> + 'static) -> Self {
        self.make_sched = Rc::new(make);
        self
    }

    /// AQM factory, called once per switch port.
    pub fn aqm(mut self, make: impl Fn() -> Box<dyn Aqm> + 'static) -> Self {
        self.make_aqm = Rc::new(make);
        self
    }

    /// Full [`PortSetup`] factory override — escape hatch when the
    /// per-knob methods are not enough; when set, the `queues`, `buffer`,
    /// `tx_rate`, `scheduler` and `aqm` knobs are ignored.
    pub fn port_factory(mut self, make: impl Fn() -> PortSetup + 'static) -> Self {
        self.port_factory = Some(Box::new(make));
        self
    }

    /// Install a deterministic fault plan at build time.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Install a telemetry bus at build time (see
    /// [`NetworkSim::install_telemetry`]).
    pub fn telemetry(mut self, bus: &Telemetry) -> Self {
        self.telemetry = Some(bus.clone());
        self
    }

    /// Install a liveness watchdog at build time (see
    /// [`NetworkSim::set_watchdog`]): the run loops return
    /// [`TcnError::Stall`] when its event budgets are exceeded.
    pub fn watchdog(mut self, wd: Watchdog) -> Self {
        self.watchdog = Some(wd);
        self
    }

    /// Build the simulation.
    ///
    /// # Errors
    /// [`TcnError::Config`] on malformed topology parameters or an
    /// inconsistent fault plan ([`FaultPlan::check_flaps`]), and
    /// [`TcnError::Topology`] when the wiring leaves some host pair
    /// unroutable, exactly as the underlying [`crate::topology`]
    /// functions report them.
    pub fn build(self) -> Result<NetworkSim, TcnError> {
        let mk_port: Box<dyn Fn() -> PortSetup> = match self.port_factory {
            Some(f) => f,
            None => {
                let nqueues = self.nqueues;
                let buffer = self.buffer;
                let tx_rate = self.tx_rate;
                let mk_sched = Rc::clone(&self.make_sched);
                let mk_aqm = Rc::clone(&self.make_aqm);
                Box::new(move || PortSetup {
                    nqueues,
                    buffer,
                    tx_rate,
                    make_sched: {
                        let f = Rc::clone(&mk_sched);
                        Box::new(move || f())
                    },
                    make_aqm: {
                        let f = Rc::clone(&mk_aqm);
                        Box::new(move || f())
                    },
                })
            }
        };
        let mut sim = match self.topo {
            Topo::SingleSwitch { hosts, rate, delay } => {
                single_switch(hosts, rate, delay, self.tcp, self.tagging, mk_port)?
            }
            Topo::LeafSpine { cfg } => leaf_spine(cfg, self.tcp, self.tagging, mk_port)?,
            Topo::FatTree {
                k,
                rate,
                host_delay,
                fabric_delay,
            } => fat_tree(
                k,
                rate,
                host_delay,
                fabric_delay,
                self.tcp,
                self.tagging,
                mk_port,
            )?,
            Topo::Custom {
                num_nodes,
                hosts,
                links,
            } => NetworkSim::new(num_nodes, hosts, links, self.tcp, self.tagging)?,
        };
        if let Some(plan) = &self.faults {
            plan.check_flaps(sim.num_links()).map_err(TcnError::config)?;
            sim.install_faults(plan);
        }
        if let Some(bus) = &self.telemetry {
            sim.install_telemetry(bus);
        }
        if let Some(wd) = self.watchdog {
            sim.set_watchdog(wd);
        }
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::FlowSpec;
    use crate::topology::single_switch_downlink;
    use tcn_telemetry::{Event, MemorySink};

    #[test]
    fn builder_matches_positional_construction() {
        // The builder is sugar: the resulting sim must behave exactly
        // like one wired through the positional topology function.
        let build = |via_builder: bool| {
            let mk = || PortSetup {
                nqueues: 2,
                buffer: Some(96_000),
                tx_rate: None,
                make_sched: Box::new(|| Box::new(tcn_sched::Dwrr::equal(2, 1_500))),
                make_aqm: Box::new(|| Box::new(tcn_core::Tcn::new(Time::from_us(100)))),
            };
            let mut sim = if via_builder {
                NetworkBuilder::single_switch(4, Rate::from_gbps(1), Time::from_us(5))
                    .queues(2)
                    .buffer(96_000)
                    .scheduler(|| Box::new(tcn_sched::Dwrr::equal(2, 1_500)))
                    .aqm(|| Box::new(tcn_core::Tcn::new(Time::from_us(100))))
                    .build().unwrap()
            } else {
                single_switch(
                    4,
                    Rate::from_gbps(1),
                    Time::from_us(5),
                    TcpConfig::preset(Cc::Dctcp).sim(),
                    TaggingPolicy::Fixed,
                    mk,
                )
                .unwrap()
            };
            for dst in 1..4u32 {
                sim.add_flow(FlowSpec {
                    src: 0,
                    dst,
                    size: 30_000,
                    start: Time::ZERO,
                    service: 1,
                });
            }
            assert!(sim.run_to_completion(Time::from_secs(10)).unwrap());
            sim.fct_records()
                .iter()
                .map(|r| r.fct.as_ps())
                .collect::<Vec<_>>()
        };
        assert_eq!(build(true), build(false));
    }

    #[test]
    fn builder_installs_telemetry_end_to_end() {
        let bus = Telemetry::new();
        let mem = MemorySink::new();
        bus.add_sink(Box::new(mem.handle()));
        let mut sim = NetworkBuilder::single_switch(3, Rate::from_gbps(1), Time::from_us(5))
            .queues(2)
            .buffer(96_000)
            .scheduler(|| Box::new(tcn_sched::Dwrr::equal(2, 1_500)))
            .aqm(|| Box::new(tcn_core::Tcn::new(Time::from_us(1))))
            .telemetry(&bus)
            .build().unwrap();
        sim.add_flow(FlowSpec {
            src: 0,
            dst: 2,
            size: 100_000,
            start: Time::ZERO,
            service: 1,
        });
        assert!(sim.run_to_completion(Time::from_secs(10)).unwrap());
        let evs = mem.events();
        let kind = |k: &str| evs.iter().filter(|e| e.kind() == k).count();
        assert!(kind("enqueue") > 0, "ports must report enqueues");
        assert!(kind("dequeue") > 0, "ports must report dequeues");
        assert!(kind("sched_service") > 0, "DWRR must report services");
        assert!(
            kind("mark_decision") > 0,
            "TCN must report mark decisions"
        );
        // Dequeues on the receiver's downlink carry that link's index.
        let downlink = single_switch_downlink(2) as u32;
        assert!(
            evs.iter().any(
                |e| matches!(e, Event::Dequeue { port, .. } if *port == downlink)
            ),
            "per-port scoping lost"
        );
    }

    #[test]
    fn telemetry_off_runs_produce_identical_results() {
        // The zero-cost-off claim at system level: a run with no bus
        // installed is bit-identical to one with a bus (telemetry may
        // observe, never perturb).
        let run = |with_bus: bool| {
            let mut b = NetworkBuilder::single_switch(4, Rate::from_gbps(1), Time::from_us(5))
                .queues(2)
                .buffer(48_000)
                .scheduler(|| Box::new(tcn_sched::Dwrr::equal(2, 1_500)))
                .aqm(|| Box::new(tcn_core::Tcn::new(Time::from_us(50))));
            let bus = Telemetry::new();
            if with_bus {
                b = b.telemetry(&bus);
            }
            let mut sim = b.build().unwrap();
            for dst in 1..4u32 {
                sim.add_flow(FlowSpec {
                    src: 0,
                    dst,
                    size: 200_000,
                    start: Time::ZERO,
                    service: 1,
                });
            }
            assert!(sim.run_to_completion(Time::from_secs(10)).unwrap());
            (
                sim.fct_records()
                    .iter()
                    .map(|r| r.fct.as_ps())
                    .collect::<Vec<_>>(),
                sim.total_drops(),
                sim.events_processed(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn disconnected_topology_is_a_typed_error() {
        // Host 2 has no links at all: routing cannot cover every host
        // pair, and build() must say so instead of panicking.
        let link = |from: NodeId, to: NodeId| LinkSpec {
            from,
            to,
            rate: Rate::from_gbps(1),
            delay: Time::from_us(5),
            setup: PortSetup::host_nic(),
        };
        let links = vec![link(0, 1), link(1, 0)];
        let Err(err) = NetworkBuilder::custom(3, vec![0, 1, 2], links).build() else {
            panic!("disconnected topology must be rejected");
        };
        assert_eq!(err.kind(), "topology");
        assert!(err.to_string().contains("broken topology"), "{err}");
    }

    #[test]
    fn zero_length_flap_window_is_rejected() {
        use tcn_sim::LinkFlap;
        let plan = FaultPlan::quiet(1).with_flap(LinkFlap {
            link: 0,
            down_at: Time::from_ms(5),
            up_at: Some(Time::from_ms(5)),
        });
        let err = NetworkBuilder::single_switch(3, Rate::from_gbps(1), Time::from_us(5))
            .faults(plan)
            .build();
        let Err(err) = err else {
            panic!("empty flap window must be rejected");
        };
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("empty or inverted"), "{err}");
    }

    #[test]
    fn overlapping_flap_windows_on_same_link_are_rejected() {
        use tcn_sim::LinkFlap;
        let plan = FaultPlan::quiet(1)
            .with_flap(LinkFlap {
                link: 2,
                down_at: Time::from_ms(1),
                up_at: Some(Time::from_ms(10)),
            })
            .with_flap(LinkFlap {
                link: 2,
                down_at: Time::from_ms(5),
                up_at: Some(Time::from_ms(15)),
            });
        let err = NetworkBuilder::single_switch(3, Rate::from_gbps(1), Time::from_us(5))
            .faults(plan)
            .build();
        let Err(err) = err else {
            panic!("overlapping windows on one link must be rejected");
        };
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("overlapping flap windows"), "{err}");
    }

    #[test]
    fn never_recovering_flap_conflicts_with_later_window() {
        use tcn_sim::LinkFlap;
        let plan = FaultPlan::quiet(1)
            .with_flap(LinkFlap {
                link: 0,
                down_at: Time::from_ms(1),
                up_at: None,
            })
            .with_flap(LinkFlap {
                link: 0,
                down_at: Time::from_ms(9),
                up_at: Some(Time::from_ms(12)),
            });
        let err = NetworkBuilder::single_switch(3, Rate::from_gbps(1), Time::from_us(5))
            .faults(plan)
            .build();
        let Err(err) = err else {
            panic!("a window after a permanent failure must be rejected");
        };
        assert_eq!(err.kind(), "config");
    }

    #[test]
    fn disjoint_flap_windows_still_build() {
        use tcn_sim::LinkFlap;
        // Back-to-back windows (up exactly when the next goes down) are
        // legal: the link is never down twice at the same instant.
        let plan = FaultPlan::quiet(1)
            .with_flap(LinkFlap {
                link: 1,
                down_at: Time::from_ms(1),
                up_at: Some(Time::from_ms(2)),
            })
            .with_flap(LinkFlap {
                link: 1,
                down_at: Time::from_ms(2),
                up_at: Some(Time::from_ms(3)),
            })
            .with_flap(LinkFlap {
                // Same window on a different link: no conflict.
                link: 2,
                down_at: Time::from_ms(1),
                up_at: Some(Time::from_ms(2)),
            });
        NetworkBuilder::single_switch(3, Rate::from_gbps(1), Time::from_us(5))
            .faults(plan)
            .build()
            .expect("disjoint windows are a valid plan");
    }

    #[test]
    fn watchdog_total_budget_trips_run() {
        let mut sim = NetworkBuilder::single_switch(3, Rate::from_gbps(1), Time::from_us(5))
            .watchdog(Watchdog::new(1_000_000).with_total_budget(50))
            .build()
            .unwrap();
        sim.add_flow(FlowSpec {
            src: 0,
            dst: 2,
            size: 1_000_000,
            start: Time::ZERO,
            service: 0,
        });
        let err = sim
            .run_to_completion(Time::from_secs(5))
            .expect_err("a 50-event budget cannot move 1 MB");
        match err {
            TcnError::Stall(r) => {
                assert!(r.runaway, "total-budget trip must flag runaway");
                assert_eq!(r.budget, 50);
                assert!(!r.top_events.is_empty());
            }
            other => panic!("wrong error variant: {other:?}"),
        }
    }
}
