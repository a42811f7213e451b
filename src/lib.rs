//! **tcn-repro** — a full reproduction of *Enabling ECN over Generic
//! Packet Scheduling* (Bai, Chen, Chen, Kim, Wu — CoNEXT 2016) as a Rust
//! workspace: the TCN AQM, every baseline it is compared against, the
//! packet schedulers it must coexist with, the ECN-capable transports it
//! is evaluated over, and a deterministic packet-level datacenter network
//! simulator that regenerates every figure of the paper's evaluation.
//!
//! This crate is the facade: it re-exports the workspace crates so an
//! application can depend on one name. See the README for the layout and
//! DESIGN.md for the paper-to-code map.
//!
//! # Quickstart
//!
//! Mark packets with TCN behind any scheduler on a simulated switch:
//!
//! ```
//! use tcn_repro::prelude::*;
//!
//! // A 3-host star at 1 Gbps: two senders, one receiver. Every switch
//! // port runs WFQ over 2 queues with TCN marking at T = RTT × λ.
//! let rtt = Time::from_us(250);
//! let mut sim = NetworkBuilder::single_switch(3, Rate::from_gbps(1), Time::from_us(62))
//!     .transport(TcpConfig::preset(Cc::Dctcp).testbed())
//!     .queues(2)
//!     .buffer(96_000)
//!     .scheduler(|| Box::new(Wfq::equal(2)))
//!     .aqm(move || Box::new(Tcn::new(standard_sojourn_threshold(rtt, 1.0))))
//!     .build()
//!     .expect("topology is well-formed");
//!
//! // One 1 MB flow from host 0 to host 2.
//! let flow = sim.add_flow(FlowSpec {
//!     src: 0,
//!     dst: 2,
//!     size: 1_000_000,
//!     start: Time::ZERO,
//!     service: 0,
//! });
//! assert!(sim.run_to_completion(Time::from_secs(5)).expect("run"));
//! assert_eq!(sim.delivered_bytes(flow), 1_000_000);
//! let fct = sim.fct_records()[0].fct;
//! assert!(fct > Time::from_ms(8)); // 1 MB cannot beat the line rate
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tcn_baselines as baselines;
pub use tcn_core as core;
pub use tcn_experiments as experiments;
pub use tcn_net as net;
pub use tcn_sched as sched;
pub use tcn_sim as sim;
pub use tcn_stats as stats;
pub use tcn_telemetry as telemetry;
pub use tcn_transport as transport;
pub use tcn_workloads as workloads;

/// The names almost every user wants in scope.
pub mod prelude {
    pub use tcn_baselines::{CoDel, IdealRed, MqEcn, OracleRed, Pie, RedEcn};
    pub use tcn_core::{
        standard_queue_threshold, standard_sojourn_threshold, Aqm, EcnCodepoint, FlowId, Packet,
        PacketQueue, ProbabilisticTcn, Tcn,
    };
    pub use tcn_net::{
        leaf_spine, single_switch, FlowSpec, LeafSpineConfig, NetworkBuilder, NetworkSim,
        PortSetup, ProbeConfig, TaggingPolicy, TransportChoice,
    };
    pub use tcn_sched::{Dwrr, Fifo, Pifo, Scheduler, SpHybrid, StfqRank, StrictPriority, Wfq, Wrr};
    pub use tcn_sim::{Rate, Rng, Time};
    pub use tcn_stats::{FctBreakdown, GoodputTracker, P2Quantile, TimeSeries};
    pub use tcn_telemetry::{Event, MemorySink, Probe, Sink, Telemetry};
    pub use tcn_transport::{Cc, TcpConfig, TcpReceiver, TcpSender};
    pub use tcn_workloads::{gen_all_to_all, gen_incast, gen_many_to_one, SizeCdf, Workload};
}
