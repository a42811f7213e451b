//! `tcn-net` — the packet-level datacenter network model.
//!
//! This is the substrate standing in for the paper's two experimental
//! platforms: the 9-server testbed with its Linux-qdisc software switch
//! (§5–6.1) and the ns-2 simulator (§6.2). See DESIGN.md for the full
//! substitution argument.
//!
//! Layered bottom-up:
//!
//! * [`port`] — the egress port: multiple FIFO queues sharing one buffer
//!   on a first-in-first-serve basis, a pluggable [`tcn_sched::Scheduler`]
//!   and a pluggable [`tcn_core::Aqm`], plus full mark/drop accounting.
//!   It stands in for the prototype's rate limiter (§5) by serializing
//!   at a reduced rate ([`PortSetup::tx_rate`]);
//! * [`routing`] — BFS shortest paths with ECMP next-hop sets and a
//!   deterministic per-(flow, switch) hash, as in the paper's leaf-spine
//!   simulations;
//! * [`network`] — the event loop tying links, ports, transports, flow
//!   bookkeeping and latency probes together, with deterministic fault
//!   injection (loss, corruption, jitter, link flaps) and routing
//!   reconvergence threaded through it;
//! * [`watchdog`] — an event-budget liveness guard over the event loop,
//!   turning stalled or runaway runs into typed
//!   [`tcn_core::TcnError::Stall`] errors instead of hangs;
//! * [`topology`] — canned builders: the single-switch star (the
//!   testbed, and Fig. 1), the paper's 144-host leaf-spine fabric (§6.2),
//!   and a k-ary fat tree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod network;
pub mod port;
pub mod routing;
pub mod topology;
pub mod watchdog;

pub use builder::NetworkBuilder;
pub use tcn_transport::Cc;
pub use network::{
    DispatchMode, FaultStats, FctRecord, FlowSpec, LinkSpec, NetMutation, NetworkSim, NodeId,
    ProbeConfig, TaggingPolicy, TransportChoice,
};
pub use port::{Port, PortSetup, PortStats};
pub use routing::{compute_routes, compute_routes_partial, ecmp_pick, RouteError};
pub use topology::{fat_tree, leaf_spine, single_switch, single_switch_downlink, LeafSpineConfig};
pub use watchdog::Watchdog;
