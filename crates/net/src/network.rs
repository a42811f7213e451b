//! The network simulation: links, ports, transports, flows and probes
//! under one deterministic event loop.
//!
//! Event kinds mirror what ns-2 would schedule: flow starts, packet
//! arrivals after serialization + propagation, transmit-complete
//! notifications, retransmission timers, and probe ticks. Same-time
//! events fire in schedule order (see `tcn_sim::EventQueue`), so whole
//! runs are bit-for-bit reproducible.
//!
//! # Fault injection
//!
//! A [`tcn_sim::FaultPlan`] installed via [`NetworkSim::install_faults`]
//! makes links misbehave deterministically: Bernoulli wire loss,
//! bit corruption (dropped at the receiving NIC), bounded delay jitter
//! (reordering), and timed link flaps. Stochastic faults are drawn at
//! the dequeue-to-link point — *after* the egress port's accounting —
//! so per-port conservation ledgers stay balanced and the injected
//! drops are classified by the network-level audit instead. On a link
//! state change, routing reconverges after the plan's detection delay
//! by recomputing ECMP tables over the surviving links; packets caught
//! on a dead wire (or blackholed into one before reconvergence) are
//! dropped and counted in [`FaultStats`].

use tcn_core::{
    AqmParams, ArenaStats, EcnCodepoint, FlowId, Packet, PacketArena, PacketHandle, PacketKind,
    TcnError,
};
use tcn_sim::{EventEntry, EventQueue, FaultPlan, LinkFaultProfile, QueueStats, Rate, Rng, Time};
use tcn_transport::{
    ack_for, Cc, EcnPathState, EcnValidator, SenderOutput, TcpConfig, TcpReceiver, TcpSender,
};

use crate::port::{Port, PortSetup};
use crate::routing::{
    compute_routes, compute_routes_partial, ecmp_pick, RouteTable, TopoView,
};
use crate::watchdog::Watchdog;

/// Node index (hosts and switches share one id space).
pub type NodeId = u32;

/// How the run loops pull work off the event queue (DESIGN §7.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// One heap pop per loop iteration, one watchdog observation per
    /// event, a `TxDone` scheduled for every serialization — the
    /// reference path the differential tests compare against.
    PerEvent,
    /// Drain every same-instant event in one heap interaction and
    /// amortize clock-audit/watchdog/telemetry accounting per batch;
    /// every port additionally elides its trailing service wake-ups
    /// (§7.6). Outputs are byte-identical to [`DispatchMode::PerEvent`].
    Batched,
}

/// Flow ids at or above this are latency probes, not TCP flows.
const PROBE_FLOW_BASE: u64 = 1 << 40;

/// Preset transport configurations used across the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportChoice {
    /// DCTCP with the paper's simulation parameters (§6.2).
    SimDctcp,
    /// ECN\* with the paper's simulation parameters (§6.2.2).
    SimEcnStar,
    /// DCTCP with the paper's testbed parameters (§6.1).
    TestbedDctcp,
    /// CUBIC (loss-based, not ECN-capable) with the simulation timing
    /// parameters — the non-ECN tenant of the mixed-tenant experiments.
    SimCubic,
    /// BBR (model-based) with the simulation timing parameters.
    SimBbr,
}

impl TransportChoice {
    /// The corresponding transport configuration.
    pub fn config(self) -> TcpConfig {
        match self {
            TransportChoice::SimDctcp => TcpConfig::preset(Cc::Dctcp).sim(),
            TransportChoice::SimEcnStar => TcpConfig::preset(Cc::EcnStar).sim(),
            TransportChoice::TestbedDctcp => TcpConfig::preset(Cc::Dctcp).testbed(),
            TransportChoice::SimCubic => TcpConfig::preset(Cc::Cubic).sim(),
            TransportChoice::SimBbr => TcpConfig::preset(Cc::Bbr).sim(),
        }
    }
}

/// How hosts stamp DSCP values onto outgoing data packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaggingPolicy {
    /// `dscp = service` for every packet (inter-service isolation,
    /// §6.1.2).
    Fixed,
    /// PIAS two-priority tagging (§6.1.3): the first `threshold` bytes of
    /// each flow carry DSCP 0 (the strict high-priority queue); the rest
    /// carry the flow's service DSCP. Services must therefore use
    /// DSCPs ≥ 1.
    Pias {
        /// Bytes sent at high priority before demotion (paper: 100 KB).
        threshold: u64,
    },
}

impl TaggingPolicy {
    /// DSCP for a data segment of `service` starting at byte `seq`.
    pub fn dscp_for(&self, service: u8, seq: u64) -> u8 {
        match *self {
            TaggingPolicy::Fixed => service,
            TaggingPolicy::Pias { threshold } => {
                if seq < threshold {
                    0
                } else {
                    service
                }
            }
        }
    }
}

/// A flow to simulate.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Source host index.
    pub src: u32,
    /// Destination host index.
    pub dst: u32,
    /// Bytes to transfer.
    pub size: u64,
    /// Arrival time.
    pub start: Time,
    /// Service class (drives DSCP via the tagging policy).
    pub service: u8,
}

/// A completed flow's record.
#[derive(Debug, Clone, Copy)]
pub struct FctRecord {
    /// Flow id.
    pub flow: FlowId,
    /// The spec it ran under.
    pub spec: FlowSpec,
    /// Completion time (all bytes at the receiver).
    pub finish: Time,
    /// Flow completion time (`finish - spec.start`).
    pub fct: Time,
    /// RTO expiries the sender suffered (the paper counts these, §6.2.1).
    pub timeouts: u64,
}

/// A periodic latency prober (models the paper's `ping` runs, §6.1.1).
#[derive(Debug, Clone, Copy)]
pub struct ProbeConfig {
    /// Probing host.
    pub src: u32,
    /// Echoing host.
    pub dst: u32,
    /// DSCP the probe rides (selects the switch queue under test).
    pub dscp: u8,
    /// Inter-probe gap.
    pub interval: Time,
    /// First probe time.
    pub start: Time,
    /// Probe wire size in bytes.
    pub size: u32,
}

struct Prober {
    cfg: ProbeConfig,
    next_id: u64,
    rtts: Vec<(Time, Time)>,
}

/// A directed link to build.
pub struct LinkSpec {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Line rate.
    pub rate: Rate,
    /// Propagation delay.
    pub delay: Time,
    /// Egress port configuration at `from`.
    pub setup: PortSetup,
}

/// Transmit-side serialization state of one link (DESIGN §7.6).
///
/// The per-event dispatch path only ever uses `Idle`/`BusyScheduled` —
/// exactly the old `Port::busy` flag plus the wake-up instant. The
/// batched path adds `BusyHeld`: when a port's queue drains
/// mid-service, the trailing `TxDone` is not scheduled; its reserved
/// sequence slot is held, and `kick` schedules the wake only if another
/// packet needs service before that slot would have fired. Holding the
/// reservation (instead of just skipping the event) keeps sequence
/// allocation — and therefore every same-instant tie-break — identical
/// to the per-event path, which is what makes coalesced runs
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxState {
    /// The wire is free.
    Idle,
    /// Serializing until `until`; a `TxDone` event exists for it.
    BusyScheduled {
        /// Serialization-complete instant.
        until: Time,
    },
    /// Serializing until `until` with an empty queue behind it; the
    /// wake-up exists only as the reserved sequence slot `seq`.
    BusyHeld {
        /// Serialization-complete instant.
        until: Time,
        /// Reserved event-queue sequence number for the elided wake.
        seq: u64,
    },
}

struct LinkState {
    to: NodeId,
    delay: Time,
    port: Port,
    /// Transmit-side serialization state (replaces `Port::busy`).
    tx: TxState,
}

/// Live stochastic-fault state for one link: its effective profile and
/// its isolated random stream (see `tcn_sim::Rng::stream`).
struct LinkFaults {
    profile: LinkFaultProfile,
    rng: Rng,
}

/// Counters for everything the fault-injection layer did to a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets lost on the wire (Bernoulli loss).
    pub loss_drops: u64,
    /// Packets corrupted in flight and discarded at the receiving NIC.
    pub corrupt_drops: u64,
    /// Packets destroyed by a dead link — either in flight when it went
    /// down, or blackholed into it before routing reconverged.
    pub dead_link_drops: u64,
    /// Packets dropped at a switch with no surviving route to their
    /// destination (post-reconvergence partition).
    pub no_route_drops: u64,
    /// Packets that received extra jitter delay.
    pub jitter_delays: u64,
    /// Packets whose ECN field was bleached to Not-ECT in flight.
    pub ecn_bleached: u64,
    /// Packets stamped with a spurious CE mark in flight.
    pub ecn_spurious_ce: u64,
    /// Link-down events fired.
    pub link_downs: u64,
    /// Link-up events fired.
    pub link_ups: u64,
    /// Routing reconvergence passes performed.
    pub reconvergences: u64,
    /// Unreachable `(node, host)` pairs after the latest reconvergence.
    pub unreachable_pairs: usize,
}

impl FaultStats {
    /// Total packets the fault layer destroyed.
    pub fn total_drops(&self) -> u64 {
        self.loss_drops + self.corrupt_drops + self.dead_link_drops + self.no_route_drops
    }
}

/// One flow's record, kept for the whole run. Its transport endpoints
/// live in [`NetworkSim`]'s endpoint slab only while the flow is live
/// (DESIGN §7.2).
struct FlowState {
    spec: FlowSpec,
    tcp: TcpConfig,
    finish: Option<Time>,
    /// Earliest pending Timer event for this flow, to keep at most one
    /// outstanding timer in the event queue.
    next_timer: Option<Time>,
    ends: Ends,
}

/// Where a flow's sender and receiver are.
#[derive(Clone, Copy)]
enum Ends {
    /// Not built: no event has touched the flow yet.
    Pending,
    /// Built, at this index of the endpoint slab.
    Live(u32),
    /// Released when the sender saw its last byte acknowledged; the
    /// flow now answers from this summary and its spec alone.
    Closed(SenderSummary),
}

/// What the accessors report of a flow's sender: its counters, its
/// controller and its ECN path verdict.
#[derive(Clone, Copy)]
struct SenderSummary {
    timeouts: u64,
    fast_retransmits: u64,
    ecn_reductions: u64,
    rtx_packets: u64,
    rtx_bytes: u64,
    cc: Cc,
    ecn_path: EcnPathState,
}

impl SenderSummary {
    fn of(s: &TcpSender) -> Self {
        SenderSummary {
            timeouts: s.timeouts(),
            fast_retransmits: s.fast_retransmits(),
            ecn_reductions: s.ecn_reductions(),
            rtx_packets: s.rtx_packets(),
            rtx_bytes: s.rtx_bytes(),
            cc: s.cc_kind(),
            ecn_path: s.ecn_path_state(),
        }
    }

    /// What a sender built from `tcp` reports before it has run.
    fn unstarted(tcp: &TcpConfig) -> Self {
        SenderSummary {
            timeouts: 0,
            fast_retransmits: 0,
            ecn_reductions: 0,
            rtx_packets: 0,
            rtx_bytes: 0,
            cc: tcp.cc,
            ecn_path: EcnValidator::new(tcp.ecn_validation, tcp.mss).state(),
        }
    }
}

/// A live flow's transport state: one slot of the endpoint slab.
struct Endpoints {
    sender: TcpSender,
    receiver: TcpReceiver,
}

/// A runtime reconfiguration applied to a live simulation at a
/// scheduled instant ([`NetworkSim::schedule_mutation`], the one way in;
/// the scenario engine's step compiler uses it). Every application is
/// recorded in
/// the reconfiguration log ([`NetworkSim::reconfig_log`]) so chaos runs
/// stay auditable after the fact.
#[derive(Debug, Clone, PartialEq)]
pub enum NetMutation {
    /// Rewrite the AQM parameters of `link`'s egress port (TCN
    /// threshold, RED band, CoDel target — see [`AqmParams`]).
    AqmParams {
        /// Target link index.
        link: u32,
        /// The new parameter set.
        params: AqmParams,
    },
    /// Replace the stochastic fault profile of `link` (loss, corruption,
    /// delay jitter). A quiet profile removes fault state entirely; a
    /// previously-quiet link gets a fresh isolated RNG stream derived
    /// from the installed plan's seed.
    LinkConditions {
        /// Target link index.
        link: u32,
        /// The new fault profile.
        profile: LinkFaultProfile,
    },
    /// Administratively flip `link` up or down (a scenario-driven flap;
    /// same semantics as a [`FaultPlan`] flap event, including the
    /// detection-delayed routing reconvergence).
    LinkAdmin {
        /// Target link index.
        link: u32,
        /// `true` = bring the link up, `false` = take it down.
        up: bool,
    },
    /// Discard everything buffered on every egress port of `node` (a
    /// switch being drained for a rolling upgrade).
    DrainSwitch {
        /// Target node (host or switch; its egress ports are drained).
        node: NodeId,
    },
    /// Change `link`'s line rate mid-run (auto-negotiation downshift,
    /// brown-out). Only future serializations are affected.
    LinkRate {
        /// Target link index.
        link: u32,
        /// The new line rate; must be positive.
        rate: Rate,
    },
    /// Switch every flow of a service class to a different congestion
    /// controller mid-run (a rolling transport rollout — the scenario
    /// DSL's `cc-switch` step). In-flight data and the current window
    /// are carried over; the flow re-enters the new controller in
    /// congestion avoidance.
    CcSwitch {
        /// Service class whose flows are switched.
        service: u8,
        /// The controller to switch to.
        cc: Cc,
    },
}

impl NetMutation {
    /// One-line description for the reconfiguration log.
    fn describe(&self) -> String {
        match self {
            NetMutation::AqmParams { link, params } => {
                format!("aqm link={link} params={params:?}")
            }
            NetMutation::LinkConditions { link, profile } => format!(
                "link-conditions link={link} loss={} corrupt={} jitter_prob={} jitter_max={} ecn_bleach={} ecn_ce={}",
                profile.loss,
                profile.corrupt,
                profile.jitter_prob,
                profile.jitter_max,
                profile.ecn_bleach,
                profile.ecn_ce
            ),
            NetMutation::LinkAdmin { link, up } => {
                format!("link-admin link={link} up={up}")
            }
            NetMutation::DrainSwitch { node } => format!("drain-switch node={node}"),
            NetMutation::LinkRate { link, rate } => {
                format!("link-rate link={link} rate={rate:?}")
            }
            NetMutation::CcSwitch { service, cc } => {
                format!("cc-switch service={service} cc={}", cc.name())
            }
        }
    }
}

enum Event {
    FlowStart(u32),
    /// A packet reaching the far end of `link`. The packet itself is
    /// parked in the simulation's [`PacketArena`]; carrying the 8-byte
    /// handle keeps event-queue entries small and copy-cheap.
    Arrive { link: u32, pkt: PacketHandle },
    /// A corrupted frame reaching the far end: discarded there (FCS
    /// failure), never delivered or forwarded.
    ArriveCorrupt,
    TxDone { link: u32 },
    Timer { flow: u32 },
    ProbeTick { prober: u32 },
    LinkDown { link: u32 },
    LinkUp { link: u32 },
    /// Recompute route tables over the currently-up links.
    Reconverge,
    /// Apply a scheduled [`NetMutation`] (index into
    /// `NetworkSim::pending_mutations`).
    Mutation { idx: u32 },
}

impl Event {
    /// Dense kind index for the watchdog's per-kind counters; parallel
    /// to `watchdog::EVENT_KIND_NAMES`.
    fn kind_index(&self) -> usize {
        match self {
            Event::FlowStart(_) => 0,
            Event::Arrive { .. } => 1,
            Event::ArriveCorrupt => 2,
            Event::TxDone { .. } => 3,
            Event::Timer { .. } => 4,
            Event::ProbeTick { .. } => 5,
            Event::LinkDown { .. } => 6,
            Event::LinkUp { .. } => 7,
            Event::Reconverge => 8,
            Event::Mutation { .. } => 9,
        }
    }
}

/// The simulation.
pub struct NetworkSim {
    events: EventQueue<Event>,
    links: Vec<LinkState>,
    routes: Vec<RouteTable>,
    host_nodes: Vec<NodeId>,
    /// node id → host index (None for switches).
    node_hosts: Vec<Option<u32>>,
    /// `(from, to)` per link, kept for routing reconvergence.
    topo_endpoints: Vec<(u32, u32)>,
    flows: Vec<FlowState>,
    /// Endpoint slab: the sender/receiver pairs of live flows
    /// ([`Ends::Live`] indexes it). Released slots recycle LIFO through
    /// `free_ends`, so the slab stops growing at the most flows ever
    /// live at once.
    ends: Vec<Endpoints>,
    free_ends: Vec<u32>,
    tcp: TcpConfig,
    tagging: TaggingPolicy,
    probers: Vec<Prober>,
    completed: usize,
    /// Per-link stochastic fault state (None = quiet link, no draws).
    link_faults: Vec<Option<LinkFaults>>,
    /// Administrative link state (flipped by flap events).
    link_up: Vec<bool>,
    /// Delay between a link state change and routing reconvergence.
    detection_delay: Time,
    fault_stats: FaultStats,
    net_audit: tcn_audit::NetAudit,
    /// Slab for packets in flight on a wire (between a port's dequeue
    /// and the far NIC): events carry handles, slots recycle, and the
    /// steady-state hot path never touches the allocator.
    arena: PacketArena,
    /// Reusable sender-output scratch: one buffer, cleared per event,
    /// so emission never allocates in steady state either.
    scratch: SenderOutput,
    /// Installed telemetry bus, kept so senders registered after
    /// [`NetworkSim::install_telemetry`] get probes too.
    telemetry: Option<tcn_telemetry::Telemetry>,
    /// Liveness guard consulted on every dispatched event (None = off).
    watchdog: Option<Watchdog>,
    /// Scheduled-but-not-yet-applied mutations; `Event::Mutation`
    /// carries an index into this vector.
    pending_mutations: Vec<NetMutation>,
    /// Seed that per-link fault RNG streams derive from (set by
    /// [`NetworkSim::install_faults`]; used when a runtime
    /// [`NetMutation::LinkConditions`] wakes a previously-quiet link).
    fault_seed: u64,
    /// Append-only audit trail of every applied mutation:
    /// `(when, what)` in application order.
    reconfig_log: Vec<(Time, String)>,
    /// How the run loops pull events: batched, unless a test chose the
    /// reference loop via [`NetworkSim::set_dispatch_mode`].
    dispatch: DispatchMode,
    /// The undispatched rest of the batched loops' same-instant batch,
    /// next event *last* (descending `seq`), so `kick` can slot a held
    /// wake into it. A reused scratch buffer.
    batch: Vec<EventEntry<Event>>,
    /// `seq` of the event the batched loops are dispatching: `kick`
    /// compares a held wake's reservation against it at an exact tie.
    dispatching: u64,
}

impl NetworkSim {
    /// Build a simulation over `num_nodes` nodes, of which `host_nodes`
    /// are hosts (index in this vector = host index used by flows), with
    /// the given directed links.
    ///
    /// # Errors
    /// [`TcnError::Topology`] when some host is unreachable from some
    /// node (disconnected graph); [`TcnError::Config`] on out-of-range
    /// link endpoints.
    pub fn new(
        num_nodes: usize,
        host_nodes: Vec<NodeId>,
        link_specs: Vec<LinkSpec>,
        tcp: TcpConfig,
        tagging: TaggingPolicy,
    ) -> Result<Self, TcnError> {
        for l in &link_specs {
            if (l.from as usize) >= num_nodes || (l.to as usize) >= num_nodes {
                return Err(TcnError::config(format!(
                    "link endpoint out of range: {} -> {} with {num_nodes} nodes",
                    l.from, l.to
                )));
            }
        }
        let endpoints: Vec<(u32, u32)> = link_specs.iter().map(|l| (l.from, l.to)).collect();
        let routes = compute_routes(&TopoView {
            links: &endpoints,
            num_nodes,
            host_nodes: &host_nodes,
        })
        .map_err(|e| TcnError::topology(e.to_string()))?;
        let mut node_hosts = vec![None; num_nodes];
        for (h, &n) in host_nodes.iter().enumerate() {
            node_hosts[n as usize] = Some(h as u32);
        }
        let links: Vec<LinkState> = link_specs
            .into_iter()
            .map(|l| LinkState {
                to: l.to,
                delay: l.delay,
                port: Port::new(&l.setup, l.rate),
                tx: TxState::Idle,
            })
            .collect();
        let n_links = links.len();
        Ok(NetworkSim {
            events: EventQueue::new(),
            links,
            routes,
            host_nodes,
            node_hosts,
            topo_endpoints: endpoints,
            flows: Vec::new(),
            ends: Vec::new(),
            free_ends: Vec::new(),
            tcp,
            tagging,
            probers: Vec::new(),
            completed: 0,
            link_faults: (0..n_links).map(|_| None).collect(),
            link_up: vec![true; n_links],
            detection_delay: Time::ZERO,
            fault_stats: FaultStats::default(),
            net_audit: tcn_audit::NetAudit::new(),
            arena: PacketArena::new(),
            scratch: SenderOutput::default(),
            telemetry: None,
            watchdog: None,
            pending_mutations: Vec::new(),
            fault_seed: 0,
            reconfig_log: Vec::new(),
            dispatch: DispatchMode::Batched,
            batch: Vec::new(),
            dispatching: 0,
        })
    }

    /// Run this simulation on the given dispatch loop. Every simulation
    /// is constructed [`DispatchMode::Batched`]; this setter exists so
    /// differential tests can put one on the [`DispatchMode::PerEvent`]
    /// reference loop, whose outputs must be byte-identical.
    ///
    /// # Panics
    /// Panics once an event has been dispatched: a wake the batched
    /// loop is holding (`TxState::BusyHeld`) exists only as a reserved
    /// sequence number that only the batched loop resolves, so a mid-run
    /// switch would reorder service at a same-instant tie.
    pub fn set_dispatch_mode(&mut self, mode: DispatchMode) {
        assert!(
            self.events.processed() == 0,
            "dispatch mode must be chosen before the first event is dispatched"
        );
        self.dispatch = mode;
    }

    /// Install (or replace) the liveness watchdog. Every event the run
    /// loops dispatch is accounted; when a budget trips, the running
    /// `run_*` call returns [`TcnError::Stall`] with a structured
    /// [`tcn_core::StallReport`] instead of spinning forever.
    pub fn set_watchdog(&mut self, watchdog: Watchdog) {
        self.watchdog = Some(watchdog);
    }

    /// Install a telemetry bus across every layer of the simulation:
    /// the event loop emits sampled `Tick`s, every egress port (with
    /// its scheduler and AQM) reports enqueue/dequeue/mark/drop events
    /// scoped by its link index, and every sender — registered before
    /// or after this call — reports congestion episodes (ECN cuts,
    /// RTOs, fast retransmits).
    pub fn install_telemetry(&mut self, bus: &tcn_telemetry::Telemetry) {
        self.events.set_probe(bus.probe());
        for (i, l) in self.links.iter_mut().enumerate() {
            l.port.set_probe(bus.probe_for(i as u32));
        }
        for e in &mut self.ends {
            e.sender.set_probe(bus.probe());
        }
        self.telemetry = Some(bus.clone());
    }

    /// The installed telemetry bus, if any.
    pub fn telemetry(&self) -> Option<&tcn_telemetry::Telemetry> {
        self.telemetry.as_ref()
    }

    /// Install a fault plan: per-link stochastic profiles plus the timed
    /// link flap schedule. Call before running (flap times must not be
    /// in the simulation's past). A quiet plan (see
    /// [`FaultPlan::is_quiet`]) leaves the run bit-identical to never
    /// installing one: quiet links get no fault state and draw no
    /// randomness.
    ///
    /// # Panics
    /// Panics if a flap names an unknown link or has `up_at <= down_at`.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        self.detection_delay = plan.detection_delay;
        self.fault_seed = plan.seed;
        for link in 0..self.links.len() {
            let profile = plan.profile_for(link as u32);
            if !profile.is_quiet() {
                self.link_faults[link] = Some(LinkFaults {
                    profile,
                    rng: plan.rng_for(link as u32),
                });
            }
        }
        for flap in &plan.flaps {
            assert!(
                (flap.link as usize) < self.links.len(),
                "flap on unknown link {}",
                flap.link
            );
            self.events
                .schedule_at(flap.down_at, Event::LinkDown { link: flap.link });
            if let Some(up) = flap.up_at {
                assert!(up > flap.down_at, "flap must recover after failing");
                self.events.schedule_at(up, Event::LinkUp { link: flap.link });
            }
        }
    }

    /// Validate a mutation's target without applying it.
    fn validate_mutation(&self, m: &NetMutation) -> Result<(), TcnError> {
        let check_link = |link: u32| {
            if (link as usize) < self.links.len() {
                Ok(())
            } else {
                Err(TcnError::config(format!(
                    "mutation targets unknown link {link} ({} links exist)",
                    self.links.len()
                )))
            }
        };
        match m {
            NetMutation::LinkRate { link, rate } => {
                if *rate == Rate::ZERO {
                    return Err(TcnError::config(format!(
                        "mutation sets a zero rate on link {link}"
                    )));
                }
                check_link(*link)
            }
            NetMutation::AqmParams { link, .. }
            | NetMutation::LinkConditions { link, .. }
            | NetMutation::LinkAdmin { link, .. } => check_link(*link),
            NetMutation::DrainSwitch { node } => {
                if (*node as usize) < self.node_hosts.len() {
                    Ok(())
                } else {
                    Err(TcnError::config(format!(
                        "mutation targets unknown node {node} ({} nodes exist)",
                        self.node_hosts.len()
                    )))
                }
            }
            // A service class with no flows is a valid no-op: scenarios
            // may pre-schedule switches for flows that arrive later.
            NetMutation::CcSwitch { .. } => Ok(()),
        }
    }

    /// Apply a mutation at simulated time `now`, recording it in the
    /// reconfiguration log. Returns the number of packets a drain
    /// discarded (0 for other mutations).
    fn apply_mutation(&mut self, m: &NetMutation, now: Time) -> Result<u64, TcnError> {
        let mut drained = 0u64;
        match m {
            NetMutation::AqmParams { link, params } => {
                self.links[*link as usize].port.reconfigure_aqm(params)?;
            }
            NetMutation::LinkConditions { link, profile } => {
                let li = *link as usize;
                if profile.is_quiet() {
                    self.link_faults[li] = None;
                } else {
                    match &mut self.link_faults[li] {
                        // A link already under faults keeps its RNG
                        // position: only the intensities change.
                        Some(f) => f.profile = *profile,
                        None => {
                            self.link_faults[li] = Some(LinkFaults {
                                profile: *profile,
                                rng: Rng::stream(self.fault_seed, u64::from(*link)),
                            });
                        }
                    }
                }
            }
            NetMutation::LinkAdmin { link, up } => {
                if *up {
                    self.apply_link_up(*link, now)?;
                } else {
                    self.apply_link_down(*link, now);
                }
            }
            NetMutation::DrainSwitch { node } => {
                for li in 0..self.links.len() {
                    if self.topo_endpoints[li].0 == *node {
                        drained += self.links[li].port.drain(now)?;
                    }
                }
            }
            NetMutation::CcSwitch { service, cc } => {
                for f in 0..self.flows.len() as u32 {
                    let fs = &self.flows[f as usize];
                    if fs.spec.service == *service && fs.finish.is_none() {
                        let i = self.live_ends(f);
                        self.ends[i].sender.switch_cc(*cc, now);
                    }
                }
            }
            NetMutation::LinkRate { link, rate } => {
                self.links[*link as usize].port.set_link_rate(*rate)?;
            }
        }
        let mut line = m.describe();
        if matches!(m, NetMutation::DrainSwitch { .. }) {
            use std::fmt::Write as _;
            let _ = write!(line, " dropped={drained}");
        }
        self.reconfig_log.push((now, line));
        Ok(drained)
    }

    /// Schedule a [`NetMutation`] for simulated time `at`. The target is
    /// validated eagerly — a scenario naming an unknown link or node
    /// fails at compile time, not mid-run — but parameter-family
    /// mismatches (e.g. a CoDel target sent to a TCN port) surface when
    /// the mutation fires, as a [`TcnError`] out of the running loop.
    ///
    /// Mutations scheduled before a run fire **before** any packet event
    /// scheduled *during* the run at the same instant (same-time events
    /// dispatch in schedule order), giving scenario steps a fixed,
    /// testable edge semantics.
    ///
    /// # Errors
    /// [`TcnError::Config`] on an unknown link or node target.
    pub fn schedule_mutation(&mut self, at: Time, m: NetMutation) -> Result<(), TcnError> {
        self.validate_mutation(&m)?;
        let idx = self.pending_mutations.len() as u32;
        self.pending_mutations.push(m);
        self.events.schedule_at(at, Event::Mutation { idx });
        Ok(())
    }

    /// The append-only reconfiguration audit trail: one `(when, what)`
    /// entry per applied mutation, in application order.
    pub fn reconfig_log(&self) -> &[(Time, String)] {
        &self.reconfig_log
    }

    /// Register a flow; its `FlowStart` event is scheduled at
    /// `spec.start`.
    ///
    /// # Panics
    /// Panics if src == dst or host indices are out of range.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        self.add_flow_with(spec, self.tcp)
    }

    /// Register a flow driven by its own transport configuration
    /// instead of the simulation-wide default — the mixed-tenant
    /// entry point (e.g. CUBIC and DCTCP sharing one fabric).
    ///
    /// Only the flow's record is kept from here: its sender and receiver
    /// are built by the first event that touches the flow and released
    /// once its last byte is acknowledged.
    ///
    /// # Panics
    /// Panics if src == dst, host indices are out of range, the flow is
    /// empty or the MSS is zero.
    pub fn add_flow_with(&mut self, spec: FlowSpec, tcp: TcpConfig) -> FlowId {
        assert!(spec.src != spec.dst, "self-flow");
        assert!((spec.src as usize) < self.host_nodes.len());
        assert!((spec.dst as usize) < self.host_nodes.len());
        assert!(spec.size > 0, "zero-size flow");
        assert!(tcp.mss > 0, "zero MSS");
        let id = FlowId(self.flows.len() as u64);
        assert!(id.0 < PROBE_FLOW_BASE, "too many flows");
        self.flows.push(FlowState {
            spec,
            tcp,
            finish: None,
            next_timer: None,
            ends: Ends::Pending,
        });
        self.events
            .schedule_at(spec.start, Event::FlowStart(id.0 as u32));
        id
    }

    /// The slab index of `flow`'s endpoints, building them on the
    /// flow's first touch (its start, or a `CcSwitch` before it).
    fn live_ends(&mut self, flow: u32) -> usize {
        let fs = &mut self.flows[flow as usize];
        match fs.ends {
            Ends::Live(i) => return i as usize,
            Ends::Pending => {}
            Ends::Closed(_) => unreachable!("flow {flow} touched after release"),
        }
        let (id, spec) = (FlowId(u64::from(flow)), fs.spec);
        let mut sender = TcpSender::new(fs.tcp, id, spec.src, spec.dst, spec.size);
        if let Some(bus) = &self.telemetry {
            sender.set_probe(bus.probe());
        }
        let e = Endpoints {
            sender,
            receiver: TcpReceiver::new(id, spec.dst, spec.src, spec.size),
        };
        let i = match self.free_ends.pop() {
            Some(i) => {
                self.ends[i as usize] = e;
                i
            }
            None => {
                self.ends.push(e);
                (self.ends.len() - 1) as u32
            }
        };
        fs.ends = Ends::Live(i);
        i as usize
    }

    /// What the accessors report of `f`'s sender, whatever its state.
    fn summary(&self, f: &FlowState) -> SenderSummary {
        match f.ends {
            Ends::Pending => SenderSummary::unstarted(&f.tcp),
            Ends::Live(i) => SenderSummary::of(&self.ends[i as usize].sender),
            Ends::Closed(s) => s,
        }
    }

    /// Register a periodic latency prober. Probes start at `cfg.start`
    /// and repeat every `cfg.interval` for as long as the simulation
    /// runs.
    pub fn add_prober(&mut self, cfg: ProbeConfig) -> usize {
        let idx = self.probers.len();
        self.events
            .schedule_at(cfg.start, Event::ProbeTick { prober: idx as u32 });
        self.probers.push(Prober {
            cfg,
            next_id: 0,
            rtts: Vec::new(),
        });
        idx
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.events.now()
    }

    /// Number of flows that have completed.
    pub fn completed_flows(&self) -> usize {
        self.completed
    }

    /// Number of registered flows.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Events processed so far (progress/perf reporting).
    pub fn events_processed(&self) -> u64 {
        self.events.processed()
    }

    /// Run until the clock passes `t` (or events run dry).
    ///
    /// # Errors
    /// Propagates [`TcnError`] from event processing (scheduler-contract
    /// breaches, invariant violations) and [`TcnError::Stall`] from the
    /// watchdog.
    pub fn run_until(&mut self, t: Time) -> Result<(), TcnError> {
        match self.dispatch {
            DispatchMode::PerEvent => {
                while let Some(entry) = self.events.pop_until(t) {
                    self.observe_event(&entry.event, entry.at)?;
                    self.dispatch_event(entry.event, entry.at)?;
                }
            }
            DispatchMode::Batched => self.run_batched(t, false)?,
        }
        self.audit_net();
        Ok(())
    }

    /// The batched drain behind [`run_until`](Self::run_until) and
    /// [`run_to_completion`](Self::run_to_completion): every same-instant
    /// batch comes off the heap in one interaction, the watchdog
    /// observes it once, and events dispatch in the same (time, seq)
    /// order the per-event path would have popped them. Same-instant
    /// events scheduled *during* the batch carry higher sequence numbers
    /// and form the next batch — order is preserved. The one exception
    /// is a held wake that `kick` slots into the batch at its reserved
    /// seq, which the per-event path had in the queue all along.
    ///
    /// With `until_complete`, the per-event path re-checks the
    /// completion condition before every pop, so the drain must not
    /// overshoot: the moment the last flow completes mid-batch, the
    /// undispatched tail goes back into the queue (original sequence
    /// numbers, audit history rewound) — leaving the queue exactly as
    /// the per-event path would have.
    fn run_batched(&mut self, limit: Time, until_complete: bool) -> Result<(), TcnError> {
        let done = |sim: &Self| until_complete && sim.completed >= sim.flows.len();
        while !done(self) && self.events.pop_batch_until(limit, &mut self.batch) > 0 {
            self.observe_batch()?;
            self.batch.reverse();
            while let Some(entry) = self.batch.pop() {
                self.dispatching = entry.seq;
                self.dispatch_event(entry.event, entry.at)?;
                if done(self) {
                    self.batch.reverse();
                    self.events.unpop_batch_tail(&mut self.batch);
                }
            }
        }
        Ok(())
    }

    /// Account one dispatched event with the watchdog, if installed.
    fn observe_event(&mut self, ev: &Event, now: Time) -> Result<(), TcnError> {
        if let Some(wd) = &mut self.watchdog {
            let depth = self.events.len();
            let processed = self.events.processed();
            wd.observe(now, ev.kind_index(), depth, processed)?;
        }
        Ok(())
    }

    /// Account the batch just popped into `self.batch` with the
    /// watchdog, if installed: one call per batch instead of one call
    /// per event.
    fn observe_batch(&mut self) -> Result<(), TcnError> {
        if let Some(wd) = &mut self.watchdog {
            let depth = self.events.len();
            let processed = self.events.processed();
            let kinds = self.batch.iter().map(|e| e.event.kind_index());
            wd.observe_batch(self.batch[0].at, kinds, depth, processed)?;
        }
        Ok(())
    }

    /// Run until `t`, invoking `sample` every `every` of simulated time
    /// (at t = start+every, start+2·every, …). The callback sees the
    /// simulation quiesced at the sample instant — the idiom behind the
    /// occupancy traces of Fig. 3 and the goodput curves of Figs. 1/5.
    ///
    /// # Errors
    /// Propagates [`TcnError`] from event processing and the watchdog.
    pub fn run_sampled(
        &mut self,
        until: Time,
        every: Time,
        mut sample: impl FnMut(&NetworkSim),
    ) -> Result<(), TcnError> {
        assert!(!every.is_zero(), "zero sampling interval");
        let mut t = self.now().saturating_add(every);
        while t <= until {
            self.run_until(t)?;
            sample(self);
            t = t.saturating_add(every);
        }
        self.run_until(until)
    }

    /// Run until every registered flow has completed, or `deadline`
    /// passes, or events run dry. Returns `true` if all flows finished.
    ///
    /// # Errors
    /// Propagates [`TcnError`] from event processing and the watchdog.
    pub fn run_to_completion(&mut self, deadline: Time) -> Result<bool, TcnError> {
        match self.dispatch {
            DispatchMode::PerEvent => {
                while self.completed < self.flows.len() {
                    let Some(entry) = self.events.pop_until(deadline) else {
                        break;
                    };
                    self.observe_event(&entry.event, entry.at)?;
                    self.dispatch_event(entry.event, entry.at)?;
                }
            }
            DispatchMode::Batched => self.run_batched(deadline, true)?,
        }
        self.audit_net();
        Ok(self.completed == self.flows.len())
    }

    /// Completed-flow records.
    pub fn fct_records(&self) -> Vec<FctRecord> {
        self.flows
            .iter()
            .enumerate()
            .filter_map(|(i, f)| {
                f.finish.map(|finish| FctRecord {
                    flow: FlowId(i as u64),
                    spec: f.spec,
                    finish,
                    fct: finish - f.spec.start,
                    timeouts: self.summary(f).timeouts,
                })
            })
            .collect()
    }

    /// Bytes delivered (application-level, unique) for one flow.
    pub fn delivered_bytes(&self, flow: FlowId) -> u64 {
        let f = &self.flows[flow.0 as usize];
        match f.ends {
            Ends::Pending => 0,
            Ends::Live(i) => self.ends[i as usize].receiver.bytes_received(),
            Ends::Closed(_) => f.spec.size,
        }
    }

    /// Sum of sender RTO expiries over all flows.
    pub fn total_timeouts(&self) -> u64 {
        self.flows.iter().map(|f| self.summary(f).timeouts).sum()
    }

    /// RTO expiries of one flow's sender.
    pub fn flow_timeouts(&self, flow: FlowId) -> u64 {
        self.summary(&self.flows[flow.0 as usize]).timeouts
    }

    /// ECN-driven window reductions of one flow's sender.
    pub fn flow_ecn_reductions(&self, flow: FlowId) -> u64 {
        self.summary(&self.flows[flow.0 as usize]).ecn_reductions
    }

    /// The congestion controller currently driving `flow`'s sender
    /// (reflects any mid-run [`NetMutation::CcSwitch`]).
    pub fn flow_cc(&self, flow: FlowId) -> Cc {
        self.summary(&self.flows[flow.0 as usize]).cc
    }

    /// The ECN path-validation verdict of `flow`'s sender.
    pub fn flow_ecn_path_state(&self, flow: FlowId) -> EcnPathState {
        self.summary(&self.flows[flow.0 as usize]).ecn_path
    }

    /// RTT samples collected by a prober: `(send_time, rtt)` pairs.
    pub fn probe_rtts(&self, prober: usize) -> &[(Time, Time)] {
        &self.probers[prober].rtts
    }

    /// Access a link's egress port (indexes follow the order links were
    /// passed to [`NetworkSim::new`]).
    pub fn port(&self, link: usize) -> &Port {
        &self.links[link].port
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Aggregate drops across every port.
    pub fn total_drops(&self) -> u64 {
        self.links.iter().map(|l| l.port.stats().total_drops()).sum()
    }

    /// What the fault-injection layer did so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Allocator-behavior counters of the in-flight packet arena
    /// (the benchmark's per-packet alloc count comes from here).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Endpoint-slab high-water mark: the most flows whose sender and
    /// receiver were held at once (the slab never shrinks, so this is
    /// its length).
    pub fn endpoint_high_water(&self) -> usize {
        self.ends.len()
    }

    /// Self-counters of the event queue: day steps, bucket allocations,
    /// overflow traffic and tier high-water marks.
    pub fn queue_stats(&self) -> QueueStats {
        self.events.stats()
    }

    /// Whether `link` is administratively up.
    pub fn link_is_up(&self, link: usize) -> bool {
        self.link_up[link]
    }

    /// Sum of retransmitted data packets over all senders.
    pub fn total_retransmitted_packets(&self) -> u64 {
        self.flows.iter().map(|f| self.summary(f).rtx_packets).sum()
    }

    /// Sum of retransmitted data bytes over all senders.
    pub fn total_retransmitted_bytes(&self) -> u64 {
        self.flows.iter().map(|f| self.summary(f).rtx_bytes).sum()
    }

    /// Sum of fast-retransmit entries over all senders.
    pub fn total_fast_retransmits(&self) -> u64 {
        self.flows
            .iter()
            .map(|f| self.summary(f).fast_retransmits)
            .sum()
    }

    /// Application-level (unique) bytes delivered across all flows.
    pub fn total_delivered_bytes(&self) -> u64 {
        (0..self.flows.len() as u64)
            .map(|f| self.delivered_bytes(FlowId(f)))
            .sum()
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn dispatch_event(&mut self, ev: Event, now: Time) -> Result<(), TcnError> {
        match ev {
            Event::FlowStart(f) => {
                let i = self.live_ends(f);
                let mut out = std::mem::take(&mut self.scratch);
                out.clear();
                self.ends[i].sender.start_into(now, &mut out);
                let r = self.after_sender(f, &mut out, now);
                self.scratch = out;
                r?;
            }
            Event::Timer { flow } => {
                let fs = &mut self.flows[flow as usize];
                fs.next_timer = None;
                // A released flow's timer is stale: its sender is done,
                // would ignore it and arm nothing.
                let Ends::Live(i) = fs.ends else {
                    return Ok(());
                };
                let mut out = std::mem::take(&mut self.scratch);
                out.clear();
                self.ends[i as usize].sender.on_timer_into(now, &mut out);
                let r = self.after_sender(flow, &mut out, now);
                self.scratch = out;
                r?;
            }
            Event::TxDone { link } => {
                self.links[link as usize].tx = TxState::Idle;
                self.kick(link, now)?;
            }
            Event::Arrive { link, pkt } => {
                self.net_audit.on_arrive();
                // Un-park the packet; its handle is retired either way.
                let Some(pkt) = self.arena.remove(pkt) else {
                    // Unreachable by construction (every handle is
                    // scheduled into exactly one Arrive); the arena
                    // audit has already flagged the stale handle.
                    return Ok(());
                };
                if !self.link_up[link as usize] {
                    // The link died while this packet was in flight.
                    self.fault_stats.dead_link_drops += 1;
                    self.net_audit.on_fault_drop();
                    return Ok(());
                }
                let node = self.links[link as usize].to;
                match self.node_hosts[node as usize] {
                    Some(host) => {
                        self.net_audit.on_deliver();
                        self.deliver(host, pkt, now)?;
                    }
                    None => self.forward(node, pkt, now)?,
                }
            }
            Event::ArriveCorrupt => {
                // FCS failure at the receiving NIC: discarded there.
                self.net_audit.on_arrive();
                self.fault_stats.corrupt_drops += 1;
                self.net_audit.on_fault_drop();
            }
            Event::LinkDown { link } => self.apply_link_down(link, now),
            Event::LinkUp { link } => self.apply_link_up(link, now)?,
            Event::Reconverge => {
                let (tables, unreachable) = compute_routes_partial(
                    &TopoView {
                        links: &self.topo_endpoints,
                        num_nodes: self.node_hosts.len(),
                        host_nodes: &self.host_nodes,
                    },
                    &self.link_up,
                );
                self.routes = tables;
                self.fault_stats.reconvergences += 1;
                self.fault_stats.unreachable_pairs = unreachable;
            }
            Event::ProbeTick { prober } => self.probe_tick(prober, now)?,
            Event::Mutation { idx } => {
                let m = self.pending_mutations[idx as usize].clone();
                self.apply_mutation(&m, now)?;
            }
        }
        Ok(())
    }

    /// Administratively fail `link` now (idempotent).
    fn apply_link_down(&mut self, link: u32, now: Time) {
        let li = link as usize;
        if self.link_up[li] {
            self.link_up[li] = false;
            self.fault_stats.link_downs += 1;
            self.events
                .schedule_at(now + self.detection_delay, Event::Reconverge);
        }
    }

    /// Administratively restore `link` now (idempotent).
    fn apply_link_up(&mut self, link: u32, now: Time) -> Result<(), TcnError> {
        let li = link as usize;
        if !self.link_up[li] {
            self.link_up[li] = true;
            self.fault_stats.link_ups += 1;
            self.events
                .schedule_at(now + self.detection_delay, Event::Reconverge);
            // The port kept queueing while dead; restart it.
            self.kick(link, now)?;
        }
        Ok(())
    }

    /// Route and enqueue a packet at `node` toward `pkt.dst`.
    fn forward(&mut self, node: NodeId, pkt: Packet, now: Time) -> Result<(), TcnError> {
        let cands = &self.routes[node as usize][pkt.dst as usize];
        if cands.is_empty() {
            // Post-reconvergence partition: no surviving path. Drop and
            // account — the transport's RTO will retry (and succeed once
            // the link comes back and routing reconverges again).
            self.fault_stats.no_route_drops += 1;
            self.net_audit.on_fault_drop();
            return Ok(());
        }
        let link = ecmp_pick(cands, pkt.flow, node);
        self.enqueue_on(link, pkt, now)
    }

    fn enqueue_on(&mut self, link: u32, pkt: Packet, now: Time) -> Result<(), TcnError> {
        if self.links[link as usize].port.enqueue(pkt, now) {
            self.kick(link, now)?;
        }
        Ok(())
    }

    /// Start serializing the next packet on `link` if the port is idle.
    ///
    /// This is the fault-injection point: the packet has left the port
    /// (the port's ledger already counted it transmitted), so wire
    /// loss, corruption and jitter are drawn here, from the link's
    /// isolated RNG stream, in a fixed order (loss, corruption, jitter)
    /// for replay determinism. The serialization wake-up is scheduled
    /// before any draw — a faulty wire does not change the cadence.
    ///
    /// Wake-up scheduling is where per-port coalescing (DESIGN §7.6)
    /// lives: in batched mode, a `TxDone` behind an *empty* queue is
    /// elided — its sequence slot is reserved and held. The next kick
    /// decides what the per-event path's wake would have done by then:
    /// if it is still pending, the wake takes exactly its reserved slot
    /// (in the queue, or in the rest of the batch at an exact tie);
    /// otherwise it fired on an empty port and the reservation expires
    /// as a harmless gap. Sequence allocation is identical either way,
    /// so coalesced runs stay byte-identical to the reference path.
    fn kick(&mut self, link: u32, now: Time) -> Result<(), TcnError> {
        match self.links[link as usize].tx {
            TxState::Idle => {}
            TxState::BusyScheduled { .. } => return Ok(()),
            TxState::BusyHeld { until, seq } => {
                if now < until {
                    // Work showed up mid-serialization: the held wake
                    // is needed after all.
                    self.links[link as usize].tx = TxState::BusyScheduled { until };
                    self.events
                        .schedule_at_reserved(until, seq, Event::TxDone { link });
                    return Ok(());
                }
                if now == until && self.dispatching < seq {
                    // The eager wake was popped with this batch and
                    // has not fired yet: arrivals below its seq enqueue
                    // before service resumes, those above after.
                    self.links[link as usize].tx = TxState::BusyScheduled { until };
                    let wake = EventEntry { at: now, seq, event: Event::TxDone { link } };
                    self.observe_event(&wake.event, now)?;
                    let at = self.batch.partition_point(|e| e.seq > seq);
                    self.batch.insert(at, wake);
                    return Ok(());
                }
                // Serialization finished with nothing to send; the
                // reservation expires (the per-event path popped a
                // no-op TxDone here).
                self.links[link as usize].tx = TxState::Idle;
            }
        }
        let (mut pkt, txt, delay) = {
            let l = &mut self.links[link as usize];
            let Some(pkt) = l.port.dequeue(now)? else {
                return Ok(());
            };
            let txt = l.port.tx_time(&pkt);
            (pkt, txt, l.delay)
        };
        let until = now + txt;
        self.links[link as usize].tx =
            if self.dispatch == DispatchMode::Batched && self.links[link as usize].port.is_empty() {
                // Queue drained mid-service: hold the wake as a bare
                // reservation (most such wakes are never needed).
                TxState::BusyHeld { until, seq: self.events.reserve_seq() }
            } else {
                self.events.schedule_at(until, Event::TxDone { link });
                TxState::BusyScheduled { until }
            };
        if !self.link_up[link as usize] {
            // Blackholed: routing has not reconverged off this dead
            // link yet (or the packet was queued before it died).
            self.fault_stats.dead_link_drops += 1;
            self.net_audit.on_fault_drop();
            return Ok(());
        }
        let mut corrupt = false;
        let mut extra = Time::ZERO;
        if let Some(f) = &mut self.link_faults[link as usize] {
            if f.rng.chance(f.profile.loss) {
                self.fault_stats.loss_drops += 1;
                self.net_audit.on_fault_drop();
                return Ok(());
            }
            corrupt = f.rng.chance(f.profile.corrupt);
            if !f.profile.jitter_max.is_zero() && f.rng.chance(f.profile.jitter_prob) {
                let bound = f.profile.jitter_max + Time::from_ps(1);
                extra = Time::from_ps(f.rng.gen_range(bound.as_ps()));
                self.fault_stats.jitter_delays += 1;
            }
            // ECN mangling (Rng::chance draws nothing at p = 0, so
            // profiles without these fields keep their exact streams).
            if f.rng.chance(f.profile.ecn_bleach) && pkt.ecn != EcnCodepoint::NotEct {
                pkt.ecn = EcnCodepoint::NotEct;
                self.fault_stats.ecn_bleached += 1;
            }
            if f.rng.chance(f.profile.ecn_ce) && pkt.ecn != EcnCodepoint::Ce {
                pkt.ecn = EcnCodepoint::Ce;
                self.fault_stats.ecn_spurious_ce += 1;
            }
        }
        self.net_audit.on_depart();
        let arrive_at = now + txt + delay + extra;
        if corrupt {
            self.events.schedule_at(arrive_at, Event::ArriveCorrupt);
        } else {
            // Park the packet for its wire trip; the event carries only
            // the handle. The matching `remove` is in the Arrive arm.
            let pkt = self.arena.insert(pkt);
            self.events.schedule_at(arrive_at, Event::Arrive { link, pkt });
        }
        Ok(())
    }

    /// A packet reached a host NIC.
    fn deliver(&mut self, host: u32, pkt: Packet, now: Time) -> Result<(), TcnError> {
        assert_eq!(pkt.dst, host, "misrouted packet (routing bug)");
        match pkt.kind {
            PacketKind::Data { .. } => {
                let fs = &mut self.flows[pkt.flow.0 as usize];
                let ack = match fs.ends {
                    Ends::Live(i) => {
                        let receiver = &mut self.ends[i as usize].receiver;
                        let ack = receiver.on_data(&pkt, now)?;
                        if fs.finish.is_none() && receiver.is_complete() {
                            fs.finish = Some(now);
                            self.completed += 1;
                        }
                        ack
                    }
                    // A late duplicate: the released receiver held every
                    // byte, so it would have acked the whole flow.
                    Ends::Closed(_) => ack_for(&pkt, fs.spec.size, now),
                    Ends::Pending => {
                        return Err(TcnError::audit(format!(
                            "data for flow {} before it started",
                            pkt.flow.0
                        )))
                    }
                };
                self.emit_from_host(host, ack, now)?;
            }
            PacketKind::Ack { cum_ack, ece } => {
                let f = pkt.flow.0 as u32;
                // A late ACK for a released flow: its sender is done and
                // would ignore it.
                let Ends::Live(i) = self.flows[f as usize].ends else {
                    return Ok(());
                };
                let sender = &mut self.ends[i as usize].sender;
                let mut out = std::mem::take(&mut self.scratch);
                out.clear();
                sender.on_ack_into(cum_ack, ece, now, &mut out);
                if sender.is_done() {
                    self.flows[f as usize].ends = Ends::Closed(SenderSummary::of(sender));
                    self.free_ends.push(i);
                }
                let r = self.after_sender(f, &mut out, now);
                self.scratch = out;
                r?;
            }
            PacketKind::Probe { probe_id, reply } => {
                if reply {
                    let idx = (pkt.flow.0 - PROBE_FLOW_BASE) as usize;
                    let rtt = now.saturating_sub(pkt.birth_ts);
                    self.probers[idx].rtts.push((pkt.birth_ts, rtt));
                } else {
                    // Echo back, preserving class and birth timestamp.
                    let mut echo =
                        Packet::probe(pkt.flow, host, pkt.src, probe_id, true, pkt.size);
                    echo.dscp = pkt.dscp;
                    echo.birth_ts = pkt.birth_ts;
                    self.emit_from_host(host, echo, now)?;
                }
            }
        }
        Ok(())
    }

    /// Process a sender's output: DSCP-tag data, emit, and maintain the
    /// single outstanding RTO timer. Drains `out.packets` (the caller's
    /// reusable scratch keeps its capacity).
    fn after_sender(&mut self, flow: u32, out: &mut SenderOutput, now: Time) -> Result<(), TcnError> {
        let spec = self.flows[flow as usize].spec;
        for pkt in &mut out.packets {
            if let PacketKind::Data { seq, .. } = pkt.kind {
                pkt.dscp = self.tagging.dscp_for(spec.service, seq);
            }
        }
        for pkt in out.packets.drain(..) {
            self.emit_from_host(spec.src, pkt, now)?;
        }
        if let Some(deadline) = out.timer {
            let fs = &mut self.flows[flow as usize];
            let need = match fs.next_timer {
                None => true,
                Some(t) => deadline < t,
            };
            if need {
                fs.next_timer = Some(deadline.max(now));
                self.events
                    .schedule_at(deadline.max(now), Event::Timer { flow });
            }
        }
        Ok(())
    }

    fn emit_from_host(&mut self, host: u32, pkt: Packet, now: Time) -> Result<(), TcnError> {
        self.net_audit.on_emit();
        let node = self.host_nodes[host as usize];
        self.forward(node, pkt, now)
    }

    /// Cross-check end-to-end packet conservation (no-op unless the
    /// audit layer is active). Valid between event dispatches.
    fn audit_net(&mut self) {
        if !tcn_audit::active() {
            return;
        }
        let resident: u64 = self.links.iter().map(|l| l.port.resident_packets()).sum();
        let port_drops: u64 = self
            .links
            .iter()
            .map(|l| l.port.stats().total_drops())
            .sum();
        self.net_audit.check(resident, port_drops);
        if self.events.is_empty() {
            // Sixth invariant: once the event queue drains nothing may
            // still be parked in the arena — every in-flight packet was
            // delivered or dropped, retiring its handle exactly once.
            self.arena.audit_drained();
        }
    }

    fn probe_tick(&mut self, prober: u32, now: Time) -> Result<(), TcnError> {
        let idx = prober as usize;
        let cfg = self.probers[idx].cfg;
        let id = self.probers[idx].next_id;
        self.probers[idx].next_id += 1;
        let mut pkt = Packet::probe(
            FlowId(PROBE_FLOW_BASE + idx as u64),
            cfg.src,
            cfg.dst,
            id,
            false,
            cfg.size,
        );
        pkt.dscp = cfg.dscp;
        pkt.birth_ts = now;
        self.emit_from_host(cfg.src, pkt, now)?;
        self.events.schedule_at(
            now + cfg.interval,
            Event::ProbeTick { prober },
        );
        Ok(())
    }
}
