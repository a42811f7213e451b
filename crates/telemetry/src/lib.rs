//! `tcn-telemetry` — the structured event/metric bus every layer of the
//! simulator reports into.
//!
//! The paper's evidence is entirely time-series and distributional
//! (sojourn traces, marking fraction, queue occupancy, FCT percentiles),
//! so the repro needs to see *inside* a run without editing library
//! code. This crate is the instrumentation spine:
//!
//! * [`Event`] — the typed vocabulary of probe points: event-loop ticks
//!   (`tcn_sim`), enqueue/dequeue/drop/mark per port × queue
//!   (`tcn_net`), AQM mark decisions with the sojourn value
//!   (`tcn_core` / `tcn_baselines`), scheduler service decisions
//!   (`tcn_sched`), and congestion-window / RTO / fast-retransmit
//!   episodes (`tcn_transport`).
//! * [`Probe`] — the handle instrumented code holds. A probe is either
//!   *off* (the default: one `Option` branch, no event is even
//!   constructed — [`Probe::emit`] takes a closure) or bound to a
//!   [`Telemetry`] bus. Simulation output is byte-identical with probes
//!   compiled in but off; the engine's bench gate enforces the cost
//!   stays in the noise.
//! * [`Telemetry`] — the bus: a shared handle fanning events out to any
//!   number of [`Sink`]s. Epochs ([`Telemetry::begin_epoch`]) let a
//!   reused engine discard stale series on `EventQueue::clear()`.
//! * [`Sink`] — where events land: [`MemorySink`] here (for tests and
//!   in-process aggregation); the JSONL trace writer and the run-summary
//!   report live downstream (`tcn_experiments`, `tcn_stats`) so this
//!   crate stays dependency-free.
//!
//! Like `tcn-audit`, this crate sits *below* `tcn-sim` in the dependency
//! graph, which is why every field is a primitive (`u64` picoseconds,
//! integer ids) rather than `Time`/`FlowId`: the bottom of the crate
//! graph can use it without a cycle.
//!
//! Handles are `Rc`-based and deliberately **not** `Send`: a telemetry
//! bus belongs to exactly one simulation, and every sweep cell builds
//! its sim (and any telemetry) inside its own worker thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// One telemetry event. Every variant leads with `at_ps`, the simulated
/// time in integer picoseconds (`Time::as_ps()` upstream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A sampled event-loop tick: emitted every N pops by the engine so
    /// long runs cost O(events / N), not O(events).
    Tick {
        /// Simulated time (ps).
        at_ps: u64,
        /// Events processed since the engine started.
        events: u64,
        /// Events still pending in the queue.
        pending: u64,
    },
    /// A packet was admitted to a port queue.
    Enqueue {
        /// Simulated time (ps).
        at_ps: u64,
        /// Link/port index.
        port: u32,
        /// Queue index within the port.
        queue: u16,
        /// Wire bytes of the packet.
        bytes: u32,
        /// DSCP codepoint the classifier used.
        dscp: u8,
    },
    /// A packet left a port queue onto the wire.
    Dequeue {
        /// Simulated time (ps).
        at_ps: u64,
        /// Link/port index.
        port: u32,
        /// Queue index within the port.
        queue: u16,
        /// Wire bytes of the packet.
        bytes: u32,
        /// Time the packet spent queued (ps) — the paper's sojourn
        /// signal.
        sojourn_ps: u64,
    },
    /// A packet was refused admission by the shared-buffer FIFS check.
    BufferDrop {
        /// Simulated time (ps).
        at_ps: u64,
        /// Link/port index.
        port: u32,
        /// Queue the classifier picked.
        queue: u16,
        /// Wire bytes of the packet.
        bytes: u32,
    },
    /// An AQM dropped a packet (at enqueue admission or at dequeue).
    AqmDrop {
        /// Simulated time (ps).
        at_ps: u64,
        /// Link/port index.
        port: u32,
        /// Queue index within the port.
        queue: u16,
        /// Wire bytes of the packet.
        bytes: u32,
        /// `true` when the drop happened on the dequeue path.
        dequeue: bool,
    },
    /// A packet was CE-marked by the port's AQM.
    Mark {
        /// Simulated time (ps).
        at_ps: u64,
        /// Link/port index.
        port: u32,
        /// Queue index within the port.
        queue: u16,
        /// Sojourn time of the marked packet (ps); 0 on the enqueue
        /// path where the packet has not queued yet.
        sojourn_ps: u64,
        /// `true` when the mark happened on the dequeue path.
        dequeue: bool,
    },
    /// An AQM's *decision* on a dequeued packet — emitted by the AQM
    /// itself (TCN, CoDel, RED), with the sojourn value it judged, on
    /// both outcomes so marking fraction is recoverable.
    MarkDecision {
        /// Simulated time (ps).
        at_ps: u64,
        /// Port the AQM instance serves.
        port: u32,
        /// AQM name (`Aqm::name()`).
        aqm: &'static str,
        /// Sojourn time the decision was based on (ps).
        sojourn_ps: u64,
        /// Whether the packet was CE-marked.
        marked: bool,
    },
    /// A scheduler picked a queue to serve.
    SchedService {
        /// Simulated time (ps).
        at_ps: u64,
        /// Port the scheduler instance serves.
        port: u32,
        /// Scheduler name (`Scheduler::name()`).
        sched: &'static str,
        /// Queue selected for service.
        queue: u16,
    },
    /// A sender reduced its congestion window in response to ECN.
    EcnReduce {
        /// Simulated time (ps).
        at_ps: u64,
        /// Flow id.
        flow: u64,
        /// Congestion window after the reduction (bytes).
        cwnd_bytes: u64,
        /// DCTCP `alpha` at the reduction, scaled by 1e6 (0 for ECN*).
        alpha_ppm: u32,
    },
    /// A retransmission timeout fired.
    RtoFired {
        /// Simulated time (ps).
        at_ps: u64,
        /// Flow id.
        flow: u64,
        /// Congestion window after the timeout collapse (bytes).
        cwnd_bytes: u64,
        /// Total timeouts this flow has suffered (backoff depth proxy).
        timeouts: u64,
    },
    /// Dup-ACK fast retransmit was triggered.
    FastRtx {
        /// Simulated time (ps).
        at_ps: u64,
        /// Flow id.
        flow: u64,
        /// Congestion window after entering recovery (bytes).
        cwnd_bytes: u64,
    },
    /// A congestion-control state-machine transition: a controller
    /// phase change ("slow-start" → "recovery", BBR's "startup" →
    /// "drain", …), an ECN path-validation verdict (`cc` =
    /// "ecn-validation"), or a mid-run algorithm switch (`cc` =
    /// "switch", `from`/`to` = algorithm names).
    CcState {
        /// Simulated time (ps).
        at_ps: u64,
        /// Flow id.
        flow: u64,
        /// The state machine that moved: an algorithm name ("dctcp",
        /// "bbr", …), "ecn-validation", or "switch".
        cc: &'static str,
        /// State left.
        from: &'static str,
        /// State entered.
        to: &'static str,
    },
}

impl Event {
    /// Stable string tag for this event (the `"kind"` field of the JSONL
    /// trace schema).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Tick { .. } => "tick",
            Event::Enqueue { .. } => "enqueue",
            Event::Dequeue { .. } => "dequeue",
            Event::BufferDrop { .. } => "buffer_drop",
            Event::AqmDrop { .. } => "aqm_drop",
            Event::Mark { .. } => "mark",
            Event::MarkDecision { .. } => "mark_decision",
            Event::SchedService { .. } => "sched_service",
            Event::EcnReduce { .. } => "ecn_reduce",
            Event::RtoFired { .. } => "rto",
            Event::FastRtx { .. } => "fast_rtx",
            Event::CcState { .. } => "cc_state",
        }
    }

    /// The simulated timestamp, in integer picoseconds.
    pub fn at_ps(&self) -> u64 {
        match *self {
            Event::Tick { at_ps, .. }
            | Event::Enqueue { at_ps, .. }
            | Event::Dequeue { at_ps, .. }
            | Event::BufferDrop { at_ps, .. }
            | Event::AqmDrop { at_ps, .. }
            | Event::Mark { at_ps, .. }
            | Event::MarkDecision { at_ps, .. }
            | Event::SchedService { at_ps, .. }
            | Event::EcnReduce { at_ps, .. }
            | Event::RtoFired { at_ps, .. }
            | Event::FastRtx { at_ps, .. }
            | Event::CcState { at_ps, .. } => at_ps,
        }
    }
}

/// Where events land. Sinks are owned by the bus; state that must be
/// read back after a run is shared out-of-band (see [`MemorySink`]).
pub trait Sink {
    /// Receive one event. Called in simulated-time order as the run
    /// emits them.
    fn record(&mut self, ev: &Event);
    /// The engine was cleared for reuse: drop per-run state so the next
    /// epoch does not report stale series.
    fn on_epoch(&mut self) {}
    /// Flush any buffered output (end of run).
    fn flush(&mut self) {}
}

struct Bus {
    sinks: Vec<Box<dyn Sink>>,
    epoch: u64,
    recorded: u64,
}

/// The telemetry bus: one per simulation, fanning events out to its
/// sinks. Cheap to clone (a shared handle).
#[derive(Clone)]
pub struct Telemetry {
    bus: Rc<RefCell<Bus>>,
}

impl Telemetry {
    /// An empty bus with no sinks.
    pub fn new() -> Self {
        Telemetry {
            bus: Rc::new(RefCell::new(Bus {
                sinks: Vec::new(),
                epoch: 0,
                recorded: 0,
            })),
        }
    }

    /// Attach a sink. Events recorded from now on reach it.
    pub fn add_sink(&self, sink: Box<dyn Sink>) {
        self.bus.borrow_mut().sinks.push(sink);
    }

    /// Record one event into every sink.
    pub fn record(&self, ev: &Event) {
        let mut bus = self.bus.borrow_mut();
        bus.recorded += 1;
        for sink in &mut bus.sinks {
            sink.record(ev);
        }
    }

    /// Start a new epoch: every sink discards per-run state. Called by
    /// `EventQueue::clear()` so a reused engine never reports series
    /// from the previous run.
    pub fn begin_epoch(&self) {
        let mut bus = self.bus.borrow_mut();
        bus.epoch += 1;
        for sink in &mut bus.sinks {
            sink.on_epoch();
        }
    }

    /// How many times the bus has been epoch-reset.
    pub fn epoch(&self) -> u64 {
        self.bus.borrow().epoch
    }

    /// Total events recorded across all epochs.
    pub fn recorded(&self) -> u64 {
        self.bus.borrow().recorded
    }

    /// Flush every sink (end of run).
    pub fn flush(&self) {
        for sink in &mut self.bus.borrow_mut().sinks {
            sink.flush();
        }
    }

    /// A probe bound to this bus with context id 0.
    pub fn probe(&self) -> Probe {
        self.probe_for(0)
    }

    /// A probe bound to this bus, carrying `ctx` (a port/link index) so
    /// nested components (schedulers, AQMs) can stamp events with the
    /// port they serve without knowing the network layout.
    pub fn probe_for(&self, ctx: u32) -> Probe {
        Probe {
            tele: Some(self.clone()),
            ctx,
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bus = self.bus.borrow();
        f.debug_struct("Telemetry")
            .field("sinks", &bus.sinks.len())
            .field("epoch", &bus.epoch)
            .field("recorded", &bus.recorded)
            .finish()
    }
}

/// The handle instrumented code holds. Default is **off**: emitting
/// through an off probe is a single `Option` branch and the event is
/// never constructed (the argument to [`Probe::emit`] is a closure).
#[derive(Debug, Clone, Default)]
pub struct Probe {
    tele: Option<Telemetry>,
    ctx: u32,
}

impl Probe {
    /// The disconnected probe (what every component starts with).
    pub const fn off() -> Self {
        Probe { tele: None, ctx: 0 }
    }

    /// Whether a bus is attached. Callers may branch on this before
    /// computing anything expensive shared by several emissions.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.tele.is_some()
    }

    /// The context id (port/link index) this probe was scoped with.
    #[inline]
    pub fn ctx(&self) -> u32 {
        self.ctx
    }

    /// A clone of this probe re-scoped to `ctx` (off stays off).
    pub fn with_ctx(&self, ctx: u32) -> Probe {
        Probe {
            tele: self.tele.clone(),
            ctx,
        }
    }

    /// Emit an event. When the probe is off, `f` is never called — this
    /// is the zero-cost-when-off guarantee.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> Event) {
        if let Some(t) = &self.tele {
            t.record(&f());
        }
    }

    /// Epoch-reset the attached bus, if any (engine reuse).
    pub fn on_clear(&self) {
        if let Some(t) = &self.tele {
            t.begin_epoch();
        }
    }
}

/// An in-memory sink for tests and in-process analysis. The event
/// buffer is shared: clone the sink (or call [`MemorySink::handle`])
/// before boxing it into the bus, and read the clone after the run.
#[derive(Clone, Default)]
pub struct MemorySink {
    buf: Rc<RefCell<Vec<Event>>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A second handle onto the same buffer.
    pub fn handle(&self) -> MemorySink {
        self.clone()
    }

    /// Snapshot of the recorded events (current epoch only).
    pub fn events(&self) -> Vec<Event> {
        self.buf.borrow().clone()
    }

    /// Number of recorded events (current epoch only).
    pub fn len(&self) -> usize {
        self.buf.borrow().len()
    }

    /// Whether nothing has been recorded this epoch.
    pub fn is_empty(&self) -> bool {
        self.buf.borrow().is_empty()
    }
}

impl Sink for MemorySink {
    fn record(&mut self, ev: &Event) {
        self.buf.borrow_mut().push(*ev);
    }

    fn on_epoch(&mut self) {
        self.buf.borrow_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_probe_never_calls_the_closure() {
        let p = Probe::off();
        assert!(!p.is_on());
        let mut called = false;
        p.emit(|| {
            called = true;
            Event::Tick {
                at_ps: 0,
                events: 0,
                pending: 0,
            }
        });
        assert!(!called, "off probe must not construct the event");
    }

    #[test]
    fn events_reach_every_sink() {
        let t = Telemetry::new();
        let a = MemorySink::new();
        let b = MemorySink::new();
        t.add_sink(Box::new(a.handle()));
        t.add_sink(Box::new(b.handle()));
        let p = t.probe();
        p.emit(|| Event::Tick {
            at_ps: 7,
            events: 1,
            pending: 0,
        });
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(t.recorded(), 1);
        assert_eq!(a.events()[0].at_ps(), 7);
        assert_eq!(a.events()[0].kind(), "tick");
    }

    #[test]
    fn scoped_probe_carries_ctx() {
        let t = Telemetry::new();
        let p = t.probe_for(42);
        assert_eq!(p.ctx(), 42);
        assert_eq!(p.with_ctx(3).ctx(), 3);
        assert!(p.with_ctx(3).is_on());
        assert!(!Probe::off().with_ctx(9).is_on());
    }

    #[test]
    fn epoch_reset_clears_memory_sink() {
        let t = Telemetry::new();
        let m = MemorySink::new();
        t.add_sink(Box::new(m.handle()));
        let p = t.probe();
        p.emit(|| Event::FastRtx {
            at_ps: 1,
            flow: 9,
            cwnd_bytes: 100,
        });
        assert_eq!(m.len(), 1);
        p.on_clear();
        assert_eq!(t.epoch(), 1);
        assert!(m.is_empty(), "epoch reset must drop stale events");
        p.emit(|| Event::FastRtx {
            at_ps: 2,
            flow: 9,
            cwnd_bytes: 100,
        });
        assert_eq!(m.len(), 1);
        assert_eq!(m.events()[0].at_ps(), 2);
    }

    #[test]
    fn every_variant_has_kind_and_timestamp() {
        let evs = [
            Event::Tick {
                at_ps: 1,
                events: 0,
                pending: 0,
            },
            Event::Enqueue {
                at_ps: 2,
                port: 0,
                queue: 0,
                bytes: 0,
                dscp: 0,
            },
            Event::Dequeue {
                at_ps: 3,
                port: 0,
                queue: 0,
                bytes: 0,
                sojourn_ps: 0,
            },
            Event::BufferDrop {
                at_ps: 4,
                port: 0,
                queue: 0,
                bytes: 0,
            },
            Event::AqmDrop {
                at_ps: 5,
                port: 0,
                queue: 0,
                bytes: 0,
                dequeue: true,
            },
            Event::Mark {
                at_ps: 6,
                port: 0,
                queue: 0,
                sojourn_ps: 0,
                dequeue: true,
            },
            Event::MarkDecision {
                at_ps: 7,
                port: 0,
                aqm: "TCN",
                sojourn_ps: 0,
                marked: false,
            },
            Event::SchedService {
                at_ps: 8,
                port: 0,
                sched: "DWRR",
                queue: 0,
            },
            Event::EcnReduce {
                at_ps: 9,
                flow: 0,
                cwnd_bytes: 0,
                alpha_ppm: 0,
            },
            Event::RtoFired {
                at_ps: 10,
                flow: 0,
                cwnd_bytes: 0,
                timeouts: 0,
            },
            Event::FastRtx {
                at_ps: 11,
                flow: 0,
                cwnd_bytes: 0,
            },
            Event::CcState {
                at_ps: 12,
                flow: 0,
                cc: "bbr",
                from: "startup",
                to: "drain",
            },
        ];
        let mut kinds: Vec<&str> = evs.iter().map(Event::kind).collect();
        for (i, ev) in evs.iter().enumerate() {
            assert_eq!(ev.at_ps(), i as u64 + 1);
        }
        kinds.dedup();
        assert_eq!(kinds.len(), evs.len(), "kinds must be distinct");
    }
}
