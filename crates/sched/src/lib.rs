//! `tcn-sched` — the packet schedulers TCN must coexist with.
//!
//! The paper's whole point is that ECN marking should survive *any*
//! scheduling discipline, so this crate supplies the full menu evaluated
//! there plus the programmable scheduler its motivation cites:
//!
//! | Scheduler | Paper use | Round concept (MQ-ECN)? |
//! |---|---|---|
//! | [`Fifo`] | single-queue baselines (Fig. 3) | n/a |
//! | [`StrictPriority`] | control-traffic prioritization (§2.2) | no |
//! | [`Wrr`] | round-robin family | yes |
//! | [`Dwrr`] | Figs. 1, 2, 6, 8, 10, 12, 13 | yes |
//! | [`Wfq`] | Figs. 5, 7, 9, 11 (SCFQ virtual time, as in the prototype §5) | **no** |
//! | [`SpHybrid`] | SP/DWRR and SP/WFQ (Figs. 5, 8–13) | inner only |
//! | [`Pifo`] | programmable scheduling motivation (§2.2, \[30\]) | **no** |
//!
//! All schedulers implement one [`Scheduler`] trait driven by the port:
//! `on_enqueue` (bookkeeping when a packet is admitted), `select` (choose
//! the queue whose head departs next), `on_dequeue` (bookkeeping after
//! removal). Schedulers that possess a round (WRR/DWRR) expose a measured
//! round time so MQ-ECN can compute its dynamic threshold; the others
//! return `None`, which is exactly the paper's argument for why MQ-ECN
//! cannot generalize.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dwrr;
pub mod fifo;
pub mod hybrid;
pub mod pifo;
pub mod wfq;
pub mod wrr;

use tcn_core::{Packet, PacketQueue, TcnError};
use tcn_sim::Time;

pub use dwrr::Dwrr;
pub use fifo::{Fifo, StrictPriority};
pub use hybrid::SpHybrid;
pub use pifo::{FixedSlackRank, Pifo, RankFn, StfqRank};
pub use wfq::Wfq;
pub use wrr::Wrr;

/// A work-conserving packet scheduler over a port's queues.
///
/// Contract with the port:
/// * `on_enqueue(queues, q, pkt, now)` is called **after** `pkt` was
///   pushed to `queues[q]`;
/// * `select(queues, now)` must return the index of a **non-empty** queue
///   whenever any queue is non-empty (work conservation), else `None`;
/// * `on_dequeue(queues, q, pkt, now)` is called **after** the head of
///   `queues[q]` was removed; `pkt` is that packet. It returns
///   `Err(TcnError::SchedulerContract)` when the call does not match the
///   scheduler's bookkeeping (e.g. no recorded tag for the packet) —
///   a broken port/scheduler pairing, surfaced instead of a panic.
///
/// Implementations must tolerate packets vanishing only through
/// `on_dequeue` (the port performs drops *before* enqueue or *after*
/// dequeue, never by reaching into queues).
pub trait Scheduler {
    /// Bookkeeping when a packet is admitted to queue `q`.
    fn on_enqueue(&mut self, queues: &[PacketQueue], q: usize, pkt: &Packet, now: Time);

    /// Choose the queue whose head departs next.
    ///
    /// With every queue empty, `select` returns `None` and changes no
    /// state. Packets leave only through `on_dequeue`, which settles a
    /// queue's bookkeeping the moment it drains (DWRR and WRR deactivate
    /// it there), so an idle `select` finds nothing left to move. The
    /// batched dispatch loop relies on this on every port: it skips the
    /// select a trailing no-op service wake would make (DESIGN §7.6).
    fn select(&mut self, queues: &[PacketQueue], now: Time) -> Option<usize>;

    /// Bookkeeping after the head of queue `q` was removed.
    ///
    /// # Errors
    /// [`TcnError::SchedulerContract`] if the dequeue does not match this
    /// scheduler's bookkeeping (port/scheduler contract broken).
    fn on_dequeue(
        &mut self,
        queues: &[PacketQueue],
        q: usize,
        pkt: &Packet,
        now: Time,
    ) -> Result<(), TcnError>;

    /// Latest measured duration of a full service round, for schedulers
    /// that have rounds (WRR, DWRR). `None` otherwise — and MQ-ECN
    /// therefore cannot run on those schedulers (paper §3.3).
    fn round_time(&self) -> Option<Time> {
        None
    }

    /// Byte quantum of queue `q` per round, if round-based.
    fn quantum(&self, q: usize) -> Option<u64> {
        let _ = q;
        None
    }

    /// Monotone counter of round-time measurements (see
    /// `tcn_core::aqm::PortView::round_seq`); 0 for round-less
    /// schedulers.
    fn round_seq(&self) -> u64 {
        0
    }

    /// Scheduler name for experiment tables.
    fn name(&self) -> &'static str;

    /// Install a telemetry probe scoped to this scheduler's port
    /// (`probe.ctx()` is the port index). Schedulers that emit
    /// `SchedService` events (DWRR) store it; the default is a no-op so
    /// schedulers without instrumentation need no code.
    fn set_probe(&mut self, _probe: tcn_telemetry::Probe) {}
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn on_enqueue(&mut self, queues: &[PacketQueue], q: usize, pkt: &Packet, now: Time) {
        (**self).on_enqueue(queues, q, pkt, now)
    }
    fn select(&mut self, queues: &[PacketQueue], now: Time) -> Option<usize> {
        (**self).select(queues, now)
    }
    fn on_dequeue(
        &mut self,
        queues: &[PacketQueue],
        q: usize,
        pkt: &Packet,
        now: Time,
    ) -> Result<(), TcnError> {
        (**self).on_dequeue(queues, q, pkt, now)
    }
    fn round_time(&self) -> Option<Time> {
        (**self).round_time()
    }
    fn quantum(&self, q: usize) -> Option<u64> {
        (**self).quantum(q)
    }
    fn round_seq(&self) -> u64 {
        (**self).round_seq()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn set_probe(&mut self, probe: tcn_telemetry::Probe) {
        (**self).set_probe(probe)
    }
}

/// A scheduler wrapper that enforces the [`Scheduler`] contract at
/// runtime via `tcn_audit::WorkAudit`: `select` must never return an
/// empty queue, and must never return `None` while any queue is
/// backlogged (work conservation).
///
/// The port wraps every scheduler in this when auditing is active; with
/// auditing off the checks compile to no-ops, so the wrapper costs one
/// (devirtualizable) indirection.
pub struct Audited<S: Scheduler> {
    inner: S,
    work: tcn_audit::WorkAudit,
}

impl<S: Scheduler> Audited<S> {
    /// Wrap `inner`, panicking on the first contract violation.
    pub fn new(inner: S) -> Self {
        Audited {
            inner,
            work: tcn_audit::WorkAudit::new(),
        }
    }

    /// Wrap `inner`, recording violations for inspection instead of
    /// panicking.
    pub fn recording(inner: S) -> Self {
        Audited {
            inner,
            work: tcn_audit::WorkAudit::recording(),
        }
    }

    /// Contract violations recorded so far (recording mode only).
    pub fn violations(&self) -> &[tcn_audit::Violation] {
        self.work.violations()
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Scheduler> Scheduler for Audited<S> {
    fn on_enqueue(&mut self, queues: &[PacketQueue], q: usize, pkt: &Packet, now: Time) {
        self.inner.on_enqueue(queues, q, pkt, now)
    }

    fn select(&mut self, queues: &[PacketQueue], now: Time) -> Option<usize> {
        let choice = self.inner.select(queues, now);
        match choice {
            Some(q) => self.work.on_select(q, queues[q].len_pkts() as u64),
            None => {
                let backlog: u64 = queues.iter().map(|qu| qu.len_pkts() as u64).sum();
                self.work.on_idle(backlog);
            }
        }
        choice
    }

    fn on_dequeue(
        &mut self,
        queues: &[PacketQueue],
        q: usize,
        pkt: &Packet,
        now: Time,
    ) -> Result<(), TcnError> {
        self.inner.on_dequeue(queues, q, pkt, now)
    }

    fn round_time(&self) -> Option<Time> {
        self.inner.round_time()
    }

    fn quantum(&self, q: usize) -> Option<u64> {
        self.inner.quantum(q)
    }

    fn round_seq(&self) -> u64 {
        self.inner.round_seq()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_probe(&mut self, probe: tcn_telemetry::Probe) {
        self.inner.set_probe(probe)
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    //! A miniature service-loop harness: pre-filled queues drained through
    //! a scheduler at a given line rate, accumulating per-queue bytes.

    use super::*;
    use tcn_core::FlowId;
    use tcn_sim::Rate;

    /// Build a data packet of `wire` total bytes for queue tagging tests.
    pub fn pkt(wire: u32) -> Packet {
        assert!(wire > 40);
        Packet::data(FlowId(0), 0, 1, 0, wire - 40, 40)
    }

    /// Harness around a scheduler and its queues.
    pub struct Harness<S: Scheduler> {
        pub sched: S,
        pub queues: Vec<PacketQueue>,
        pub now: Time,
        pub rate: Rate,
        /// Bytes served per queue.
        pub served: Vec<u64>,
    }

    impl<S: Scheduler> Harness<S> {
        pub fn new(sched: S, nqueues: usize) -> Self {
            Harness {
                sched,
                queues: vec![PacketQueue::new(); nqueues],
                now: Time::ZERO,
                rate: Rate::from_gbps(1),
                served: vec![0; nqueues],
            }
        }

        /// Enqueue a packet of `wire` bytes to queue `q`.
        pub fn push(&mut self, q: usize, wire: u32) {
            let p = pkt(wire);
            self.queues[q].push_back(p.clone());
            self.sched.on_enqueue(&self.queues, q, &p, self.now);
        }

        /// Keep each queue backlogged with `wire`-byte packets.
        pub fn backlog(&mut self, q: usize, wire: u32, count: usize) {
            for _ in 0..count {
                self.push(q, wire);
            }
        }

        /// Serve one packet; returns the queue served, or `None` if idle.
        pub fn serve_one(&mut self) -> Option<usize> {
            let q = self.sched.select(&self.queues, self.now)?;
            assert!(!self.queues[q].is_empty(), "selected an empty queue");
            let p = self.queues[q].pop_front().unwrap();
            self.served[q] += u64::from(p.size);
            self.now += self.rate.tx_time(u64::from(p.size));
            self.sched
                .on_dequeue(&self.queues, q, &p, self.now)
                .expect("scheduler contract violated in harness");
            Some(q)
        }

        /// Serve `n` packets (stops early if idle).
        pub fn serve(&mut self, n: usize) {
            for _ in 0..n {
                if self.serve_one().is_none() {
                    break;
                }
            }
        }

        /// Fraction of served bytes that went to queue `q`.
        pub fn share(&self, q: usize) -> f64 {
            let total: u64 = self.served.iter().sum();
            if total == 0 {
                0.0
            } else {
                self.served[q] as f64 / total as f64
            }
        }
    }
}

#[cfg(test)]
mod trait_tests {
    use super::test_util::*;
    use super::*;

    /// Every scheduler must be work-conserving: as long as any queue is
    /// backlogged, `select` returns some non-empty queue.
    fn assert_work_conserving<S: Scheduler>(sched: S, nq: usize) {
        let mut h = Harness::new(sched, nq);
        // Uneven backlog: queue 0 heavy, last queue light, middles empty.
        h.backlog(0, 1500, 20);
        h.backlog(nq - 1, 100, 5);
        let total_pkts = 25;
        let mut served = 0;
        while h.serve_one().is_some() {
            served += 1;
            assert!(served <= total_pkts, "served more packets than queued");
        }
        assert_eq!(served, total_pkts, "scheduler idled with backlog");
    }

    /// A deliberately broken scheduler for exercising the audit wrapper:
    /// always claims queue 0, backlogged or not.
    struct StuckOnZero;

    impl Scheduler for StuckOnZero {
        fn on_enqueue(&mut self, _q: &[PacketQueue], _i: usize, _p: &Packet, _now: Time) {}
        fn select(&mut self, _q: &[PacketQueue], _now: Time) -> Option<usize> {
            Some(0)
        }
        fn on_dequeue(
            &mut self,
            _q: &[PacketQueue],
            _i: usize,
            _p: &Packet,
            _now: Time,
        ) -> Result<(), TcnError> {
            Ok(())
        }
        fn name(&self) -> &'static str {
            "StuckOnZero"
        }
    }

    #[test]
    fn audited_flags_empty_queue_selection() {
        let mut sched = Audited::recording(StuckOnZero);
        let queues = vec![PacketQueue::new(); 2];
        assert_eq!(sched.select(&queues, Time::ZERO), Some(0));
        assert!(
            sched
                .violations()
                .iter()
                .any(|v| v.invariant == tcn_audit::Invariant::WorkConservation),
            "selecting an empty queue must be flagged"
        );
    }

    #[test]
    fn audited_passes_clean_scheduler_through() {
        // Strict mode: any violation would panic, so a full drain through
        // the audited wrapper doubles as the assertion.
        let mut h = Harness::new(Audited::new(Dwrr::new(vec![1500; 3])), 3);
        h.backlog(0, 1500, 10);
        h.backlog(2, 700, 10);
        let mut served = 0;
        while h.serve_one().is_some() {
            served += 1;
        }
        assert_eq!(served, 20);
        assert_eq!(h.sched.name(), "DWRR");
        assert!(h.sched.violations().is_empty());
    }

    #[test]
    fn pure_idle_select_really_is_pure() {
        // The property `Scheduler::select` documents, for every
        // scheduler: hammering select on empty queues between busy
        // spells must not change what the next spell serves, nor the
        // round state MQ-ECN reads. The quiet run serves exactly the
        // packets it queued, so it never makes an idle select at all.
        type Trace = Vec<(usize, Option<Time>, u64)>;
        fn trace<S: Scheduler>(sched: S, nq: usize, spam: bool) -> Trace {
            let mut h = Harness::new(sched, nq);
            let mut out = Trace::new();
            for spell in 0..4 {
                if spam {
                    for _ in 0..8 {
                        assert_eq!(h.sched.select(&h.queues, h.now), None);
                    }
                }
                h.now += Time::from_us(50);
                let mut queued = 0;
                for q in 0..nq {
                    let count = 2 + (q + spell) % 3;
                    h.backlog(q, 600 + 300 * ((q + spell) % 4) as u32, count);
                    queued += count;
                }
                for _ in 0..queued {
                    let q = h.serve_one().expect("backlogged queue left unserved");
                    out.push((q, h.sched.round_time(), h.sched.round_seq()));
                }
            }
            out
        }
        fn check<S: Scheduler>(mk: impl Fn() -> S, nq: usize) {
            let quiet = trace(mk(), nq, false);
            assert_eq!(quiet, trace(mk(), nq, true), "{}: idle select moved state", mk().name());
        }
        check(Fifo::new, 1);
        check(|| StrictPriority::new(3), 3);
        check(|| Wfq::new(vec![1.0, 2.0, 1.0]), 3);
        check(|| Dwrr::new(vec![1500, 3000, 1500]), 3);
        check(|| Wrr::new(vec![1, 2, 1]), 3);
        check(|| SpHybrid::new(1, Dwrr::equal(3, 1500)), 4);
        check(|| SpHybrid::new(1, Wfq::equal(3)), 4);
        check(|| Pifo::new(3, StfqRank::new(vec![1.0, 2.0, 1.0])), 3);
    }

    #[test]
    fn all_schedulers_work_conserving() {
        assert_work_conserving(Fifo::new(), 1);
        assert_work_conserving(StrictPriority::new(4), 4);
        assert_work_conserving(Wrr::new(vec![1, 2, 3, 4]), 4);
        assert_work_conserving(Dwrr::new(vec![1500; 4]), 4);
        assert_work_conserving(Wfq::new(vec![1.0, 2.0, 3.0, 4.0]), 4);
        assert_work_conserving(SpHybrid::new(1, Dwrr::new(vec![1500; 3])), 4);
        assert_work_conserving(SpHybrid::new(2, Wfq::new(vec![1.0, 1.0])), 4);
        assert_work_conserving(Pifo::new(4, StfqRank::new(vec![1.0; 4])), 4);
    }
}
