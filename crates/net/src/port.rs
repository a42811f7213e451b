//! The switch egress port: the place where scheduler and AQM meet.
//!
//! Faithful to the paper's environments:
//!
//! * **Multi-queue** (4–8 on commodity chips, up to 32 in §6.2.2) with a
//!   DSCP classifier mapping packets to queues (§5 "Packet Classifier").
//! * **Shared buffer, first-in-first-serve**: the port's queues share one
//!   byte budget; an arriving packet is admitted iff it fits, regardless
//!   of which queue it joins ("Each switch port has a 96KB buffer which
//!   is completely shared by all the queues in a first-in-first-serve
//!   basis", §6.1). This is what lets low-priority backlog pressure drop
//!   high-priority packets — the effect behind the paper's §6.1.3 tail
//!   results.
//! * **Enqueue and dequeue AQM hooks** with packet mutation in place, so
//!   every marking scheme in `tcn-baselines` and `tcn-core` plugs in.
//! * **Mark/drop accounting in the port**, not the AQM, so experiments
//!   read uniform [`PortStats`] regardless of scheme.

use tcn_core::aqm::{Aqm, DequeueVerdict, EnqueueVerdict, PortView};
use tcn_core::{Packet, PacketQueue, TcnError};
use tcn_sched::Scheduler;
use tcn_sim::{Rate, Time};
use tcn_telemetry::{Event as TelemetryEvent, Probe};

/// Factory closures used by topology builders to stamp out per-port
/// scheduler/AQM instances.
pub struct PortSetup {
    /// Number of egress queues.
    pub nqueues: usize,
    /// Shared buffer capacity in bytes (`None` = unbounded, used for
    /// host NICs).
    pub buffer: Option<u64>,
    /// Serialization rate override (`None` = link rate). The testbed
    /// emulation shapes to 99.5 % of line rate (§5 "Rate Limiter").
    pub tx_rate: Option<Rate>,
    /// Builds this port's scheduler.
    pub make_sched: Box<dyn Fn() -> Box<dyn Scheduler>>,
    /// Builds this port's AQM.
    pub make_aqm: Box<dyn Fn() -> Box<dyn Aqm>>,
}

impl PortSetup {
    /// A single-queue, drop-tail, unshaped port — the host-NIC default.
    pub fn host_nic() -> Self {
        PortSetup {
            nqueues: 1,
            buffer: None,
            tx_rate: None,
            make_sched: Box::new(|| Box::new(tcn_sched::Fifo::new())),
            make_aqm: Box::new(|| Box::new(tcn_core::aqm::NoAqm)),
        }
    }
}

/// Counters every experiment reads.
#[derive(Debug, Default, Clone, Copy)]
pub struct PortStats {
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Packets dropped by shared-buffer admission (overflow).
    pub buffer_drops: u64,
    /// Packets dropped by the AQM at enqueue (non-ECT over threshold).
    pub enqueue_aqm_drops: u64,
    /// Packets dropped by the AQM at dequeue (CoDel drop mode).
    pub dequeue_aqm_drops: u64,
    /// Packets discarded by an administrative drain ([`Port::drain`],
    /// the rolling-upgrade scenario's switch-drain step).
    pub drain_drops: u64,
    /// Packets CE-marked at enqueue.
    pub enqueue_marks: u64,
    /// Packets CE-marked at dequeue.
    pub dequeue_marks: u64,
}

impl PortStats {
    /// All drops combined.
    pub fn total_drops(&self) -> u64 {
        self.buffer_drops + self.enqueue_aqm_drops + self.dequeue_aqm_drops + self.drain_drops
    }

    /// All marks combined.
    pub fn total_marks(&self) -> u64 {
        self.enqueue_marks + self.dequeue_marks
    }
}

/// Occupancy state shared with AQMs through [`PortView`].
#[derive(Debug)]
struct PortCore {
    queues: Vec<PacketQueue>,
    occupancy: u64,
    buffer: Option<u64>,
    link_rate: Rate,
}

/// A view joining the occupancy core with the scheduler's round state.
struct CoreView<'a> {
    core: &'a PortCore,
    sched: &'a dyn Scheduler,
}

impl PortView for CoreView<'_> {
    fn num_queues(&self) -> usize {
        self.core.queues.len()
    }
    fn queue_bytes(&self, q: usize) -> u64 {
        self.core.queues[q].len_bytes()
    }
    fn queue_pkts(&self, q: usize) -> usize {
        self.core.queues[q].len_pkts()
    }
    fn port_bytes(&self) -> u64 {
        self.core.occupancy
    }
    fn link_rate(&self) -> Rate {
        self.core.link_rate
    }
    fn round_time(&self) -> Option<Time> {
        self.sched.round_time()
    }
    fn quantum(&self, q: usize) -> Option<u64> {
        self.sched.quantum(q)
    }
    fn round_seq(&self) -> u64 {
        self.sched.round_seq()
    }
}

/// Like [`CoreView`] but with one not-yet-pushed packet counted in, for
/// the enqueue-side AQM hook.
struct PendingView<'a> {
    core: &'a PortCore,
    sched: &'a dyn Scheduler,
    pending_q: usize,
    pending_bytes: u64,
}

impl PortView for PendingView<'_> {
    fn num_queues(&self) -> usize {
        self.core.queues.len()
    }
    fn queue_bytes(&self, q: usize) -> u64 {
        let base = self.core.queues[q].len_bytes();
        if q == self.pending_q {
            base + self.pending_bytes
        } else {
            base
        }
    }
    fn queue_pkts(&self, q: usize) -> usize {
        let base = self.core.queues[q].len_pkts();
        if q == self.pending_q {
            base + 1
        } else {
            base
        }
    }
    fn port_bytes(&self) -> u64 {
        self.core.occupancy + self.pending_bytes
    }
    fn link_rate(&self) -> Rate {
        self.core.link_rate
    }
    fn round_time(&self) -> Option<Time> {
        self.sched.round_time()
    }
    fn quantum(&self, q: usize) -> Option<u64> {
        self.sched.quantum(q)
    }
    fn round_seq(&self) -> u64 {
        self.sched.round_seq()
    }
}

/// One egress port.
pub struct Port {
    core: PortCore,
    sched: Box<dyn Scheduler>,
    aqm: Box<dyn Aqm>,
    /// Serialization rate (≤ link rate when shaped).
    tx_rate: Rate,
    stats: PortStats,
    /// Runtime invariant checkers (conservation ledger, shared-buffer
    /// accounting, work conservation, AQM contract). All hooks are
    /// no-ops unless auditing is active. Standalone scheduler audits
    /// are also available as [`tcn_sched::Audited`].
    audit: tcn_audit::PortAudit,
    /// Telemetry probe scoped to this port ([`Probe::ctx`] is the
    /// owning link index); off by default, so uninstrumented runs never
    /// build an event.
    probe: Probe,
}

impl Port {
    /// Build a port from its setup and the attached link's line rate.
    ///
    /// # Panics
    /// Panics if the setup requests zero queues or a shaped rate above
    /// the line rate. With auditing active, any invariant violation
    /// during operation also panics (strict mode).
    pub fn new(setup: &PortSetup, link_rate: Rate) -> Self {
        Self::build(setup, link_rate, false)
    }

    /// Like [`Port::new`], but invariant violations are recorded for
    /// [`Port::audit_violations`] instead of panicking. Test
    /// instrumentation for the audit layer itself.
    pub fn new_recording(setup: &PortSetup, link_rate: Rate) -> Self {
        Self::build(setup, link_rate, true)
    }

    fn build(setup: &PortSetup, link_rate: Rate, recording: bool) -> Self {
        assert!(setup.nqueues > 0, "port needs at least one queue");
        let tx_rate = setup.tx_rate.unwrap_or(link_rate);
        assert!(
            tx_rate <= link_rate,
            "shaped rate must not exceed line rate"
        );
        Port {
            core: PortCore {
                queues: vec![PacketQueue::new(); setup.nqueues],
                occupancy: 0,
                buffer: setup.buffer,
                link_rate,
            },
            sched: (setup.make_sched)(),
            aqm: (setup.make_aqm)(),
            tx_rate,
            stats: PortStats::default(),
            audit: if recording {
                tcn_audit::PortAudit::recording()
            } else {
                tcn_audit::PortAudit::new()
            },
            probe: Probe::off(),
        }
    }

    /// Install a telemetry probe (scoped by the caller to this port's
    /// link index) and forward it to the scheduler and AQM so all three
    /// layers stamp the same port id on their events.
    pub fn set_probe(&mut self, probe: Probe) {
        self.sched.set_probe(probe.clone());
        self.aqm.set_probe(probe.clone());
        self.probe = probe;
    }

    /// Invariant violations recorded so far (only a recording port ever
    /// returns a non-empty list; a strict port panics at the violation).
    pub fn audit_violations(&self) -> Vec<tcn_audit::Violation> {
        self.audit.violations()
    }

    /// Whole-port consistency checks run after every mutation when
    /// auditing is active: shared-buffer accounting (occupancy equals
    /// the per-queue sum and respects the pool cap) and the
    /// conservation ledger's resident-packet balance.
    fn audit_state(&mut self) {
        if !tcn_audit::active() {
            return;
        }
        let queue_sum: u64 = self.core.queues.iter().map(|q| q.len_bytes()).sum();
        self.audit
            .buffer
            .check(self.core.occupancy, queue_sum, self.core.buffer);
        let resident_pkts: u64 = self.core.queues.iter().map(|q| q.len_pkts() as u64).sum();
        self.audit.ledger.check_resident(resident_pkts, queue_sum);
    }

    /// The DSCP-to-queue classifier (§5): identity, clamped to the last
    /// queue.
    fn classify(&self, dscp: u8) -> usize {
        (dscp as usize).min(self.core.queues.len() - 1)
    }

    /// Offer a packet to the port. Returns `true` if admitted (it may
    /// have been CE-marked), `false` if dropped (accounted in stats).
    pub fn enqueue(&mut self, mut pkt: Packet, now: Time) -> bool {
        let q = self.classify(pkt.dscp);
        self.audit.ledger.on_offered(u64::from(pkt.size));
        // Shared-buffer FIFS admission.
        if let Some(cap) = self.core.buffer {
            if self.core.occupancy + u64::from(pkt.size) > cap {
                self.stats.buffer_drops += 1;
                self.audit.ledger.on_buffer_drop(u64::from(pkt.size));
                self.probe.emit(|| TelemetryEvent::BufferDrop {
                    at_ps: now.as_ps(),
                    port: self.probe.ctx(),
                    queue: q as u16,
                    bytes: pkt.size,
                });
                self.audit_state();
                return false;
            }
        }
        pkt.enq_ts = now;
        let size = u64::from(pkt.size);
        let was_ce = pkt.ecn.is_ce();

        // AQM enqueue hook: runs before the physical push, over a view
        // that already counts the arriving packet (switches compare the
        // occupancy *including* the arrival against K).
        let verdict = {
            let view = PendingView {
                core: &self.core,
                sched: self.sched.as_ref(),
                pending_q: q,
                pending_bytes: size,
            };
            self.aqm.on_enqueue(&view, q, &mut pkt, now)
        };
        let admitted = match verdict {
            EnqueueVerdict::Admit => {
                if !was_ce && pkt.ecn.is_ce() {
                    self.stats.enqueue_marks += 1;
                    self.probe.emit(|| TelemetryEvent::Mark {
                        at_ps: now.as_ps(),
                        port: self.probe.ctx(),
                        queue: q as u16,
                        sojourn_ps: 0,
                        dequeue: false,
                    });
                }
                self.probe.emit(|| TelemetryEvent::Enqueue {
                    at_ps: now.as_ps(),
                    port: self.probe.ctx(),
                    queue: q as u16,
                    bytes: pkt.size,
                    dscp: pkt.dscp,
                });
                self.audit.ledger.on_admitted(size);
                self.core.queues[q].push_back(pkt);
                self.core.occupancy += size;
                match self.core.queues[q].back() {
                    Some(tail) => self.sched.on_enqueue(&self.core.queues, q, tail, now),
                    None => unreachable!("queue empty immediately after push_back"),
                }
                true
            }
            EnqueueVerdict::Drop => {
                self.stats.enqueue_aqm_drops += 1;
                self.audit.ledger.on_enqueue_aqm_drop(size);
                self.probe.emit(|| TelemetryEvent::AqmDrop {
                    at_ps: now.as_ps(),
                    port: self.probe.ctx(),
                    queue: q as u16,
                    bytes: pkt.size,
                    dequeue: false,
                });
                false
            }
        };
        self.audit_state();
        admitted
    }

    /// Pull the next packet to serialize, applying the dequeue AQM hook.
    /// CoDel-style dequeue drops are absorbed here (the next packet is
    /// pulled immediately — no link bubble, cf. §4.2).
    ///
    /// # Errors
    /// [`TcnError::SchedulerContract`] when the scheduler breaks its
    /// contract with the port: `select` returned an empty queue, or
    /// `on_dequeue` rejected the dequeue (e.g. no recorded tag).
    pub fn dequeue(&mut self, now: Time) -> Result<Option<Packet>, TcnError> {
        loop {
            let q = match self.sched.select(&self.core.queues, now) {
                Some(q) => {
                    self.audit
                        .work
                        .on_select(q, self.core.queues[q].len_pkts() as u64);
                    q
                }
                None => {
                    let backlog: u64 =
                        self.core.queues.iter().map(|qu| qu.len_pkts() as u64).sum();
                    self.audit.work.on_idle(backlog);
                    return Ok(None);
                }
            };
            let Some(mut pkt) = self.core.queues[q].pop_front() else {
                // The Audited wrapper reports this contract breach with
                // context before we bail; surface it either way.
                return Err(TcnError::SchedulerContract {
                    scheduler: self.sched.name(),
                    queue: q,
                    detail: "select returned an empty queue".into(),
                });
            };
            self.core.occupancy -= u64::from(pkt.size);
            self.sched.on_dequeue(&self.core.queues, q, &pkt, now)?;
            let was_ce = pkt.ecn.is_ce();
            let verdict = {
                let view = CoreView {
                    core: &self.core,
                    sched: self.sched.as_ref(),
                };
                self.aqm.on_dequeue(&view, q, &mut pkt, now)
            };
            // The two virtual calls feed a check that compiles to nothing
            // with auditing off.
            if tcn_audit::active() {
                self.audit.aqm.on_dequeue_verdict(
                    self.aqm.name(),
                    self.aqm.marks_only(),
                    verdict == DequeueVerdict::Drop,
                );
            }
            match verdict {
                DequeueVerdict::Forward => {
                    let sojourn_ps = pkt.sojourn(now).as_ps();
                    if !was_ce && pkt.ecn.is_ce() {
                        self.stats.dequeue_marks += 1;
                        self.probe.emit(|| TelemetryEvent::Mark {
                            at_ps: now.as_ps(),
                            port: self.probe.ctx(),
                            queue: q as u16,
                            sojourn_ps,
                            dequeue: true,
                        });
                    }
                    self.probe.emit(|| TelemetryEvent::Dequeue {
                        at_ps: now.as_ps(),
                        port: self.probe.ctx(),
                        queue: q as u16,
                        bytes: pkt.size,
                        sojourn_ps,
                    });
                    self.stats.tx_packets += 1;
                    self.stats.tx_bytes += u64::from(pkt.size);
                    self.audit.ledger.on_tx(u64::from(pkt.size));
                    self.audit_state();
                    return Ok(Some(pkt));
                }
                DequeueVerdict::Drop => {
                    self.stats.dequeue_aqm_drops += 1;
                    self.audit.ledger.on_dequeue_aqm_drop(u64::from(pkt.size));
                    self.probe.emit(|| TelemetryEvent::AqmDrop {
                        at_ps: now.as_ps(),
                        port: self.probe.ctx(),
                        queue: q as u16,
                        bytes: pkt.size,
                        dequeue: true,
                    });
                    self.audit_state();
                    continue;
                }
            }
        }
    }

    /// Apply a runtime AQM parameter change (see
    /// [`tcn_core::Aqm::reconfigure`]); the scheme keeps all its other
    /// state across the rewrite.
    ///
    /// # Errors
    /// [`TcnError::Config`] when the parameter set does not match the
    /// installed scheme's family or is out of range.
    pub fn reconfigure_aqm(&mut self, params: &tcn_core::AqmParams) -> Result<(), TcnError> {
        self.aqm.reconfigure(params)
    }

    /// Administratively discard every buffered packet (a switch being
    /// drained for a rolling upgrade) at simulated time `now`. Returns
    /// the number of packets discarded.
    ///
    /// Packets leave through the scheduler's normal `select`/`on_dequeue`
    /// path so stateful schedulers (WFQ virtual times, PIFO tags) stay
    /// consistent, but the AQM's dequeue hook is *not* consulted — an
    /// operator drain bypasses the marking pipeline, so mark-only
    /// contracts are unaffected. The drops are accounted as
    /// [`PortStats::drain_drops`] and flow through the conservation
    /// ledger's dequeue-drop bucket, keeping every audit balanced.
    ///
    /// # Errors
    /// [`TcnError::SchedulerContract`] if the scheduler breaks its
    /// contract mid-drain (selecting an empty queue, rejecting a
    /// dequeue).
    pub fn drain(&mut self, now: Time) -> Result<u64, TcnError> {
        let mut dropped = 0u64;
        while let Some(q) = self.sched.select(&self.core.queues, now) {
            let Some(pkt) = self.core.queues[q].pop_front() else {
                return Err(TcnError::SchedulerContract {
                    scheduler: self.sched.name(),
                    queue: q,
                    detail: "select returned an empty queue during drain".into(),
                });
            };
            self.core.occupancy -= u64::from(pkt.size);
            self.sched.on_dequeue(&self.core.queues, q, &pkt, now)?;
            self.stats.drain_drops += 1;
            self.audit.ledger.on_dequeue_aqm_drop(u64::from(pkt.size));
            dropped += 1;
        }
        // A non-work-conserving scheduler may go idle with backlog; an
        // administrative drain empties the port regardless.
        for q in 0..self.core.queues.len() {
            while let Some(pkt) = self.core.queues[q].pop_front() {
                self.core.occupancy -= u64::from(pkt.size);
                self.stats.drain_drops += 1;
                self.audit.ledger.on_dequeue_aqm_drop(u64::from(pkt.size));
                dropped += 1;
            }
        }
        self.audit_state();
        Ok(dropped)
    }

    /// Serialization time of `pkt` on this (possibly shaped) port.
    pub fn tx_time(&self, pkt: &Packet) -> Time {
        self.tx_rate.tx_time(u64::from(pkt.size))
    }

    /// Change the line rate mid-run (a scenario's link-degradation
    /// step). Only future serializations are affected. An unshaped port
    /// follows the line rate; a shaped one keeps its shaping rate but is
    /// clamped to the new line rate.
    ///
    /// # Errors
    /// [`TcnError::Config`] on a zero rate (nothing would ever drain).
    pub fn set_link_rate(&mut self, rate: Rate) -> Result<(), TcnError> {
        if rate == Rate::ZERO {
            return Err(TcnError::config("link rate must be positive"));
        }
        if self.tx_rate == self.core.link_rate || self.tx_rate > rate {
            self.tx_rate = rate;
        }
        self.core.link_rate = rate;
        Ok(())
    }

    /// Total bytes currently buffered (all queues).
    pub fn occupancy(&self) -> u64 {
        self.core.occupancy
    }

    /// Bytes buffered in queue `q`.
    pub fn queue_bytes(&self, q: usize) -> u64 {
        self.core.queues[q].len_bytes()
    }

    /// Number of queues.
    pub fn num_queues(&self) -> usize {
        self.core.queues.len()
    }

    /// Packets currently buffered across all queues (the network-level
    /// conservation audit's notion of "resident at this port").
    pub fn resident_packets(&self) -> u64 {
        self.core.queues.iter().map(|q| q.len_pkts() as u64).sum()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PortStats {
        self.stats
    }

    /// The serialization rate in effect.
    pub fn tx_rate(&self) -> Rate {
        self.tx_rate
    }

    /// True if no packets are buffered.
    pub fn is_empty(&self) -> bool {
        self.core.occupancy == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcn_core::{FlowId, Tcn};
    use tcn_sched::{Dwrr, StrictPriority};

    fn setup_red_dwrr(buffer: Option<u64>, threshold: u64) -> PortSetup {
        PortSetup {
            nqueues: 2,
            buffer,
            tx_rate: None,
            make_sched: Box::new(|| Box::new(Dwrr::equal(2, 1500))),
            make_aqm: Box::new(move || Box::new(tcn_baselines::RedEcn::per_queue(threshold))),
        }
    }

    fn setup_tcn_sp(threshold: Time) -> PortSetup {
        PortSetup {
            nqueues: 2,
            buffer: Some(96_000),
            tx_rate: None,
            make_sched: Box::new(|| Box::new(StrictPriority::new(2))),
            make_aqm: Box::new(move || Box::new(Tcn::new(threshold))),
        }
    }

    fn pkt(dscp: u8, payload: u32) -> Packet {
        let mut p = Packet::data(FlowId(1), 0, 1, 0, payload, 40);
        p.dscp = dscp;
        p
    }

    #[test]
    fn classifier_maps_dscp_to_queue() {
        let mut port = Port::new(&setup_red_dwrr(None, 1 << 40), Rate::from_gbps(1));
        assert!(port.enqueue(pkt(0, 1460), Time::ZERO));
        assert!(port.enqueue(pkt(1, 1460), Time::ZERO));
        assert!(port.enqueue(pkt(7, 1460), Time::ZERO)); // clamps to last
        assert_eq!(port.queue_bytes(0), 1500);
        assert_eq!(port.queue_bytes(1), 3000);
    }

    #[test]
    fn shared_buffer_fifs_admission() {
        // 4 KB budget shared by both queues: whoever arrives first wins.
        let mut port = Port::new(&setup_red_dwrr(Some(4000), 1 << 40), Rate::from_gbps(1));
        assert!(port.enqueue(pkt(0, 1460), Time::ZERO));
        assert!(port.enqueue(pkt(0, 1460), Time::ZERO));
        // 3000 bytes used; a 1500 B packet to the *other* queue bounces.
        assert!(!port.enqueue(pkt(1, 1460), Time::ZERO));
        assert_eq!(port.stats().buffer_drops, 1);
        // But a small one fits.
        assert!(port.enqueue(pkt(1, 900), Time::ZERO));
        assert_eq!(port.occupancy(), 3940);
    }

    #[test]
    fn dequeue_respects_scheduler() {
        let mut port = Port::new(&setup_tcn_sp(Time::from_ms(100)), Rate::from_gbps(1));
        port.enqueue(pkt(1, 1460), Time::ZERO);
        port.enqueue(pkt(0, 500), Time::ZERO);
        // Strict priority: queue 0 first despite arriving second.
        let first = port.dequeue(Time::from_us(1)).unwrap().unwrap();
        assert_eq!(first.dscp, 0);
        let second = port.dequeue(Time::from_us(2)).unwrap().unwrap();
        assert_eq!(second.dscp, 1);
        assert!(port.dequeue(Time::from_us(3)).unwrap().is_none());
        assert!(port.is_empty());
    }

    #[test]
    fn tcn_marks_counted_as_dequeue_marks() {
        let mut port = Port::new(&setup_tcn_sp(Time::from_us(10)), Rate::from_gbps(1));
        port.enqueue(pkt(0, 1460), Time::ZERO);
        // Dequeue long after the threshold.
        let p = port.dequeue(Time::from_us(100)).unwrap().unwrap();
        assert!(p.ecn.is_ce());
        let s = port.stats();
        assert_eq!(s.dequeue_marks, 1);
        assert_eq!(s.enqueue_marks, 0);
        assert_eq!(s.tx_packets, 1);
    }

    #[test]
    fn red_marks_counted_as_enqueue_marks() {
        let mut port = Port::new(&setup_red_dwrr(None, 2000), Rate::from_gbps(1));
        port.enqueue(pkt(0, 1460), Time::ZERO);
        port.enqueue(pkt(0, 1460), Time::ZERO); // occupancy 3000 > 2000
        assert_eq!(port.stats().enqueue_marks, 1);
    }

    #[test]
    fn enqueue_timestamp_stamped() {
        let mut port = Port::new(&setup_tcn_sp(Time::from_ms(1)), Rate::from_gbps(1));
        port.enqueue(pkt(0, 1460), Time::from_us(42));
        let p = port.dequeue(Time::from_us(50)).unwrap().unwrap();
        assert_eq!(p.enq_ts, Time::from_us(42));
        assert_eq!(p.sojourn(Time::from_us(50)), Time::from_us(8));
    }

    #[test]
    fn aqm_enqueue_drop_reverts_admission() {
        // Non-ECT packet over a tiny RED threshold → AQM drop; occupancy
        // must be fully restored.
        let mut port = Port::new(&setup_red_dwrr(None, 1000), Rate::from_gbps(1));
        port.enqueue(pkt(0, 1460), Time::ZERO);
        let mut nonect = pkt(0, 1460);
        nonect.ecn = tcn_core::EcnCodepoint::NotEct;
        assert!(!port.enqueue(nonect, Time::ZERO));
        assert_eq!(port.stats().enqueue_aqm_drops, 1);
        assert_eq!(port.occupancy(), 1500);
        assert_eq!(port.queue_bytes(0), 1500);
    }

    #[test]
    fn codel_dequeue_drop_pulls_next_without_bubble() {
        use tcn_baselines::CoDel;
        let setup = PortSetup {
            nqueues: 1,
            buffer: None,
            tx_rate: None,
            make_sched: Box::new(|| Box::new(tcn_sched::Fifo::new())),
            make_aqm: Box::new(|| {
                Box::new(CoDel::new(Time::from_us(10), Time::from_us(20)).dropping())
            }),
        };
        let mut port = Port::new(&setup, Rate::from_gbps(1));
        // Enough deep backlog that CoDel enters drop state.
        for _ in 0..60 {
            port.enqueue(pkt(0, 1460), Time::ZERO);
        }
        // Dequeue far in the future with giant sojourns: first dequeues
        // forward until the interval elapses, then drops begin; dequeue()
        // must still always return a packet (no bubble).
        let mut got = 0;
        let mut t = Time::from_ms(1);
        while let Some(_p) = port.dequeue(t).unwrap() {
            got += 1;
            t += Time::from_us(12);
        }
        let s = port.stats();
        assert!(s.dequeue_aqm_drops > 0, "CoDel must have dropped");
        assert_eq!(got + s.dequeue_aqm_drops, 60, "every packet accounted");
    }

    #[test]
    fn shaped_port_serializes_slower() {
        let setup = PortSetup {
            tx_rate: Some(Rate::from_mbps(995)),
            ..setup_red_dwrr(None, 1 << 40)
        };
        let port = Port::new(&setup, Rate::from_gbps(1));
        let p = pkt(0, 1460);
        let shaped = port.tx_time(&p);
        let line = Rate::from_gbps(1).tx_time(1500);
        assert!(shaped > line);
        assert_eq!(port.tx_rate(), Rate::from_mbps(995));
    }

    #[test]
    #[should_panic(expected = "shaped rate must not exceed line rate")]
    fn overshaping_rejected() {
        let setup = PortSetup {
            tx_rate: Some(Rate::from_gbps(10)),
            ..setup_red_dwrr(None, 1 << 40)
        };
        Port::new(&setup, Rate::from_gbps(1));
    }

    // --- audit-layer tests: each checker must fire on a corrupted run
    // and stay silent on a clean one. Tests compile under
    // `debug_assertions`, so `tcn_audit::active()` is true here. ---

    #[test]
    fn audit_silent_on_clean_run() {
        // A strict port panics on any violation, so surviving a busy
        // mixed workload IS the assertion.
        let mut port = Port::new(&setup_tcn_sp(Time::from_us(10)), Rate::from_gbps(1));
        let mut t = Time::ZERO;
        for i in 0..500u32 {
            t += Time::from_us(1);
            port.enqueue(pkt((i % 2) as u8, 100 + i % 1400), t);
            if i % 3 == 0 {
                port.dequeue(t).unwrap();
            }
        }
        while port.dequeue(t).unwrap().is_some() {}
        assert!(port.audit_violations().is_empty());
        assert!(port.is_empty());
    }

    #[test]
    fn audit_catches_skipped_occupancy_decrement() {
        // Mutation: a buggy dequeue path that forgets to decrement the
        // shared-buffer occupancy. The buffer checker must see the
        // occupancy diverge from the per-queue sum, and the
        // conservation ledger must see a resident packet vanish.
        let mut port = Port::new_recording(&setup_tcn_sp(Time::from_ms(1)), Rate::from_gbps(1));
        port.enqueue(pkt(0, 1460), Time::ZERO);
        port.enqueue(pkt(0, 1460), Time::ZERO);
        // Simulate the bug by reaching into the core directly.
        port.core.queues[0].pop_front();
        port.audit_state();
        let found: Vec<_> = port
            .audit_violations()
            .iter()
            .map(|v| v.invariant)
            .collect();
        assert!(
            found.contains(&tcn_audit::Invariant::Buffer),
            "buffer checker must flag occupancy != queue sum: {found:?}"
        );
        assert!(
            found.contains(&tcn_audit::Invariant::Conservation),
            "ledger must flag the vanished resident packet: {found:?}"
        );
    }

    #[test]
    fn audit_catches_buffer_overadmission() {
        // Mutation: occupancy inflated past the configured pool cap.
        let mut port = Port::new_recording(&setup_tcn_sp(Time::from_ms(1)), Rate::from_gbps(1));
        port.enqueue(pkt(0, 1460), Time::ZERO);
        port.core.occupancy = 97_000; // cap is 96_000
        let queue_sum: u64 = port.core.queues.iter().map(|q| q.len_bytes()).sum();
        port.audit
            .buffer
            .check(port.core.occupancy, queue_sum, port.core.buffer);
        assert!(
            port.audit_violations()
                .iter()
                .any(|v| v.invariant == tcn_audit::Invariant::Buffer),
            "buffer checker must flag occupancy over the pool cap"
        );
    }

    /// An AQM that claims the mark-only contract but drops at dequeue.
    struct LyingAqm;

    impl Aqm for LyingAqm {
        fn on_enqueue(
            &mut self,
            _view: &dyn tcn_core::aqm::PortView,
            _q: usize,
            _pkt: &mut Packet,
            _now: Time,
        ) -> EnqueueVerdict {
            EnqueueVerdict::Admit
        }
        fn on_dequeue(
            &mut self,
            _view: &dyn tcn_core::aqm::PortView,
            _q: usize,
            _pkt: &mut Packet,
            _now: Time,
        ) -> DequeueVerdict {
            DequeueVerdict::Drop
        }
        fn name(&self) -> &'static str {
            "Liar"
        }
        fn marks_only(&self) -> bool {
            true
        }
    }

    #[test]
    fn audit_catches_marks_only_aqm_dropping() {
        let setup = PortSetup {
            nqueues: 1,
            buffer: None,
            tx_rate: None,
            make_sched: Box::new(|| Box::new(tcn_sched::Fifo::new())),
            make_aqm: Box::new(|| Box::new(LyingAqm)),
        };
        let mut port = Port::new_recording(&setup, Rate::from_gbps(1));
        port.enqueue(pkt(0, 1460), Time::ZERO);
        assert!(port.dequeue(Time::from_us(1)).unwrap().is_none());
        assert!(
            port.audit_violations()
                .iter()
                .any(|v| v.invariant == tcn_audit::Invariant::AqmContract),
            "contract checker must flag a mark-only AQM that dropped"
        );
    }

    /// A scheduler that goes idle while queue 0 is backlogged.
    struct LazyScheduler;

    impl tcn_sched::Scheduler for LazyScheduler {
        fn on_enqueue(&mut self, _q: &[PacketQueue], _i: usize, _p: &Packet, _now: Time) {}
        fn select(&mut self, _q: &[PacketQueue], _now: Time) -> Option<usize> {
            None
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
            "Lazy"
        }
    }

    #[test]
    fn audit_catches_non_work_conserving_scheduler() {
        let setup = PortSetup {
            nqueues: 1,
            buffer: None,
            tx_rate: None,
            make_sched: Box::new(|| Box::new(LazyScheduler)),
            make_aqm: Box::new(|| Box::new(tcn_core::aqm::NoAqm)),
        };
        let mut port = Port::new_recording(&setup, Rate::from_gbps(1));
        port.enqueue(pkt(0, 1460), Time::ZERO);
        assert!(port.dequeue(Time::from_us(1)).unwrap().is_none());
        assert!(
            port.audit_violations()
                .iter()
                .any(|v| v.invariant == tcn_audit::Invariant::WorkConservation),
            "work checker must flag an idle verdict with backlog"
        );
    }

    /// A scheduler that insists queue 0 has work even when it does not.
    struct StuckOnZero;

    impl tcn_sched::Scheduler for StuckOnZero {
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
    fn empty_queue_selection_surfaces_contract_error() {
        // Deliberate contract violation: select claims queue 0 while it
        // is empty. The port must return a typed error, not panic.
        let setup = PortSetup {
            nqueues: 1,
            buffer: None,
            tx_rate: None,
            make_sched: Box::new(|| Box::new(StuckOnZero)),
            make_aqm: Box::new(|| Box::new(tcn_core::aqm::NoAqm)),
        };
        let mut port = Port::new_recording(&setup, Rate::from_gbps(1));
        let err = port
            .dequeue(Time::from_us(1))
            .expect_err("empty-queue selection must be rejected");
        match err {
            TcnError::SchedulerContract { scheduler, queue, .. } => {
                assert_eq!(scheduler, "StuckOnZero");
                assert_eq!(queue, 0);
            }
            other => panic!("wrong error variant: {other:?}"),
        }
    }
}
