//! TCN — Time-based Congestion Notification (paper §4).
//!
//! The entire mechanism, verbatim from §4.1: *"A departing packet gets ECN
//! marked when its sojourn time is larger than the threshold T"*, with
//! `T = RTT × λ` (Eq. 3). No state is kept across packets or queues —
//! that statelessness is the paper's hardware-feasibility argument (§4.2)
//! and the contrast with CoDel's four per-queue state variables.
//!
//! [`ProbabilisticTcn`] is the paper's §4.3 extension: a RED-like variant
//! with two sojourn thresholds and a maximum marking probability, needed
//! by transports such as DCQCN that rely on probabilistic marking for
//! fairness.

use tcn_sim::{Rng, Time};
use tcn_telemetry::{Event as TelemetryEvent, Probe};

use crate::aqm::{Aqm, AqmParams, DequeueVerdict, EnqueueVerdict, PortView};
use crate::error::TcnError;
use crate::packet::Packet;

/// Counters exposed by both TCN variants for instrumentation.
#[derive(Debug, Default, Clone, Copy)]
pub struct TcnStats {
    /// Packets examined at dequeue.
    pub dequeued: u64,
    /// Packets CE-marked.
    pub marked: u64,
}

/// The TCN AQM: instantaneous sojourn-time marking at dequeue.
///
/// ```
/// use tcn_core::{Aqm, DequeueVerdict, Packet, FlowId, Tcn};
/// use tcn_core::aqm::StaticPortView;
/// use tcn_sim::{Rate, Time};
///
/// // T = RTT × λ = 100 us (10 Gbps example of paper §4.3).
/// let mut tcn = Tcn::new(Time::from_us(100));
/// let view = StaticPortView::new(1, Rate::from_gbps(10));
///
/// let mut pkt = Packet::data(FlowId(1), 0, 1, 0, 1460, 40);
/// pkt.enq_ts = Time::from_us(0);
///
/// // Sojourn 60 us ≤ T: no mark.
/// assert_eq!(tcn.on_dequeue(&view, 0, &mut pkt, Time::from_us(60)),
///            DequeueVerdict::Forward);
/// assert!(!pkt.ecn.is_ce());
///
/// // Sojourn 150 us > T: marked, still forwarded (marking, not dropping).
/// tcn.on_dequeue(&view, 0, &mut pkt, Time::from_us(150));
/// assert!(pkt.ecn.is_ce());
/// ```
#[derive(Debug, Clone)]
pub struct Tcn {
    /// The static sojourn threshold `T = RTT × λ`.
    threshold: Time,
    stats: TcnStats,
    probe: Probe,
}

impl Tcn {
    /// Create TCN with sojourn threshold `T` (use
    /// [`crate::threshold::standard_sojourn_threshold`] to derive it from
    /// RTT and λ).
    pub fn new(threshold: Time) -> Self {
        Tcn {
            threshold,
            stats: TcnStats::default(),
            probe: Probe::off(),
        }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> Time {
        self.threshold
    }

    /// Marking counters.
    pub fn stats(&self) -> TcnStats {
        self.stats
    }
}

impl Aqm for Tcn {
    /// TCN takes no enqueue action: the port has already stamped
    /// `enq_ts`, which is the only metadata TCN needs (§4.2's 2-byte
    /// enqueue timestamp).
    fn on_enqueue(
        &mut self,
        _view: &dyn PortView,
        _q: usize,
        _pkt: &mut Packet,
        _now: Time,
    ) -> EnqueueVerdict {
        EnqueueVerdict::Admit
    }

    fn on_dequeue(
        &mut self,
        _view: &dyn PortView,
        _q: usize,
        pkt: &mut Packet,
        now: Time,
    ) -> DequeueVerdict {
        self.stats.dequeued += 1;
        let sojourn = pkt.sojourn(now);
        let marked = sojourn > self.threshold && pkt.try_mark_ce();
        if marked {
            self.stats.marked += 1;
        }
        self.probe.emit(|| TelemetryEvent::MarkDecision {
            at_ps: now.as_ps(),
            port: self.probe.ctx(),
            aqm: "TCN",
            sojourn_ps: sojourn.as_ps(),
            marked,
        });
        // TCN marks, never drops (§4.2: "Marking, as opposed to dropping").
        DequeueVerdict::Forward
    }

    fn name(&self) -> &'static str {
        "TCN"
    }

    /// Swap the sojourn threshold mid-run (scenario step `aqm`).
    /// Counters survive the change; only the register `T` is rewritten.
    fn reconfigure(&mut self, params: &AqmParams) -> Result<(), TcnError> {
        match params {
            AqmParams::Tcn { threshold } => {
                self.threshold = *threshold;
                Ok(())
            }
            other => Err(TcnError::config(format!(
                "TCN takes a `Tcn {{ threshold }}` parameter set, got {other:?}"
            ))),
        }
    }

    /// TCN's §4.2 contract: marking, as opposed to dropping.
    fn marks_only(&self) -> bool {
        true
    }

    fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }
}

/// RED-like probabilistic TCN (paper §4.3).
///
/// * sojourn < `t_min` → never marked;
/// * sojourn > `t_max` → always marked;
/// * otherwise → marked with probability rising linearly from 0 at
///   `t_min` to `p_max` at `t_max` (the RED ramp transplanted onto the
///   time axis).
#[derive(Debug, Clone)]
pub struct ProbabilisticTcn {
    t_min: Time,
    t_max: Time,
    p_max: f64,
    rng: Rng,
    stats: TcnStats,
    probe: Probe,
}

impl ProbabilisticTcn {
    /// Create a probabilistic TCN.
    ///
    /// # Panics
    /// Panics if `t_min > t_max` or `p_max ∉ \[0, 1\]`.
    pub fn new(t_min: Time, t_max: Time, p_max: f64, seed: u64) -> Self {
        assert!(t_min <= t_max, "t_min must not exceed t_max");
        assert!((0.0..=1.0).contains(&p_max), "p_max must be in [0,1]");
        ProbabilisticTcn {
            t_min,
            t_max,
            p_max,
            rng: Rng::new(seed),
            stats: TcnStats::default(),
            probe: Probe::off(),
        }
    }

    /// Marking probability for a given sojourn time (exposed for tests).
    pub fn mark_probability(&self, sojourn: Time) -> f64 {
        if sojourn < self.t_min {
            0.0
        } else if sojourn > self.t_max {
            1.0
        } else if self.t_max == self.t_min {
            // Degenerate ramp: behaves like deterministic TCN at T.
            1.0
        } else {
            let span = (self.t_max - self.t_min).as_us_f64();
            let pos = (sojourn - self.t_min).as_us_f64();
            self.p_max * pos / span
        }
    }

    /// Marking counters.
    pub fn stats(&self) -> TcnStats {
        self.stats
    }
}

impl Aqm for ProbabilisticTcn {
    fn on_enqueue(
        &mut self,
        _view: &dyn PortView,
        _q: usize,
        _pkt: &mut Packet,
        _now: Time,
    ) -> EnqueueVerdict {
        EnqueueVerdict::Admit
    }

    fn on_dequeue(
        &mut self,
        _view: &dyn PortView,
        _q: usize,
        pkt: &mut Packet,
        now: Time,
    ) -> DequeueVerdict {
        self.stats.dequeued += 1;
        let sojourn = pkt.sojourn(now);
        let p = self.mark_probability(sojourn);
        let marked = self.rng.chance(p) && pkt.try_mark_ce();
        if marked {
            self.stats.marked += 1;
        }
        self.probe.emit(|| TelemetryEvent::MarkDecision {
            at_ps: now.as_ps(),
            port: self.probe.ctx(),
            aqm: "TCN-prob",
            sojourn_ps: sojourn.as_ps(),
            marked,
        });
        DequeueVerdict::Forward
    }

    fn name(&self) -> &'static str {
        "TCN-prob"
    }

    /// Inherits TCN's mark-only contract (§4.3 keeps the dequeue path
    /// drop-free).
    fn marks_only(&self) -> bool {
        true
    }

    fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aqm::StaticPortView;
    use crate::packet::{EcnCodepoint, FlowId};
    use tcn_sim::Rate;

    fn pkt_with_sojourn(enq_us: u64) -> Packet {
        let mut p = Packet::data(FlowId(1), 0, 1, 0, 1460, 40);
        p.enq_ts = Time::from_us(enq_us);
        p
    }

    fn view() -> StaticPortView {
        StaticPortView::new(4, Rate::from_gbps(10))
    }

    #[test]
    fn marks_strictly_above_threshold() {
        let mut tcn = Tcn::new(Time::from_us(100));
        let v = view();

        // Exactly at threshold: not marked ("larger than").
        let mut p = pkt_with_sojourn(0);
        tcn.on_dequeue(&v, 0, &mut p, Time::from_us(100));
        assert!(!p.ecn.is_ce());

        // One picosecond over: marked.
        let mut p = pkt_with_sojourn(0);
        tcn.on_dequeue(&v, 0, &mut p, Time::from_ps(100 * 1_000_000 + 1));
        assert!(p.ecn.is_ce());
    }

    #[test]
    fn never_drops() {
        let mut tcn = Tcn::new(Time::ZERO);
        let v = view();
        for us in [0u64, 1, 10, 10_000] {
            let mut p = pkt_with_sojourn(0);
            let verdict = tcn.on_dequeue(&v, 0, &mut p, Time::from_us(us));
            assert_eq!(verdict, DequeueVerdict::Forward);
        }
    }

    #[test]
    fn is_stateless_across_packets() {
        // Marking one packet must not influence the next (contrast CoDel).
        let mut tcn = Tcn::new(Time::from_us(50));
        let v = view();
        let mut hot = pkt_with_sojourn(0);
        tcn.on_dequeue(&v, 0, &mut hot, Time::from_us(200));
        assert!(hot.ecn.is_ce());
        let mut cool = pkt_with_sojourn(190);
        tcn.on_dequeue(&v, 0, &mut cool, Time::from_us(200));
        assert!(!cool.ecn.is_ce());
    }

    #[test]
    fn same_threshold_for_all_queues() {
        // The defining property: marking depends only on sojourn, not on
        // which queue the packet came from or its occupancy.
        let mut tcn = Tcn::new(Time::from_us(100));
        let mut v = view();
        v.queue_bytes = vec![0, 1_000_000, 0, 500_000];
        for q in 0..4 {
            let mut p = pkt_with_sojourn(0);
            tcn.on_dequeue(&v, q, &mut p, Time::from_us(150));
            assert!(p.ecn.is_ce(), "queue {q} must mark identically");
        }
    }

    #[test]
    fn respects_non_ect() {
        let mut tcn = Tcn::new(Time::from_us(1));
        let v = view();
        let mut p = pkt_with_sojourn(0);
        p.ecn = EcnCodepoint::NotEct;
        let verdict = tcn.on_dequeue(&v, 0, &mut p, Time::from_ms(10));
        // Cannot mark a non-ECT packet; TCN forwards it unmodified.
        assert_eq!(verdict, DequeueVerdict::Forward);
        assert_eq!(p.ecn, EcnCodepoint::NotEct);
    }

    #[test]
    fn stats_count_marks() {
        let mut tcn = Tcn::new(Time::from_us(100));
        let v = view();
        for us in [10u64, 150, 300, 50] {
            let mut p = pkt_with_sojourn(0);
            tcn.on_dequeue(&v, 0, &mut p, Time::from_us(us));
        }
        let s = tcn.stats();
        assert_eq!(s.dequeued, 4);
        assert_eq!(s.marked, 2);
    }

    #[test]
    fn probabilistic_ramp_endpoints() {
        let pt = ProbabilisticTcn::new(Time::from_us(50), Time::from_us(150), 0.8, 1);
        assert_eq!(pt.mark_probability(Time::from_us(10)), 0.0);
        assert_eq!(pt.mark_probability(Time::from_us(50)), 0.0);
        let mid = pt.mark_probability(Time::from_us(100));
        assert!((mid - 0.4).abs() < 1e-12, "midpoint should be p_max/2");
        assert_eq!(pt.mark_probability(Time::from_us(151)), 1.0);
    }

    #[test]
    fn probabilistic_marks_at_expected_frequency() {
        let mut pt = ProbabilisticTcn::new(Time::from_us(50), Time::from_us(150), 1.0, 42);
        let v = view();
        let n = 20_000;
        let mut marked = 0;
        for _ in 0..n {
            let mut p = pkt_with_sojourn(0);
            pt.on_dequeue(&v, 0, &mut p, Time::from_us(100)); // p = 0.5
            if p.ecn.is_ce() {
                marked += 1;
            }
        }
        let frac = marked as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "marked fraction {frac}");
    }

    #[test]
    fn probabilistic_degenerate_equals_deterministic() {
        // t_min == t_max behaves like plain TCN with threshold T.
        let mut pt = ProbabilisticTcn::new(Time::from_us(100), Time::from_us(100), 1.0, 3);
        let v = view();
        let mut under = pkt_with_sojourn(0);
        pt.on_dequeue(&v, 0, &mut under, Time::from_us(99));
        assert!(!under.ecn.is_ce());
        let mut over = pkt_with_sojourn(0);
        pt.on_dequeue(&v, 0, &mut over, Time::from_us(101));
        assert!(over.ecn.is_ce());
    }

    #[test]
    #[should_panic(expected = "t_min must not exceed t_max")]
    fn probabilistic_rejects_inverted_thresholds() {
        ProbabilisticTcn::new(Time::from_us(2), Time::from_us(1), 0.5, 0);
    }

    #[test]
    fn probe_reports_every_mark_decision_with_sojourn() {
        use tcn_telemetry::{MemorySink, Telemetry};
        let bus = Telemetry::new();
        let mem = MemorySink::new();
        bus.add_sink(Box::new(mem.handle()));
        let mut tcn = Tcn::new(Time::from_us(100));
        tcn.set_probe(bus.probe_for(7));
        let v = view();
        for us in [10u64, 150] {
            let mut p = pkt_with_sojourn(0);
            tcn.on_dequeue(&v, 0, &mut p, Time::from_us(us));
        }
        let evs = mem.events();
        assert_eq!(evs.len(), 2, "both outcomes must be reported");
        match (evs[0], evs[1]) {
            (
                TelemetryEvent::MarkDecision {
                    port: p0,
                    marked: m0,
                    sojourn_ps: s0,
                    ..
                },
                TelemetryEvent::MarkDecision { marked: m1, .. },
            ) => {
                assert_eq!(p0, 7, "probe ctx stamps the port");
                assert!(!m0 && m1);
                assert_eq!(s0, Time::from_us(10).as_ps());
            }
            other => panic!("unexpected events {other:?}"),
        }
    }
}
