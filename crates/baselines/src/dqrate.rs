//! Algorithm 1 — departure-rate (queue-capacity) measurement — and the
//! "ideal ECN/RED" AQM built on it (paper §3.3, Table 1).
//!
//! The estimator is the PIE-style cycle meter: a measurement cycle starts
//! only when the queue holds at least `dq_thresh` bytes (so the queue
//! stays busy throughout the cycle), counts departed bytes, and emits a
//! rate sample once `dq_thresh` bytes have left; samples are smoothed
//! with an EWMA (weight 0.875 in the paper's Fig. 2).
//!
//! Table 1 of the paper is reproduced as this module's state, field for
//! field:
//!
//! | Paper parameter | Here |
//! |---|---|
//! | `dq_thresh`   | [`DqRateMeter::dq_thresh`] (constructor argument) |
//! | `is_measure`  | `cycle.is_some()` |
//! | `dq_count`    | the private `Cycle::dq_count` |
//! | `dq_start`    | the private `Cycle::dq_start` |
//! | `dq_pktsize`  | the `pkt_bytes` argument of [`DqRateMeter::on_departure`] |
//! | `dq_rate`     | return value of [`DqRateMeter::on_departure`] |
//! | `avg_rate`    | [`DqRateMeter::avg_rate`] |
//!
//! The point of reproducing this faithfully is Fig. 2's negative result:
//! no single `dq_thresh` works — 40 KB converges too slowly, 10 KB
//! oscillates between round-local and cross-round rates — which is the
//! motivation for TCN abandoning rate measurement entirely.

use tcn_core::aqm::{Aqm, DequeueVerdict, EnqueueVerdict, PortView};
use tcn_core::Packet;
use tcn_sim::{Ewma, Rate, Time};

/// An in-progress measurement cycle (`is_measure == true`).
#[derive(Debug, Clone, Copy)]
struct Cycle {
    /// Bytes departed so far in this cycle (`dq_count`).
    dq_count: u64,
    /// Cycle start time (`dq_start`).
    dq_start: Time,
}

/// The Algorithm 1 departure-rate meter for one queue.
#[derive(Debug, Clone)]
pub struct DqRateMeter {
    dq_thresh: u64,
    cycle: Option<Cycle>,
    avg: Ewma,
    last_sample: Option<Rate>,
    samples: u64,
}

impl DqRateMeter {
    /// A meter with the given `dq_thresh` (bytes) and EWMA weight on the
    /// old average (the paper uses 0.875).
    ///
    /// # Panics
    /// Panics if `dq_thresh` is zero.
    pub fn new(dq_thresh: u64, avg_weight: f64) -> Self {
        assert!(dq_thresh > 0, "dq_thresh must be positive");
        DqRateMeter {
            dq_thresh,
            cycle: None,
            avg: Ewma::new(avg_weight),
            last_sample: None,
            samples: 0,
        }
    }

    /// Algorithm 1, verbatim: called on every packet departure with the
    /// queue length *before* the departure and the departing packet's
    /// size. Returns a fresh rate sample when a cycle completes.
    pub fn on_departure(&mut self, qlen_bytes: u64, pkt_bytes: u64, now: Time) -> Option<Rate> {
        // Step 1: decide to be in a measurement cycle. Like the Linux PIE
        // implementation the paper's authors followed, the *triggering*
        // departure is not counted: `dq_count` accumulates from the next
        // departure on, so `dq_count / (now − dq_start)` is unbiased
        // (counting the trigger would overestimate by one packet per
        // cycle — a 15% error at dq_thresh = 10 KB and 1.5 KB packets).
        if self.cycle.is_none() {
            if qlen_bytes >= self.dq_thresh {
                self.cycle = Some(Cycle {
                    dq_count: 0,
                    dq_start: now,
                });
            }
            return None;
        }
        // Step 2: during the measurement cycle.
        let cycle = self.cycle.as_mut()?;
        cycle.dq_count += pkt_bytes;
        if cycle.dq_count > self.dq_thresh {
            let elapsed = now.saturating_sub(cycle.dq_start);
            let sample = Rate::from_bytes_over(cycle.dq_count, elapsed);
            self.cycle = None;
            if sample == Rate::ZERO {
                // Degenerate zero-duration cycle; discard the sample.
                return None;
            }
            self.avg.update(sample.as_bps() as f64);
            self.last_sample = Some(sample);
            self.samples += 1;
            return Some(sample);
        }
        None
    }

    /// The smoothed rate estimate (`avg_rate`), if any sample has
    /// completed.
    pub fn avg_rate(&self) -> Option<Rate> {
        self.avg.value().map(|bps| Rate::from_bps(bps.round() as u64))
    }

    /// The most recent raw sample (`dq_rate`).
    pub fn last_sample(&self) -> Option<Rate> {
        self.last_sample
    }

    /// Number of completed samples (Fig. 2 reports "29 sample rates in
    /// 2 ms" for `dq_thresh` = 40 KB).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// True while inside a measurement cycle (`is_measure`).
    pub fn is_measuring(&self) -> bool {
        self.cycle.is_some()
    }

    /// The configured `dq_thresh`.
    pub fn dq_thresh(&self) -> u64 {
        self.dq_thresh
    }
}

/// The "ideal ECN/RED" AQM (paper §3.2, Eq. 2 enforced via Algorithm 1):
/// per-queue enqueue marking against `K_i = avg_rate_i × RTT × λ`.
/// Until a queue produces its first rate sample, the line rate is used
/// (equivalent to the standard threshold).
#[derive(Debug, Clone)]
pub struct IdealRed {
    rtt_lambda: Time,
    dq_thresh: u64,
    avg_weight: f64,
    meters: Vec<DqRateMeter>,
    marked: u64,
}

impl IdealRed {
    /// Ideal ECN/RED with marking product `RTT × λ` and Algorithm 1
    /// configured with `dq_thresh` bytes (EWMA weight 0.875).
    pub fn new(rtt_lambda: Time, dq_thresh: u64) -> Self {
        IdealRed {
            rtt_lambda,
            dq_thresh,
            avg_weight: 0.875,
            meters: Vec::new(),
            marked: 0,
        }
    }

    /// Packets marked so far.
    pub fn marked(&self) -> u64 {
        self.marked
    }

    /// Access the per-queue meter (diagnostics; Fig. 2 reads these).
    pub fn meter(&self, q: usize) -> Option<&DqRateMeter> {
        self.meters.get(q)
    }

    fn ensure_queues(&mut self, n: usize) {
        while self.meters.len() < n {
            self.meters
                .push(DqRateMeter::new(self.dq_thresh, self.avg_weight));
        }
    }

    /// Current marking threshold of queue `q` in bytes, given the line
    /// rate as the pre-sample fallback.
    pub fn threshold_bytes(&self, q: usize, line_rate: Rate) -> u64 {
        let rate = self
            .meters
            .get(q)
            .and_then(|m| m.avg_rate())
            .unwrap_or(line_rate);
        rate.bytes_in(self.rtt_lambda)
    }
}

impl Aqm for IdealRed {
    fn on_enqueue(
        &mut self,
        view: &dyn PortView,
        q: usize,
        pkt: &mut Packet,
        _now: Time,
    ) -> EnqueueVerdict {
        self.ensure_queues(view.num_queues());
        let k = self.threshold_bytes(q, view.link_rate());
        if view.queue_bytes(q) > k {
            if pkt.try_mark_ce() {
                self.marked += 1;
            } else {
                return EnqueueVerdict::Drop;
            }
        }
        EnqueueVerdict::Admit
    }

    fn on_dequeue(
        &mut self,
        view: &dyn PortView,
        q: usize,
        pkt: &mut Packet,
        now: Time,
    ) -> DequeueVerdict {
        self.ensure_queues(view.num_queues());
        // Queue length at the departure instant (the packet was already
        // removed from the queue by the port, so add it back).
        let qlen = view.queue_bytes(q) + u64::from(pkt.size);
        self.meters[q].on_departure(qlen, u64::from(pkt.size), now);
        DequeueVerdict::Forward
    }

    fn name(&self) -> &'static str {
        "IdealRED"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcn_core::aqm::StaticPortView;
    use tcn_core::FlowId;

    #[test]
    fn no_cycle_below_thresh() {
        let mut m = DqRateMeter::new(10_000, 0.875);
        // Queue always shorter than dq_thresh: never measures.
        for i in 0..100u64 {
            let s = m.on_departure(5_000, 1500, Time::from_us(i * 12));
            assert!(s.is_none());
        }
        assert!(!m.is_measuring());
        assert_eq!(m.avg_rate(), None);
    }

    #[test]
    fn measures_steady_rate_exactly() {
        // 1500 B every 1.2 us = 10 Gbps, queue kept long.
        let mut m = DqRateMeter::new(10_000, 0.875);
        let mut now = Time::ZERO;
        let mut sample = None;
        for _ in 0..100 {
            if let Some(s) = m.on_departure(50_000, 1500, now) {
                sample = Some(s);
            }
            now += Time::from_ns(1200);
        }
        let s = sample.expect("cycles must complete");
        assert_eq!(s, Rate::from_gbps(10));
        assert_eq!(m.avg_rate(), Some(Rate::from_gbps(10)));
    }

    #[test]
    fn cycle_requires_thresh_bytes() {
        // dq_thresh 10 KB: a cycle spans ceil(10000/1500)+… packets —
        // the sample appears only after dq_count exceeds 10 KB.
        let mut m = DqRateMeter::new(10_000, 0.875);
        let mut now = Time::ZERO;
        let mut completed_at = None;
        for i in 0..10 {
            if m.on_departure(50_000, 1500, now).is_some() {
                completed_at = Some(i);
                break;
            }
            now += Time::from_ns(1200);
        }
        // Trigger at index 0 (uncounted), then 7 packets × 1500 =
        // 10500 > 10000 → completes on index 7.
        assert_eq!(completed_at, Some(7));
    }

    #[test]
    fn tracks_rate_change() {
        let mut m = DqRateMeter::new(10_000, 0.5);
        let mut now = Time::ZERO;
        // Phase 1: 10 Gbps.
        for _ in 0..200 {
            m.on_departure(50_000, 1500, now);
            now += Time::from_ns(1200);
        }
        // Phase 2: 5 Gbps (packets spaced 2.4 us).
        for _ in 0..200 {
            m.on_departure(50_000, 1500, now);
            now += Time::from_ns(2400);
        }
        let avg = m.avg_rate().unwrap();
        let err = (avg.as_gbps_f64() - 5.0).abs() / 5.0;
        assert!(err < 0.05, "avg {} should approach 5 Gbps", avg);
    }

    #[test]
    fn fig2_small_thresh_oscillates_under_dwrr() {
        // The Fig. 2(b) pathology: dq_thresh 10 KB < quantum 18 KB under
        // 2-queue DWRR at 10 Gbps. Within a round the queue drains at
        // line rate; across rounds at half. Samples flip between the two.
        let mut m = DqRateMeter::new(10_000, 0.875);
        let mut now = Time::ZERO;
        let mut samples = Vec::new();
        // Simulate DWRR turns: 12 packets (18 KB) back-to-back at
        // 10 Gbps, then a gap while the other queue's 18 KB is served.
        for _ in 0..60 {
            for _ in 0..12 {
                if let Some(s) = m.on_departure(100_000, 1500, now) {
                    samples.push(s.as_gbps_f64());
                }
                now += Time::from_ns(1200);
            }
            now += Time::from_ns(1200 * 12); // other queue's turn
        }
        let hi = samples.iter().cloned().fold(0.0, f64::max);
        let lo = samples.iter().cloned().fold(f64::MAX, f64::min);
        assert!(hi > 9.0, "in-round samples near line rate, hi={hi}");
        assert!(lo < 6.5, "cross-round samples near half rate, lo={lo}");
        // And the oscillation biases the mean above the true 5 Gbps —
        // the >20% error the paper reports.
        let avg = m.avg_rate().unwrap().as_gbps_f64();
        assert!(avg > 5.5, "biased estimate expected, got {avg}");
    }

    #[test]
    fn fig2_large_thresh_is_unbiased_under_dwrr() {
        // Remark 3's other side: the same DWRR turns with dq_thresh
        // 40 KB > quantum 18 KB. Each sample spans rounds, so the estimate
        // lands near the true 5 Gbps share.
        let mut m = DqRateMeter::new(40_000, 0.875);
        let mut now = Time::ZERO;
        for _ in 0..500 {
            for _ in 0..12 {
                m.on_departure(100_000, 1500, now);
                now += Time::from_ns(1200);
            }
            now += Time::from_ns(1200 * 12);
        }
        let avg = m.avg_rate().unwrap().as_gbps_f64();
        assert!((avg - 5.0).abs() < 0.4, "40 KB estimate off: {avg}");
    }

    #[test]
    fn fig2_large_thresh_samples_slowly() {
        // Fig. 2(a): dq_thresh 40 KB at ~5 Gbps effective rate → one
        // sample per ~67 us, only ~29 samples in 2 ms.
        let mut m = DqRateMeter::new(40_000, 0.875);
        let mut now = Time::ZERO;
        // 2 ms of departures at an effective 5 Gbps (1500 B / 2.4 us).
        while now < Time::from_ms(2) {
            m.on_departure(100_000, 1500, now);
            now += Time::from_ns(2400);
        }
        assert!(
            (25..=35).contains(&m.samples()),
            "expected ~29 samples in 2 ms, got {}",
            m.samples()
        );
    }

    #[test]
    fn ideal_red_uses_standard_threshold_before_samples() {
        let mut red = IdealRed::new(Time::from_us(100), 10_000);
        let mut v = StaticPortView::new(1, Rate::from_gbps(10));
        // Standard threshold at 10 Gbps × 100 us = 125 KB.
        v.queue_bytes = vec![100_000];
        let mut p = Packet::data(FlowId(1), 0, 1, 0, 1460, 40);
        red.on_enqueue(&v, 0, &mut p, Time::ZERO);
        assert!(!p.ecn.is_ce());
        v.queue_bytes = vec![130_000];
        let mut p2 = Packet::data(FlowId(1), 0, 1, 0, 1460, 40);
        red.on_enqueue(&v, 0, &mut p2, Time::ZERO);
        assert!(p2.ecn.is_ce());
    }

    #[test]
    fn ideal_red_threshold_follows_measured_rate() {
        let mut red = IdealRed::new(Time::from_us(100), 10_000);
        let mut v = StaticPortView::new(1, Rate::from_gbps(10));
        v.queue_bytes = vec![50_000];
        // Feed departures at 5 Gbps.
        let mut now = Time::ZERO;
        for _ in 0..400 {
            let mut p = Packet::data(FlowId(1), 0, 1, 0, 1460, 40);
            red.on_dequeue(&v, 0, &mut p, now);
            now += Time::from_ns(2400);
        }
        // Threshold should now be ≈ 5 Gbps × 100 us = 62.5 KB.
        let k = red.threshold_bytes(0, Rate::from_gbps(10));
        assert!(
            (55_000..70_000).contains(&k),
            "threshold {k} should track 62.5 KB"
        );
        // 50 KB queue < K: no mark. 70 KB: mark.
        let mut p = Packet::data(FlowId(1), 0, 1, 0, 1460, 40);
        red.on_enqueue(&v, 0, &mut p, now);
        assert!(!p.ecn.is_ce());
        v.queue_bytes = vec![75_000];
        let mut p2 = Packet::data(FlowId(1), 0, 1, 0, 1460, 40);
        red.on_enqueue(&v, 0, &mut p2, now);
        assert!(p2.ecn.is_ce());
    }

    #[test]
    #[should_panic(expected = "dq_thresh must be positive")]
    fn zero_thresh_rejected() {
        DqRateMeter::new(0, 0.875);
    }
}
