//! PIE — Proportional Integral controller Enhanced (Pan et al., HPSR
//! 2013) — included as an extension baseline: it is reference \[25\] of the
//! paper and the origin of the Algorithm 1 departure-rate meter, so
//! having it runnable (`Scheme::Pie` in the experiments) lets TCN be
//! compared against the AQM the meter was designed for.
//!
//! Faithful outline of the published controller (mark mode):
//!
//! * queueing delay estimate `qdelay = qlen / avg_rate`, with `avg_rate`
//!   from the Algorithm-1 meter;
//! * every `t_update`: `p += α·(qdelay − target) + β·(qdelay − qdelay_old)`,
//!   with the published auto-scaling of α/β when `p` is small;
//! * arriving packets are marked with probability `p` (dropped if
//!   non-ECT).

use tcn_core::aqm::{Aqm, DequeueVerdict, EnqueueVerdict, PortView};
use tcn_core::Packet;
use tcn_sim::{Rng, Time};

use crate::dqrate::DqRateMeter;

/// Per-queue PIE controller state.
#[derive(Debug, Clone)]
struct QueueCtl {
    meter: DqRateMeter,
    prob: f64,
    qdelay_old: Time,
    next_update: Time,
}

/// The PIE AQM (marking mode) — the other latency-based AQM the paper
/// groups with CoDel in §4.1, estimating queueing delay from a departure
/// rate meter instead of per-packet sojourn timestamps.
#[derive(Debug, Clone)]
pub struct Pie {
    target: Time,
    t_update: Time,
    alpha: f64,
    beta: f64,
    queues: Vec<QueueCtl>,
    rng: Rng,
    marked: u64,
}

impl Pie {
    /// PIE with the published defaults scaled for datacenters: `target`
    /// queueing delay, update period `t_update`, gains α = 0.125 Hz⁻¹ and
    /// β = 1.25 (per the HPSR paper, expressed per second of delay
    /// error).
    pub fn new(target: Time, t_update: Time, seed: u64) -> Self {
        assert!(!t_update.is_zero());
        Pie {
            target,
            t_update,
            alpha: 0.125,
            beta: 1.25,
            queues: Vec::new(),
            rng: Rng::new(seed),
            marked: 0,
        }
    }

    /// Packets marked so far.
    pub fn marked(&self) -> u64 {
        self.marked
    }

    /// Current marking probability of queue `q` (diagnostics).
    pub fn probability(&self, q: usize) -> f64 {
        self.queues.get(q).map_or(0.0, |c| c.prob)
    }

    fn ensure_queues(&mut self, n: usize) {
        while self.queues.len() < n {
            self.queues.push(QueueCtl {
                meter: DqRateMeter::new(16_384, 0.875),
                prob: 0.0,
                qdelay_old: Time::ZERO,
                next_update: Time::ZERO,
            });
        }
    }

    fn update_probability(&mut self, view: &dyn PortView, q: usize, now: Time) {
        let rate = self.queues[q]
            .meter
            .avg_rate()
            .unwrap_or_else(|| view.link_rate());
        let qdelay = if rate.as_bps() == 0 {
            Time::ZERO
        } else {
            rate.tx_time(view.queue_bytes(q))
        };
        let ctl = &mut self.queues[q];
        // Auto-scaling: damp the gains while the probability is small so
        // PIE does not overshoot from a cold start (published behaviour).
        let scale = if ctl.prob < 0.000_1 {
            0.0625 * 0.125
        } else if ctl.prob < 0.001 {
            0.125
        } else if ctl.prob < 0.1 {
            0.5
        } else {
            1.0
        };
        // The published gains assume Internet-scale (ms) delays; we make
        // the controller scale-free by expressing the error and trend in
        // units of the target delay, so the same α/β work at datacenter
        // microsecond targets.
        let target_s = self.target.as_secs_f64().max(1e-9);
        let err = (qdelay.as_secs_f64() - target_s) / target_s;
        let trend = (qdelay.as_secs_f64() - ctl.qdelay_old.as_secs_f64()) / target_s;
        ctl.prob += scale * (self.alpha * err + self.beta * trend);
        ctl.prob = ctl.prob.clamp(0.0, 1.0);
        // Decay toward zero when the queue is idle.
        if qdelay.is_zero() && ctl.qdelay_old.is_zero() {
            ctl.prob *= 0.98;
        }
        ctl.qdelay_old = qdelay;
        ctl.next_update = now.saturating_add(self.t_update);
    }
}

impl Aqm for Pie {
    fn on_enqueue(
        &mut self,
        view: &dyn PortView,
        q: usize,
        pkt: &mut Packet,
        now: Time,
    ) -> EnqueueVerdict {
        self.ensure_queues(view.num_queues());
        if now >= self.queues[q].next_update {
            self.update_probability(view, q, now);
        }
        let p = self.queues[q].prob;
        if self.rng.chance(p) {
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
        let qlen = view.queue_bytes(q) + u64::from(pkt.size);
        self.queues[q]
            .meter
            .on_departure(qlen, u64::from(pkt.size), now);
        DequeueVerdict::Forward
    }

    fn name(&self) -> &'static str {
        "PIE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcn_core::aqm::StaticPortView;
    use tcn_core::FlowId;
    use tcn_sim::Rate;

    fn pkt() -> Packet {
        Packet::data(FlowId(1), 0, 1, 0, 1460, 40)
    }

    #[test]
    fn idle_queue_never_marks() {
        let mut pie = Pie::new(Time::from_us(50), Time::from_us(500), 1);
        let v = StaticPortView::new(1, Rate::from_gbps(10));
        for i in 0..1000u64 {
            let mut p = pkt();
            let verdict = pie.on_enqueue(&v, 0, &mut p, Time::from_us(i));
            assert_eq!(verdict, EnqueueVerdict::Admit);
            assert!(!p.ecn.is_ce());
        }
        assert_eq!(pie.marked(), 0);
    }

    #[test]
    fn sustained_excess_delay_raises_probability() {
        let mut pie = Pie::new(Time::from_us(50), Time::from_us(500), 2);
        let mut v = StaticPortView::new(1, Rate::from_gbps(10));
        // 500 KB at 10 Gbps = 400 us queueing delay ≫ 50 us target.
        v.queue_bytes = vec![500_000];
        let mut now = Time::ZERO;
        for _ in 0..2000 {
            let mut p = pkt();
            pie.on_enqueue(&v, 0, &mut p, now);
            now += Time::from_us(5);
        }
        assert!(
            pie.probability(0) > 0.05,
            "probability {} should have risen",
            pie.probability(0)
        );
        assert!(pie.marked() > 0);
    }

    #[test]
    fn probability_falls_after_recovery() {
        let mut pie = Pie::new(Time::from_us(50), Time::from_us(500), 3);
        let mut v = StaticPortView::new(1, Rate::from_gbps(10));
        v.queue_bytes = vec![500_000];
        let mut now = Time::ZERO;
        for _ in 0..2000 {
            let mut p = pkt();
            pie.on_enqueue(&v, 0, &mut p, now);
            now += Time::from_us(5);
        }
        let peak = pie.probability(0);
        v.queue_bytes = vec![0];
        for _ in 0..4000 {
            let mut p = pkt();
            pie.on_enqueue(&v, 0, &mut p, now);
            now += Time::from_us(5);
        }
        assert!(
            pie.probability(0) < peak / 2.0,
            "probability should decay: peak {peak}, now {}",
            pie.probability(0)
        );
    }

    #[test]
    fn uses_measured_rate_for_delay() {
        // Feed the meter a 1 Gbps drain; then a 25 KB queue is a 200 us
        // delay (not the 20 us it would be at the 10 Gbps line rate),
        // so it must exceed a 50 us target and mark eventually.
        let mut pie = Pie::new(Time::from_us(50), Time::from_us(500), 4);
        let mut v = StaticPortView::new(1, Rate::from_gbps(10));
        v.queue_bytes = vec![25_000];
        let mut now = Time::ZERO;
        for _ in 0..200 {
            let mut p = pkt();
            pie.on_dequeue(&v, 0, &mut p, now);
            now += Time::from_us(12); // 1500 B / 12 us = 1 Gbps
        }
        for _ in 0..2000 {
            let mut p = pkt();
            pie.on_enqueue(&v, 0, &mut p, now);
            now += Time::from_us(12);
        }
        assert!(
            pie.probability(0) > 0.01,
            "probability {} should rise with slow drain",
            pie.probability(0)
        );
    }
}
