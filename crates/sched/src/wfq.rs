//! Weighted Fair Queueing via self-clocked virtual time (SCFQ, Golestani).
//!
//! This is the algorithm the paper's software prototype implements (§5):
//! *"we maintain a virtual time for the head packet of each queue; the WFQ
//! scheduler chooses the head packet with the smallest virtual time"*.
//!
//! Each packet receives a virtual **finish tag** at enqueue:
//!
//! ```text
//! F = max(V, F_prev(q)) + size / weight(q)
//! ```
//!
//! where `V` is the tag of the packet currently in service (the
//! "self-clock"). The scheduler always transmits the head packet with the
//! smallest tag. Crucially for this paper, WFQ has **no round**:
//! [`Scheduler::round_time`] is `None`, so MQ-ECN cannot compute its
//! dynamic threshold — which is exactly why the paper needs TCN.

use std::collections::VecDeque;

use tcn_core::{Packet, PacketQueue, TcnError};
use tcn_sim::Time;

use crate::Scheduler;

/// Self-clocked Weighted Fair Queueing.
#[derive(Debug, Clone)]
pub struct Wfq {
    weights: Vec<f64>,
    /// Virtual time: finish tag of the most recently dequeued packet.
    vtime: f64,
    /// Last assigned finish tag per queue.
    last_tag: Vec<f64>,
    /// Finish tags of queued packets, parallel to each `PacketQueue`.
    tags: Vec<VecDeque<f64>>,
    /// Backlogged packet count, to detect the all-idle reset point.
    backlog: usize,
}

impl Wfq {
    /// WFQ with the given (relative) positive weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty or any weight is not positive/finite.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "need at least one queue");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "weights must be positive"
        );
        let n = weights.len();
        Wfq {
            weights,
            vtime: 0.0,
            last_tag: vec![0.0; n],
            tags: vec![VecDeque::new(); n],
            backlog: 0,
        }
    }

    /// Equal-weight WFQ over `n` queues.
    pub fn equal(n: usize) -> Self {
        Wfq::new(vec![1.0; n])
    }

    /// Current virtual time (diagnostics/tests).
    pub fn vtime(&self) -> f64 {
        self.vtime
    }
}

impl Scheduler for Wfq {
    fn on_enqueue(&mut self, queues: &[PacketQueue], q: usize, pkt: &Packet, _now: Time) {
        debug_assert!(!queues[q].is_empty());
        let start = self.vtime.max(self.last_tag[q]);
        let tag = start + f64::from(pkt.size) / self.weights[q];
        self.last_tag[q] = tag;
        self.tags[q].push_back(tag);
        self.backlog += 1;
    }

    fn select(&mut self, queues: &[PacketQueue], _now: Time) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (q, tags) in self.tags.iter().enumerate() {
            debug_assert_eq!(tags.len(), queues[q].len_pkts(), "tag desync on queue {q}");
            if let Some(&tag) = tags.front() {
                match best {
                    Some((_, btag)) if btag <= tag => {}
                    _ => best = Some((q, tag)),
                }
            }
        }
        best.map(|(q, _)| q)
    }

    fn on_dequeue(
        &mut self,
        _queues: &[PacketQueue],
        q: usize,
        _pkt: &Packet,
        _now: Time,
    ) -> Result<(), TcnError> {
        let Some(tag) = self.tags[q].pop_front() else {
            return Err(TcnError::SchedulerContract {
                scheduler: self.name(),
                queue: q,
                detail: "on_dequeue without a recorded tag".into(),
            });
        };
        // Self-clock: virtual time jumps to the departing packet's tag.
        self.vtime = tag;
        self.backlog -= 1;
        if self.backlog == 0 {
            // System idle: restart the virtual clock so tags cannot grow
            // without bound across the whole experiment.
            self.vtime = 0.0;
            self.last_tag.iter_mut().for_each(|t| *t = 0.0);
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "WFQ"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::Harness;

    #[test]
    fn equal_weights_equal_byte_shares() {
        let mut h = Harness::new(Wfq::equal(2), 2);
        h.backlog(0, 1500, 300);
        h.backlog(1, 1500, 300);
        h.serve(300);
        assert!((h.share(0) - 0.5).abs() < 0.01, "share {}", h.share(0));
    }

    #[test]
    fn weighted_byte_shares() {
        // Weights 3:1 → byte shares 3:1.
        let mut h = Harness::new(Wfq::new(vec![3.0, 1.0]), 2);
        h.backlog(0, 1500, 400);
        h.backlog(1, 1500, 400);
        h.serve(400);
        assert!((h.share(0) - 0.75).abs() < 0.02, "share {}", h.share(0));
    }

    #[test]
    fn byte_fair_with_mixed_packet_sizes() {
        // The WFQ advantage over WRR: equal weights stay byte-fair even
        // with 5× different packet sizes.
        let mut h = Harness::new(Wfq::equal(2), 2);
        h.backlog(0, 1500, 400);
        h.backlog(1, 300, 2000);
        h.serve(1500);
        assert!((h.share(0) - 0.5).abs() < 0.02, "share {}", h.share(0));
    }

    #[test]
    fn three_way_fairness() {
        let mut h = Harness::new(Wfq::new(vec![1.0, 2.0, 1.0]), 3);
        for q in 0..3 {
            h.backlog(q, 1500, 400);
        }
        h.serve(600);
        assert!((h.share(0) - 0.25).abs() < 0.02);
        assert!((h.share(1) - 0.50).abs() < 0.02);
        assert!((h.share(2) - 0.25).abs() < 0.02);
    }

    #[test]
    fn new_arrival_does_not_preempt_unfairly() {
        // A queue that was idle does not get credit for its idle past:
        // its first tag starts from current vtime, not zero.
        let mut h = Harness::new(Wfq::equal(2), 2);
        h.backlog(0, 1500, 100);
        h.serve(50);
        // Queue 1 wakes up late; from now on bytes split evenly.
        h.backlog(1, 1500, 100);
        let before = h.served[0];
        h.serve(100);
        let q0_after = h.served[0] - before;
        let q1_after = h.served[1];
        let ratio = q0_after as f64 / q1_after as f64;
        assert!((ratio - 1.0).abs() < 0.1, "post-wake ratio {ratio}");
    }

    #[test]
    fn idle_reset_restarts_virtual_clock() {
        let mut h = Harness::new(Wfq::equal(2), 2);
        h.backlog(0, 1500, 3);
        h.serve(3);
        assert_eq!(h.sched.vtime(), 0.0, "vtime must reset when idle");
    }

    #[test]
    fn no_round_concept() {
        // The property that excludes MQ-ECN on WFQ (paper §3.3).
        let w = Wfq::equal(4);
        assert_eq!(w.round_time(), None);
        assert_eq!(w.quantum(0), None);
    }

    #[test]
    fn smallest_tag_wins_ties_deterministically() {
        let mut h = Harness::new(Wfq::equal(2), 2);
        h.push(0, 1500);
        h.push(1, 1500);
        // Identical tags: lowest queue index first, reproducibly.
        assert_eq!(h.serve_one(), Some(0));
        assert_eq!(h.serve_one(), Some(1));
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn rejects_nonpositive_weight() {
        Wfq::new(vec![1.0, 0.0]);
    }

    #[test]
    fn dequeue_without_tag_is_contract_error() {
        // Deliberate contract violation: on_dequeue with no prior
        // on_enqueue. Must surface as a typed error, not a panic.
        let mut w = Wfq::equal(2);
        let queues = vec![tcn_core::PacketQueue::new(); 2];
        let p = crate::test_util::pkt(1500);
        let err = w
            .on_dequeue(&queues, 1, &p, Time::ZERO)
            .expect_err("missing tag must be rejected");
        match err {
            TcnError::SchedulerContract { scheduler, queue, .. } => {
                assert_eq!(scheduler, "WFQ");
                assert_eq!(queue, 1);
            }
            other => panic!("wrong error variant: {other:?}"),
        }
    }
}
