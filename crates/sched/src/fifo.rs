//! The two trivial-but-load-bearing schedulers: FIFO and strict priority.

use tcn_core::{Packet, PacketQueue, TcnError};
use tcn_sim::Time;

use crate::Scheduler;

/// Single-queue first-in-first-out service. Used by the single-queue
/// experiments (Fig. 3's buffer-occupancy traces) and as the degenerate
/// base case in property tests.
#[derive(Debug, Default, Clone)]
pub struct Fifo;

impl Fifo {
    /// A FIFO scheduler (queue 0 only is ever served).
    pub fn new() -> Self {
        Fifo
    }
}

impl Scheduler for Fifo {
    fn on_enqueue(&mut self, _queues: &[PacketQueue], _q: usize, _pkt: &Packet, _now: Time) {}

    fn select(&mut self, queues: &[PacketQueue], _now: Time) -> Option<usize> {
        queues.iter().position(|q| !q.is_empty())
    }

    fn on_dequeue(
        &mut self,
        _queues: &[PacketQueue],
        _q: usize,
        _pkt: &Packet,
        _now: Time,
    ) -> Result<(), TcnError> {
        Ok(())
    }

    fn name(&self) -> &'static str {
        "FIFO"
    }
}

/// Strict priority: queue 0 outranks queue 1 outranks queue 2, …
/// A lower-priority queue is served only when every higher one is empty
/// (paper §2.2 "Traffic Prioritization").
#[derive(Debug, Clone)]
pub struct StrictPriority {
    nqueues: usize,
}

impl StrictPriority {
    /// A strict-priority scheduler over `nqueues` queues.
    ///
    /// # Panics
    /// Panics if `nqueues == 0`.
    pub fn new(nqueues: usize) -> Self {
        assert!(nqueues > 0, "need at least one queue");
        StrictPriority { nqueues }
    }
}

impl Scheduler for StrictPriority {
    fn on_enqueue(&mut self, _queues: &[PacketQueue], _q: usize, _pkt: &Packet, _now: Time) {}

    fn select(&mut self, queues: &[PacketQueue], _now: Time) -> Option<usize> {
        debug_assert_eq!(queues.len(), self.nqueues);
        queues.iter().position(|q| !q.is_empty())
    }

    fn on_dequeue(
        &mut self,
        _queues: &[PacketQueue],
        _q: usize,
        _pkt: &Packet,
        _now: Time,
    ) -> Result<(), TcnError> {
        Ok(())
    }

    fn name(&self) -> &'static str {
        "SP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::Harness;

    #[test]
    fn fifo_serves_in_order() {
        let mut h = Harness::new(Fifo::new(), 1);
        h.backlog(0, 1500, 10);
        for _ in 0..10 {
            assert_eq!(h.serve_one(), Some(0));
        }
        assert_eq!(h.serve_one(), None);
    }

    #[test]
    fn sp_always_prefers_highest() {
        let mut h = Harness::new(StrictPriority::new(3), 3);
        h.backlog(2, 1500, 5);
        h.backlog(1, 1500, 5);
        // Queue 1 drains fully before queue 2 gets a single packet.
        for _ in 0..5 {
            assert_eq!(h.serve_one(), Some(1));
        }
        assert_eq!(h.serve_one(), Some(2));
    }

    #[test]
    fn sp_preempts_between_packets() {
        let mut h = Harness::new(StrictPriority::new(2), 2);
        h.backlog(1, 1500, 3);
        assert_eq!(h.serve_one(), Some(1));
        // High-priority arrival mid-burst wins the very next slot.
        h.push(0, 100);
        assert_eq!(h.serve_one(), Some(0));
        assert_eq!(h.serve_one(), Some(1));
    }

    #[test]
    fn sp_starves_low_priority_under_saturation() {
        // The known hazard of SP (why operators reserve it for tiny
        // control traffic): a saturated high queue starves the rest.
        let mut h = Harness::new(StrictPriority::new(2), 2);
        h.backlog(0, 1500, 50);
        h.backlog(1, 1500, 50);
        h.serve(50);
        assert_eq!(h.served[1], 0);
    }

    #[test]
    fn no_round_concept() {
        let sp = StrictPriority::new(4);
        assert_eq!(sp.round_time(), None);
        assert_eq!(sp.quantum(0), None);
        let f = Fifo::new();
        assert_eq!(f.round_time(), None);
    }
}
