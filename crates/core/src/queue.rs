//! A FIFO packet queue with byte and packet accounting.
//!
//! One [`PacketQueue`] models one hardware egress queue. A port owns
//! several of them (4–8 on commodity chips, paper §1) plus a scheduler
//! that decides which queue's head departs next.

use std::collections::VecDeque;

use crate::packet::Packet;

/// A FIFO of packets with O(1) byte/packet length queries.
#[derive(Debug, Default, Clone)]
pub struct PacketQueue {
    fifo: VecDeque<Packet>,
    bytes: u64,
    /// Mutations left before the audit's next recount (see
    /// `audit_accounting`; untouched unless auditing is active).
    audit_countdown: usize,
}

impl PacketQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a packet at the tail.
    pub fn push_back(&mut self, pkt: Packet) {
        self.bytes += u64::from(pkt.size);
        self.fifo.push_back(pkt);
        self.audit_accounting();
    }

    /// Remove and return the head packet.
    pub fn pop_front(&mut self) -> Option<Packet> {
        let pkt = self.fifo.pop_front()?;
        debug_assert!(self.bytes >= u64::from(pkt.size));
        self.bytes -= u64::from(pkt.size);
        self.audit_accounting();
        Some(pkt)
    }

    /// Peek at the head packet.
    pub fn front(&self) -> Option<&Packet> {
        self.fifo.front()
    }

    /// Peek at the tail packet.
    pub fn back(&self) -> Option<&Packet> {
        self.fifo.back()
    }

    /// Mutable access to the tail packet (the port lets enqueue-side AQMs
    /// mark the just-admitted packet in place).
    pub fn back_mut(&mut self) -> Option<&mut Packet> {
        self.fifo.back_mut()
    }

    /// Remove and return the tail packet (the port revokes an admission
    /// when the AQM votes to drop at enqueue).
    pub fn pop_back(&mut self) -> Option<Packet> {
        let pkt = self.fifo.pop_back()?;
        debug_assert!(self.bytes >= u64::from(pkt.size));
        self.bytes -= u64::from(pkt.size);
        self.audit_accounting();
        Some(pkt)
    }

    /// Cross-check the O(1) byte counter against a full recount of the
    /// FIFO. A no-op (inlined away) unless auditing is active. When it
    /// is, the recount runs whenever the queue empties and otherwise
    /// once every `len` mutations, counted from the length at the last
    /// recount: amortized O(1) per mutation. The countdown never exceeds
    /// the current length, so a divergence is caught within one queue
    /// length of mutations.
    #[inline]
    fn audit_accounting(&mut self) {
        if !tcn_audit::active() {
            return;
        }
        self.audit_countdown = self.audit_countdown.saturating_sub(1);
        if self.audit_countdown > 0 && !self.fifo.is_empty() {
            return;
        }
        self.audit_countdown = self.fifo.len();
        let recount: u64 = self.fifo.iter().map(|p| u64::from(p.size)).sum();
        assert_eq!(
            self.bytes, recount,
            "PacketQueue byte counter {} diverged from recount {}",
            self.bytes, recount
        );
    }

    /// Wire size of the head packet, if any. Schedulers (WFQ in
    /// particular) need this to compute finish times without dequeuing.
    pub fn front_size(&self) -> Option<u32> {
        self.fifo.front().map(|p| p.size)
    }

    /// Queue length in bytes — the classic RED congestion signal.
    #[inline]
    pub fn len_bytes(&self) -> u64 {
        self.bytes
    }

    /// Queue length in packets.
    #[inline]
    pub fn len_pkts(&self) -> usize {
        self.fifo.len()
    }

    /// True if no packets are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Drop every queued packet, returning how many bytes were released
    /// (used at experiment teardown).
    pub fn clear(&mut self) -> u64 {
        let freed = self.bytes;
        self.fifo.clear();
        self.bytes = 0;
        self.audit_countdown = 0;
        freed
    }

    /// Iterate over queued packets head-to-tail (diagnostics only).
    pub fn iter(&self) -> impl Iterator<Item = &Packet> {
        self.fifo.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;

    fn pkt(size_payload: u32) -> Packet {
        Packet::data(FlowId(0), 0, 1, 0, size_payload, 40)
    }

    #[test]
    fn fifo_order() {
        let mut q = PacketQueue::new();
        for seq in 0..5u64 {
            let mut p = pkt(100);
            p.kind = crate::packet::PacketKind::Data { seq, payload: 100 };
            q.push_back(p);
        }
        for seq in 0..5u64 {
            let p = q.pop_front().unwrap();
            match p.kind {
                crate::packet::PacketKind::Data { seq: s, .. } => assert_eq!(s, seq),
                _ => panic!("wrong kind"),
            }
        }
        assert!(q.pop_front().is_none());
    }

    #[test]
    fn byte_accounting() {
        let mut q = PacketQueue::new();
        assert_eq!(q.len_bytes(), 0);
        q.push_back(pkt(1460)); // 1500 wire bytes
        q.push_back(pkt(460)); // 500 wire bytes
        assert_eq!(q.len_bytes(), 2000);
        assert_eq!(q.len_pkts(), 2);
        q.pop_front();
        assert_eq!(q.len_bytes(), 500);
        q.pop_front();
        assert_eq!(q.len_bytes(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn front_size_matches_head() {
        let mut q = PacketQueue::new();
        assert_eq!(q.front_size(), None);
        q.push_back(pkt(960)); // 1000 wire
        q.push_back(pkt(60)); // 100 wire
        assert_eq!(q.front_size(), Some(1000));
        q.pop_front();
        assert_eq!(q.front_size(), Some(100));
    }

    #[test]
    fn back_mut_reaches_tail() {
        let mut q = PacketQueue::new();
        q.push_back(pkt(100));
        q.push_back(pkt(200));
        q.back_mut().unwrap().try_mark_ce();
        assert!(!q.front().unwrap().ecn.is_ce());
        q.pop_front();
        assert!(q.front().unwrap().ecn.is_ce());
    }

    #[test]
    fn pop_back_revokes_admission() {
        let mut q = PacketQueue::new();
        q.push_back(pkt(960)); // 1000 wire bytes
        q.push_back(pkt(460)); // 500 wire bytes
        let revoked = q.pop_back().unwrap();
        assert_eq!(revoked.size, 500);
        assert_eq!(q.len_bytes(), 1000);
        assert_eq!(q.len_pkts(), 1);
    }

    #[test]
    fn audit_catches_a_corrupt_byte_counter_within_one_queue_length() {
        if !tcn_audit::active() {
            return;
        }
        let mut q = PacketQueue::new();
        for _ in 0..1000 {
            q.push_back(pkt(100));
        }
        q.bytes += 1;
        // Pushes only: the queue grows past every length the audit saw.
        let len = q.len_pkts();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for _ in 0..=len {
                q.push_back(pkt(100));
            }
        }));
        let err = caught.expect_err("corrupt byte counter went unnoticed");
        let msg = err.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains("diverged from recount"), "{msg}");
    }

    #[test]
    fn clear_returns_freed_bytes() {
        let mut q = PacketQueue::new();
        q.push_back(pkt(1460));
        q.push_back(pkt(1460));
        assert_eq!(q.clear(), 3000);
        assert!(q.is_empty());
        assert_eq!(q.len_bytes(), 0);
    }
}
