//! The TCP receiver: cumulative ACK generation with per-packet ECN echo
//! (the DCTCP receiver state machine with delayed-ACK factor m = 1) and
//! flow-completion detection.

use tcn_core::{FlowId, Packet, PacketKind, TcnError};
use tcn_sim::Time;

use crate::intervals::ByteIntervals;

/// Wire size of a pure ACK: a header-only packet.
const ACK_BYTES: u32 = 40;

/// The ACK a receiver sends for data packet `pkt` when it next expects
/// byte `cum_ack`: addressed back to the sender, echoing the packet's
/// own CE mark (the DCTCP receiver rule with m = 1, which also serves
/// ECN\* since its sender reacts at most once per window anyway), in
/// the packet's class so it rides the same service queue back.
pub fn ack_for(pkt: &Packet, cum_ack: u64, now: Time) -> Packet {
    let mut ack = Packet::ack(
        pkt.flow,
        pkt.dst,
        pkt.src,
        cum_ack,
        pkt.ecn.is_ce(),
        ACK_BYTES,
    );
    ack.birth_ts = now;
    ack.dscp = pkt.dscp;
    ack
}

/// A TCP receiver for one flow of `size` bytes.
#[derive(Debug, Clone)]
pub struct TcpReceiver {
    flow: FlowId,
    /// Receiver's host id (source of ACKs).
    host: u32,
    /// Sender's host id (destination of ACKs).
    peer: u32,
    size: u64,
    received: ByteIntervals,
    completed_at: Option<Time>,
}

impl TcpReceiver {
    /// A receiver expecting `size` bytes of flow `flow`, running on host
    /// `host`, acking back to `peer`. ACKs are 40-byte header-only
    /// packets.
    pub fn new(flow: FlowId, host: u32, peer: u32, size: u64) -> Self {
        assert!(size > 0, "zero-size flow");
        TcpReceiver {
            flow,
            host,
            peer,
            size,
            received: ByteIntervals::new(),
            completed_at: None,
        }
    }

    /// Process a data packet, producing the cumulative ACK to send back
    /// ([`ack_for`]). Every data packet is acknowledged immediately (no
    /// delayed ACKs).
    ///
    /// # Errors
    /// [`TcnError::AuditViolation`] if the packet is not a data segment
    /// of this flow from its peer — a routing or dispatch bug upstream.
    pub fn on_data(&mut self, pkt: &Packet, now: Time) -> Result<Packet, TcnError> {
        if pkt.flow != self.flow || pkt.src != self.peer || pkt.dst != self.host {
            return Err(TcnError::audit(format!(
                "foreign packet: receiver of flow {} ({} -> {}) fed flow {} ({} -> {})",
                self.flow.0, self.peer, self.host, pkt.flow.0, pkt.src, pkt.dst
            )));
        }
        let (seq, payload) = match pkt.kind {
            PacketKind::Data { seq, payload } => (seq, payload),
            _ => return Err(TcnError::audit("receiver fed a non-data packet")),
        };
        self.received.insert(seq, seq + u64::from(payload));
        if self.completed_at.is_none() && self.received.is_complete(self.size) {
            self.completed_at = Some(now);
        }
        Ok(ack_for(pkt, self.received.next_expected(), now))
    }

    /// True once all `size` bytes have arrived.
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// When the last in-order byte arrived (the FCT endpoint).
    pub fn completed_at(&self) -> Option<Time> {
        self.completed_at
    }

    /// Bytes received so far (unique).
    pub fn bytes_received(&self) -> u64 {
        self.received.covered()
    }

    /// Flow id.
    pub fn flow(&self) -> FlowId {
        self.flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcn_core::EcnCodepoint;

    fn data(seq: u64, payload: u32) -> Packet {
        Packet::data(FlowId(9), 3, 7, seq, payload, 40)
    }

    #[test]
    fn acks_cumulative_in_order() {
        let mut r = TcpReceiver::new(FlowId(9), 7, 3, 4380);
        let ack = r.on_data(&data(0, 1460), Time::from_us(1)).unwrap();
        match ack.kind {
            PacketKind::Ack { cum_ack, ece } => {
                assert_eq!(cum_ack, 1460);
                assert!(!ece);
            }
            _ => panic!(),
        }
        assert_eq!(ack.src, 7);
        assert_eq!(ack.dst, 3);
    }

    #[test]
    fn out_of_order_generates_dup_acks() {
        let mut r = TcpReceiver::new(FlowId(9), 7, 3, 14_600);
        r.on_data(&data(0, 1460), Time::from_us(1)).unwrap();
        // Segment at 1460 lost; later segments repeat cum_ack 1460.
        for seq in [2920u64, 4380, 5840] {
            let ack = r.on_data(&data(seq, 1460), Time::from_us(2)).unwrap();
            match ack.kind {
                PacketKind::Ack { cum_ack, .. } => assert_eq!(cum_ack, 1460),
                _ => panic!(),
            }
        }
        // Retransmission fills the hole → jump.
        let ack = r.on_data(&data(1460, 1460), Time::from_us(3)).unwrap();
        match ack.kind {
            PacketKind::Ack { cum_ack, .. } => assert_eq!(cum_ack, 7300),
            _ => panic!(),
        }
    }

    #[test]
    fn echoes_ce_per_packet() {
        let mut r = TcpReceiver::new(FlowId(9), 7, 3, 14_600);
        let mut marked = data(0, 1460);
        marked.ecn = EcnCodepoint::Ce;
        let ack = r.on_data(&marked, Time::from_us(1)).unwrap();
        match ack.kind {
            PacketKind::Ack { ece, .. } => assert!(ece),
            _ => panic!(),
        }
        // Next unmarked packet: echo clears (m = 1 state machine).
        let ack = r.on_data(&data(1460, 1460), Time::from_us(2)).unwrap();
        match ack.kind {
            PacketKind::Ack { ece, .. } => assert!(!ece),
            _ => panic!(),
        }
    }

    #[test]
    fn completion_at_last_inorder_byte() {
        let mut r = TcpReceiver::new(FlowId(9), 7, 3, 2920);
        r.on_data(&data(1460, 1460), Time::from_us(1)).unwrap();
        assert!(!r.is_complete());
        r.on_data(&data(0, 1460), Time::from_us(9)).unwrap();
        assert!(r.is_complete());
        assert_eq!(r.completed_at(), Some(Time::from_us(9)));
    }

    #[test]
    fn duplicates_do_not_double_count() {
        let mut r = TcpReceiver::new(FlowId(9), 7, 3, 2920);
        r.on_data(&data(0, 1460), Time::from_us(1)).unwrap();
        r.on_data(&data(0, 1460), Time::from_us(2)).unwrap();
        assert_eq!(r.bytes_received(), 1460);
        assert!(!r.is_complete());
    }

    #[test]
    fn ack_inherits_dscp() {
        let mut r = TcpReceiver::new(FlowId(9), 7, 3, 2920);
        let mut p = data(0, 1460);
        p.dscp = 5;
        let ack = r.on_data(&p, Time::from_us(1)).unwrap();
        assert_eq!(ack.dscp, 5);
    }

    #[test]
    fn completion_time_not_overwritten() {
        let mut r = TcpReceiver::new(FlowId(9), 7, 3, 1460);
        r.on_data(&data(0, 1460), Time::from_us(5)).unwrap();
        // A duplicate after completion must not move the FCT endpoint.
        r.on_data(&data(0, 1460), Time::from_us(50)).unwrap();
        assert_eq!(r.completed_at(), Some(Time::from_us(5)));
    }

    #[test]
    fn rejects_foreign_flow() {
        let mut r = TcpReceiver::new(FlowId(9), 7, 3, 1460);
        let p = Packet::data(FlowId(8), 3, 7, 0, 1460, 40);
        let err = r.on_data(&p, Time::ZERO).expect_err("foreign packet");
        assert_eq!(err.kind(), "audit");
        assert!(err.to_string().contains("foreign packet"), "{err}");
    }

    #[test]
    fn rejects_non_data_packet() {
        let mut r = TcpReceiver::new(FlowId(9), 7, 3, 1460);
        let ack = Packet::ack(FlowId(9), 3, 7, 0, false, 40);
        let err = r.on_data(&ack, Time::ZERO).expect_err("non-data packet");
        assert_eq!(err.kind(), "audit");
    }
}
