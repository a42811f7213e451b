//! `tcn-transport` — the ECN-capable datacenter transports the paper
//! evaluates over, behind a pluggable congestion-control API.
//!
//! The sender ([`TcpSender`]) is reliability machinery only: sequence
//! tracking, fast retransmit on three duplicate ACKs with simplified
//! Reno-style recovery, go-back-N RTO with Jacobson/Karn estimation
//! clamped at a configurable `RTO_min` (10 ms testbed / 5 ms
//! simulation, per the paper's setups). Window policy is delegated to
//! a [`CongestionControl`] implementation, selected per flow via
//! [`Cc`]:
//!
//! * **ECN\*** ([`Cc::EcnStar`]) — regular ECN-enabled TCP that
//!   "simply cuts the window by half in the presence of an ECN mark"
//!   (paper §2.1 fn 2), at most once per window. λ = 1 in the threshold
//!   formulas. The paper calls it the most challenging transport because
//!   it has no smoothing (§6.2.2).
//! * **DCTCP** ([`Cc::Dctcp`]) — Alizadeh et al., SIGCOMM 2010:
//!   the receiver echoes CE per packet, the sender maintains the marked
//!   fraction estimate `α ← (1−g)·α + g·F` per window and cuts
//!   `cwnd ← cwnd·(1 − α/2)` at most once per window.
//! * **CUBIC** ([`Cc::Cubic`]) — RFC 8312: the loss-based tenant, not
//!   ECN-capable here, for the mixed-tenant coexistence experiments.
//! * **BBR** ([`Cc::Bbr`]) — Cardwell et al.: model-based, with the
//!   Startup/Drain/ProbeBW/ProbeRTT state machine over windowed
//!   max-bandwidth / min-RTT filters.
//!
//! ECN usage is additionally gated by RFC 9000 §13.4.2-style path
//! validation ([`EcnValidator`], off by default): a path that bleaches
//! or sprays marks demotes the flow to loss-based behaviour.
//!
//! Deliberate simplifications (documented per DESIGN.md): no SYN/FIN
//! handshake (flows start with data, as in the ns-2 models this paper's
//! simulations used), no delayed ACKs, no SACK, no receive-window flow
//! control. These do not affect the congestion dynamics the paper
//! studies.
//!
//! The state machines communicate with their host through values: every
//! input (`start` / `on_ack` / `on_timer`) returns a [`SenderOutput`]
//! with packets to transmit and the current retransmission deadline for
//! the host to arm.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc;
pub mod ecn;
pub mod intervals;
pub mod receiver;
pub mod rtt;
pub mod sender;

pub use cc::{BbrCc, BbrParams, Cc, CcAlgo, CcCtx, CongestionControl, CubicCc, DctcpCc, EcnStarCc};
pub use ecn::{EcnPathState, EcnValidator};
pub use intervals::ByteIntervals;
pub use receiver::{ack_for, TcpReceiver};
pub use rtt::RttEstimator;
pub use sender::{SenderOutput, TcpConfig, TcpPreset, TcpSender};
