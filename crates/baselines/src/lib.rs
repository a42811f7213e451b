//! `tcn-baselines` — every comparator AQM the paper evaluates against,
//! plus the measurement machinery its §3 deep-dive builds on.
//!
//! | Scheme | Paper role | Signal | Marks at |
//! |---|---|---|---|
//! | [`RedEcn`] (per-queue) | "current practice", static `K = C·RTT·λ` | queue length | enqueue |
//! | [`RedEcn`] (per-port) | the Fig. 1 policy violator | port length | enqueue |
//! | [`RedEcn`] (dequeue) | Wu et al. dequeue marking (§4.3, Fig. 3) | queue length | dequeue |
//! | [`ClassicRed`] | the original averaged RED (§2.1 background) | EWMA queue length | enqueue |
//! | [`CoDel`] | state-of-the-art sojourn AQM (§4.3 rival) | min sojourn over interval | dequeue |
//! | [`MqEcn`] | round-robin-only dynamic threshold (§3.3) | queue length vs `quantum/T_round` | enqueue |
//! | [`IdealRed`] | "ideal ECN/RED" driven by Algorithm 1 | queue length vs measured `C_i·RTT·λ` | enqueue |
//! | [`OracleRed`] | ideal ECN/RED with *a-priori known* `C_i` (Fig. 5) | queue length | enqueue |
//! | [`Pie`] | extension: PIE, the source of Algorithm 1 \[25\] | queueing delay estimate | enqueue |
//!
//! [`DqRateMeter`] is the paper's **Algorithm 1** departure-rate
//! (queue-capacity) estimator, exposed on its own because Fig. 2 evaluates
//! the estimator directly, and because its `dq_thresh` trade-off is the
//! paper's central argument for abandoning rate measurement altogether.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cap;
pub mod codel;
pub mod dqrate;
pub mod mqecn;
pub mod pie;
pub mod red;

pub use cap::QueueCap;
pub use codel::{CoDel, CoDelMode};
pub use dqrate::{DqRateMeter, IdealRed};
pub use mqecn::MqEcn;
pub use pie::Pie;
pub use red::{ClassicRed, MarkPoint, OracleRed, RedEcn, Scope};
