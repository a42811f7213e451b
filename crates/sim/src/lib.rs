//! `tcn-sim` — deterministic discrete-event simulation substrate.
//!
//! This crate is the foundation of the TCN reproduction. It provides the
//! pieces every other crate builds on:
//!
//! * [`Time`] — an integer **picosecond** clock. All standard datacenter
//!   link rates (1/10/40/100 Gbps) have exact integer per-byte transmission
//!   times in picoseconds, so event ordering never suffers floating-point
//!   drift and simulations are bit-for-bit reproducible.
//! * [`Rate`] — link/drain rates in bits per second, with exact
//!   transmission-time arithmetic.
//! * [`EventQueue`] — a monotonic future-event list with a total order
//!   (time, insertion sequence) so same-timestamp events fire in a
//!   deterministic order. Internally a calendar queue (bucketed near
//!   horizon + sorted overflow), differentially tested against a plain
//!   binary heap in `tests/engine_differential.rs`.
//! * [`Rng`] — a self-contained xoshiro256** generator. We deliberately do
//!   not depend on the `rand` crate for simulation draws so results cannot
//!   change under us when `rand` revises its algorithms.
//! * [`Ewma`] — the exponentially weighted moving average used by the
//!   departure-rate meter (paper Algorithm 1), MQ-ECN and DCTCP.
//! * [`FaultPlan`] — seeded, deterministic fault-injection schedules
//!   (loss, corruption, jitter, link flaps) with per-link RNG stream
//!   isolation, threaded through the network layer.
//!
//! The engine is intentionally single-threaded *per simulation*: the
//! simulated systems are CPU-bound state machines, and a deterministic
//! serial event loop is both faster and easier to validate than a
//! parallel one. Throughput parallelism lives a layer up — independent
//! simulation cells (each owning its own `EventQueue` and `Rng` streams)
//! run concurrently and merge in canonical order (see
//! `tcn-experiments::runner`), so results are identical at any thread
//! count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod ewma;
pub mod fault;
pub mod rng;
pub mod time;

pub use engine::{EventEntry, EventQueue, QueueStats};
pub use ewma::Ewma;
pub use fault::{FaultKind, FaultPlan, LinkFaultProfile, LinkFlap};
pub use rng::Rng;
pub use time::{Rate, Time};
