//! Tier-1 guard for the engine's future-event list.
//!
//! `cargo test -q` at the root runs only the root package, so the
//! calendar queue's differential suite — the proof that `EventQueue`
//! pops the same `(time, seq, event)` stream as the `HeapEventQueue`
//! oracle, including the sparse / wrap-around / ring-edge run — used to
//! run only under `cargo xtask ci`. It takes about a second even in the
//! test profile, so it is compiled in here whole rather than restated.

#[path = "../crates/sim/tests/engine_differential.rs"]
mod engine_differential;
