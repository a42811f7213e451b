//! The repo's dependency-free automation library: a token-level static
//! analyzer for the determinism discipline, plus the JSON plumbing the
//! `cargo xtask` CLI (see `main.rs`) and the self-test suite share.
//!
//! Layered bottom-up:
//!
//! * [`lex`] — a hand-rolled, pure-std Rust lexer (identifiers, puncts,
//!   literals, lifetimes, raw strings, nested comments) with
//!   `file:line:col` spans.
//! * [`engine`] — the [`Rule`](engine::Rule) trait, the suppression
//!   ledger (`lint:allow` with mandatory justification, `unused-allow`
//!   for stale escapes), the repo walk, and JSON serialization.
//! * [`rules`] — the registry: nine rules migrated from the substring
//!   era plus the determinism family (`no-hash-iter`,
//!   `no-thread-outside-runner`, `no-ambient-entropy`,
//!   `no-raw-tick-arith`, `no-process-env-in-lib`,
//!   `exhaustive-kind-tags`).
//! * [`lint`] — the driver `cargo xtask lint` calls, and the generated
//!   rule table.
//! * [`legacy`] — the retired substring engine, kept as the
//!   differential oracle the self-tests compare against.
//! * [`json`] — the repo's one JSON reader: `tcn-experiments`' `json.rs`
//!   mounted with `#[path]`, so the two crates share a file without a
//!   dependency edge.
//! * [`jsonck`] — the schema check `ci` runs on the lint engine's own
//!   `--format json` output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
#[path = "../../crates/experiments/src/json.rs"]
pub mod json;
pub mod jsonck;
pub mod legacy;
pub mod lex;
pub mod lint;
pub mod rules;
