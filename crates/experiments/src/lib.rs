//! `tcn-experiments` — one runner per table/figure of *Enabling ECN over
//! Generic Packet Scheduling* (CoNEXT 2016).
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig1`] | Fig. 1 — per-port ECN/RED violates DWRR fair shares |
//! | [`fig2`] | Fig. 2 — Algorithm-1 rate estimation vs MQ-ECN |
//! | [`fig3`] | Fig. 3 — occupancy traces: enqueue RED / dequeue RED / TCN |
//! | [`fig4`] | Fig. 4 — the four workload CDFs |
//! | [`fig5`] | Fig. 5 — SP/WFQ static flows: goodput + probe RTT dists |
//! | [`fct_sweep`] | Figs. 6–13 — the FCT-vs-load studies (testbed star and leaf-spine), parameterized by scheduler, transport, queue count and PIAS |
//! | [`incast`] | §4.3 burst-tolerance claim (extension experiment) |
//! | [`fairness`] | §4.3 probabilistic TCN: short-window fairness (extension) |
//! | [`pifo_demo`] | §2.2: TCN over a programmable PIFO scheduler (extension) |
//! | [`chaos`] | fault-injection study: FCT degradation under loss and link flaps (extension) |
//!
//! Every runner takes a [`common::Scale`] so the same code runs at CI
//! scale (seconds) and at paper scale (`--full`). The [`figs`] registry
//! exposes one entry point per figure; the `figs` binary dispatches
//! them as subcommands (`figs fig7`, `figs all`, `figs trace`, …) and
//! prints the tables — with `--json`, raw results for EXPERIMENTS.md
//! provenance. [`trace`] holds the JSONL telemetry sink and schema
//! validator behind `figs trace` / `figs check-trace`.
//!
//! Outside input enters in two places only: flags and `TCN_*` variables
//! through [`options::RunOptions::parse`], called once by each binary
//! and handed down, and files through the one reader in [`json`]. A run
//! is written one way, as a scenario document ([`scenario`]) whose
//! `base` is a [`config::ExperimentCfg`]; `tcnsim` and `figs scenario`
//! both read it, and it spells the switch port, durations and fault
//! knobs through one module, [`vocab`].
//!
//! Grid-shaped runners fan their independent cells out over [`runner`]'s
//! scoped thread pool; results merge in canonical cell order, so output
//! is byte-identical at any thread count (`--threads` / `TCN_THREADS`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod checkpoint;
pub mod common;
pub mod config;
pub mod json;
pub mod fairness;
pub mod fct_sweep;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod figs;
pub mod incast;
pub mod mixed;
pub mod options;
pub mod pifo_demo;
pub mod runner;
pub mod scenario;
pub mod trace;
pub mod vocab;

pub use common::{Scale, SchedKind, Scheme};
