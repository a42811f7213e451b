//! The FCT-versus-load studies: one parameterized runner regenerates
//! Figs. 6, 7, 8, 9 (testbed star) and 10, 11, 12, 13 (leaf-spine).
//!
//! Per cell (scheme × load): generate the flow set once per load from a
//! load-specific seed — every scheme replays the *identical* arrival
//! sequence — run to completion, and report the paper's FCT breakdown
//! (overall avg, small avg, small p99, large avg) plus timeout and drop
//! counts.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::impl_to_json;
use tcn_core::TcnError;
use tcn_net::{NetworkBuilder, NetworkSim, TaggingPolicy, TransportChoice, Watchdog};
use tcn_net::LeafSpineConfig;
use tcn_sim::{Rate, Rng, Time};
use tcn_stats::FctBreakdown;
use tcn_workloads::{gen_all_to_all, gen_many_to_one, Workload};

use crate::checkpoint::{fnv1a, Checkpoint};
use crate::common::{params, switch_port, Scale, SchedKind, Scheme};
use crate::json::{Json, ToJson};
use crate::runner::{run_cell_outcomes_with, quarantine, CellOutcome};

/// Which paper environment to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Environment {
    /// §6.1 testbed star: 9 hosts, 1 Gbps, web-search workload,
    /// many-to-one toward host 8.
    TestbedStar,
    /// §6.2 leaf-spine: all-to-all pairs over `n_services` services
    /// mixing all four workloads.
    LeafSpine {
        /// Fabric shape.
        cfg: LeafSpineConfig,
        /// Number of low-priority services.
        n_services: u8,
    },
}

/// Full experiment description for one figure.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Environment (star or fabric).
    pub env: Environment,
    /// Scheduler at every switch port.
    pub sched: SchedKind,
    /// Total egress queues per port.
    pub nqueues: usize,
    /// Transport.
    pub transport: TransportChoice,
    /// DSCP tagging (Fixed for isolation, PIAS for prioritization).
    pub tagging: TaggingPolicy,
    /// Per-port shared buffer in bytes.
    pub buffer: u64,
    /// Link rate (reference for load).
    pub rate: Rate,
}

impl SweepConfig {
    /// Fig. 6: inter-service isolation, DWRR, DCTCP (testbed).
    pub fn fig6() -> Self {
        SweepConfig {
            env: Environment::TestbedStar,
            sched: SchedKind::Dwrr {
                quantum: params::testbed::QUANTUM,
            },
            nqueues: 4,
            transport: TransportChoice::TestbedDctcp,
            tagging: TaggingPolicy::Fixed,
            buffer: params::testbed::BUFFER,
            rate: params::testbed::RATE,
        }
    }

    /// Fig. 7: same as Fig. 6 with WFQ.
    pub fn fig7() -> Self {
        SweepConfig {
            sched: SchedKind::Wfq,
            ..SweepConfig::fig6()
        }
    }

    /// Fig. 8: traffic prioritization, SP/DWRR + PIAS (testbed).
    pub fn fig8() -> Self {
        SweepConfig {
            sched: SchedKind::SpDwrr {
                quantum: params::testbed::QUANTUM,
            },
            nqueues: 5,
            tagging: TaggingPolicy::Pias {
                threshold: params::testbed::PIAS_THRESH,
            },
            ..SweepConfig::fig6()
        }
    }

    /// Fig. 9: same as Fig. 8 with SP/WFQ.
    pub fn fig9() -> Self {
        SweepConfig {
            sched: SchedKind::SpWfq,
            ..SweepConfig::fig8()
        }
    }

    /// Fig. 10: leaf-spine, SP/DWRR, DCTCP, PIAS.
    pub fn fig10(cfg: LeafSpineConfig) -> Self {
        SweepConfig {
            env: Environment::LeafSpine { cfg, n_services: 7 },
            sched: SchedKind::SpDwrr {
                quantum: params::sim::QUANTUM,
            },
            nqueues: 8,
            transport: TransportChoice::SimDctcp,
            tagging: TaggingPolicy::Pias {
                threshold: params::sim::PIAS_THRESH,
            },
            buffer: params::sim::BUFFER,
            rate: params::sim::RATE,
        }
    }

    /// Fig. 11: same as Fig. 10 with SP/WFQ.
    pub fn fig11(cfg: LeafSpineConfig) -> Self {
        SweepConfig {
            sched: SchedKind::SpWfq,
            ..SweepConfig::fig10(cfg)
        }
    }

    /// Fig. 12: Fig. 10 under ECN\*.
    pub fn fig12(cfg: LeafSpineConfig) -> Self {
        SweepConfig {
            transport: TransportChoice::SimEcnStar,
            ..SweepConfig::fig10(cfg)
        }
    }

    /// Fig. 13: Fig. 12 with 32 queues (1 SP + 31 services).
    pub fn fig13(cfg: LeafSpineConfig) -> Self {
        SweepConfig {
            env: Environment::LeafSpine {
                cfg,
                n_services: 31,
            },
            nqueues: 32,
            ..SweepConfig::fig12(cfg)
        }
    }

    /// The schemes each figure compares (paper §6 "Schemes compared";
    /// MQ-ECN only where the scheduler is pure round-robin).
    pub fn schemes(&self) -> Vec<Scheme> {
        let (tcn_t, red_k, codel_t, codel_i, mq) = match self.env {
            Environment::TestbedStar => (
                params::testbed::TCN_T,
                params::testbed::RED_K,
                params::testbed::CODEL_TARGET,
                params::testbed::CODEL_INTERVAL,
                params::testbed::TCN_T,
            ),
            Environment::LeafSpine { .. } => {
                let ecnstar = self.transport == TransportChoice::SimEcnStar;
                let (t, k) = if ecnstar {
                    (params::sim::TCN_T_ECNSTAR, params::sim::RED_K_ECNSTAR)
                } else {
                    (params::sim::TCN_T_DCTCP, params::sim::RED_K_DCTCP)
                };
                (
                    t,
                    k,
                    params::sim::CODEL_TARGET,
                    params::sim::CODEL_INTERVAL,
                    t,
                )
            }
        };
        let mut v = vec![
            Scheme::Tcn { threshold: tcn_t },
            Scheme::CoDel {
                target: codel_t,
                interval: codel_i,
            },
            Scheme::RedQueue { threshold: red_k },
        ];
        if self.sched.has_round() {
            v.push(Scheme::MqEcn { rtt_lambda: mq });
        }
        v
    }
}

/// One (scheme, load) cell.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Scheme name.
    pub scheme: String,
    /// Offered load.
    pub load: f64,
    /// Completed / registered flows.
    pub completed: usize,
    /// Registered flows.
    pub flows: usize,
    /// Overall average FCT (µs).
    pub overall_avg_us: f64,
    /// Small-flow average FCT (µs).
    pub small_avg_us: f64,
    /// Small-flow 99th-percentile FCT (µs).
    pub small_p99_us: f64,
    /// Large-flow average FCT (µs).
    pub large_avg_us: f64,
    /// RTO expiries of small flows.
    pub small_timeouts: u64,
    /// Packet drops across the fabric.
    pub drops: u64,
}
impl_to_json!(SweepCell { scheme, load, completed, flows, overall_avg_us, small_avg_us, small_p99_us, large_avg_us, small_timeouts, drops });

impl SweepCell {
    /// Parse back from a checkpoint payload — the exact inverse of
    /// `to_json`, so a resumed sweep re-renders recorded cells
    /// byte-identically.
    ///
    /// # Errors
    /// A description of the missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<SweepCell, String> {
        Ok(SweepCell {
            scheme: j.str_field("scheme")?.to_string(),
            load: j.f64_field("load")?,
            completed: j.int_field("completed")?,
            flows: j.int_field("flows")?,
            overall_avg_us: j.f64_field("overall_avg_us")?,
            small_avg_us: j.f64_field("small_avg_us")?,
            small_p99_us: j.f64_field("small_p99_us")?,
            large_avg_us: j.f64_field("large_avg_us")?,
            small_timeouts: j.u64_field("small_timeouts")?,
            drops: j.u64_field("drops")?,
        })
    }
}

/// A cell that failed every allowed attempt: excluded from `cells`,
/// reported here so the figure degrades instead of aborting.
#[derive(Debug, Clone)]
pub struct QuarantinedCell {
    /// Grid index of the failed cell.
    pub cell: usize,
    /// Scheme name.
    pub scheme: String,
    /// Offered load.
    pub load: f64,
    /// Attempts made before giving up.
    pub attempts: u64,
    /// Rendered final error (panic message, stall report, …).
    pub error: String,
}
impl_to_json!(QuarantinedCell { cell, scheme, load, attempts, error });

/// A whole figure's data.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// All healthy cells, scheme-major.
    pub cells: Vec<SweepCell>,
    /// Cells that failed every attempt (empty on a clean sweep).
    pub quarantined: Vec<QuarantinedCell>,
}
impl_to_json!(SweepResult { cells, quarantined });

impl SweepResult {
    /// Find a cell.
    pub fn cell(&self, scheme: &str, load: f64) -> Option<&SweepCell> {
        self.cells
            .iter()
            .find(|c| c.scheme == scheme && (c.load - load).abs() < 1e-9)
    }
}

/// Resilience knobs for a sweep run: worker count, bounded retry,
/// liveness watchdog, checkpoint/resume, and the fault-injection hooks
/// the end-to-end tests drive. The figures derive theirs from the process
/// options ([`crate::options::RunOptions::sweep`]).
#[derive(Debug, Clone)]
pub struct SweepOpts {
    /// Worker threads.
    pub threads: usize,
    /// Max attempts per cell (≥ 1); retries re-derive the cell's RNG
    /// streams from a per-attempt sub-seed.
    pub attempts: u32,
    /// Liveness watchdog installed on every cell's simulation.
    pub watchdog: Option<Watchdog>,
    /// Append completed cells to this JSONL file and skip cells already
    /// recorded by a compatible previous run.
    pub checkpoint: Option<PathBuf>,
    /// Exit the process (code 3) after this many newly-completed cells —
    /// the resume test's simulated kill.
    pub abort_after: Option<usize>,
    /// Panic in this grid cell on every attempt (fault-injection hook).
    pub inject_panic: Option<usize>,
}

/// Default stall budget: events dispatched at a single simulated
/// instant before a cell is declared stalled. Healthy cells stay orders
/// of magnitude below this; a zero-delay event loop crosses it fast.
pub const DEFAULT_STALL_BUDGET: u64 = 50_000_000;

impl Default for SweepOpts {
    fn default() -> Self {
        SweepOpts {
            threads: crate::runner::default_threads(),
            attempts: 1,
            watchdog: Some(Watchdog::new(DEFAULT_STALL_BUDGET)),
            checkpoint: None,
            abort_after: None,
            inject_panic: None,
        }
    }
}

impl SweepOpts {
    /// Same options with the checkpoint path set.
    pub fn with_checkpoint(mut self, path: PathBuf) -> Self {
        self.checkpoint = Some(path);
        self
    }
}

/// Build one (scheme, load-index) cell ready to run: the figure's
/// network with the cell's flow set registered. [`run_cell`] runs every
/// sweep cell through this, so a differential test that builds a cell
/// twice compares exactly what the figures simulate.
///
/// Attempt 0 uses the canonical per-load flow seed — every scheme at
/// one load replays the identical arrival sequence; retry attempt
/// `k > 0` re-derives the flow seed through `Rng::stream`, so a retried
/// cell replays a fresh but deterministic arrival sequence.
///
/// # Errors
/// [`TcnError`] from the network builder (broken topology, bad config).
pub fn build_cell(
    cfg: &SweepConfig,
    scale: &Scale,
    scheme: Scheme,
    li: usize,
    load: f64,
    attempt: u32,
) -> Result<NetworkSim, TcnError> {
    // SweepConfig is Copy, so the port factory can own everything it
    // needs for the builder's 'static closure.
    let c = *cfg;
    let port_seed = scale.seed;
    let mut sim = match cfg.env {
        Environment::TestbedStar => {
            NetworkBuilder::single_switch(9, cfg.rate, params::testbed::LINK_DELAY)
        }
        Environment::LeafSpine { cfg: ls, .. } => NetworkBuilder::leaf_spine(ls),
    }
    .transport(cfg.transport.config())
    .tagging(cfg.tagging)
    .port_factory(move || {
        switch_port(
            c.nqueues,
            Some(c.buffer),
            None,
            c.sched,
            scheme,
            c.rate,
            1500,
            port_seed,
        )
    })
    .build()?;

    let base_seed = scale.seed.wrapping_mul(1000).wrapping_add(li as u64);
    let flow_seed = if attempt == 0 {
        base_seed
    } else {
        Rng::stream(base_seed, u64::from(attempt)).next_u64()
    };
    let mut rng = Rng::new(flow_seed);
    let flows = match cfg.env {
        Environment::TestbedStar => {
            let senders: Vec<u32> = (0..8).collect();
            // Services: DSCPs 0..4 under plain isolation, 1..5 under
            // PIAS (queue 0 is the strict queue).
            let services: Vec<u8> = match cfg.tagging {
                TaggingPolicy::Fixed => (0..4).collect(),
                TaggingPolicy::Pias { .. } => (1..5).collect(),
            };
            gen_many_to_one(
                &mut rng,
                scale.flows,
                &senders,
                8,
                &Workload::WebSearch.cdf(),
                load,
                cfg.rate,
                &services,
                Time::ZERO,
            )
        }
        Environment::LeafSpine { cfg: ls, n_services } => {
            let cdfs: Vec<_> = Workload::ALL.iter().map(|w| w.cdf()).collect();
            gen_all_to_all(
                &mut rng,
                scale.flows,
                ls.num_hosts() as u32,
                &cdfs,
                load,
                cfg.rate,
                n_services,
                Time::ZERO,
            )
        }
    };
    for f in flows {
        sim.add_flow(f);
    }
    Ok(sim)
}

/// [`run_with_opts`] at the default options with an explicit worker
/// count (the determinism tests pin 1 vs N), treating setup failures
/// (broken topology, bad config) as fatal — cell-level faults still
/// quarantine instead of aborting.
pub fn run_schemes_with_threads(
    cfg: &SweepConfig,
    scale: &Scale,
    schemes: &[Scheme],
    threads: usize,
) -> SweepResult {
    let opts = SweepOpts {
        threads,
        ..SweepOpts::default()
    };
    run_with_opts(cfg, scale, schemes, &opts).expect("sweep harness failed")
}

/// The grid a sweep iterates, scheme-major: `(scheme, load index,
/// load)` per cell.
pub fn sweep_grid(scale: &Scale, schemes: &[Scheme]) -> Vec<(Scheme, usize, f64)> {
    schemes
        .iter()
        .flat_map(|&scheme| {
            scale
                .loads
                .iter()
                .enumerate()
                .map(move |(li, &load)| (scheme, li, load))
        })
        .collect()
}

/// Fingerprint of everything that shapes a sweep's numbers; resuming
/// from a checkpoint with a different fingerprint starts fresh.
fn config_fingerprint(cfg: &SweepConfig, scale: &Scale, schemes: &[Scheme]) -> u64 {
    let names: Vec<&str> = schemes.iter().map(|s| s.name()).collect();
    fnv1a(&format!(
        "{cfg:?}|flows={}|loads={:?}|seed={}|schemes={names:?}",
        scale.flows, scale.loads, scale.seed
    ))
}

/// Run the sweep for an explicit scheme list (a figure passes
/// [`SweepConfig::schemes`], ablations their own) under the full
/// resilience harness: per-cell panic isolation, deterministic bounded
/// retry, an optional liveness watchdog, and JSONL checkpoint/resume.
///
/// Cells fan out over [`crate::runner`]'s scoped thread pool: each
/// (scheme, load) cell is an independent simulation whose `Rng` streams
/// derive only from `scale.seed` and the load index, so the canonical
/// scheme-major merge order makes the result identical at any thread
/// count. Failed cells land in
/// [`SweepResult::quarantined`]; only harness-level faults (unwritable
/// checkpoint, corrupt recorded payload) surface as `Err`.
///
/// # Errors
/// [`TcnError::Config`] when the checkpoint file cannot be written or a
/// recorded payload does not parse back.
pub fn run_with_opts(
    cfg: &SweepConfig,
    scale: &Scale,
    schemes: &[Scheme],
    opts: &SweepOpts,
) -> Result<SweepResult, TcnError> {
    let grid = sweep_grid(scale, schemes);
    let (ckpt, done) = match &opts.checkpoint {
        Some(path) => {
            let hash = config_fingerprint(cfg, scale, schemes);
            let (c, d) = Checkpoint::open(path, hash, grid.len()).map_err(|e| {
                TcnError::config(format!("checkpoint {}: {e}", path.display()))
            })?;
            (Some(c), d)
        }
        None => (None, Default::default()),
    };
    let fresh = AtomicUsize::new(0);
    let outcomes = run_cell_outcomes_with(opts.threads, grid.len(), opts.attempts, |cell, attempt| {
        if let Some((_, payload)) = done.get(&cell) {
            // Completed by a previous run: reuse the recorded payload.
            return SweepCell::from_json(payload)
                .map_err(|e| TcnError::config(format!("checkpoint cell {cell}: {e}")));
        }
        if opts.inject_panic == Some(cell) {
            panic!("injected failure in cell {cell} (TCN_INJECT_PANIC)");
        }
        let (scheme, li, load) = grid[cell];
        let out = run_cell(cfg, scale, scheme, li, load, attempt, opts.watchdog.as_ref(), None)?;
        if let Some(ck) = &ckpt {
            ck.record(cell, attempt + 1, &out.to_json())
                .map_err(|e| TcnError::config(format!("checkpoint write: {e}")))?;
        }
        let n = fresh.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(limit) = opts.abort_after {
            if n >= limit {
                // The resume test's simulated kill: die exactly as
                // an OOM-killed or Ctrl-C'd sweep would, mid-grid.
                std::process::exit(3);
            }
        }
        Ok(out)
    });
    let quarantined = quarantine(&outcomes)
        .into_iter()
        .map(|(cell, attempts, error)| {
            let (scheme, _, load) = grid[cell];
            QuarantinedCell {
                cell,
                scheme: scheme.name().to_string(),
                load,
                attempts: u64::from(attempts),
                error: error.to_string(),
            }
        })
        .collect();
    let cells = outcomes
        .into_iter()
        .filter_map(CellOutcome::into_ok)
        .collect();
    Ok(SweepResult { cells, quarantined })
}

/// Run one (scheme, load-index) cell built by [`build_cell`],
/// optionally with a telemetry bus installed before the run.
#[allow(clippy::too_many_arguments)] // harness plumbing, two call sites
fn run_cell(
    cfg: &SweepConfig,
    scale: &Scale,
    scheme: Scheme,
    li: usize,
    load: f64,
    attempt: u32,
    watchdog: Option<&Watchdog>,
    bus: Option<&tcn_telemetry::Telemetry>,
) -> Result<SweepCell, TcnError> {
    let mut sim = build_cell(cfg, scale, scheme, li, load, attempt)?;
    if let Some(wd) = watchdog {
        sim.set_watchdog(wd.clone());
    }
    if let Some(bus) = bus {
        sim.install_telemetry(bus);
    }
    let done = sim.run_to_completion(Time::from_secs(10_000))?;
    if let Some(bus) = bus {
        bus.flush();
    }
    let records = sim.fct_records();
    let b = FctBreakdown::from_records(&records);
    debug_assert!(done, "flows did not finish");
    Ok(SweepCell {
        scheme: scheme.name().to_string(),
        load,
        completed: sim.completed_flows(),
        flows: sim.num_flows(),
        overall_avg_us: b.overall_avg_us,
        small_avg_us: b.small_avg_us,
        small_p99_us: b.small_p99_us,
        large_avg_us: b.large_avg_us,
        small_timeouts: b.small_timeouts,
        drops: sim.total_drops(),
    })
}

/// Run a single (scheme, load) cell with `bus` installed — the entry
/// point every tracing consumer uses (`figs trace`, the e2e JSONL test).
///
/// Telemetry handles are not `Send`, so a traced cell always runs on
/// the calling thread; the cell's RNG streams depend only on
/// `scale.seed` and the load index, so the numbers match the same cell
/// of a parallel untraced sweep exactly.
pub fn run_cell_traced(
    cfg: &SweepConfig,
    scale: &Scale,
    scheme: Scheme,
    load: f64,
    bus: &tcn_telemetry::Telemetry,
) -> SweepCell {
    let li = scale
        .loads
        .iter()
        .position(|&l| (l - load).abs() < 1e-9)
        .unwrap_or(0);
    run_cell(cfg, scale, scheme, li, load, 0, None, Some(bus)).expect("traced cell failed")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The figure's own scheme list at the default options.
    fn run(cfg: &SweepConfig, scale: &Scale) -> SweepResult {
        run_with_opts(cfg, scale, &cfg.schemes(), &SweepOpts::default()).expect("sweep harness")
    }

    /// Only the named schemes of the figure's list, at the default
    /// options: a test pays for no cell it does not assert on.
    fn run_only(cfg: &SweepConfig, scale: &Scale, names: &[&str]) -> SweepResult {
        let mut schemes = cfg.schemes();
        schemes.retain(|s| names.contains(&s.name()));
        assert_eq!(schemes.len(), names.len(), "{names:?} not all in the figure's list");
        run_with_opts(cfg, scale, &schemes, &SweepOpts::default()).expect("sweep harness")
    }

    /// The cross-figure shape assertions the paper repeats: TCN's small
    /// flows beat per-queue RED-with-standard-threshold at high load
    /// (avg and p99) while large flows stay within a few percent.
    fn assert_paper_shape(res: &SweepResult, load: f64, large_tol: f64) {
        let tcn = res.cell("TCN", load).expect("tcn cell");
        let red = res.cell("RED-queue(std)", load).expect("red cell");
        assert_eq!(tcn.completed, tcn.flows, "TCN flows incomplete");
        assert_eq!(red.completed, red.flows, "RED flows incomplete");
        assert!(
            tcn.small_avg_us < red.small_avg_us,
            "small avg: TCN {} vs RED {}",
            tcn.small_avg_us,
            red.small_avg_us
        );
        assert!(
            tcn.small_p99_us <= red.small_p99_us * 1.05,
            "small p99: TCN {} vs RED {}",
            tcn.small_p99_us,
            red.small_p99_us
        );
        let large_ratio = tcn.large_avg_us / red.large_avg_us;
        assert!(
            large_ratio < large_tol,
            "large avg ratio {large_ratio} (TCN {} vs RED {})",
            tcn.large_avg_us,
            red.large_avg_us
        );
    }

    #[test]
    fn fig6_shape_quick() {
        let scale = Scale {
            flows: 400,
            loads: &[0.8],
            seed: 1,
        };
        let res = run(&SweepConfig::fig6(), &scale);
        assert_eq!(res.cells.len(), 4); // TCN, CoDel, RED, MQ-ECN
        assert_paper_shape(&res, 0.8, 1.25);
    }

    #[test]
    fn fig7_excludes_mqecn() {
        let scale = Scale {
            flows: 200,
            loads: &[0.5],
            seed: 1,
        };
        let res = run(&SweepConfig::fig7(), &scale);
        assert!(
            res.cells.iter().all(|c| c.scheme != "MQ-ECN"),
            "MQ-ECN cannot run on WFQ (no round)"
        );
        assert_eq!(res.cells.len(), 3);
    }

    #[test]
    fn fig8_pias_shape_quick() {
        let scale = Scale {
            flows: 400,
            loads: &[0.8],
            seed: 1,
        };
        let res = run(&SweepConfig::fig8(), &scale);
        assert_paper_shape(&res, 0.8, 1.25);
        // PIAS gives small flows the strict queue: their average FCT
        // under TCN should be small in absolute terms too (paper:
        // ~1 ms at 90 % load).
        let tcn = res.cell("TCN", 0.8).unwrap();
        assert!(
            tcn.small_avg_us < 5_000.0,
            "PIAS small avg {}",
            tcn.small_avg_us
        );
    }

    // The three leaf-spine tests below were sized when the queue audit
    // recounted a whole FIFO on every push and pop (DESIGN §7.7): seed
    // 1's flow set draws a ~0.9 GB data-mining flow somewhere between
    // flow 60 and flow 70, whose host NIC queue made every size past it
    // cost minutes. The audit is amortized O(1) now.

    /// The paper's shape needs congestion, so this one keeps its 600
    /// flows (TCN's small-flow avg is 12 % under RED's here; at 60 flows
    /// the two are within 1 %) and sheds only the CoDel cell, which it
    /// never asserted on. Catches a TCN that stops marking.
    #[test]
    fn fig10_leafspine_small_shape() {
        let scale = Scale {
            flows: 600,
            loads: &[0.7],
            seed: 1,
        };
        let cfg = SweepConfig::fig10(LeafSpineConfig::small());
        let res = run_only(&cfg, &scale, &["TCN", "RED-queue(std)"]);
        assert_paper_shape(&res, 0.7, 1.3);
    }

    /// TCN under ECN\* on the fabric, 60 flows: no elephant, and the
    /// queues still cross ECN\*'s threshold, so a TCN that drops where
    /// it should mark trips the audit's mark-only contract.
    #[test]
    fn fig12_ecnstar_runs() {
        let scale = Scale {
            flows: 60,
            loads: &[0.5],
            seed: 1,
        };
        let res = run_only(&SweepConfig::fig12(LeafSpineConfig::small()), &scale, &["TCN"]);
        let tcn = res.cell("TCN", 0.5).unwrap();
        assert_eq!(tcn.completed, tcn.flows);
    }

    /// TCN on 32-queue ports, 60 flows: ten of them outgrow PIAS's
    /// first band on services 8–31, so a scheduler sized for fig. 10's
    /// eight queues fails here.
    #[test]
    fn fig13_many_queues_runs() {
        let scale = Scale {
            flows: 60,
            loads: &[0.5],
            seed: 1,
        };
        let res = run_only(&SweepConfig::fig13(LeafSpineConfig::small()), &scale, &["TCN"]);
        let tcn = res.cell("TCN", 0.5).unwrap();
        assert_eq!(tcn.completed, tcn.flows);
    }

    #[test]
    fn parallel_sweep_is_thread_count_invariant() {
        // The determinism contract behind the parallel runner: the
        // rendered result (down to float formatting) is identical
        // whether the grid runs on 1 worker or many.
        use crate::json::ToJson;
        let scale = Scale {
            flows: 120,
            loads: &[0.4, 0.7],
            seed: 3,
        };
        let cfg = SweepConfig::fig6();
        let schemes = cfg.schemes();
        let serial = run_schemes_with_threads(&cfg, &scale, &schemes, 1);
        for threads in [4, 8] {
            let par = run_schemes_with_threads(&cfg, &scale, &schemes, threads);
            assert_eq!(
                serial.to_json().pretty(),
                par.to_json().pretty(),
                "{threads}-thread sweep diverged from serial"
            );
        }
    }

    #[test]
    fn traced_cell_is_byte_identical_to_untraced() {
        // The zero-cost-when-off contract, end to end: installing a
        // telemetry bus (events recorded into memory) must not change a
        // single rendered byte of the figure's numbers.
        use crate::json::ToJson;
        use tcn_telemetry::{MemorySink, Telemetry};
        let scale = Scale {
            flows: 150,
            loads: &[0.6],
            seed: 2,
        };
        let cfg = SweepConfig::fig6();
        let schemes = cfg.schemes();
        let plain = run(&cfg, &scale);
        let bus = Telemetry::new();
        let mem = MemorySink::new();
        bus.add_sink(Box::new(mem.handle()));
        let traced = run_cell_traced(&cfg, &scale, schemes[0], 0.6, &bus);
        assert_eq!(
            plain.cells[0].to_json().pretty(),
            traced.to_json().pretty(),
            "telemetry observed the run but changed its output"
        );
        assert!(!mem.is_empty(), "traced run must actually emit events");
    }

    #[test]
    fn injected_panic_quarantines_cell_only() {
        let scale = Scale {
            flows: 60,
            loads: &[0.4],
            seed: 5,
        };
        let cfg = SweepConfig::fig7(); // 3 schemes → 3 cells
        let schemes = cfg.schemes();
        let opts = SweepOpts {
            threads: 2,
            inject_panic: Some(1),
            ..SweepOpts::default()
        };
        let res = run_with_opts(&cfg, &scale, &schemes, &opts).expect("harness");
        assert_eq!(res.cells.len(), 2, "healthy cells must survive");
        assert_eq!(res.quarantined.len(), 1);
        let q = &res.quarantined[0];
        assert_eq!(q.cell, 1);
        assert_eq!(q.scheme, schemes[1].name());
        assert!(q.error.contains("injected failure"), "{}", q.error);
    }

    #[test]
    fn watchdog_total_budget_quarantines_with_stall_report() {
        let scale = Scale {
            flows: 60,
            loads: &[0.4],
            seed: 5,
        };
        let cfg = SweepConfig::fig7();
        let schemes = cfg.schemes();
        let opts = SweepOpts {
            threads: 1,
            watchdog: Some(
                tcn_net::Watchdog::new(DEFAULT_STALL_BUDGET).with_total_budget(200),
            ),
            ..SweepOpts::default()
        };
        let res = run_with_opts(&cfg, &scale, &schemes, &opts).expect("harness");
        assert!(res.cells.is_empty(), "200 events cannot finish any cell");
        assert_eq!(res.quarantined.len(), schemes.len());
        for q in &res.quarantined {
            assert!(q.error.contains("runaway event loop"), "{}", q.error);
            assert!(q.error.contains("top events:"), "{}", q.error);
        }
    }

    #[test]
    fn checkpoint_resume_is_byte_identical() {
        use crate::json::ToJson;
        let scale = Scale {
            flows: 80,
            loads: &[0.4, 0.6],
            seed: 5,
        };
        let cfg = SweepConfig::fig7();
        let schemes = cfg.schemes(); // 3 schemes × 2 loads = 6 cells
        let control = run_with_opts(
            &cfg,
            &scale,
            &schemes,
            &SweepOpts {
                threads: 2,
                ..SweepOpts::default()
            },
        )
        .expect("control sweep");
        let path = std::env::temp_dir().join(format!(
            "tcn-sweep-resume-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let opts = SweepOpts {
            threads: 2,
            ..SweepOpts::default()
        }
        .with_checkpoint(path.clone());
        // Full checkpointed run matches the uncheckpointed control.
        let full = run_with_opts(&cfg, &scale, &schemes, &opts).expect("checkpointed sweep");
        assert_eq!(control.to_json().pretty(), full.to_json().pretty());
        // Simulate a kill after three completed cells: truncate the
        // checkpoint to header + 3 records, then resume.
        let text = std::fs::read_to_string(&path).expect("read checkpoint");
        assert_eq!(text.lines().count(), 7, "header + 6 cells");
        let keep: Vec<&str> = text.lines().take(4).collect();
        std::fs::write(&path, keep.join("\n") + "\n").expect("truncate");
        let resumed = run_with_opts(&cfg, &scale, &schemes, &opts).expect("resumed sweep");
        assert_eq!(
            control.to_json().pretty(),
            resumed.to_json().pretty(),
            "resumed sweep must be byte-identical to an uninterrupted run"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retry_attempt_changes_flow_seed_deterministically() {
        // A retried cell must replay a *different* arrival sequence
        // (fresh sub-seed) but the same one every time (deterministic).
        let scale = Scale {
            flows: 50,
            loads: &[0.5],
            seed: 9,
        };
        let cfg = SweepConfig::fig7();
        let scheme = cfg.schemes()[0];
        let cell = |attempt| {
            run_cell(&cfg, &scale, scheme, 0, 0.5, attempt, None, None).expect("cell")
        };
        let a0 = cell(0);
        let a1 = cell(1);
        let a1_again = cell(1);
        use crate::json::ToJson;
        assert_eq!(a1.to_json().pretty(), a1_again.to_json().pretty());
        assert_ne!(
            a0.to_json().pretty(),
            a1.to_json().pretty(),
            "attempt 1 must re-derive the flow seed"
        );
    }

    #[test]
    fn same_flow_set_across_schemes() {
        // The comparison discipline: per load, every scheme must see the
        // same arrivals. We verify indirectly: flow counts equal and
        // total registered equal.
        let scale = Scale {
            flows: 150,
            loads: &[0.5],
            seed: 9,
        };
        let res = run(&SweepConfig::fig7(), &scale);
        for c in &res.cells {
            assert_eq!(c.flows, 150);
        }
    }
}
