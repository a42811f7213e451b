//! The chaos experiment: TCN under deterministic fault injection.
//!
//! The paper evaluates TCN on healthy fabrics; this extension asks what
//! happens on unhealthy ones. We sweep Bernoulli packet-loss rates and
//! a mid-run leaf→spine link flap over the small leaf-spine fabric
//! under SP/DWRR, comparing TCN against CoDel and per-queue RED, and
//! report FCT degradation curves plus recovery accounting (timeouts,
//! retransmissions, goodput). The claims under test:
//!
//! 1. **graceful degradation** — FCTs worsen smoothly with loss, with
//!    no scheme-specific collapse (TCN keeps its small-flow edge);
//! 2. **full recovery** — every flow completes on every cell: RTO
//!    backoff plus ECMP reconvergence always drain the fabric;
//! 3. **determinism** — a cell replays bit-identically for a seed, and
//!    the zero-fault cell matches a run with no fault plan installed.

use crate::common::{params, switch_port, Scale, SchedKind, Scheme};
use crate::fct_sweep::SweepOpts;
use crate::impl_to_json;
use crate::runner::{quarantine, run_cell_outcomes_with, CellOutcome};
use tcn_core::TcnError;
use tcn_net::{leaf_spine, LeafSpineConfig, NetworkSim, TaggingPolicy, TransportChoice, Watchdog};
use tcn_sim::{FaultPlan, LinkFlap, Rng, Time};
use tcn_stats::{FctBreakdown, RecoverySummary};
use tcn_workloads::{gen_all_to_all, Workload};

/// The fault sweep: which losses and flaps to cross with the schemes.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Fabric shape.
    pub cfg: LeafSpineConfig,
    /// Scheduler at every switch port.
    pub sched: SchedKind,
    /// Egress queues per port.
    pub nqueues: usize,
    /// Low-priority services sharing the DWRR queues.
    pub n_services: u8,
    /// Offered load on each host link.
    pub load: f64,
    /// Bernoulli per-packet loss rates to sweep (0 = healthy wire).
    pub loss_rates: &'static [f64],
    /// When true, each loss rate also runs with a mid-run flap of the
    /// first leaf→spine uplink (down 2 ms, up 10 ms, detection 100 µs).
    pub with_flap: bool,
}

impl ChaosConfig {
    /// The default chaos study: small leaf-spine, SP/DWRR, DCTCP, the
    /// standard loss ladder, flap on.
    pub fn paper_default() -> Self {
        ChaosConfig {
            cfg: LeafSpineConfig::small(),
            sched: SchedKind::SpDwrr {
                quantum: params::sim::QUANTUM,
            },
            nqueues: 8,
            n_services: 7,
            load: 0.5,
            loss_rates: &[0.0, 0.001, 0.01],
            with_flap: true,
        }
    }

    /// The schemes compared (same trio as the FCT sweeps; MQ-ECN is
    /// skipped because SP/DWRR is not pure round-robin).
    pub fn schemes(&self) -> Vec<Scheme> {
        vec![
            Scheme::Tcn {
                threshold: params::sim::TCN_T_DCTCP,
            },
            Scheme::CoDel {
                target: params::sim::CODEL_TARGET,
                interval: params::sim::CODEL_INTERVAL,
            },
            Scheme::RedQueue {
                threshold: params::sim::RED_K_DCTCP,
            },
        ]
    }
}

/// One (scheme, loss, flap) cell of the chaos grid.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Scheme name.
    pub scheme: String,
    /// Bernoulli per-packet loss rate on every link.
    pub loss: f64,
    /// Whether the leaf→spine flap was active.
    pub flap: bool,
    /// Registered flows.
    pub flows: usize,
    /// Completed flows (the recovery claim: always == `flows`).
    pub completed: usize,
    /// Overall average FCT (µs).
    pub overall_avg_us: f64,
    /// Small-flow average FCT (µs).
    pub small_avg_us: f64,
    /// Small-flow 99th-percentile FCT (µs).
    pub small_p99_us: f64,
    /// Large-flow average FCT (µs).
    pub large_avg_us: f64,
    /// RTO expiries across all flows.
    pub timeouts: u64,
    /// Fast retransmits across all flows.
    pub fast_retransmits: u64,
    /// Retransmitted packets across all flows.
    pub rtx_packets: u64,
    /// Retransmitted fraction of payload bytes on the wire.
    pub rtx_fraction: f64,
    /// Application goodput in Mbps (delivered bytes over the run span).
    pub goodput_mbps: f64,
    /// Random losses injected by the fault plan.
    pub loss_drops: u64,
    /// Packets blackholed on the dead link while it was down.
    pub dead_link_drops: u64,
    /// Queue-full drops at the ports (congestion, not faults).
    pub port_drops: u64,
    /// Routing reconvergence events (2 when the flap ran: down + up).
    pub reconvergences: u64,
}
impl_to_json!(ChaosCell {
    scheme,
    loss,
    flap,
    flows,
    completed,
    overall_avg_us,
    small_avg_us,
    small_p99_us,
    large_avg_us,
    timeouts,
    fast_retransmits,
    rtx_packets,
    rtx_fraction,
    goodput_mbps,
    loss_drops,
    dead_link_drops,
    port_drops,
    reconvergences
});

/// A chaos cell that failed every attempt and was quarantined.
#[derive(Debug, Clone)]
pub struct QuarantinedChaosCell {
    /// Canonical cell index in the grid.
    pub cell: usize,
    /// Scheme name.
    pub scheme: String,
    /// Bernoulli loss rate of the cell.
    pub loss: f64,
    /// Whether the flap was active.
    pub flap: bool,
    /// Attempts made before giving up.
    pub attempts: u64,
    /// The final attempt's failure, rendered.
    pub error: String,
}
impl_to_json!(QuarantinedChaosCell {
    cell,
    scheme,
    loss,
    flap,
    attempts,
    error
});

/// The whole chaos grid.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// Surviving cells, scheme-major, loss-minor, flap-innermost.
    pub cells: Vec<ChaosCell>,
    /// Cells that failed every attempt, in canonical order.
    pub quarantined: Vec<QuarantinedChaosCell>,
}
impl_to_json!(ChaosResult { cells, quarantined });

impl ChaosResult {
    /// Find a cell.
    pub fn cell(&self, scheme: &str, loss: f64, flap: bool) -> Option<&ChaosCell> {
        self.cells
            .iter()
            .find(|c| c.scheme == scheme && (c.loss - loss).abs() < 1e-12 && c.flap == flap)
    }
}

fn build_sim(cc: &ChaosConfig, scheme: Scheme, seed: u64) -> Result<NetworkSim, TcnError> {
    let mk = || {
        switch_port(
            cc.nqueues,
            Some(params::sim::BUFFER),
            None,
            cc.sched,
            scheme,
            params::sim::RATE,
            params::sim::MTU,
            seed,
        )
    };
    leaf_spine(
        cc.cfg,
        TransportChoice::SimDctcp.config(),
        TaggingPolicy::Fixed,
        mk,
    )
}

/// The fault plan for one cell: uniform Bernoulli loss, plus the flap
/// of leaf 0's uplink to spine 0 when requested. Faults draw from a
/// seed decorrelated from the workload seed.
fn fault_plan(cc: &ChaosConfig, loss: f64, flap: bool, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::uniform_loss(seed ^ 0xFA_0717, loss)
        .with_detection_delay(Time::from_us(100));
    if flap {
        let uplink = cc.cfg.num_hosts() as u32 * 2; // leaf0 -> spine0
        plan = plan.with_flap(LinkFlap {
            link: uplink,
            down_at: Time::from_ms(2),
            up_at: Some(Time::from_ms(10)),
        });
    }
    plan
}

/// Run one cell to completion and measure it. The watchdog (when given)
/// guards against a stalled or runaway event loop; a trip surfaces as
/// [`TcnError::Stall`] and quarantines the cell instead of hanging the
/// whole grid.
fn run_cell(
    cc: &ChaosConfig,
    scheme: Scheme,
    loss: f64,
    flap: bool,
    scale: &Scale,
    watchdog: Option<&Watchdog>,
) -> Result<ChaosCell, TcnError> {
    // The flow set depends only on the workload seed: every scheme and
    // every fault level replays the identical arrival sequence, so the
    // columns of the degradation curve are comparable.
    let mut rng = Rng::new(scale.seed.wrapping_mul(1000));
    let cdfs: Vec<_> = Workload::ALL.iter().map(|w| w.cdf()).collect();
    let flows = gen_all_to_all(
        &mut rng,
        scale.flows,
        cc.cfg.num_hosts() as u32,
        &cdfs,
        cc.load,
        params::sim::RATE,
        cc.n_services,
        Time::ZERO,
    );
    let mut sim = build_sim(cc, scheme, scale.seed)?;
    if let Some(wd) = watchdog {
        sim.set_watchdog(wd.clone());
    }
    for f in &flows {
        sim.add_flow(*f);
    }
    sim.install_faults(&fault_plan(cc, loss, flap, scale.seed));
    let done = sim.run_to_completion(Time::from_secs(10_000))?;
    debug_assert!(done, "chaos cell did not drain");

    let records = sim.fct_records();
    let b = FctBreakdown::from_records(&records);
    let elapsed = records
        .iter()
        .map(|r| r.finish)
        .max()
        .unwrap_or(Time::ZERO);
    let rec = RecoverySummary {
        delivered_bytes: sim.total_delivered_bytes(),
        rtx_packets: sim.total_retransmitted_packets(),
        rtx_bytes: sim.total_retransmitted_bytes(),
        timeouts: sim.total_timeouts(),
        fast_retransmits: sim.total_fast_retransmits(),
        elapsed,
    };
    let fs = sim.fault_stats();
    Ok(ChaosCell {
        scheme: scheme.name().to_string(),
        loss,
        flap,
        flows: sim.num_flows(),
        completed: sim.completed_flows(),
        overall_avg_us: b.overall_avg_us,
        small_avg_us: b.small_avg_us,
        small_p99_us: b.small_p99_us,
        large_avg_us: b.large_avg_us,
        timeouts: rec.timeouts,
        fast_retransmits: rec.fast_retransmits,
        rtx_packets: rec.rtx_packets,
        rtx_fraction: rec.rtx_fraction(),
        goodput_mbps: rec.goodput_bps() / 1e6,
        loss_drops: fs.loss_drops,
        dead_link_drops: fs.dead_link_drops,
        port_drops: sim.total_drops(),
        reconvergences: fs.reconvergences,
    })
}

/// Run the full chaos grid. Cells are independent simulations, so they
/// fan out over [`crate::runner`]'s deterministic pool; the canonical
/// scheme-major merge keeps output identical at any thread count.
///
/// Every cell runs under panic isolation with `opts`' worker count,
/// retry budget and stall watchdog; a cell that fails every attempt
/// lands in [`ChaosResult::quarantined`] while the rest of the grid
/// completes.
pub fn run(cc: &ChaosConfig, scale: &Scale, opts: &SweepOpts) -> ChaosResult {
    let flaps: &[bool] = if cc.with_flap {
        &[false, true]
    } else {
        &[false]
    };
    let grid: Vec<(Scheme, f64, bool)> = cc
        .schemes()
        .iter()
        .flat_map(|&scheme| {
            cc.loss_rates.iter().flat_map(move |&loss| {
                flaps.iter().map(move |&flap| (scheme, loss, flap))
            })
        })
        .collect();
    let outcomes = run_cell_outcomes_with(opts.threads, grid.len(), opts.attempts, |i, _attempt| {
        let (scheme, loss, flap) = grid[i];
        run_cell(cc, scheme, loss, flap, scale, opts.watchdog.as_ref())
    });
    let quarantined = quarantine(&outcomes)
        .into_iter()
        .map(|(i, attempts, error)| {
            let (scheme, loss, flap) = grid[i];
            QuarantinedChaosCell {
                cell: i,
                scheme: scheme.name().to_string(),
                loss,
                flap,
                attempts: u64::from(attempts),
                error: error.to_string(),
            }
        })
        .collect();
    let cells = outcomes.into_iter().filter_map(CellOutcome::into_ok).collect();
    ChaosResult { cells, quarantined }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;

    fn tiny_scale() -> Scale {
        Scale {
            flows: 150,
            loads: &[0.5],
            seed: 3,
        }
    }

    fn tiny_cfg() -> ChaosConfig {
        ChaosConfig {
            loss_rates: &[0.0, 0.01],
            ..ChaosConfig::paper_default()
        }
    }

    #[test]
    fn chaos_cell_is_deterministic() {
        // One lossy + flapping cell, run twice: the JSON must replay
        // byte-identically (the grid is just a loop over such cells).
        let cc = tiny_cfg();
        let scheme = cc.schemes()[0];
        let a = run_cell(&cc, scheme, 0.01, true, &tiny_scale(), None).expect("cell");
        let b = run_cell(&cc, scheme, 0.01, true, &tiny_scale(), None).expect("cell");
        assert_eq!(
            a.to_json().pretty(),
            b.to_json().pretty(),
            "same seed must replay byte-identically"
        );
    }

    #[test]
    fn zero_fault_cell_matches_plain_run() {
        // loss 0 + no flap draws nothing from the fault RNG, so the
        // cell must agree exactly with a run that never installed a
        // fault plan at all.
        let cc = ChaosConfig {
            loss_rates: &[0.0],
            with_flap: false,
            ..ChaosConfig::paper_default()
        };
        let scale = tiny_scale();
        let scheme = cc.schemes()[0];
        let with_plan = run_cell(&cc, scheme, 0.0, false, &scale, None).expect("cell");

        let mut rng = Rng::new(scale.seed.wrapping_mul(1000));
        let cdfs: Vec<_> = Workload::ALL.iter().map(|w| w.cdf()).collect();
        let flows = gen_all_to_all(
            &mut rng,
            scale.flows,
            cc.cfg.num_hosts() as u32,
            &cdfs,
            cc.load,
            params::sim::RATE,
            cc.n_services,
            Time::ZERO,
        );
        let mut plain = build_sim(&cc, scheme, scale.seed).expect("build");
        for f in &flows {
            plain.add_flow(*f);
        }
        assert!(plain.run_to_completion(Time::from_secs(10_000)).expect("run"));
        let fcts: Vec<u64> = plain.fct_records().iter().map(|r| r.fct.as_ps()).collect();
        let b = FctBreakdown::from_records(&plain.fct_records());

        assert_eq!(with_plan.completed, fcts.len());
        assert_eq!(with_plan.overall_avg_us, b.overall_avg_us);
        assert_eq!(with_plan.small_p99_us, b.small_p99_us);
        assert_eq!(with_plan.loss_drops, 0);
        assert_eq!(with_plan.dead_link_drops, 0);
    }

    #[test]
    fn every_flow_recovers_in_every_cell() {
        let cc = tiny_cfg();
        let res = run(&cc, &tiny_scale(), &SweepOpts::default());
        assert_eq!(res.cells.len(), 3 * 2 * 2);
        for c in &res.cells {
            assert_eq!(
                c.completed, c.flows,
                "{} loss={} flap={}: unfinished flows",
                c.scheme, c.loss, c.flap
            );
            if c.flap {
                assert_eq!(c.reconvergences, 2, "{}: flap must reconverge twice", c.scheme);
            }
            if c.loss > 0.0 {
                assert!(c.loss_drops > 0, "{}: loss drew nothing", c.scheme);
                assert!(c.rtx_packets > 0, "{}: lost data never re-sent", c.scheme);
            }
        }
        // Degradation is monotone in expectation: lossy cells time out
        // at least as much as the clean ones, summed over schemes.
        let sum = |loss: f64, flap: bool| -> u64 {
            res.cells
                .iter()
                .filter(|c| (c.loss - loss).abs() < 1e-12 && c.flap == flap)
                .map(|c| c.timeouts)
                .sum()
        };
        assert!(
            sum(0.01, false) >= sum(0.0, false),
            "loss reduced timeouts?"
        );
    }
}
