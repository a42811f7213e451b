//! The five sized workloads, hand-assembled from public API only.
//!
//! Each workload is a fixed list of *cells* (one simulation each) run
//! back to back. A cell mirrors what the figure code does for the same
//! configuration — `fct_sweep`'s private `build_sim`/`gen_flows` for the
//! sweep cells, `mixed`'s private `build` for the tenant cells — so the
//! stages can be timed one by one; `verify` shows the mirror is exact.
//!
//! The harness runs the shipped defaults: it reads no `TCN_*` variable
//! and never touches the dispatch-mode or hybrid switches.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tcn_baselines::QueueCap;
use tcn_core::{FlowId, TcnError};
use tcn_experiments::common::{params, switch_port, SchedKind, Scheme};
use tcn_experiments::fct_sweep::{Environment, SweepConfig, DEFAULT_STALL_BUDGET};
use tcn_experiments::json::{Json, ToJson};
use tcn_experiments::mixed::{jain, TENANTS};
use tcn_net::{
    single_switch, FctRecord, FlowSpec, LeafSpineConfig, NetMutation, NetworkBuilder, NetworkSim,
    PortSetup, TaggingPolicy, TransportChoice, Watchdog,
};
use tcn_sim::{FaultPlan, LinkFaultProfile, LinkFlap, Rate, Rng, Time};
use tcn_stats::FctBreakdown;
use tcn_transport::{Cc, TcpConfig};
use tcn_workloads::{gen_all_to_all, gen_incast, gen_many_to_one, Workload as SizeWorkload};

use crate::spans::Tracer;

/// Run deadline in simulated time; a flow unfinished by then has failed.
const DEADLINE: Time = Time::from_secs(10_000);

/// Steps every rep after the warm-up advances a cell's run in, each
/// timed on its own (and a span of its own in the traced rep).
pub const RUN_SLICES: u64 = 20;

/// The sizes that define the workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// `incast_fifo`: 32 → 1 waves.
    pub incast_waves: usize,
    /// `star_mq`: flows in each of its five cells.
    pub star_flows: usize,
    /// `fabric_paper`: flows of the fig10 (8 queues) cell.
    pub fig10_flows: usize,
    /// `fabric_paper`: flows of the fig13 (32 queues) cell.
    pub fig13_flows: usize,
    /// `fabric_faults`: flows.
    pub faults_flows: usize,
    /// `mixed_cc`: simulated time of each of its two cells.
    pub mixed_sim: Time,
    /// Seed of the sweep cells' traffic *shape* — every flow's size,
    /// endpoints and class; `None` draws it from the run's seed like the
    /// arrival times, which is exactly the figure code's flow set.
    pub shape_seed: Option<u64>,
}

impl Sizes {
    /// The benchmark's sizes: one rep of each workload takes about
    /// 3.5 s on the 2-core reference host, so a run of a warm-up rep and
    /// four timed ones takes about 18 s.
    ///
    /// The sweep cells' traffic shape is part of the size, not of the
    /// seed. The paper's CDFs are so heavy-tailed that a few hundred
    /// draws differ by ±50 % in total bytes from seed to seed (one 1 GB
    /// data-mining flow outweighs the rest), and where such a flow
    /// lands decides its hop count (2 within a leaf, 4 across) and how
    /// deep a host NIC queues (12 to 83 MB peak RSS), so no time or
    /// memory metric could hold a bound across seeds. The run's seed
    /// redraws every arrival time and the fault plan. At `--seed 1` the
    /// flow sets are the figure code's.
    pub const BENCH: Sizes = Sizes {
        incast_waves: 610,
        star_flows: 500,
        fig10_flows: 200,
        fig13_flows: 195,
        faults_flows: 260,
        mixed_sim: Time::from_secs(21),
        shape_seed: Some(1),
    };

    /// What `verify` compares against the figure code: 200 flows a
    /// cell, a 200 ms tenant window.
    pub const VERIFY: Sizes = Sizes {
        incast_waves: 8,
        star_flows: 200,
        fig10_flows: 200,
        fig13_flows: 200,
        faults_flows: 200,
        mixed_sim: Time::from_ms(200),
        shape_seed: None,
    };

    /// Every size divided by `div` (the unit tests run 1/50 scale).
    #[cfg(test)]
    pub fn div(self, div: u64) -> Sizes {
        let n = |full: usize| (full as u64 / div).max(8) as usize;
        Sizes {
            incast_waves: n(self.incast_waves),
            star_flows: n(self.star_flows),
            fig10_flows: n(self.fig10_flows),
            fig13_flows: n(self.fig13_flows),
            faults_flows: n(self.faults_flows),
            mixed_sim: self.mixed_sim / div,
            shape_seed: self.shape_seed,
        }
    }
}

const INCAST_FANOUT: u32 = 32;
const INCAST_GAP_MS: u64 = 30;
const INCAST_MIN_BYTES: u64 = 128 * 1024;
const INCAST_MAX_BYTES: u64 = 384 * 1024;
const STAR_LOAD: f64 = 0.8;
const FABRIC_LOAD: f64 = 0.7;
const FAULTS_LOAD: f64 = 0.5;
const FAULTS_LOSS: f64 = 0.002;
const FAULTS_JITTER_PROB: f64 = 0.01;
const FAULTS_JITTER_MAX: Time = Time::from_us(20);
const FAULTS_FLAPS: u64 = 20;
const FAULTS_FLAP_PERIOD: Time = Time::from_ms(10);
const FAULTS_FLAP_DOWN: Time = Time::from_ms(4);
const FAULTS_DETECTION: Time = Time::from_us(100);
const FAULTS_BROWNOUT_AT: Time = Time::from_ms(20);
const FAULTS_RESTORE_AT: Time = Time::from_ms(60);
const FAULTS_BROWNOUT_RATE: Rate = Rate::from_gbps(1);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 32 → 1 synchronized waves through one FIFO + TCN queue.
    IncastFifo,
    /// The testbed star under five scheduler × AQM combinations.
    StarMq,
    /// The paper's 144-host leaf-spine, fig10 and fig13 configurations.
    FabricPaper,
    /// The same fabric under loss, jitter, flaps and rate steps.
    FabricFaults,
    /// DCTCP, CUBIC and BBR tenants behind one scheduler.
    MixedCc,
}

impl Workload {
    /// All five, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::IncastFifo,
        Workload::StarMq,
        Workload::FabricPaper,
        Workload::FabricFaults,
        Workload::MixedCc,
    ];

    /// The name used on the command line and in every result file.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IncastFifo => "incast_fifo",
            Workload::StarMq => "star_mq",
            Workload::FabricPaper => "fabric_paper",
            Workload::FabricFaults => "fabric_faults",
            Workload::MixedCc => "mixed_cc",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on which layers this workload loads and why it exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::IncastFifo => {
                "dense same-timestamp batches on all-FIFO ports: event queue, dispatch and wake \
                 coalescing do the work, scheduler/AQM almost none; most per-flow state"
            }
            Workload::StarMq => {
                "multi-queue classify/admit/AQM/scheduler does the most work per packet; one port \
                 layer used five ways (enqueue vs dequeue marking, round-robin vs timestamp)"
            }
            Workload::FabricPaper => {
                "paper-scale 144-host leaf-spine: multi-hop forwarding, ECMP picks and per-port \
                 state with 8 and 32 queues dominate; nothing is FIFO-cheap"
            }
            Workload::FabricFaults => {
                "same fabric with loss, jitter, link flaps and rate steps: fault plane, \
                 reconvergence and transport loss recovery do work that is zero elsewhere"
            }
            Workload::MixedCc => {
                "long DCTCP/CUBIC/BBR flows in steady state: the only run of the non-DCTCP \
                 congestion-control hooks, with no per-flow set-up or tear-down"
            }
        }
    }

    /// The benchmark sizes and fixed parameters of the workload, for
    /// the manifest.
    pub fn constants(self) -> Json {
        let z = Sizes::BENCH;
        match self {
            Workload::IncastFifo => Json::obj(vec![
                ("hosts", (INCAST_FANOUT + 1).to_json()),
                ("waves", z.incast_waves.to_json()),
                ("wave_gap_ms", INCAST_GAP_MS.to_json()),
                ("flow_bytes_min", INCAST_MIN_BYTES.to_json()),
                ("flow_bytes_max", INCAST_MAX_BYTES.to_json()),
            ]),
            Workload::StarMq => Json::obj(vec![
                ("cells", self.cells(&z).len().to_json()),
                ("flows_per_cell", z.star_flows.to_json()),
                ("load", STAR_LOAD.to_json()),
            ]),
            Workload::FabricPaper => Json::obj(vec![
                ("fig10_flows", z.fig10_flows.to_json()),
                ("fig13_flows", z.fig13_flows.to_json()),
                ("load", FABRIC_LOAD.to_json()),
            ]),
            Workload::FabricFaults => Json::obj(vec![
                ("flows", z.faults_flows.to_json()),
                ("load", FAULTS_LOAD.to_json()),
                ("loss", FAULTS_LOSS.to_json()),
                ("jitter_prob", FAULTS_JITTER_PROB.to_json()),
                ("jitter_max_us", FAULTS_JITTER_MAX.as_us().to_json()),
                ("flaps", FAULTS_FLAPS.to_json()),
                ("rate_steps", 2u64.to_json()),
            ]),
            Workload::MixedCc => Json::obj(vec![
                ("cells", self.cells(&z).len().to_json()),
                ("flows_per_cell", (2 * TENANTS.len()).to_json()),
                ("simulated_s_per_cell", z.mixed_sim.as_secs_f64().to_json()),
            ]),
        }
    }

    /// The cells of one rep at sizes `z`.
    pub fn cells(self, z: &Sizes) -> Vec<Cell> {
        let paper = LeafSpineConfig::paper();
        let shape_seed = z.shape_seed;
        let sweep = |label, cfg: SweepConfig, scheme: &str, load, flows, faults| {
            let scheme = scheme_named(&cfg, scheme);
            Cell {
                label,
                kind: CellKind::Sweep {
                    cfg,
                    scheme,
                    load,
                    flows,
                    shape_seed,
                    faults,
                },
            }
        };
        match self {
            Workload::IncastFifo => {
                vec![Cell {
                    label: "fifo_tcn",
                    kind: CellKind::Incast {
                        waves: z.incast_waves,
                    },
                }]
            }
            Workload::StarMq => {
                let (f, l) = (z.star_flows, STAR_LOAD);
                vec![
                    sweep("dwrr_tcn", SweepConfig::fig6(), "TCN", l, f, false),
                    sweep("dwrr_mqecn", SweepConfig::fig6(), "MQ-ECN", l, f, false),
                    sweep(
                        "wfq_red",
                        SweepConfig::fig7(),
                        "RED-queue(std)",
                        l,
                        f,
                        false,
                    ),
                    sweep("spdwrr_codel", SweepConfig::fig8(), "CoDel", l, f, false),
                    sweep("spwfq_tcn", SweepConfig::fig9(), "TCN", l, f, false),
                ]
            }
            Workload::FabricPaper => {
                let (fig10, fig13) = (SweepConfig::fig10(paper), SweepConfig::fig13(paper));
                vec![
                    sweep("fig10_tcn", fig10, "TCN", FABRIC_LOAD, z.fig10_flows, false),
                    sweep("fig13_tcn", fig13, "TCN", FABRIC_LOAD, z.fig13_flows, false),
                ]
            }
            Workload::FabricFaults => {
                let fig10 = SweepConfig::fig10(paper);
                vec![sweep(
                    "fig10_tcn_faults",
                    fig10,
                    "TCN",
                    FAULTS_LOAD,
                    z.faults_flows,
                    true,
                )]
            }
            Workload::MixedCc => {
                let until = z.mixed_sim;
                let tcn = Scheme::Tcn {
                    threshold: params::testbed::TCN_T,
                };
                let red = Scheme::RedQueue {
                    threshold: params::testbed::RED_K,
                };
                let dwrr = SchedKind::Dwrr {
                    quantum: params::testbed::QUANTUM,
                };
                vec![
                    Cell {
                        label: "mixed_wfq_tcn",
                        kind: CellKind::Mixed {
                            sched: SchedKind::Wfq,
                            scheme: tcn,
                            until,
                        },
                    },
                    Cell {
                        label: "mixed_dwrr_red",
                        kind: CellKind::Mixed {
                            sched: dwrr,
                            scheme: red,
                            until,
                        },
                    },
                ]
            }
        }
    }
}

/// The scheme `name` among the ones the figure for `cfg` compares.
pub fn scheme_named(cfg: &SweepConfig, name: &str) -> Scheme {
    cfg.schemes()
        .into_iter()
        .find(|s| s.name() == name)
        .unwrap_or_else(|| panic!("figure has no scheme named {name}"))
}

/// One simulation of a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Short name, unique across workloads.
    pub label: &'static str,
    /// What it simulates.
    pub kind: CellKind,
}

/// The three shapes of cell.
#[derive(Debug, Clone)]
pub enum CellKind {
    /// Synchronized 32 → 1 waves on a FIFO + TCN star.
    Incast {
        /// Number of waves.
        waves: usize,
    },
    /// One (scheme, load) cell of an `fct_sweep` figure.
    Sweep {
        /// The figure's configuration.
        cfg: SweepConfig,
        /// The marking scheme.
        scheme: Scheme,
        /// Offered load.
        load: f64,
        /// Flows generated.
        flows: usize,
        /// Seed of the traffic shape, when not the run's seed.
        shape_seed: Option<u64>,
        /// Whether the `fabric_faults` plan is installed.
        faults: bool,
    },
    /// One (scheduler, scheme) cell of the `mixed` family.
    Mixed {
        /// Scheduler of the tenant queues.
        sched: SchedKind,
        /// The marking scheme under `QueueCap`.
        scheme: Scheme,
        /// Simulated time to run for.
        until: Time,
    },
}

impl Cell {
    /// Flows this cell registers — its operations for `fail_share`.
    pub fn flow_count(&self) -> u64 {
        match self.kind {
            CellKind::Incast { waves } => waves as u64 * u64::from(INCAST_FANOUT),
            CellKind::Sweep { flows, .. } => flows as u64,
            CellKind::Mixed { .. } => 2 * TENANTS.len() as u64,
        }
    }

    /// Name of the port kernel that times this cell's switch ports.
    pub fn port_kernel(&self) -> &'static str {
        match self.kind {
            // Faults act on the wire, not in the port: same port as fig10.
            CellKind::Sweep { faults: true, .. } => "fig10_tcn",
            _ => self.label,
        }
    }

    /// The factory stamping out this cell's switch egress ports, and
    /// the line rate they serve.
    pub fn port_factory(&self, seed: u64) -> (Box<dyn Fn() -> PortSetup>, Rate) {
        match self.kind {
            CellKind::Incast { .. } => {
                let rate = params::sim::RATE;
                let scheme = Scheme::Tcn {
                    threshold: params::sim::TCN_T_DCTCP,
                };
                let (buffer, mtu) = (Some(params::sim::BUFFER), params::sim::MTU);
                let make =
                    move || switch_port(1, buffer, None, SchedKind::Fifo, scheme, rate, mtu, seed);
                (Box::new(make), rate)
            }
            CellKind::Sweep { cfg: c, scheme, .. } => {
                // As `fct_sweep::build_sim` configures them.
                let make = move || {
                    switch_port(
                        c.nqueues,
                        Some(c.buffer),
                        None,
                        c.sched,
                        scheme,
                        c.rate,
                        1500,
                        seed,
                    )
                };
                (Box::new(make), c.rate)
            }
            CellKind::Mixed { sched, scheme, .. } => {
                // As `mixed::build` configures them: the shared pool
                // split statically across the tenant queues.
                use params::testbed;
                let make = move || {
                    let cap = testbed::BUFFER / TENANTS.len() as u64;
                    let port = switch_port(
                        TENANTS.len(),
                        Some(testbed::BUFFER),
                        None,
                        sched,
                        scheme,
                        testbed::RATE,
                        testbed::MTU,
                        7,
                    );
                    let inner = port.make_aqm;
                    PortSetup {
                        make_aqm: Box::new(move || Box::new(QueueCap::new(inner(), cap))),
                        ..port
                    }
                };
                (Box::new(make), testbed::RATE)
            }
        }
    }

    /// Hosts of the cell's topology; links `2h` are their NICs.
    fn hosts(&self) -> usize {
        match self.kind {
            CellKind::Incast { .. } => INCAST_FANOUT as usize + 1,
            CellKind::Sweep { cfg, .. } => match cfg.env {
                Environment::TestbedStar => 9,
                Environment::LeafSpine { cfg: ls, .. } => ls.num_hosts(),
            },
            CellKind::Mixed { .. } => TENANTS.len() + 1,
        }
    }
}

/// Exact, host-independent counts of one rep (summed over its cells).
/// A change that only makes the simulator faster leaves all of them
/// identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    events: u64,
    pkt_hops: u64,
    port_drops: u64,
    marks: u64,
    fault_drops: u64,
    reconvergences: u64,
    mutations_applied: u64,
    arena_inserted: u64,
    arena_slot_allocs: u64,
    arena_high_water: u64,
    timeouts: u64,
    fast_rtx: u64,
    rtx_pkts: u64,
    ecn_reductions: u64,
    delivered_bytes: u64,
    flows: u64,
    offered_bytes: u64,
    flows_completed: u64,
    fct_checksum: u64,
    fct_us_sum: f64,
    small_p99_fct_us: f64,
    jain_sum: f64,
    cells: u64,
}

impl Counts {
    /// Events the simulator processed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Packets transmitted, summed over every port.
    pub fn pkt_hops(&self) -> u64 {
        self.pkt_hops
    }

    /// The value of the row called `name`.
    ///
    /// # Panics
    /// Panics on a name [`rows`](Self::rows) does not list.
    pub fn get(&self, name: &str) -> f64 {
        let row = self.rows().into_iter().find(|(k, _)| *k == name);
        row.unwrap_or_else(|| panic!("no count named {name}")).1
    }

    fn add(&mut self, c: &Counts) {
        self.events += c.events;
        self.pkt_hops += c.pkt_hops;
        self.port_drops += c.port_drops;
        self.marks += c.marks;
        self.fault_drops += c.fault_drops;
        self.reconvergences += c.reconvergences;
        self.mutations_applied += c.mutations_applied;
        self.arena_inserted += c.arena_inserted;
        self.arena_slot_allocs += c.arena_slot_allocs;
        self.arena_high_water = self.arena_high_water.max(c.arena_high_water);
        self.timeouts += c.timeouts;
        self.fast_rtx += c.fast_rtx;
        self.rtx_pkts += c.rtx_pkts;
        self.ecn_reductions += c.ecn_reductions;
        self.delivered_bytes += c.delivered_bytes;
        self.flows += c.flows;
        self.offered_bytes += c.offered_bytes;
        self.flows_completed += c.flows_completed;
        self.fct_checksum = self.fct_checksum.wrapping_add(c.fct_checksum) & CHECKSUM_MASK;
        self.fct_us_sum += c.fct_us_sum;
        self.small_p99_fct_us = self.small_p99_fct_us.max(c.small_p99_fct_us);
        self.jain_sum += c.jain_sum;
        self.cells += c.cells;
    }

    /// The counts as `(metric name, value)` rows, in report order.
    /// Every integer stays below 2^53, so `f64` carries it exactly.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        vec![
            ("sim.events", self.events as f64),
            (
                "sim.events_per_pkt_hop",
                per(self.events as f64, self.pkt_hops),
            ),
            ("net.pkt_hops", self.pkt_hops as f64),
            ("net.port_drops", self.port_drops as f64),
            ("net.marks", self.marks as f64),
            ("net.fault_drops", self.fault_drops as f64),
            ("net.reconvergences", self.reconvergences as f64),
            ("net.mutations_applied", self.mutations_applied as f64),
            ("core.arena_inserted", self.arena_inserted as f64),
            ("core.arena_slot_allocs", self.arena_slot_allocs as f64),
            ("core.arena_high_water", self.arena_high_water as f64),
            ("transport.timeouts", self.timeouts as f64),
            ("transport.fast_rtx", self.fast_rtx as f64),
            ("transport.rtx_pkts", self.rtx_pkts as f64),
            ("transport.ecn_reductions", self.ecn_reductions as f64),
            ("transport.delivered_bytes", self.delivered_bytes as f64),
            ("workloads.flows", self.flows as f64),
            ("workloads.offered_bytes", self.offered_bytes as f64),
            ("stats.flows_completed", self.flows_completed as f64),
            ("stats.fct_checksum", self.fct_checksum as f64),
            (
                "stats.overall_avg_fct_us",
                per(self.fct_us_sum, self.flows_completed),
            ),
            ("stats.small_p99_fct_us", self.small_p99_fct_us),
            ("stats.jain", per(self.jain_sum, self.cells)),
        ]
    }
}

/// Keeps `fct_checksum` exactly representable as a JSON number.
const CHECKSUM_MASK: u64 = (1 << 52) - 1;

fn fct_checksum(records: &[FctRecord]) -> u64 {
    records.iter().fold(0u64, |acc, r| {
        acc.wrapping_add(r.fct.as_ps().wrapping_mul(r.flow.0 + 1))
    }) & CHECKSUM_MASK
}

/// What one cell measured.
pub struct CellOut {
    /// Host seconds before the first event.
    pub setup_s: f64,
    /// Host seconds of each timing window of run + result collection:
    /// the run's steps in order, then the collection.
    pub windows: Vec<f64>,
    /// Exact counts.
    pub counts: Counts,
    /// The FCT summary the figure code reports for the same cell.
    pub breakdown: FctBreakdown,
    /// Bytes delivered per tenant (tenant cells only).
    pub tenant_bytes: Vec<u64>,
    /// Operations behind the attribution estimate: `(kernel metric,
    /// how many times the run did what that kernel times)`.
    pub ops: Vec<(String, u64)>,
    /// Simulated time at the end.
    pub sim_end: Time,
    /// Flows that failed.
    pub failed: u64,
    /// Why, if any did.
    pub problem: Option<String>,
}

/// What one rep (every cell of a workload, back to back) measured.
#[derive(Debug, Clone)]
pub struct RepOut {
    /// Host seconds before the first event, summed over cells.
    pub setup_s: f64,
    /// Host seconds of each timing window of run + result collection,
    /// cell after cell; their sum is the rep's run time.
    pub windows: Vec<f64>,
    /// Exact counts, summed over cells.
    pub counts: Counts,
    /// Simulated end time of each cell, `Time::ZERO` for a cell that
    /// errored or panicked (later reps step through the run by it).
    pub sim_ends: Vec<Time>,
    /// Operations behind the attribution estimate, over all cells.
    pub ops: Vec<(String, u64)>,
    /// Flows that failed: unfinished, or in a cell that errored,
    /// panicked or broke byte conservation.
    pub failed: u64,
    /// One line per failing cell.
    pub problems: Vec<String>,
}

/// Run every cell of `w` once; see [`run_cells`].
pub fn run_rep(
    w: Workload,
    seed: u64,
    sizes: &Sizes,
    tr: &mut Tracer,
    sim_ends: Option<&[Time]>,
) -> RepOut {
    run_cells(w.name(), &w.cells(sizes), seed, tr, sim_ends)
}

/// Run `cells` back to back. Given the warm-up rep's `sim_ends`, each
/// cell's run advances in [`RUN_SLICES`] separately timed steps. A cell
/// that errors or panics fails all its flows and the rep goes on.
pub fn run_cells(
    workload: &str,
    cells: &[Cell],
    seed: u64,
    tr: &mut Tracer,
    sim_ends: Option<&[Time]>,
) -> RepOut {
    let mut rep = RepOut {
        setup_s: 0.0,
        windows: Vec::new(),
        counts: Counts::default(),
        sim_ends: Vec::new(),
        ops: Vec::new(),
        failed: 0,
        problems: Vec::new(),
    };
    let rep_span = tr.begin("benchmark.rep");
    for (i, cell) in cells.iter().enumerate() {
        let cell_span = tr.begin("benchmark.cell");
        let slice_end = sim_ends.map(|ends| ends[i]);
        let outcome = catch_unwind(AssertUnwindSafe(|| run_cell(cell, seed, tr, slice_end)));
        tr.end(cell_span);
        let problem = match outcome {
            Ok(Ok(out)) => {
                rep.setup_s += out.setup_s;
                rep.windows.extend(out.windows);
                rep.counts.add(&out.counts);
                rep.sim_ends.push(out.sim_end);
                rep.ops.extend(out.ops);
                rep.failed += out.failed;
                out.problem
            }
            failed => {
                // Keeps `sim_ends` in step with `cells`.
                rep.sim_ends.push(Time::ZERO);
                rep.failed += cell.flow_count();
                Some(match failed {
                    Ok(Err(e)) => format!("error: {e}"),
                    _ => "panicked".to_string(),
                })
            }
        };
        if let Some(p) = problem {
            rep.problems.push(format!("{workload}/{}: {p}", cell.label));
        }
    }
    tr.end(rep_span);
    rep
}

/// Host seconds one set-up of every cell of `w` takes, the simulations
/// dropped off the clock.
///
/// # Errors
/// Whatever the simulator returns from building.
pub fn time_set_up(w: Workload, seed: u64, sizes: &Sizes) -> Result<f64, TcnError> {
    let mut total = 0.0;
    for cell in w.cells(sizes) {
        let t = Instant::now();
        let built = set_up(&cell, seed, &mut Tracer::off())?;
        total += t.elapsed().as_secs_f64();
        drop(built);
    }
    Ok(total)
}

/// A cell ready to run.
struct SetUp {
    sim: NetworkSim,
    flows: Vec<FlowSpec>,
    /// Flow ids by tenant (tenant cells only).
    tenants: Vec<Vec<FlowId>>,
}

/// Everything before the first event: generate the flows, build the
/// simulation, register the flows, install the fault plan.
fn set_up(cell: &Cell, seed: u64, tr: &mut Tracer) -> Result<SetUp, TcnError> {
    let s = tr.begin("workloads.gen_s");
    let flows = gen_flows(cell, seed);
    tr.end(s);

    let s = tr.begin("net.build_s");
    let mut sim = build_sim(cell, seed)?;
    tr.end(s);

    let s = tr.begin("net.add_flows_s");
    let tenants = add_flows(cell, &mut sim, &flows);
    tr.end(s);

    let s = tr.begin("net.install_faults_s");
    if let CellKind::Sweep { faults: true, .. } = cell.kind {
        install_faults(&mut sim, seed)?;
    }
    tr.end(s);
    Ok(SetUp {
        sim,
        flows,
        tenants,
    })
}

/// Run one cell: set up, run, collect, then count and check.
///
/// # Errors
/// Whatever the simulator returns from building or running.
pub fn run_cell(
    cell: &Cell,
    seed: u64,
    tr: &mut Tracer,
    slice_end: Option<Time>,
) -> Result<CellOut, TcnError> {
    let t_setup = Instant::now();
    let SetUp {
        mut sim,
        flows,
        tenants,
    } = set_up(cell, seed, tr)?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    let until = match cell.kind {
        CellKind::Mixed { until, .. } => Some(until),
        _ => None,
    };
    // Host interference comes in bursts far shorter than a run, so the
    // run advances in steps timed one by one: the fastest timing of each
    // step over the reps adds up to the run time of a quiet host. The
    // last step is the unsliced run's own call, so the rep stops on the
    // same event and every count stays the same.
    let steps = if slice_end.is_some() { RUN_SLICES } else { 1 };
    let end = slice_end.unwrap_or(Time::ZERO);
    let mut windows = Vec::with_capacity(steps as usize + 1);
    let s = tr.begin("net.run_s");
    for k in 1..=steps {
        let slice = tr.begin("net.run.slice");
        let before = tr.is_on().then(|| (sim.events_processed(), pkt_hops(&sim)));
        let t = Instant::now();
        match (k < steps, until) {
            (true, _) => sim.run_until(end / RUN_SLICES * k)?,
            (false, Some(until)) => sim.run_until(until)?,
            (false, None) => {
                sim.run_to_completion(DEADLINE)?;
            }
        }
        windows.push(t.elapsed().as_secs_f64());
        let counts = before.map_or(Vec::new(), |(e0, h0)| {
            vec![
                ("events", sim.events_processed() - e0),
                ("pkt_hops", pkt_hops(&sim) - h0),
            ]
        });
        tr.end_with(slice, counts);
    }
    tr.end(s);

    let t = Instant::now();
    let s = tr.begin("stats.collect_s");
    let records = sim.fct_records();
    tr.end(s);

    let s = tr.begin("stats.summarise_s");
    let breakdown = FctBreakdown::from_records(&records);
    tr.end(s);

    let s = tr.begin("experiments.to_json_s");
    let rendered = render_results(cell, &sim, &breakdown, &records);
    std::hint::black_box(&rendered);
    tr.end(s);
    windows.push(t.elapsed().as_secs_f64());

    // Counting and checking happen off the clock.
    let offered_bytes: u64 = flows.iter().map(|f| f.size).sum();
    let delivered_bytes = sim.total_delivered_bytes();
    let tenant_bytes: Vec<u64> = tenants
        .iter()
        .map(|fs| fs.iter().map(|&f| sim.delivered_bytes(f)).sum())
        .collect();
    let arena = sim.arena_stats();
    let faults = sim.fault_stats();
    let counts = Counts {
        events: sim.events_processed(),
        pkt_hops: pkt_hops(&sim),
        port_drops: sim.total_drops(),
        marks: (0..sim.num_links())
            .map(|l| sim.port(l).stats().total_marks())
            .sum(),
        fault_drops: faults.total_drops(),
        reconvergences: faults.reconvergences,
        mutations_applied: sim.reconfig_log().len() as u64,
        arena_inserted: arena.inserted,
        arena_slot_allocs: arena.slot_allocs,
        arena_high_water: arena.high_water,
        timeouts: sim.total_timeouts(),
        fast_rtx: sim.total_fast_retransmits(),
        rtx_pkts: sim.total_retransmitted_packets(),
        ecn_reductions: (0..sim.num_flows() as u64)
            .map(|f| sim.flow_ecn_reductions(FlowId(f)))
            .sum(),
        delivered_bytes,
        flows: sim.num_flows() as u64,
        offered_bytes,
        flows_completed: sim.completed_flows() as u64,
        fct_checksum: fct_checksum(&records),
        fct_us_sum: breakdown.overall_avg_us * records.len() as f64,
        small_p99_fct_us: breakdown.small_p99_us,
        jain_sum: jain(&tenant_bytes.iter().map(|&b| b as f64).collect::<Vec<_>>()),
        cells: 1,
    };

    let (failed, problem) = if until.is_some() {
        // Long flows never finish; a tenant that moved nothing failed.
        let starved = tenant_bytes.iter().filter(|&&b| b == 0).count() as u64;
        (
            2 * starved,
            (starved > 0).then(|| format!("{starved} tenant(s) delivered nothing")),
        )
    } else if counts.flows_completed < counts.flows {
        let left = counts.flows - counts.flows_completed;
        (
            left,
            Some(format!("{left} flow(s) unfinished at the deadline")),
        )
    } else if delivered_bytes != offered_bytes {
        let msg = format!("delivered {delivered_bytes} B of {offered_bytes} B offered");
        (counts.flows, Some(msg))
    } else {
        (0, None)
    };
    let ops = attribution_ops(cell, &sim, &counts, &tenant_bytes);
    let sim_end = sim.now();
    Ok(CellOut {
        setup_s,
        windows,
        counts,
        breakdown,
        tenant_bytes,
        ops,
        sim_end,
        failed,
        problem,
    })
}

/// How often the run did what each port and transport kernel times.
/// Host NICs are the even links among the first two per host. A data
/// packet is one sender ↔ receiver round, estimated from bytes.
fn attribution_ops(
    cell: &Cell,
    sim: &NetworkSim,
    counts: &Counts,
    tenant_bytes: &[u64],
) -> Vec<(String, u64)> {
    let nic_hops: u64 = (0..cell.hosts())
        .map(|h| sim.port(2 * h).stats().tx_packets)
        .sum();
    let mut ops = vec![
        (port_metric("host_nic"), nic_hops),
        (port_metric(cell.port_kernel()), counts.pkt_hops - nic_hops),
    ];
    let mss = u64::from(TcpConfig::preset(TENANTS[0]).sim().mss);
    match cell.kind {
        CellKind::Mixed { .. } => {
            for (cc, bytes) in TENANTS.iter().zip(tenant_bytes) {
                ops.push((ack_metric(*cc), bytes / mss));
            }
        }
        CellKind::Incast { .. } => {
            ops.push((
                ack_metric(Cc::Dctcp),
                counts.delivered_bytes / mss + counts.rtx_pkts,
            ));
        }
        CellKind::Sweep { cfg, .. } => {
            let cc = cfg.transport.config().cc;
            ops.push((
                ack_metric(cc),
                counts.delivered_bytes / mss + counts.rtx_pkts,
            ));
        }
    }
    ops
}

/// Metric name of the port kernel `kernel`.
pub fn port_metric(kernel: &str) -> String {
    format!("net.port_ns_per_pkt.{kernel}")
}

/// Metric name of the ACK-path kernel of `cc`.
pub fn ack_metric(cc: Cc) -> String {
    format!("transport.ack_ns.{}", cc.name().replace('-', ""))
}

fn pkt_hops(sim: &NetworkSim) -> u64 {
    (0..sim.num_links())
        .map(|l| sim.port(l).stats().tx_packets)
        .sum()
}

/// The cell's result file as the figure binaries would write it through
/// `tcn_experiments::json`: the summary plus one row per finished flow.
fn render_results(
    cell: &Cell,
    sim: &NetworkSim,
    b: &FctBreakdown,
    records: &[FctRecord],
) -> String {
    let rows: Vec<(u64, u64, u64)> = records
        .iter()
        .map(|r| (r.flow.0, r.spec.size, r.fct.as_ps()))
        .collect();
    Json::obj(vec![
        ("cell", cell.label.to_json()),
        ("completed", sim.completed_flows().to_json()),
        ("flows", sim.num_flows().to_json()),
        ("overall_avg_us", b.overall_avg_us.to_json()),
        ("small_avg_us", b.small_avg_us.to_json()),
        ("small_p99_us", b.small_p99_us.to_json()),
        ("large_avg_us", b.large_avg_us.to_json()),
        ("small_timeouts", b.small_timeouts.to_json()),
        ("drops", sim.total_drops().to_json()),
        ("records", rows.to_json()),
    ])
    .compact()
}

/// Flow generation: the seed's only entry point besides the fault plan.
fn gen_flows(cell: &Cell, seed: u64) -> Vec<FlowSpec> {
    match cell.kind {
        CellKind::Incast { waves } => {
            let mut rng = Rng::new(seed);
            let senders: Vec<u32> = (0..INCAST_FANOUT).collect();
            let mut flows = Vec::with_capacity(waves * senders.len());
            for w in 0..waves as u64 {
                let size =
                    INCAST_MIN_BYTES + rng.gen_range(INCAST_MAX_BYTES - INCAST_MIN_BYTES + 1);
                let at = Time::from_ms(1 + INCAST_GAP_MS * w);
                flows.extend(gen_incast(
                    &mut rng,
                    &senders,
                    INCAST_FANOUT,
                    size,
                    at,
                    Time::ZERO,
                    0,
                ));
            }
            flows
        }
        CellKind::Sweep {
            cfg,
            load,
            flows,
            shape_seed,
            ..
        } => {
            let timed = gen_sweep_flows(&cfg, load, flows, seed);
            match shape_seed.filter(|&s| s != seed) {
                None => timed,
                // The shape seed's flows, the i-th of them starting at
                // the run seed's i-th arrival time.
                Some(s) => gen_sweep_flows(&cfg, load, flows, s)
                    .into_iter()
                    .zip(timed)
                    .map(|(shaped, t)| FlowSpec {
                        start: t.start,
                        ..shaped
                    })
                    .collect(),
            }
        }
        CellKind::Mixed { .. } => TENANTS
            .iter()
            .enumerate()
            .flat_map(|(svc, _)| {
                let spec = FlowSpec {
                    src: svc as u32,
                    dst: TENANTS.len() as u32,
                    size: 1 << 40,
                    start: Time::ZERO,
                    service: svc as u8,
                };
                [spec, spec]
            })
            .collect(),
    }
}

/// `fct_sweep::gen_flows` for load index 0 of a sweep seeded `seed`.
fn gen_sweep_flows(cfg: &SweepConfig, load: f64, flows: usize, seed: u64) -> Vec<FlowSpec> {
    let mut rng = Rng::new(seed.wrapping_mul(1000));
    match cfg.env {
        Environment::TestbedStar => {
            let senders: Vec<u32> = (0..8).collect();
            let services: Vec<u8> = match cfg.tagging {
                TaggingPolicy::Fixed => (0..4).collect(),
                TaggingPolicy::Pias { .. } => (1..5).collect(),
            };
            gen_many_to_one(
                &mut rng,
                flows,
                &senders,
                8,
                &SizeWorkload::WebSearch.cdf(),
                load,
                cfg.rate,
                &services,
                Time::ZERO,
            )
        }
        Environment::LeafSpine {
            cfg: ls,
            n_services,
        } => {
            let cdfs: Vec<_> = SizeWorkload::ALL.iter().map(|w| w.cdf()).collect();
            gen_all_to_all(
                &mut rng,
                flows,
                ls.num_hosts() as u32,
                &cdfs,
                load,
                cfg.rate,
                n_services,
                Time::ZERO,
            )
        }
    }
}

/// The cell's simulation, before any flow is added.
///
/// # Errors
/// [`TcnError`] if the topology is malformed.
pub fn build_sim(cell: &Cell, seed: u64) -> Result<NetworkSim, TcnError> {
    let (factory, rate) = cell.port_factory(seed);
    match cell.kind {
        CellKind::Incast { .. } => single_switch(
            cell.hosts(),
            rate,
            Time::from_us(20),
            TransportChoice::SimDctcp.config(),
            TaggingPolicy::Fixed,
            factory,
        ),
        CellKind::Sweep { cfg, .. } => {
            let mut sim = sweep_builder(&cfg).port_factory(factory).build()?;
            // `fct_sweep` runs every cell under its default watchdog.
            sim.set_watchdog(Watchdog::new(DEFAULT_STALL_BUDGET));
            Ok(sim)
        }
        CellKind::Mixed { .. } => single_switch(
            cell.hosts(),
            rate,
            params::testbed::LINK_DELAY,
            TcpConfig::preset(TENANTS[0]).testbed(),
            TaggingPolicy::Fixed,
            factory,
        ),
    }
}

/// `fct_sweep::build_sim` up to the port factory.
fn sweep_builder(cfg: &SweepConfig) -> NetworkBuilder {
    match cfg.env {
        Environment::TestbedStar => {
            NetworkBuilder::single_switch(9, cfg.rate, params::testbed::LINK_DELAY)
        }
        Environment::LeafSpine { cfg: ls, .. } => NetworkBuilder::leaf_spine(ls),
    }
    .transport(cfg.transport.config())
    .tagging(cfg.tagging)
}

/// Register the flows; for a tenant cell, also group their ids by
/// tenant (two flows each, in service order).
fn add_flows(cell: &Cell, sim: &mut NetworkSim, flows: &[FlowSpec]) -> Vec<Vec<FlowId>> {
    if let CellKind::Mixed { .. } = cell.kind {
        let mut tenants = vec![Vec::new(); TENANTS.len()];
        for f in flows {
            let tcp = TcpConfig::preset(TENANTS[f.service as usize]).testbed();
            tenants[f.service as usize].push(sim.add_flow_with(*f, tcp));
        }
        return tenants;
    }
    for f in flows {
        sim.add_flow(*f);
    }
    Vec::new()
}

/// The fault plan of `fabric_faults`: loss and jitter on every link,
/// leaf-uplink flaps, and a brown-out and restore of one spine downlink.
fn install_faults(sim: &mut NetworkSim, seed: u64) -> Result<(), TcnError> {
    let ls = LeafSpineConfig::paper();
    // Link layout of `leaf_spine`: two per host, then leaf→spine and
    // spine→leaf interleaved, leaf-major.
    let uplink = |leaf: u64, spine: u64| {
        (2 * ls.num_hosts() as u64 + 2 * (leaf * ls.spines as u64 + spine)) as u32
    };
    let mut plan = FaultPlan {
        default_profile: LinkFaultProfile {
            loss: FAULTS_LOSS,
            jitter_prob: FAULTS_JITTER_PROB,
            jitter_max: FAULTS_JITTER_MAX,
            ..LinkFaultProfile::NONE
        },
        ..FaultPlan::quiet(seed)
    }
    .with_detection_delay(FAULTS_DETECTION);
    for i in 0..FAULTS_FLAPS {
        let down_at = Time::from_ms(2) + FAULTS_FLAP_PERIOD * i;
        plan = plan.with_flap(LinkFlap {
            link: uplink(i % ls.leaves as u64, (5 * i) % ls.spines as u64),
            down_at,
            up_at: Some(down_at + FAULTS_FLAP_DOWN),
        });
    }
    sim.install_faults(&plan);
    let brownout = uplink(0, 1) + 1;
    sim.schedule_mutation(
        FAULTS_BROWNOUT_AT,
        NetMutation::LinkRate {
            link: brownout,
            rate: FAULTS_BROWNOUT_RATE,
        },
    )?;
    sim.schedule_mutation(
        FAULTS_RESTORE_AT,
        NetMutation::LinkRate {
            link: brownout,
            rate: ls.rate,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1/50-scale pass of all five workloads: nothing fails, and the
    /// reps agree on every exact count — unsliced, sliced and traced.
    #[test]
    fn small_scale_reps_agree_on_every_count() {
        for w in Workload::ALL {
            let z = Sizes::BENCH.div(50);
            let a = run_rep(w, 3, &z, &mut Tracer::off(), None);
            assert_eq!(a.failed, 0, "{}: {:?}", w.name(), a.problems);
            assert!(
                a.counts.pkt_hops() > 0 && a.counts.events() > 0,
                "{}",
                w.name()
            );
            // The timed reps step through the run; same counts.
            let b = run_rep(w, 3, &z, &mut Tracer::off(), Some(&a.sim_ends));
            assert_eq!(a.counts, b.counts, "{}: sliced rep disagrees", w.name());
            let cells = w.cells(&z).len();
            assert_eq!(a.windows.len(), 2 * cells);
            assert_eq!(b.windows.len(), (RUN_SLICES as usize + 1) * cells);
            assert!(time_set_up(w, 3, &z).expect("sets up") > 0.0);
            let mut tr = Tracer::on();
            let c = run_rep(w, 3, &z, &mut tr, Some(&a.sim_ends));
            assert_eq!(a.counts, c.counts, "{}: traced rep disagrees", w.name());
            let slices = tr
                .spans()
                .iter()
                .filter(|s| s.name == "net.run.slice")
                .count();
            assert_eq!(slices as u64, RUN_SLICES * w.cells(&z).len() as u64);
        }
    }

    /// A cell that cannot be built fails its own flows only, and leaves
    /// `sim_ends` usable by the next rep.
    #[test]
    fn a_failing_cell_fails_its_flows_and_the_rep_goes_on() {
        let z = Sizes::BENCH.div(50);
        let good = Workload::IncastFifo.cells(&z).remove(0);
        let mut bad = Workload::StarMq.cells(&z).remove(0);
        if let CellKind::Sweep { cfg, .. } = &mut bad.kind {
            cfg.nqueues = 0;
        }
        let cells = [bad.clone(), good.clone()];
        let warm = run_cells("test", &cells, 3, &mut Tracer::off(), None);
        assert_eq!(warm.failed, bad.flow_count());
        assert_eq!(warm.problems.len(), 1, "{:?}", warm.problems);
        assert!(warm.problems[0].starts_with("test/dwrr_tcn: "));
        assert_eq!(warm.sim_ends.len(), 2);
        let alone = run_cells("test", &[good], 3, &mut Tracer::off(), None);
        assert_eq!(warm.counts, alone.counts);
        let traced = run_cells("test", &cells, 3, &mut Tracer::on(), Some(&warm.sim_ends));
        assert_eq!((traced.failed, &traced.counts), (warm.failed, &warm.counts));
    }

    #[test]
    fn seed_changes_generated_flows_except_mixed() {
        for w in Workload::ALL {
            let z = Sizes::BENCH.div(50);
            let a = run_rep(w, 1, &z, &mut Tracer::off(), None);
            let b = run_rep(w, 2, &z, &mut Tracer::off(), None);
            assert_eq!(a.counts == b.counts, w == Workload::MixedCc, "{}", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why too long", w.name());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
