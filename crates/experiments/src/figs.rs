//! The figure registry: every paper artifact as an in-process entry
//! point, consumed by the single `figs` binary and by `figs all`.
//!
//! Each entry prints its table and takes the process options
//! ([`RunOptions`], parsed once in `bin/figs.rs`) as an argument —
//! nothing here reads the command line or the environment. Figs. 6–13
//! are one parameterised sweep: what tells them apart is a row of
//! [`SWEEPS`], which `figs <name>` and `figs trace <name>` both read.

use crate::common::{print_table, sweep_charts, Scale};
use crate::fct_sweep::{self, Environment, SweepConfig};
use crate::options::RunOptions;
use tcn_net::LeafSpineConfig;
use tcn_plot::{LineChart, Series};
use tcn_sim::Time;

/// One runnable figure.
pub struct Figure {
    /// Subcommand name (`fig1` … `fig13`, `incast`, …).
    pub name: &'static str,
    /// One-line description for `figs list`.
    pub about: &'static str,
    /// The entry point.
    pub run: fn(&RunOptions),
}

/// One FCT-vs-load figure (Figs. 6–13).
pub struct SweepFigure {
    /// Subcommand name.
    pub name: &'static str,
    /// One-line description for `figs list`.
    pub about: &'static str,
    /// The printed table's title.
    pub title: &'static str,
    /// The sweep on the given leaf-spine fabric (the testbed figures
    /// ignore it).
    pub config: fn(LeafSpineConfig) -> SweepConfig,
}

/// Figs. 6–13, in figure order.
pub const SWEEPS: [SweepFigure; 8] = [
    SweepFigure {
        name: "fig6",
        about: "FCT: isolation, DWRR + DCTCP (testbed)",
        title: "Fig. 6 — FCT, DWRR 4 queues, DCTCP, web search",
        config: |_| SweepConfig::fig6(),
    },
    SweepFigure {
        name: "fig7",
        about: "FCT: isolation, WFQ + DCTCP (testbed)",
        title: "Fig. 7 — FCT, WFQ 4 queues, DCTCP, web search",
        config: |_| SweepConfig::fig7(),
    },
    SweepFigure {
        name: "fig8",
        about: "FCT: prioritization, SP/DWRR + PIAS (testbed)",
        title: "Fig. 8 — FCT, SP(1)+DWRR(4), PIAS, DCTCP, web search",
        config: |_| SweepConfig::fig8(),
    },
    SweepFigure {
        name: "fig9",
        about: "FCT: prioritization, SP/WFQ + PIAS (testbed)",
        title: "Fig. 9 — FCT, SP(1)+WFQ(4), PIAS, DCTCP, web search",
        config: |_| SweepConfig::fig9(),
    },
    SweepFigure {
        name: "fig10",
        about: "FCT: leaf-spine, SP/DWRR + DCTCP + PIAS",
        title: "Fig. 10 — FCT, leaf-spine, SP(1)+DWRR(7), PIAS, DCTCP, 4 workloads",
        config: SweepConfig::fig10,
    },
    SweepFigure {
        name: "fig11",
        about: "FCT: leaf-spine, SP/WFQ + DCTCP + PIAS",
        title: "Fig. 11 — FCT, leaf-spine, SP(1)+WFQ(7), PIAS, DCTCP, 4 workloads",
        config: SweepConfig::fig11,
    },
    SweepFigure {
        name: "fig12",
        about: "FCT: leaf-spine under ECN*",
        title: "Fig. 12 — FCT, leaf-spine, SP(1)+DWRR(7), PIAS, ECN*, 4 workloads",
        config: SweepConfig::fig12,
    },
    SweepFigure {
        name: "fig13",
        about: "FCT: leaf-spine, 32 queues, ECN*",
        title: "Fig. 13 — FCT, leaf-spine, SP(1)+DWRR(31), PIAS, ECN*, 4 workloads",
        config: SweepConfig::fig13,
    },
];

impl SweepFigure {
    /// The sweep and scale `opts` selects. `--full` means the paper's
    /// 144-host fabric as well as its flow count.
    pub fn resolve(&self, opts: &RunOptions) -> (SweepConfig, Scale) {
        let fabric = if opts.full() {
            LeafSpineConfig::paper()
        } else {
            LeafSpineConfig::small()
        };
        let cfg = (self.config)(fabric);
        (cfg, opts.scale(matches!(cfg.env, Environment::TestbedStar)))
    }

    fn run(&self, opts: &RunOptions) {
        let (cfg, scale) = self.resolve(opts);
        let res = fct_sweep::run_with_opts(&cfg, &scale, &cfg.schemes(), &opts.sweep())
            .expect("sweep harness failed");
        print_sweep(self, &res, opts);
    }
}

/// The [`FIGURES`] row of `SWEEPS[I]`.
const fn sweep<const I: usize>() -> Figure {
    Figure { name: SWEEPS[I].name, about: SWEEPS[I].about, run: |opts| SWEEPS[I].run(opts) }
}

/// Every figure, in the order `figs all` runs them.
pub const FIGURES: &[Figure] = &[
    Figure { name: "fig1", about: "per-port ECN/RED goodput violation", run: fig1 },
    Figure { name: "fig2", about: "departure-rate (queue-capacity) estimation", run: fig2 },
    Figure { name: "fig3", about: "buffer occupancy: enqueue/dequeue RED vs TCN", run: fig3 },
    Figure { name: "fig4", about: "the four workload flow-size distributions", run: fig4 },
    Figure { name: "fig5", about: "SP/WFQ static flows: goodput + probe RTTs", run: fig5 },
    sweep::<0>(),
    sweep::<1>(),
    sweep::<2>(),
    sweep::<3>(),
    sweep::<4>(),
    sweep::<5>(),
    sweep::<6>(),
    sweep::<7>(),
    Figure { name: "incast", about: "incast burst tolerance (§4.3 extension)", run: incast },
    Figure { name: "fairness", about: "probabilistic TCN short-window fairness", run: fairness },
    Figure { name: "pifo_demo", about: "TCN over a programmable PIFO scheduler", run: pifo_demo },
    Figure { name: "chaos", about: "FCT under loss × link flap fault injection", run: chaos },
    Figure { name: "mixed", about: "mixed-tenant DCTCP/CUBIC/BBR shares, WFQ+DWRR", run: mixed },
];

/// Find a figure by subcommand name.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Find one of Figs. 6–13 by subcommand name.
pub fn find_sweep(name: &str) -> Option<&'static SweepFigure> {
    SWEEPS.iter().find(|f| f.name == name)
}

/// Render a sweep's quarantine list (empty = print nothing): the cells
/// that failed every attempt, with their structured error reports.
fn print_quarantine(quarantined: &[fct_sweep::QuarantinedCell]) {
    if quarantined.is_empty() {
        return;
    }
    println!("\nquarantined cells ({}):", quarantined.len());
    for q in quarantined {
        println!(
            "  cell {} ({} load {:.1}), {} attempt(s): {}",
            q.cell, q.scheme, q.load, q.attempts, q.error
        );
    }
}

/// The FCT-sweep table shared by Figs. 6–13.
fn print_sweep(fig: &SweepFigure, res: &fct_sweep::SweepResult, opts: &RunOptions) {
    let tag = fig.name;
    let rows: Vec<Vec<String>> = res
        .cells
        .iter()
        .map(|c| {
            vec![
                c.scheme.clone(),
                format!("{:.1}", c.load),
                format!("{}/{}", c.completed, c.flows),
                format!("{:.0}", c.overall_avg_us),
                format!("{:.0}", c.small_avg_us),
                format!("{:.0}", c.small_p99_us),
                format!("{:.0}", c.large_avg_us),
                c.small_timeouts.to_string(),
                c.drops.to_string(),
            ]
        })
        .collect();
    print_table(
        fig.title,
        &[
            "scheme", "load", "done", "avg us", "small avg", "small p99", "large avg",
            "small TOs", "drops",
        ],
        &rows,
    );
    print_quarantine(&res.quarantined);
    let label = format!("Fig. {}", &tag[3..]);
    for (metric, svg) in sweep_charts(&label, &res.cells) {
        opts.write_svg(&format!("{tag}_{metric}"), &svg);
    }
    opts.write_json(tag, res);
}

/// Fig. 1: per-port ECN/RED goodput violation.
pub fn fig1(opts: &RunOptions) {
    let (counts, window): (&[usize], Time) = if opts.full() {
        (&crate::fig1::PAPER_FLOW_COUNTS, Time::from_secs(1))
    } else {
        (&[2, 8, 16], Time::from_ms(400))
    };
    let res = crate::fig1::run(counts, window);
    let rows: Vec<Vec<String>> = res
        .cells
        .iter()
        .map(|c| {
            vec![
                c.scheme.clone(),
                c.svc2_flows.to_string(),
                format!("{:.0}", c.svc1_mbps),
                format!("{:.0}", c.svc2_mbps),
            ]
        })
        .collect();
    print_table(
        "Fig. 1 — aggregate goodput under DWRR (svc1 = 1 flow)",
        &["scheme", "svc2 flows", "svc1 Mbps", "svc2 Mbps"],
        &rows,
    );
    println!(
        "\nShape check: per-port RED lets svc2 grow with its flow count;\n\
         TCN keeps both services at the DWRR fair share (~480 Mbps goodput)."
    );
    opts.write_json("fig1", &res.cells);
}

/// Fig. 2: departure-rate (queue-capacity) estimation.
pub fn fig2(opts: &RunOptions) {
    let change = Time::from_ms(10);
    let (r, trace) = crate::fig2::run(change, Time::from_ms(30));
    print_table(
        "Fig. 2 — queue-0 capacity estimates after the 10→5 Gbps change",
        &["estimator", "samples/2ms", "final Gbps", "converge us"],
        &[
            vec![
                "Alg.1 dq=40KB".into(),
                r.dq40_samples_2ms.to_string(),
                format!("{:.2}", r.dq40_final_gbps),
                r.dq40_converge_us
                    .map_or("never".into(), |c| format!("{c:.0}")),
            ],
            vec![
                "Alg.1 dq=10KB".into(),
                r.dq10_samples_2ms.to_string(),
                format!("{:.2}", r.dq10_final_gbps),
                "biased".into(),
            ],
            vec![
                "MQ-ECN".into(),
                "per-round".into(),
                format!("{:.2}", r.mq_final_gbps),
                r.mq_converge_us
                    .map_or("never".into(), |c| format!("{c:.0}")),
            ],
        ],
    );
    println!(
        "\n10KB raw sample oscillation: {:.2}–{:.2} Gbps (paper: 3.7–10)",
        r.dq10_raw_min_gbps, r.dq10_raw_max_gbps
    );
    if opts.trace {
        let tr = trace.borrow();
        println!("estimator,t_us,gbps");
        for (name, series) in [
            ("dq40", &tr.dq40.smoothed),
            ("dq10", &tr.dq10.smoothed),
            ("mq", &tr.mq.smoothed),
        ] {
            for &(t, v) in series.points() {
                println!("{name},{:.1},{v:.3}", t.as_us_f64());
            }
        }
    }
    {
        let tr = trace.borrow();
        let mut ch = LineChart::new(
            "Fig. 2 — smoothed capacity estimate of queue 0",
            "time (us)",
            "Gbps",
        );
        for (name, series) in [
            ("Alg.1 dq=40KB", &tr.dq40.smoothed),
            ("Alg.1 dq=10KB", &tr.dq10.smoothed),
            ("MQ-ECN", &tr.mq.smoothed),
        ] {
            let pts: Vec<(f64, f64)> = series
                .points()
                .iter()
                .map(|&(t, v)| (t.as_us_f64(), v))
                .collect();
            ch.push(Series::new(name, pts));
        }
        opts.write_svg("fig2_estimates", &ch.render());
    }
    opts.write_json("fig2", &r);
}

/// Fig. 3: buffer occupancy under enqueue/dequeue ECN-RED and TCN.
pub fn fig3(opts: &RunOptions) {
    let res = crate::fig3::run(Time::from_ms(10), Time::from_ms(4));
    let rows: Vec<Vec<String>> = res
        .rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                format!("{:.0}", r.peak_bytes as f64 / 1000.0),
                format!("{:.0}", r.steady_max_bytes as f64 / 1000.0),
                format!("{:.1}", r.steady_mean_bytes / 1000.0),
            ]
        })
        .collect();
    print_table(
        "Fig. 3 — switch buffer occupancy (K = 125 KB / T = 100 us)",
        &["scheme", "peak KB", "steady max KB", "steady mean KB"],
        &rows,
    );
    println!(
        "\nShape check: dequeue RED peaks lowest (reacts to future packets);\n\
         TCN ≈ enqueue RED (~3x BDP); afterwards all oscillate below ~K."
    );
    if opts.trace {
        println!("scheme,t_us,bytes");
        for (row, ts) in res.rows.iter().zip(&res.traces) {
            for &(t, v) in ts.points() {
                println!("{},{:.1},{v:.0}", row.scheme, t.as_us_f64());
            }
        }
    }
    {
        let mut ch = LineChart::new(
            "Fig. 3 — buffer occupancy (8 ECN* flows, 10 Gbps)",
            "time (us)",
            "bytes",
        );
        for (row, ts) in res.rows.iter().zip(&res.traces) {
            let pts: Vec<(f64, f64)> = ts
                .points()
                .iter()
                .map(|&(t, v)| (t.as_us_f64(), v))
                .collect();
            ch.push(Series::new(row.scheme.clone(), pts));
        }
        opts.write_svg("fig3_occupancy", &ch.render());
    }
    opts.write_json("fig3", &res.rows);
}

/// Fig. 4: the four workload flow-size distributions.
pub fn fig4(opts: &RunOptions) {
    let res = crate::fig4::run();
    let rows: Vec<Vec<String>> = res
        .rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                format!("{:.0}", r.mean_bytes / 1000.0),
                format!("{:.1}", r.median_bytes as f64 / 1000.0),
                format!("{:.0}", r.p99_bytes as f64 / 1000.0),
                format!("{:.2}", r.bytes_below_100k),
                format!("{:.2}", r.bytes_below_10m),
            ]
        })
        .collect();
    print_table(
        "Fig. 4 — workload size distributions",
        &[
            "workload",
            "mean KB",
            "median KB",
            "p99 KB",
            "bytes<=100KB",
            "bytes<=10MB",
        ],
        &rows,
    );
    if opts.cdf {
        println!("workload,size_bytes,cdf");
        for (w, s, p) in &res.cdf_points {
            println!("{w},{s},{p}");
        }
    }
    {
        let mut ch = LineChart::new(
            "Fig. 4 — flow size distributions",
            "log10(size bytes)",
            "CDF",
        );
        for wl in ["web-search", "data-mining", "hadoop", "cache"] {
            let pts: Vec<(f64, f64)> = res
                .cdf_points
                .iter()
                .filter(|(n, _, _)| n == wl)
                .map(|&(_, s, p)| (s.max(1.0).log10(), p))
                .collect();
            ch.push(Series::new(wl, pts));
        }
        opts.write_svg("fig4_cdfs", &ch.render());
    }
    opts.write_json("fig4", &res);
}

/// Fig. 5: SP/WFQ static flows — conformance and probe RTTs.
pub fn fig5(opts: &RunOptions) {
    let phase = if opts.full() {
        Time::from_secs(2)
    } else {
        Time::from_ms(250)
    };
    let res = crate::fig5::run(phase);
    let rows: Vec<Vec<String>> = res
        .goodputs
        .iter()
        .map(|g| {
            vec![
                g.scheme.clone(),
                format!("{:.0}", g.q1_mbps),
                format!("{:.0}", g.q2_mbps),
                format!("{:.0}", g.q3_mbps),
            ]
        })
        .collect();
    print_table(
        "Fig. 5(a) — per-queue goodput in the 3-queue SP/WFQ phase",
        &["scheme", "q1 Mbps (SP)", "q2 Mbps", "q3 Mbps"],
        &rows,
    );
    let rows: Vec<Vec<String>> = res
        .rtts
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                format!("{:.0}", r.avg_us),
                format!("{:.0}", r.p99_us),
                r.samples.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fig. 5(b) — probe RTT through queue 3 (base RTT 250 us)",
        &["scheme", "avg us", "p99 us", "probes"],
        &rows,
    );
    println!(
        "\nShape check: TCN RTT ≈ oracle/CoDel, far below per-queue RED\n\
         with the standard threshold (paper: 415 vs 1084 us average)."
    );
    opts.write_json("fig5", &res);
}

/// Extension: incast burst tolerance (§4.3 claim).
pub fn incast(opts: &RunOptions) {
    let rows = crate::incast::run(opts.fanout.unwrap_or(32), 5, 64_000);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                r.fanout.to_string(),
                format!("{:.0}", r.avg_fct_us),
                format!("{:.0}", r.p99_fct_us),
                r.timeouts.to_string(),
                r.drops.to_string(),
            ]
        })
        .collect();
    print_table(
        "Incast burst tolerance (5 waves x fanout x 64 KB, 10 Gbps)",
        &["scheme", "fanout", "avg us", "p99 us", "timeouts", "drops"],
        &table,
    );
    opts.write_json("incast", &rows);
}

/// Extension: probabilistic TCN short-window fairness (§4.3).
pub fn fairness(opts: &RunOptions) {
    let rows = crate::fairness::run(opts.flows.unwrap_or(8), Time::from_ms(200));
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                format!("{:.4}", r.jain_overall),
                format!("{:.4}", r.jain_windowed),
                format!("{:.2}", r.total_gbps),
            ]
        })
        .collect();
    print_table(
        "Probabilistic TCN fairness (synchronized ECN* flows, one queue)",
        &["scheme", "Jain overall", "Jain 10ms-window", "Gbps"],
        &table,
    );
    opts.write_json("fairness", &rows);
}

/// Extension: ECN over a programmable PIFO scheduler (§2.2).
pub fn pifo_demo(opts: &RunOptions) {
    let rows = crate::pifo_demo::run(Time::from_ms(200));
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                r.shares
                    .iter()
                    .map(|s| format!("{s:.2}"))
                    .collect::<Vec<_>>()
                    .join("/"),
                format!("{:.0}", r.rtt_avg_us),
                format!("{:.0}", r.rtt_p99_us),
            ]
        })
        .collect();
    print_table(
        "TCN over PIFO-STFQ 4:2:1:1 (MQ-ECN has no round to measure)",
        &["scheme", "shares", "rtt avg us", "rtt p99 us"],
        &table,
    );
    println!(
        "\nShape check: all schemes preserve the STFQ weights; TCN's probe\n\
         latency beats both queue-length schemes, and MQ-ECN ≈ RED here\n\
         because without a round it degenerates to the static threshold."
    );
    opts.write_json("pifo_demo", &rows);
}

/// Extension: FCT degradation and recovery under fault injection.
pub fn chaos(opts: &RunOptions) {
    let cfg = crate::chaos::ChaosConfig::paper_default();
    let res = crate::chaos::run(&cfg, &opts.scale(false), &opts.sweep());
    let rows: Vec<Vec<String>> = res
        .cells
        .iter()
        .map(|c| {
            vec![
                c.scheme.clone(),
                format!("{:.3}", c.loss),
                if c.flap { "yes" } else { "no" }.to_string(),
                format!("{}/{}", c.completed, c.flows),
                format!("{:.0}", c.overall_avg_us),
                format!("{:.0}", c.small_avg_us),
                format!("{:.0}", c.small_p99_us),
                format!("{:.0}", c.large_avg_us),
                c.timeouts.to_string(),
                c.rtx_packets.to_string(),
                format!("{:.4}", c.rtx_fraction),
                format!("{:.0}", c.goodput_mbps),
                c.loss_drops.to_string(),
                c.dead_link_drops.to_string(),
            ]
        })
        .collect();
    print_table(
        "Chaos — FCT under loss × link flap, leaf-spine, SP(1)+DWRR(7), DCTCP",
        &[
            "scheme", "loss", "flap", "done", "avg us", "small avg", "small p99", "large avg",
            "TOs", "rtx", "rtx frac", "goodput Mb", "losses", "blackholed",
        ],
        &rows,
    );
    if !res.quarantined.is_empty() {
        println!("\nquarantined cells ({}):", res.quarantined.len());
        for q in &res.quarantined {
            println!(
                "  cell {} ({} loss {:.3} flap {}), {} attempt(s): {}",
                q.cell, q.scheme, q.loss, q.flap, q.attempts, q.error
            );
        }
    }
    opts.write_json("chaos", &res);
}

/// Extension: mixed-tenant coexistence — DCTCP, CUBIC and BBR each in
/// their own service class of one star fabric, goodput shares under
/// {WFQ, DWRR} × {TCN, per-queue RED}. `--trace-out F` writes a JSONL
/// telemetry trace of the WFQ+TCN combination (`tests/cli.rs` validates
/// it with `figs check-trace`).
pub fn mixed(opts: &RunOptions) {
    let (warmup, measure) = if opts.quick() {
        (Time::from_ms(40), Time::from_ms(120))
    } else {
        (Time::from_ms(60), Time::from_ms(300))
    };
    let bus = opts.trace_out.as_ref().map(|path| {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("create {}: {e}", path.display());
            std::process::exit(1);
        });
        let bus = tcn_telemetry::Telemetry::new();
        bus.add_sink(Box::new(crate::trace::JsonlSink::new(
            std::io::BufWriter::new(file),
        )));
        bus
    });
    let res = crate::mixed::run(warmup, measure, bus.as_ref());
    let rows: Vec<Vec<String>> = res
        .cells
        .iter()
        .map(|c| {
            vec![
                c.sched.to_string(),
                c.scheme.to_string(),
                c.tenant.to_string(),
                format!("{:.0}", c.goodput_mbps),
                format!("{:.3}", c.share),
                c.timeouts.to_string(),
                c.ecn_reductions.to_string(),
            ]
        })
        .collect();
    print_table(
        "Mixed tenants — DCTCP / CUBIC / BBR, one service class each",
        &["sched", "aqm", "tenant", "Mbps", "share", "TOs", "ecn cuts"],
        &rows,
    );
    for sched in ["wfq", "dwrr"] {
        for scheme in ["TCN", "RED-queue(std)"] {
            let shares: Vec<f64> = res
                .cells
                .iter()
                .filter(|c| c.sched == sched && c.scheme == scheme)
                .map(|c| c.share)
                .collect();
            println!("Jain({sched}, {scheme}) = {:.4}", crate::mixed::jain(&shares));
        }
    }
    println!(
        "\nShape check: the scheduler owns isolation — every tenant holds\n\
         ~1/3 under both schedulers; only the DCTCP tenant cuts on ECN."
    );
    if let Some(path) = &opts.trace_out {
        println!("trace written to {}", path.display());
    }
    opts.write_json("mixed", &res);
}

/// A figure that failed outright in `figs all` (as opposed to a sweep
/// cell quarantined *inside* a figure, which is reported in the figure's
/// own output and does not fail the batch).
pub struct FigureFailure {
    /// Figure name (`fig6`, `chaos`, …).
    pub name: String,
    /// The structured failure, rendered.
    pub error: String,
}

/// Run every figure in-process (the `figs all` / `all` binary path),
/// then the whole scenario library (quick mode).
///
/// Each figure runs under the same isolation machinery the sweeps use
/// per cell ([`crate::runner::run_isolated`]): a panicking or erroring
/// figure comes back as a [`FigureFailure`] instead of aborting the
/// batch, and the caller decides the exit code. Cell-level faults never
/// reach this layer — the sweeps quarantine them and still return a
/// result, so a figure only lands here when it is broken wholesale.
/// A failed scenario joins the same list as `scenario:<id>`.
pub fn run_all(opts: &RunOptions) -> Vec<FigureFailure> {
    let mut failures = Vec::new();
    for fig in FIGURES {
        println!("\n################ {} ################", fig.name);
        if let Err(e) = crate::runner::run_isolated(|| {
            (fig.run)(opts);
            Ok(())
        }) {
            eprintln!("!! {} failed: {e}", fig.name);
            failures.push(FigureFailure {
                name: fig.name.to_string(),
                error: e.to_string(),
            });
        }
    }
    println!("\n################ scenarios ################");
    let batch = crate::scenario::run_library(true, opts.threads(), None)
        .expect("an uncheckpointed scenario batch has no harness error path");
    for report in &batch.reports {
        println!(
            "scenario {}: ok — {}/{} flows, {} steps applied, drops {}, marks {}",
            report.id,
            report.completed,
            report.flows,
            report.reconfigs.len(),
            report.drops,
            report.marks
        );
    }
    for (id, error) in &batch.failures {
        eprintln!("!! scenario {id} failed: {error}");
        failures.push(FigureFailure {
            name: format!("scenario:{id}"),
            error: error.clone(),
        });
    }
    println!();
    if failures.is_empty() {
        println!(
            "all {} figures and {} scenarios succeeded",
            FIGURES.len(),
            crate::scenario::LIBRARY.len()
        );
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), 18);
        names.dedup();
        assert_eq!(names.len(), 18, "duplicate figure names");
        assert!(find("fig6").is_some());
        assert!(find("chaos").is_some());
        assert!(find("mixed").is_some());
        assert!(find("fig14").is_none());
        let sweeps: Vec<&str> = SWEEPS.iter().map(|f| f.name).collect();
        assert_eq!(names[5..13], sweeps[..], "figs 6–13 are the SWEEPS rows, in order");
        assert!(find_sweep("fig5").is_none() && find_sweep("fig13").is_some());
    }

    /// `figs figN` and `figs trace figN` resolve the same row the same
    /// way: `--full` is the paper's fabric *and* the paper's flow count.
    #[test]
    fn full_selects_fabric_and_flow_count_together() {
        let full = RunOptions { preset: Some(crate::options::Preset::Full), ..RunOptions::default() };
        let fabric_hosts = |cfg: SweepConfig| match cfg.env {
            Environment::LeafSpine { cfg, .. } => Some(cfg.num_hosts()),
            Environment::TestbedStar => None,
        };
        let fig10 = find_sweep("fig10").expect("fig10 is a sweep");
        let (cfg, scale) = fig10.resolve(&full);
        assert_eq!((fabric_hosts(cfg), scale.flows), (Some(144), 50_000));
        let (cfg, scale) = fig10.resolve(&RunOptions::default());
        assert_eq!((fabric_hosts(cfg), scale), (Some(16), Scale::quick()));
        let (cfg, scale) = find_sweep("fig6").expect("fig6 is a sweep").resolve(&full);
        assert_eq!((fabric_hosts(cfg), scale.flows), (None, 5_000), "testbed scale");
    }
}
