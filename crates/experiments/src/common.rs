//! Shared experiment plumbing: scheme/scheduler menus, port factories,
//! paper parameter sets, and table printing.

use tcn_baselines::{CoDel, IdealRed, MqEcn, OracleRed, Pie, RedEcn};
use tcn_core::aqm::Aqm;
use tcn_core::{ProbabilisticTcn, Tcn};
use tcn_net::PortSetup;
use tcn_sched::{Dwrr, Fifo, Pifo, Scheduler, SpHybrid, StfqRank, StrictPriority, Wfq, Wrr};
use tcn_sim::{Rate, Time};

/// Experiment scale: `quick` for CI/tests, `full` for paper-scale runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Flows per (scheme, load) cell.
    pub flows: usize,
    /// Network loads to sweep.
    pub loads: &'static [f64],
    /// Random seed.
    pub seed: u64,
}

impl Scale {
    /// CI scale: small flow counts, two loads — finishes in seconds.
    pub fn quick() -> Scale {
        Scale {
            flows: 600,
            loads: &[0.5, 0.8],
            seed: 1,
        }
    }

    /// Paper scale: the paper's flow counts and the full load sweep.
    pub fn full(testbed: bool) -> Scale {
        Scale {
            flows: if testbed { 5_000 } else { 50_000 },
            loads: &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            seed: 1,
        }
    }

    /// A medium scale for recorded EXPERIMENTS.md runs: paper shapes at
    /// tractable cost.
    pub fn medium() -> Scale {
        Scale {
            flows: 4_000,
            loads: &[0.3, 0.5, 0.7, 0.9],
            seed: 1,
        }
    }
}

/// The ECN marking schemes under evaluation (paper §6 "Schemes
/// compared", plus the extensions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// TCN with sojourn threshold `T` (the contribution).
    Tcn {
        /// `T = RTT × λ`.
        threshold: Time,
    },
    /// Probabilistic TCN (§4.3 extension).
    TcnProb {
        /// Lower sojourn threshold.
        t_min: Time,
        /// Upper sojourn threshold.
        t_max: Time,
        /// Max marking probability.
        p_max: f64,
    },
    /// CoDel in marking mode.
    CoDel {
        /// Sojourn target.
        target: Time,
        /// Control interval.
        interval: Time,
    },
    /// MQ-ECN (round-robin schedulers only).
    MqEcn {
        /// `RTT × λ`.
        rtt_lambda: Time,
    },
    /// Per-queue ECN/RED with the standard static threshold — "current
    /// practice".
    RedQueue {
        /// `K = C × RTT × λ` in bytes.
        threshold: u64,
    },
    /// Per-port ECN/RED (the Fig. 1 violator).
    RedPort {
        /// Port-level threshold in bytes.
        threshold: u64,
    },
    /// Dequeue-marking per-queue ECN/RED (Wu et al., Fig. 3).
    RedQueueDequeue {
        /// Threshold in bytes.
        threshold: u64,
    },
    /// The "ideal ECN/RED" driven by Algorithm 1.
    IdealDq {
        /// `RTT × λ`.
        rtt_lambda: Time,
        /// Algorithm 1 `dq_thresh` in bytes.
        dq_thresh: u64,
    },
    /// Ideal ECN/RED with a-priori known per-queue capacities (Fig. 5).
    Oracle {
        /// Per-queue thresholds in bytes (index = queue).
        thresholds: &'static [u64],
    },
    /// PIE (extension baseline).
    Pie {
        /// Target queueing delay.
        target: Time,
    },
    /// No AQM at all (drop-tail control).
    DropTail,
}

impl Scheme {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Tcn { .. } => "TCN",
            Scheme::TcnProb { .. } => "TCN-prob",
            Scheme::CoDel { .. } => "CoDel",
            Scheme::MqEcn { .. } => "MQ-ECN",
            Scheme::RedQueue { .. } => "RED-queue(std)",
            Scheme::RedPort { .. } => "RED-port",
            Scheme::RedQueueDequeue { .. } => "RED-queue-deq",
            Scheme::IdealDq { .. } => "Ideal-dqrate",
            Scheme::Oracle { .. } => "Ideal-oracle",
            Scheme::Pie { .. } => "PIE",
            Scheme::DropTail => "DropTail",
        }
    }

    /// Instantiate the AQM.
    pub fn make_aqm(&self, link: Rate, mtu: u32, seed: u64) -> Box<dyn Aqm> {
        match *self {
            Scheme::Tcn { threshold } => Box::new(Tcn::new(threshold)),
            Scheme::TcnProb { t_min, t_max, p_max } => {
                Box::new(ProbabilisticTcn::new(t_min, t_max, p_max, seed))
            }
            Scheme::CoDel { target, interval } => Box::new(CoDel::new(target, interval)),
            Scheme::MqEcn { rtt_lambda } => Box::new(MqEcn::paper_config(rtt_lambda, link, mtu)),
            Scheme::RedQueue { threshold } => Box::new(RedEcn::per_queue(threshold)),
            Scheme::RedPort { threshold } => Box::new(RedEcn::per_port(threshold)),
            Scheme::RedQueueDequeue { threshold } => {
                Box::new(RedEcn::per_queue(threshold).at_dequeue())
            }
            Scheme::IdealDq {
                rtt_lambda,
                dq_thresh,
            } => Box::new(IdealRed::new(rtt_lambda, dq_thresh)),
            Scheme::Oracle { thresholds } => Box::new(OracleRed::new(thresholds.to_vec())),
            Scheme::Pie { target } => Box::new(Pie::new(target, Time::from_us(500), seed)),
            Scheme::DropTail => Box::new(tcn_core::aqm::NoAqm),
        }
    }
}

/// The packet schedulers under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// Single FIFO queue.
    Fifo,
    /// Strict priority over all queues.
    Sp,
    /// Weighted round robin, equal weights.
    Wrr,
    /// DWRR with equal quanta (paper default 1.5 KB).
    Dwrr {
        /// Per-queue quantum in bytes.
        quantum: u64,
    },
    /// WFQ with equal weights.
    Wfq,
    /// 1 strict queue above equal-quanta DWRR.
    SpDwrr {
        /// DWRR quantum in bytes.
        quantum: u64,
    },
    /// 1 strict queue above equal-weight WFQ.
    SpWfq,
    /// PIFO running STFQ ranks (extension).
    PifoStfq,
    /// PIFO-STFQ with fixed 4:2:1:1 weights (the pifo_demo experiment).
    PifoStfq4211,
}

impl SchedKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedKind::Fifo => "FIFO",
            SchedKind::Sp => "SP",
            SchedKind::Wrr => "WRR",
            SchedKind::Dwrr { .. } => "DWRR",
            SchedKind::Wfq => "WFQ",
            SchedKind::SpDwrr { .. } => "SP/DWRR",
            SchedKind::SpWfq => "SP/WFQ",
            SchedKind::PifoStfq => "PIFO-STFQ",
            SchedKind::PifoStfq4211 => "PIFO-STFQ-4211",
        }
    }

    /// Instantiate for `nqueues` queues.
    pub fn make(&self, nqueues: usize) -> Box<dyn Scheduler> {
        match *self {
            SchedKind::Fifo => Box::new(Fifo::new()),
            SchedKind::Sp => Box::new(StrictPriority::new(nqueues)),
            SchedKind::Wrr => Box::new(Wrr::new(vec![1; nqueues])),
            SchedKind::Dwrr { quantum } => Box::new(Dwrr::equal(nqueues, quantum)),
            SchedKind::Wfq => Box::new(Wfq::equal(nqueues)),
            SchedKind::SpDwrr { quantum } => {
                assert!(nqueues >= 2);
                Box::new(SpHybrid::new(1, Dwrr::equal(nqueues - 1, quantum)))
            }
            SchedKind::SpWfq => {
                assert!(nqueues >= 2);
                Box::new(SpHybrid::new(1, Wfq::equal(nqueues - 1)))
            }
            SchedKind::PifoStfq => Box::new(Pifo::new(nqueues, StfqRank::new(vec![1.0; nqueues]))),
            SchedKind::PifoStfq4211 => {
                assert_eq!(nqueues, 4, "the 4:2:1:1 preset is four queues");
                Box::new(Pifo::new(4, StfqRank::new(vec![4.0, 2.0, 1.0, 1.0])))
            }
        }
    }

    /// True if the scheduler exposes a round (so MQ-ECN applies).
    pub fn has_round(&self) -> bool {
        matches!(self, SchedKind::Wrr | SchedKind::Dwrr { .. })
    }
}

/// A [`PortSetup`] factory for switch ports.
#[allow(clippy::too_many_arguments)] // experiment knobs, one call site each
pub fn switch_port(
    nqueues: usize,
    buffer: Option<u64>,
    tx_rate: Option<Rate>,
    sched: SchedKind,
    scheme: Scheme,
    link: Rate,
    mtu: u32,
    seed: u64,
) -> PortSetup {
    PortSetup {
        nqueues,
        buffer,
        tx_rate,
        make_sched: Box::new(move || sched.make(nqueues)),
        make_aqm: Box::new(move || scheme.make_aqm(link, mtu, seed)),
    }
}

/// Paper parameter sets, one place so every figure agrees.
pub mod params {
    use tcn_sim::{Rate, Time};

    /// Testbed (§6.1): 1 Gbps, base RTT ≈ 250 µs.
    pub mod testbed {
        use super::*;

        /// Link rate.
        pub const RATE: Rate = Rate(1_000_000_000);
        /// One-way per-link propagation delay (RTT = 4 × this).
        pub const LINK_DELAY: Time = Time(62_500_000_000 / 1000);
        /// Per-port shared buffer (96 KB).
        pub const BUFFER: u64 = 96_000;
        /// Standard RED threshold (32 KB).
        pub const RED_K: u64 = 32_000;
        /// Standard TCN threshold (256 µs).
        pub const TCN_T: Time = Time(256 * 1_000_000);
        /// CoDel target (51.2 µs; §6.1 experimental best).
        pub const CODEL_TARGET: Time = Time(51_200_000);
        /// CoDel interval (1024 µs).
        pub const CODEL_INTERVAL: Time = Time(1024 * 1_000_000);
        /// MTU.
        pub const MTU: u32 = 1_500;
        /// PIAS demotion threshold (100 KB).
        pub const PIAS_THRESH: u64 = 100_000;
        /// DWRR quantum (1.5 KB).
        pub const QUANTUM: u64 = 1_500;
    }

    /// Large-scale simulation (§6.2): 10 Gbps leaf-spine, base RTT
    /// 85.2 µs.
    pub mod sim {
        use super::*;

        /// Link rate.
        pub const RATE: Rate = Rate(10_000_000_000);
        /// Per-port shared buffer (300 KB).
        pub const BUFFER: u64 = 300_000;
        /// DCTCP standard RED threshold: 65 packets × 1.5 KB.
        pub const RED_K_DCTCP: u64 = 65 * 1_500;
        /// DCTCP TCN threshold: 78 µs.
        pub const TCN_T_DCTCP: Time = Time(78 * 1_000_000);
        /// ECN\* standard RED threshold: 84 packets × 1.5 KB (§6.2.2).
        pub const RED_K_ECNSTAR: u64 = 84 * 1_500;
        /// ECN\* TCN threshold: 101 µs.
        pub const TCN_T_ECNSTAR: Time = Time(101 * 1_000_000);
        /// CoDel target, scaled from the testbed tuning (≈ T/5).
        pub const CODEL_TARGET: Time = Time(16 * 1_000_000);
        /// CoDel interval (≈ 4 × base RTT).
        pub const CODEL_INTERVAL: Time = Time(340 * 1_000_000);
        /// MTU.
        pub const MTU: u32 = 1_500;
        /// PIAS demotion threshold (100 KB).
        pub const PIAS_THRESH: u64 = 100_000;
        /// DWRR quantum (1.5 KB).
        pub const QUANTUM: u64 = 1_500;
    }
}

/// Build the standard FCT-sweep chart set (small avg / small p99 /
/// large avg vs load, one line per scheme) used by every fig6–fig13
/// binary's `--svg` mode.
pub fn sweep_charts(title: &str, cells: &[crate::fct_sweep::SweepCell]) -> Vec<(String, String)> {
    use tcn_plot::{LineChart, Series};
    let schemes: Vec<String> = {
        let mut v: Vec<String> = cells.iter().map(|c| c.scheme.clone()).collect();
        v.dedup();
        v
    };
    let metric =
        |name: &str, get: &dyn Fn(&crate::fct_sweep::SweepCell) -> f64| -> (String, String) {
            let mut ch = LineChart::new(format!("{title} — {name}"), "load", "FCT (us)");
            for s in &schemes {
                let pts: Vec<(f64, f64)> = cells
                    .iter()
                    .filter(|c| &c.scheme == s)
                    .map(|c| (c.load, get(c)))
                    .collect();
                ch.push(Series::new(s.clone(), pts));
            }
            (name.replace(' ', "_"), ch.render())
        };
    vec![
        metric("small avg", &|c| c.small_avg_us),
        metric("small p99", &|c| c.small_p99_us),
        metric("large avg", &|c| c.large_avg_us),
        metric("overall avg", &|c| c.overall_avg_us),
    ]
}

/// Fixed-width table printing for the binaries.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(header.iter().map(|s| s.to_string()).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_unique() {
        let schemes = [
            Scheme::Tcn {
                threshold: Time::from_us(1),
            },
            Scheme::CoDel {
                target: Time::from_us(1),
                interval: Time::from_us(2),
            },
            Scheme::MqEcn {
                rtt_lambda: Time::from_us(1),
            },
            Scheme::RedQueue { threshold: 1 },
            Scheme::RedPort { threshold: 1 },
            Scheme::RedQueueDequeue { threshold: 1 },
            Scheme::IdealDq {
                rtt_lambda: Time::from_us(1),
                dq_thresh: 1,
            },
            Scheme::Pie {
                target: Time::from_us(1),
            },
            Scheme::DropTail,
        ];
        let names: Vec<&str> = schemes.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn schedulers_instantiable_for_paper_queue_counts() {
        for nq in [1usize, 2, 4, 5, 8, 32] {
            let _ = SchedKind::Fifo.make(nq);
            let _ = SchedKind::Wfq.make(nq);
            let _ = SchedKind::Dwrr { quantum: 1500 }.make(nq);
            if nq >= 2 {
                let _ = SchedKind::SpDwrr { quantum: 1500 }.make(nq);
                let _ = SchedKind::SpWfq.make(nq);
            }
        }
    }

    #[test]
    fn round_property_matches_paper() {
        assert!(SchedKind::Dwrr { quantum: 1500 }.has_round());
        assert!(SchedKind::Wrr.has_round());
        assert!(!SchedKind::Wfq.has_round());
        assert!(!SchedKind::SpDwrr { quantum: 1500 }.has_round());
        assert!(!SchedKind::PifoStfq.has_round());
    }

    #[test]
    fn paper_params_consistent() {
        use params::*;
        // K / C == T for the testbed (λ folded in on both sides).
        assert_eq!(testbed::RATE.tx_time(testbed::RED_K), testbed::TCN_T);
        // Sim: 97.5 KB at 10 Gbps = 78 µs.
        assert_eq!(sim::RATE.tx_time(sim::RED_K_DCTCP), sim::TCN_T_DCTCP);
        // ECN*: 126 KB at 10 Gbps = 100.8 µs ≈ the paper's 101 µs.
        let t = sim::RATE.tx_time(sim::RED_K_ECNSTAR);
        assert!((t.as_us_f64() - sim::TCN_T_ECNSTAR.as_us_f64()).abs() < 0.5);
    }

    #[test]
    fn scale_presets() {
        assert!(Scale::quick().flows < Scale::medium().flows);
        assert_eq!(Scale::full(true).flows, 5_000);
        assert_eq!(Scale::full(false).flows, 50_000);
        assert_eq!(Scale::full(true).loads.len(), 9);
    }
}
