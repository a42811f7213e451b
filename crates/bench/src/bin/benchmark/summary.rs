//! Order statistics, the end-to-end metric table with its bounds, and
//! the `compare` rule that applies them.

use tcn_experiments::json::{Json, ToJson};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, failures).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// An end-to-end metric and how much worse it may get.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name in every result file.
    pub name: &'static str,
    /// Unit printed beside it.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening as a share of the baseline median.
    pub bound: f64,
    /// Allowed worsening in the metric's own unit when that is larger
    /// than the relative bound (set-up times well under a millisecond).
    pub floor: f64,
}

/// The end-to-end metrics, per workload. The two times are quiet-host
/// figures ([`quiet_sum`], [`fastest`]), not medians of the reps.
pub const END_TO_END: [MetricDef; 5] = [
    MetricDef {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
    },
    MetricDef {
        name: "pkt_hops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        floor: 0.0,
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        floor: 0.0,
    },
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0002,
    },
    MetricDef {
        name: "fail_share",
        unit: "share",
        better: Better::Lower,
        bound: 0.0,
        floor: 0.0,
    },
];

/// Median and quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Quartiles {
    /// Quartiles by the rule of Python's `statistics.quantiles(xs, n=4)`
    /// (exclusive method), so spreads computed here match the ones a
    /// driver computes from the same values. One value is its own
    /// quartiles.
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn of(xs: &[f64]) -> Quartiles {
        assert!(!xs.is_empty(), "quartiles of an empty sample");
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let cut = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Quartiles {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
            n,
        }
    }
}

/// The run time of a quiet host: the sum, over timing windows, of the
/// fastest timing any rep saw in that window. Interference from other
/// tenants of the host comes in bursts much shorter than a rep and only
/// ever adds time, so each window's minimum over the reps is its
/// undisturbed cost, where a whole rep's time (and the median of a few)
/// moves with how busy the host happened to be. The estimate falls as
/// reps are added, so a run's rep count must not depend on what it
/// measures. Reps that stopped early (fewer windows than the longest)
/// are left out.
pub fn quiet_sum(reps: &[Vec<f64>]) -> f64 {
    let len = reps.iter().map(Vec::len).max().unwrap_or(0);
    let whole: Vec<&Vec<f64>> = reps.iter().filter(|r| r.len() == len).collect();
    (0..len).map(|i| fastest(whole.iter().map(|r| r[i]))).sum()
}

/// The smallest of `timings`: the one least disturbed.
pub fn fastest(timings: impl IntoIterator<Item = f64>) -> f64 {
    timings.into_iter().fold(f64::INFINITY, f64::min)
}

/// A reported metric: the value that is compared and bounded, beside
/// the quartiles of the per-rep samples it was distilled from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// What `compare` and the result line use.
    pub value: f64,
    /// Spread of the raw samples, for the reader.
    pub reps: Quartiles,
}

impl Stat {
    /// A metric measured once per run.
    pub fn single(value: f64) -> Stat {
        Stat {
            value,
            reps: Quartiles::of(&[value]),
        }
    }

    /// `{unit, value, median, q1, q3, n}`.
    pub fn to_json(self, unit: &str) -> Json {
        Json::obj(vec![
            ("unit", unit.to_json()),
            ("value", self.value.to_json()),
            ("median", self.reps.median.to_json()),
            ("q1", self.reps.q1.to_json()),
            ("q3", self.reps.q3.to_json()),
            ("n", self.reps.n.to_json()),
        ])
    }
}

/// Verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// How much worse `b` is than `a`, in the metric's unit (negative
    /// when it is better).
    pub worse_by: f64,
    /// The largest `worse_by` that still passes.
    pub allowed: f64,
}

impl Verdict {
    /// Whether the bound holds.
    pub fn ok(&self) -> bool {
        self.worse_by <= self.allowed
    }
}

/// Apply `def`'s bound to baseline value `a` and candidate value `b`.
pub fn judge(def: &MetricDef, a: f64, b: f64) -> Verdict {
    let worse_by = match def.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    Verdict {
        worse_by,
        allowed: (def.bound * a.abs()).max(def.floor),
    }
}

fn workloads_of(doc: &Json) -> Result<&[Json], String> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "no `workloads` array".to_string())
}

fn find_workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    workloads_of(doc)
        .ok()?
        .iter()
        .find(|w| w.str_field("workload") == Ok(name))
}

/// Compare two `run --out` files: one row per (metric, workload) under
/// the bounds, then one row per exact count that differs. Returns the
/// report and whether every row passed.
///
/// # Errors
/// A description of what is missing from either file.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut all_ok = true;
    let _ = writeln!(
        out,
        "{:<14} {:<15} {:>14} {:>14} {:>9} {:>9}  verdict",
        "workload", "metric", "A", "B", "worse by", "allowed"
    );
    for wa in workloads_of(a)? {
        let name = wa.str_field("workload")?;
        let wb = find_workload(b, name).ok_or_else(|| format!("B lacks workload {name}"))?;
        for def in &END_TO_END {
            let value = |w: &Json| -> Result<f64, String> {
                w.get("end_to_end")
                    .and_then(|e| e.get(def.name))
                    .ok_or_else(|| format!("{name} lacks {}", def.name))?
                    .f64_field("value")
            };
            let (ma, mb) = (value(wa)?, value(wb)?);
            let v = judge(def, ma, mb);
            all_ok &= v.ok();
            let _ = writeln!(
                out,
                "{:<14} {:<15} {:>14.6} {:>14.6} {:>8.2}% {:>8.2}%  {}",
                name,
                def.name,
                ma,
                mb,
                pct(v.worse_by, ma),
                pct(v.allowed, ma),
                if v.ok() { "ok" } else { "BREACH" }
            );
        }
        let counts = |w: &'_ Json| -> Result<Vec<(String, f64)>, String> {
            match w.get("counts") {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or("non-numeric count")?)))
                    .collect(),
                _ => Err(format!("{name} lacks counts")),
            }
        };
        let (ca, cb) = (counts(wa)?, counts(wb)?);
        if wa.u64_field("seed") != wb.u64_field("seed") {
            let _ = writeln!(out, "{name:<14} counts not compared: the seeds differ");
        } else {
            for ((ka, va), (_, vb)) in ca.iter().zip(&cb).filter(|(x, y)| x != y) {
                all_ok = false;
                let _ = writeln!(out, "{name:<14} {ka:<32} {va} != {vb}  COUNT DIFFERS");
            }
            if ca.len() != cb.len() {
                all_ok = false;
                let _ = writeln!(out, "{name:<14} the two files list different counts");
            }
        }
    }
    Ok((out, all_ok))
}

fn pct(x: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        100.0 * x / base.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END
            .iter()
            .find(|d| d.name == name)
            .expect("metric exists")
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&xs);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]; order must not matter.
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        let q = Quartiles::of(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!((q.q1, q.median, q.q3), (15.0, 30.0, 45.0));
        // quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        let q = Quartiles::of(&[7.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (7.0, 7.0, 7.0, 1));
    }

    #[test]
    fn relative_bounds_follow_the_metric_direction() {
        // run_s: 10 % slower passes, 10.1 % slower breaches, faster passes.
        assert!(judge(def("run_s"), 10.0, 11.0).ok());
        assert!(!judge(def("run_s"), 10.0, 11.01).ok());
        assert!(judge(def("run_s"), 10.0, 5.0).ok());
        // pkt_hops_per_s is higher-better: a drop is what counts.
        assert!(judge(def("pkt_hops_per_s"), 1e6, 0.91e6).ok());
        assert!(!judge(def("pkt_hops_per_s"), 1e6, 0.89e6).ok());
        assert!(judge(def("pkt_hops_per_s"), 1e6, 2e6).ok());
        assert!(judge(def("peak_rss_mb"), 100.0, 114.0).ok());
        assert!(!judge(def("peak_rss_mb"), 100.0, 116.0).ok());
    }

    #[test]
    fn setup_floor_and_zero_fail_bound() {
        // 25 % of 10 us is 2.5 us, but 0.2 ms absolute is allowed.
        assert!(judge(def("setup_s"), 0.000_010, 0.000_209).ok());
        assert!(!judge(def("setup_s"), 0.000_010, 0.000_211).ok());
        // Above 0.8 ms the relative bound is the larger one.
        assert!(judge(def("setup_s"), 0.004, 0.005).ok());
        assert!(!judge(def("setup_s"), 0.004, 0.005_01).ok());
        // fail_share may not rise at all.
        assert!(judge(def("fail_share"), 0.0, 0.0).ok());
        assert!(!judge(def("fail_share"), 0.0, 1e-9).ok());
        assert!(judge(def("fail_share"), 0.1, 0.0).ok());
    }

    #[test]
    fn quiet_sum_takes_each_windows_fastest_rep() {
        // A burst hits window 1 of rep 0 and window 0 of rep 1; no rep
        // is clean, yet the quiet sum is the clean run: 1 + 2 + 3.
        let reps = vec![
            vec![1.0, 9.0, 3.0],
            vec![5.0, 2.0, 3.5],
            vec![1.5, 2.5, 3.0],
        ];
        assert_eq!(quiet_sum(&reps), 6.0);
        // A rep that stopped early does not shorten or lower the sum.
        let mut with_stub = reps.clone();
        with_stub.push(vec![0.1]);
        assert_eq!(quiet_sum(&with_stub), 6.0);
        assert_eq!(quiet_sum(&[]), 0.0);
    }

    fn doc(run_s: f64, events: f64) -> Json {
        let e2e = END_TO_END
            .iter()
            .map(|d| {
                let v = if d.name == "run_s" { run_s } else { 1.0 };
                let v = if d.name == "fail_share" { 0.0 } else { v };
                (d.name, Stat::single(v).to_json(d.unit))
            })
            .collect();
        Json::obj(vec![(
            "workloads",
            Json::Arr(vec![Json::obj(vec![
                ("workload", "star_mq".to_json()),
                ("seed", 1u64.to_json()),
                ("end_to_end", Json::obj(e2e)),
                ("counts", Json::obj(vec![("sim.events", events.to_json())])),
            ])]),
        )])
    }

    #[test]
    fn compare_flags_breaches_and_count_drift() {
        let (report, ok) = compare(&doc(1.0, 5.0), &doc(1.09, 5.0)).expect("well-formed");
        assert!(ok, "{report}");
        let (report, ok) = compare(&doc(1.0, 5.0), &doc(1.11, 5.0)).expect("well-formed");
        assert!(!ok && report.contains("BREACH"), "{report}");
        let (report, ok) = compare(&doc(1.0, 5.0), &doc(1.0, 6.0)).expect("well-formed");
        assert!(!ok && report.contains("COUNT DIFFERS"), "{report}");
        assert!(compare(&doc(1.0, 5.0), &Json::obj(vec![])).is_err());
    }
}
