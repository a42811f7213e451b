//! One run of one workload in this process: a warm-up rep that fixes
//! the exact counts, then timed reps (tracing off) or pairs of untraced
//! and traced reps plus the layer kernels (tracing on), with every rep
//! checked against the warm-up before any number is reported.

use std::fmt::Write as _;

use tcn_experiments::json::{Json, ToJson};

use crate::kernels;
use crate::spans::Tracer;
use crate::summary::{fastest, quiet_sum, Better, Quartiles, Stat, END_TO_END};
use crate::workloads::{run_rep, time_set_up, Counts, RepOut, Sizes, Workload};

/// Seconds of `--seconds` that buy one timed rep: a rep of any workload
/// takes about 3.5 s on the 2-core reference host.
const REP_SLOT_S: u64 = 4;

/// Fewest timed reps a run distils its figures from.
const MIN_REPS: u64 = 3;

/// Set-ups a run times for `setup_s`. They take milliseconds, so a run
/// affords more of them than reps.
const SETUP_ROUNDS: usize = 15;

/// Timed reps of a run told to measure for `seconds`. It depends on
/// nothing the run measures: a faster build gets no more reps, which
/// would lower its quiet-host figures by themselves.
fn timed_reps(seconds: u64) -> u64 {
    (seconds / REP_SLOT_S).max(MIN_REPS)
}

/// Printed under the end-to-end table.
const QUIET_NOTE: &str =
    "   (times are quiet-host figures: each run is timed in 20 steps per cell, \
    and the fastest timing\n    of every step over the reps is summed; set-up is its fastest \
    round. `reps:` shows whole reps.)\n";

/// Printed under the per-layer table.
const ATTRIBUTION_NOTE: &str = "   (run_share_est.* = exact count x kernel time. The port and \
    transport kernels run cache-hot\n    and alone, so those shares are lower bounds; the queue \
    kernel holds 64 Ki events, more than\n    these runs keep queued, so its share is an estimate.)\n";

/// Index of `net.run_s` in [`STAGES`].
const RUN_STAGE: usize = 4;

/// The stage spans whose self time is a per-layer metric.
const STAGES: [&str; 8] = [
    "workloads.gen_s",
    "net.build_s",
    "net.add_flows_s",
    "net.install_faults_s",
    "net.run_s",
    "stats.collect_s",
    "stats.summarise_s",
    "experiments.to_json_s",
];

/// Name, unit and direction of every per-layer metric, in report order.
pub fn per_layer_defs() -> Vec<(String, &'static str, Better)> {
    let higher = [
        "transport.delivered_bytes",
        "stats.flows_completed",
        "stats.jain",
    ];
    let mut defs = Vec::new();
    for (name, _) in Counts::default().rows() {
        let unit = match name {
            "sim.events_per_pkt_hop" => "1/hop",
            "stats.overall_avg_fct_us" | "stats.small_p99_fct_us" => "us",
            "stats.jain" => "share",
            n if n.ends_with("_bytes") => "B",
            _ => "count",
        };
        let better = if higher.contains(&name) {
            Better::Higher
        } else {
            Better::Lower
        };
        defs.push((name.to_string(), unit, better));
    }
    for stage in STAGES {
        defs.push((stage.to_string(), "s", Better::Lower));
    }
    for name in ["net.run_ns_per_event", "net.run_ns_per_pkt_hop"] {
        defs.push((name.to_string(), "ns", Better::Lower));
    }
    defs.push(("trace.overhead_share".to_string(), "share", Better::Lower));
    for name in kernels::names() {
        let unit = if name == kernels::BUILD_METRIC {
            "us"
        } else {
            "ns"
        };
        defs.push((name, unit, Better::Lower));
    }
    for layer in ["queue", "port", "transport"] {
        defs.push((format!("net.run_share_est.{layer}"), "share", Better::Lower));
    }
    defs.push((
        "net.run_unattributed_share".to_string(),
        "share",
        Better::Lower,
    ));
    defs
}

/// `{value, unit}`, as the result line and the `--out` files hold it.
fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", value.to_json()), ("unit", unit.to_json())])
}

/// Everything one run measured and checked.
pub struct Measurement {
    workload: Workload,
    seed: u64,
    seconds: u64,
    reps: usize,
    /// Flows one rep registers.
    flows_per_rep: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    counts: Counts,
    peak_rss_mb: f64,
    /// `(metric, unit, value)`; empty on a traced run.
    end_to_end: Vec<(&'static str, &'static str, Stat)>,
    /// `(metric, unit, value)`; empty on an untraced run.
    per_layer: Vec<(String, &'static str, f64)>,
    /// Spans of the last traced rep.
    spans: Option<Json>,
}

/// Measure `w`: a warm-up rep, then [`timed_reps`]`(seconds)` reps.
pub fn measure(w: Workload, seed: u64, seconds: u64, trace: bool) -> Measurement {
    let sizes = Sizes::BENCH;
    let warm = run_rep(w, seed, &sizes, &mut Tracer::off(), None);
    // Read here, after the process's first rep: the allocation sequence
    // up to this point is fixed by the seed, later reps only add
    // allocator fragmentation that depends on how many fit in the run.
    let peak_rss_mb = peak_rss_mb();
    let mut m = Measurement {
        workload: w,
        seed,
        seconds,
        reps: 0,
        flows_per_rep: w.cells(&sizes).iter().map(|c| c.flow_count()).sum(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        counts: warm.counts.clone(),
        peak_rss_mb,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        spans: None,
    };
    m.tally(&warm, &warm);
    if trace {
        m.traced(&sizes, &warm);
    } else {
        m.timed(&sizes, &warm);
    }
    m
}

impl Measurement {
    /// Count one rep's operations; a rep that does not reproduce the
    /// warm-up rep's counts fails as a whole.
    fn tally(&mut self, rep: &RepOut, warm: &RepOut) {
        let flows = self.flows_per_rep;
        self.attempted += flows;
        self.problems.extend(rep.problems.iter().cloned());
        if rep.counts == warm.counts {
            self.failed += rep.failed;
            return;
        }
        self.failed += flows;
        let (a, b) = (warm.counts.rows(), rep.counts.rows());
        let diff = a.iter().zip(&b).find(|(x, y)| x != y);
        let what = diff.map_or(String::new(), |((k, x), (_, y))| {
            format!(": {k} {x} vs {y}")
        });
        self.problems.push(format!(
            "{}: a rep disagrees with the warm-up rep{what}",
            self.workload.name()
        ));
    }

    fn timed(&mut self, sizes: &Sizes, warm: &RepOut) {
        let ends = Some(warm.sim_ends.as_slice());
        let mut windows = Vec::new();
        for _ in 0..timed_reps(self.seconds) {
            let rep = run_rep(self.workload, self.seed, sizes, &mut Tracer::off(), ends);
            self.tally(&rep, warm);
            windows.push(rep.windows);
        }
        self.reps = windows.len();
        let mut setup = vec![warm.setup_s];
        for _ in 0..SETUP_ROUNDS {
            match time_set_up(self.workload, self.seed, sizes) {
                Ok(s) => setup.push(s),
                Err(e) => self.problems.push(format!("set-up: {e}")),
            }
        }
        let hops = self.counts.pkt_hops() as f64;
        let totals: Vec<f64> = windows.iter().map(|w| w.iter().sum()).collect();
        let rates: Vec<f64> = totals.iter().map(|s| hops / s).collect();
        let run_s = quiet_sum(&windows);
        let values = [
            Stat {
                value: run_s,
                reps: Quartiles::of(&totals),
            },
            Stat {
                value: hops / run_s,
                reps: Quartiles::of(&rates),
            },
            Stat::single(self.peak_rss_mb),
            Stat {
                value: fastest(setup.iter().copied()),
                reps: Quartiles::of(&setup),
            },
            Stat::single(self.failed as f64 / self.attempted as f64),
        ];
        self.end_to_end = END_TO_END
            .iter()
            .zip(values)
            .map(|(d, v)| (d.name, d.unit, v))
            .collect();
    }

    fn traced(&mut self, sizes: &Sizes, warm: &RepOut) {
        let (mut plain_windows, mut traced_windows) = (Vec::new(), Vec::new());
        let mut slices = Vec::new();
        let mut stages: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
        let ends = Some(warm.sim_ends.as_slice());
        // Untraced and traced reps alternate, so both see the same host.
        // One pair fewer than a timed run has reps: the kernels take
        // about four seconds more.
        for _ in 1..timed_reps(self.seconds) {
            let plain = run_rep(self.workload, self.seed, sizes, &mut Tracer::off(), ends);
            self.tally(&plain, warm);
            plain_windows.push(plain.windows);

            let mut tracer = Tracer::on();
            let traced = run_rep(self.workload, self.seed, sizes, &mut tracer, ends);
            self.tally(&traced, warm);
            traced_windows.push(traced.windows);
            slices.push(tracer.durations("net.run.slice"));
            for (samples, stage) in stages.iter_mut().zip(STAGES) {
                samples.push(tracer.self_seconds(stage));
            }
            self.spans = Some(tracer.to_json(self.workload.name()));
        }
        self.reps = plain_windows.len();

        let mut rows: Vec<(String, f64)> = self
            .counts
            .rows()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        // Like the end-to-end times, each stage is its fastest sighting.
        // The slices cover the run; report it whole.
        let net_run_s = quiet_sum(&slices) + fastest(stages[RUN_STAGE].iter().copied());
        for (i, (samples, stage)) in stages.iter().zip(STAGES).enumerate() {
            let s = if i == RUN_STAGE {
                net_run_s
            } else {
                fastest(samples.iter().copied())
            };
            rows.push((stage.to_string(), s));
        }
        let run_ns = net_run_s * 1e9;
        rows.push((
            "net.run_ns_per_event".to_string(),
            run_ns / self.counts.events() as f64,
        ));
        rows.push((
            "net.run_ns_per_pkt_hop".to_string(),
            run_ns / self.counts.pkt_hops() as f64,
        ));
        let (plain, traced) = (quiet_sum(&plain_windows), quiet_sum(&traced_windows));
        rows.push(("trace.overhead_share".to_string(), (traced - plain) / plain));

        let kernel_rows = kernels::run_all();
        let kernel = |name: &str| {
            kernel_rows
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0.0, |(_, v)| *v)
        };
        // Count × kernel time; `ATTRIBUTION_NOTE` says how far to trust it.
        let share_of = |prefix: &str| {
            let ns: f64 = warm
                .ops
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, n)| *n as f64 * kernel(k))
                .sum();
            ns / run_ns
        };
        let queue = self.counts.events() as f64 * kernel("sim.queue_batch_ns_per_event") / run_ns;
        let port = share_of("net.port_ns_per_pkt.");
        let transport = share_of("transport.ack_ns.");
        rows.extend(kernel_rows.iter().cloned());
        rows.push(("net.run_share_est.queue".to_string(), queue));
        rows.push(("net.run_share_est.port".to_string(), port));
        rows.push(("net.run_share_est.transport".to_string(), transport));
        rows.push((
            "net.run_unattributed_share".to_string(),
            1.0 - queue - port - transport,
        ));
        let defs = per_layer_defs();
        let with_unit = |(name, v): (String, f64)| {
            let unit = defs
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or("?", |d| d.1);
            (name, unit, v)
        };
        self.per_layer = rows.into_iter().map(with_unit).collect();
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The table a person reads.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} · seed {} · {} timed rep(s) after 1 warm-up · {} flows attempted, {} failed",
            self.workload.name(),
            self.seed,
            self.reps,
            self.attempted,
            self.failed
        );
        let _ = writeln!(out, "   why: {}", self.workload.why());
        for p in &self.problems {
            let _ = writeln!(out, "   PROBLEM {p}");
        }
        for (name, unit, v) in &self.end_to_end {
            let _ = writeln!(
                out,
                "   {name:<16} {:>16.6} {unit:<6} reps: median {:.6}  q1 {:.6}  q3 {:.6}  n {}",
                v.value, v.reps.median, v.reps.q1, v.reps.q3, v.reps.n
            );
        }
        if !self.end_to_end.is_empty() {
            out.push_str(QUIET_NOTE);
        }
        for (name, unit, value) in &self.per_layer {
            let _ = writeln!(out, "   {name:<42} {value:>18.6} {unit}");
        }
        if !self.per_layer.is_empty() {
            out.push_str(ATTRIBUTION_NOTE);
        }
        out
    }

    /// The driver contract's result object. `fail_share` is carried by
    /// `failed`/`attempted` instead of `metrics`: it is 0 on a healthy
    /// run, and a metric that is always 0 has no spread to bound.
    pub fn result_line(&self) -> Json {
        let metrics: Vec<(String, Json)> = if self.per_layer.is_empty() {
            self.end_to_end
                .iter()
                .filter(|(name, _, _)| *name != "fail_share")
                .map(|(name, unit, v)| (name.to_string(), metric_json(v.value, unit)))
                .collect()
        } else {
            self.per_layer
                .iter()
                .map(|(name, unit, v)| (name.clone(), metric_json(*v, unit)))
                .collect()
        };
        Json::obj(vec![
            ("correct", self.correct().to_json()),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Everything, for the `--out` file of `run` and `trace`.
    pub fn detail(&self) -> Json {
        let mut fields = vec![
            ("workload", self.workload.name().to_json()),
            ("seed", self.seed.to_json()),
            ("seconds", self.seconds.to_json()),
            ("timed_reps", self.reps.to_json()),
            ("correct", self.correct().to_json()),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("problems", self.problems.to_json()),
            (
                "end_to_end",
                Json::Obj(
                    self.end_to_end
                        .iter()
                        .map(|(name, unit, v)| (name.to_string(), v.to_json(unit)))
                        .collect(),
                ),
            ),
            (
                "counts",
                Json::Obj(
                    self.counts
                        .rows()
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Json::Obj(
                    self.per_layer
                        .iter()
                        .map(|(name, unit, v)| (name.clone(), metric_json(*v, unit)))
                        .collect(),
                ),
            ),
        ];
        if let Some(spans) = &self.spans {
            fields.push(("spans", spans.clone()));
        }
        Json::obj(fields)
    }
}

/// Peak resident set of this process (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_within_the_schema_limits() {
        let defs = per_layer_defs();
        assert!(defs.len() <= 128, "{} per-layer metrics", defs.len());
        for (i, (name, unit, _)) in defs.iter().enumerate() {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(
                defs[..i].iter().all(|(n, _, _)| n != name),
                "{name} listed twice"
            );
        }
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
