//! JSONL telemetry traces: the on-disk sink and its schema validator.
//!
//! A traced run streams every [`tcn_telemetry::Event`] as one compact
//! JSON object per line (reusing the workspace's hand-rolled
//! [`crate::json`] layer — no serde). The schema is deliberately flat:
//! every line has a `"kind"` tag and an `"at_ps"` timestamp, plus the
//! per-kind fields listed in [`REQUIRED_FIELDS`]. [`validate_trace`]
//! re-parses a trace and checks every line against that table; the
//! `figs check-trace` subcommand runs it, and `tests/cli.rs` runs that
//! on every trace writer's output.

use std::io::{BufRead, Write};

use tcn_telemetry::{Event, Sink};

use crate::json::Json;

/// Per-kind required numeric fields, beyond `kind` and `at_ps`.
/// (`aqm`/`sched` are required *string* fields of their kinds;
/// `dequeue`/`marked` are booleans.)
pub const REQUIRED_FIELDS: &[(&str, &[&str])] = &[
    ("tick", &["events", "pending"]),
    ("enqueue", &["port", "queue", "bytes", "dscp"]),
    ("dequeue", &["port", "queue", "bytes", "sojourn_ps"]),
    ("buffer_drop", &["port", "queue", "bytes"]),
    ("aqm_drop", &["port", "queue", "bytes"]),
    ("mark", &["port", "queue", "sojourn_ps"]),
    ("mark_decision", &["port", "sojourn_ps"]),
    ("sched_service", &["port", "queue"]),
    ("ecn_reduce", &["flow", "cwnd_bytes", "alpha_ppm"]),
    ("rto", &["flow", "cwnd_bytes", "timeouts"]),
    ("fast_rtx", &["flow", "cwnd_bytes"]),
    ("cc_state", &["flow"]),
];

/// Serialize one event to the trace's JSON object form.
pub fn event_to_json(ev: &Event) -> Json {
    let n = |v: u64| Json::Num(v as f64);
    let mut fields: Vec<(&str, Json)> = vec![
        ("kind", Json::Str(ev.kind().to_string())),
        ("at_ps", n(ev.at_ps())),
    ];
    match *ev {
        Event::Tick { events, pending, .. } => {
            fields.push(("events", n(events)));
            fields.push(("pending", n(pending)));
        }
        Event::Enqueue {
            port, queue, bytes, dscp, ..
        } => {
            fields.push(("port", n(port as u64)));
            fields.push(("queue", n(queue as u64)));
            fields.push(("bytes", n(bytes as u64)));
            fields.push(("dscp", n(dscp as u64)));
        }
        Event::Dequeue {
            port, queue, bytes, sojourn_ps, ..
        } => {
            fields.push(("port", n(port as u64)));
            fields.push(("queue", n(queue as u64)));
            fields.push(("bytes", n(bytes as u64)));
            fields.push(("sojourn_ps", n(sojourn_ps)));
        }
        Event::BufferDrop { port, queue, bytes, .. } => {
            fields.push(("port", n(port as u64)));
            fields.push(("queue", n(queue as u64)));
            fields.push(("bytes", n(bytes as u64)));
        }
        Event::AqmDrop {
            port, queue, bytes, dequeue, ..
        } => {
            fields.push(("port", n(port as u64)));
            fields.push(("queue", n(queue as u64)));
            fields.push(("bytes", n(bytes as u64)));
            fields.push(("dequeue", Json::Bool(dequeue)));
        }
        Event::Mark {
            port, queue, sojourn_ps, dequeue, ..
        } => {
            fields.push(("port", n(port as u64)));
            fields.push(("queue", n(queue as u64)));
            fields.push(("sojourn_ps", n(sojourn_ps)));
            fields.push(("dequeue", Json::Bool(dequeue)));
        }
        Event::MarkDecision {
            port, aqm, sojourn_ps, marked, ..
        } => {
            fields.push(("port", n(port as u64)));
            fields.push(("aqm", Json::Str(aqm.to_string())));
            fields.push(("sojourn_ps", n(sojourn_ps)));
            fields.push(("marked", Json::Bool(marked)));
        }
        Event::SchedService { port, sched, queue, .. } => {
            fields.push(("port", n(port as u64)));
            fields.push(("sched", Json::Str(sched.to_string())));
            fields.push(("queue", n(queue as u64)));
        }
        Event::EcnReduce {
            flow, cwnd_bytes, alpha_ppm, ..
        } => {
            fields.push(("flow", n(flow)));
            fields.push(("cwnd_bytes", n(cwnd_bytes)));
            fields.push(("alpha_ppm", n(alpha_ppm as u64)));
        }
        Event::RtoFired {
            flow, cwnd_bytes, timeouts, ..
        } => {
            fields.push(("flow", n(flow)));
            fields.push(("cwnd_bytes", n(cwnd_bytes)));
            fields.push(("timeouts", n(timeouts)));
        }
        Event::FastRtx { flow, cwnd_bytes, .. } => {
            fields.push(("flow", n(flow)));
            fields.push(("cwnd_bytes", n(cwnd_bytes)));
        }
        Event::CcState { flow, cc, from, to, .. } => {
            fields.push(("flow", n(flow)));
            fields.push(("cc", Json::Str(cc.to_string())));
            fields.push(("from", Json::Str(from.to_string())));
            fields.push(("to", Json::Str(to.to_string())));
        }
    }
    Json::obj(fields)
}

/// A [`Sink`] that streams events as JSON Lines into any writer.
///
/// Epoch resets are recorded in-band as `{"kind":"epoch"}` marker lines
/// so an offline reader can discard pre-reset events the same way live
/// sinks do.
pub struct JsonlSink<W: Write> {
    out: W,
    lines: u64,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing to `out` (wrap files in `BufWriter`).
    pub fn new(out: W) -> Self {
        JsonlSink { out, lines: 0 }
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    fn write_line(&mut self, json: &Json) {
        // An I/O error mid-trace cannot be handled meaningfully from
        // inside the sim's emit path; fail loudly.
        writeln!(self.out, "{}", json.compact()).expect("trace write failed");
        self.lines += 1;
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn record(&mut self, ev: &Event) {
        self.write_line(&event_to_json(ev));
    }

    fn on_epoch(&mut self) {
        self.write_line(&Json::obj(vec![("kind", Json::Str("epoch".into()))]));
    }

    fn flush(&mut self) {
        self.out.flush().expect("trace flush failed");
    }
}

/// Counts from a validated trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Event lines (epoch markers excluded).
    pub events: u64,
    /// Epoch marker lines.
    pub epochs: u64,
    /// Lines per kind, in [`REQUIRED_FIELDS`] order.
    pub by_kind: Vec<(String, u64)>,
}

/// Validate a JSONL trace against the schema: every line parses, has a
/// known `kind`, a `u64` `at_ps`, and that kind's required fields.
/// Returns per-kind counts on success, a `line N: ...` error otherwise.
pub fn validate_trace<R: BufRead>(reader: R) -> Result<TraceStats, String> {
    let mut stats = TraceStats::default();
    let mut counts: Vec<(String, u64)> = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let lineno = i + 1;
        let line = line.map_err(|e| format!("line {lineno}: read error: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(&line).map_err(|e| format!("line {lineno}: {e}"))?;
        let kind = v.kind().map_err(|e| format!("line {lineno}: {e}"))?;
        if kind == "epoch" {
            stats.epochs += 1;
            continue;
        }
        let Some((_, fields)) = REQUIRED_FIELDS.iter().find(|(k, _)| *k == kind) else {
            return Err(format!("line {lineno}: unknown kind {kind:?}"));
        };
        v.u64_field("at_ps")
            .map_err(|e| format!("line {lineno} ({kind}): {e}"))?;
        for f in *fields {
            v.u64_field(f)
                .map_err(|e| format!("line {lineno} ({kind}): {e}"))?;
        }
        stats.events += 1;
        match counts.iter_mut().find(|(k, _)| k == kind) {
            Some((_, n)) => *n += 1,
            None => counts.push((kind.to_string(), 1)),
        }
    }
    counts.sort_by_key(|(k, _)| {
        REQUIRED_FIELDS
            .iter()
            .position(|(rk, _)| rk == k)
            .unwrap_or(usize::MAX)
    });
    stats.by_kind = counts;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Tick { at_ps: 1, events: 10, pending: 2 },
            Event::Enqueue { at_ps: 2, port: 1, queue: 3, bytes: 1500, dscp: 2 },
            Event::Dequeue { at_ps: 3, port: 1, queue: 3, bytes: 1500, sojourn_ps: 77 },
            Event::BufferDrop { at_ps: 4, port: 0, queue: 0, bytes: 64 },
            Event::AqmDrop { at_ps: 5, port: 0, queue: 0, bytes: 64, dequeue: false },
            Event::Mark { at_ps: 6, port: 2, queue: 1, sojourn_ps: 9, dequeue: true },
            Event::MarkDecision { at_ps: 7, port: 2, aqm: "TCN", sojourn_ps: 9, marked: true },
            Event::SchedService { at_ps: 8, port: 2, sched: "DWRR", queue: 1 },
            Event::EcnReduce { at_ps: 9, flow: 4, cwnd_bytes: 3000, alpha_ppm: 500_000 },
            Event::RtoFired { at_ps: 10, flow: 4, cwnd_bytes: 1500, timeouts: 1 },
            Event::FastRtx { at_ps: 11, flow: 4, cwnd_bytes: 1500 },
            Event::CcState { at_ps: 12, flow: 4, cc: "ecn-validation", from: "testing", to: "failed" },
        ]
    }

    #[test]
    fn every_event_round_trips_through_the_validator() {
        let mut buf: Vec<u8> = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            for ev in sample_events() {
                sink.record(&ev);
            }
            sink.on_epoch();
            assert_eq!(sink.lines(), 13);
        }
        let stats = validate_trace(BufReader::new(&buf[..])).expect("valid trace");
        assert_eq!(stats.events, 12);
        assert_eq!(stats.epochs, 1);
        assert_eq!(stats.by_kind.len(), REQUIRED_FIELDS.len(), "one of each kind");
        assert!(stats.by_kind.iter().all(|(_, n)| *n == 1));
    }

    #[test]
    fn trace_lines_are_single_line_json() {
        let ev = Event::Dequeue { at_ps: 3, port: 1, queue: 3, bytes: 1500, sojourn_ps: 77 };
        let line = event_to_json(&ev).compact();
        assert!(!line.contains('\n'));
        assert_eq!(
            line,
            r#"{"kind":"dequeue","at_ps":3,"port":1,"queue":3,"bytes":1500,"sojourn_ps":77}"#
        );
        let back = Json::parse(&line).expect("parses");
        assert_eq!(back.u64_field("sojourn_ps").unwrap(), 77);
    }

    #[test]
    fn validator_rejects_garbage() {
        let cases: &[(&str, &str)] = &[
            ("not json", "line 1"),
            (r#"{"at_ps":1}"#, "kind"),
            (r#"{"kind":"warp","at_ps":1}"#, "unknown kind"),
            (r#"{"kind":"dequeue","at_ps":1,"port":0,"queue":0,"bytes":5}"#, "sojourn_ps"),
            (r#"{"kind":"tick","events":1,"pending":0}"#, "at_ps"),
        ];
        for (line, needle) in cases {
            let err = validate_trace(BufReader::new(line.as_bytes()))
                .expect_err(&format!("{line} should fail"));
            assert!(err.contains(needle), "{line}: error {err:?} missing {needle:?}");
        }
    }

    #[test]
    fn jsonl_trace_recovers_per_queue_sojourn_stats() {
        // End to end: trace a real sweep cell to JSONL, then rebuild
        // the per-queue sojourn statistics offline from the trace and
        // check them against the live run-summary sink that saw the
        // same stream.
        use crate::common::Scale;
        use crate::fct_sweep::{run_cell_traced, SweepConfig};
        use std::cell::RefCell;
        use std::rc::Rc;
        use tcn_sim::Time;
        use tcn_stats::TelemetrySummary;
        use tcn_telemetry::Telemetry;

        #[derive(Clone, Default)]
        struct SharedBuf(Rc<RefCell<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let scale = Scale {
            flows: 120,
            loads: &[0.7],
            seed: 5,
        };
        let cfg = SweepConfig::fig6();
        let scheme = cfg.schemes()[0];
        let buf = SharedBuf::default();
        let bus = Telemetry::new();
        let summary = TelemetrySummary::new(Time::ZERO);
        bus.add_sink(Box::new(JsonlSink::new(buf.clone())));
        bus.add_sink(Box::new(summary.handle()));
        run_cell_traced(&cfg, &scale, scheme, 0.7, &bus);

        let bytes = buf.0.borrow().clone();
        let stats = validate_trace(BufReader::new(&bytes[..])).expect("trace validates");
        assert!(stats.events > 0);

        // Rebuild (port, queue) -> (count, sum, max, samples) offline.
        type QueueTally = ((u64, u64), (u64, u64, u64, Vec<f64>));
        let mut offline: Vec<QueueTally> = Vec::new();
        for line in std::str::from_utf8(&bytes).unwrap().lines() {
            let v = Json::parse(line).unwrap();
            if v.kind().unwrap() != "dequeue" {
                continue;
            }
            let key = (v.u64_field("port").unwrap(), v.u64_field("queue").unwrap());
            let s = v.u64_field("sojourn_ps").unwrap();
            let entry = match offline.iter_mut().find(|(k, _)| *k == key) {
                Some((_, e)) => e,
                None => {
                    offline.push((key, (0, 0, 0, Vec::new())));
                    &mut offline.last_mut().unwrap().1
                }
            };
            entry.0 += 1;
            entry.1 += s;
            entry.2 = entry.2.max(s);
            entry.3.push(s as f64);
        }

        let live = summary.queues();
        assert_eq!(live.len(), offline.len(), "queue sets differ");
        assert!(!live.is_empty());
        for ((port, queue), q) in live {
            let (_, (count, sum, max, samples)) = offline
                .iter()
                .find(|((p, qu), _)| *p == port as u64 && *qu == queue as u64)
                .expect("queue present offline");
            // Exact stats must match exactly.
            assert_eq!(q.dequeues, *count);
            assert_eq!(q.sum_ps, *sum);
            assert_eq!(q.max_ps, *max);
            // Streaming quantiles vs the trace: P² approximates *rank*,
            // not value — on sojourn streams with an atom at zero (idle
            // host ports) the value error at a fixed rank is unbounded,
            // so assert the estimate lands inside the exact ±5-rank
            // band, with slack for parabolic interpolation between
            // adjacent samples.
            for (est, p) in [(q.p50_ps(), 50.0), (q.p95_ps(), 95.0), (q.p99_ps(), 99.0)] {
                let lo = tcn_stats::percentile(samples, p - 5.0);
                let hi = tcn_stats::percentile(samples, (p + 5.0).min(100.0));
                let slack = (0.05 * q.max_ps as f64).max(1_000_000.0); // 5 % of max or 1 us
                assert!(
                    est >= lo - slack && est <= hi + slack,
                    "port {port} queue {queue} p{p}: streaming {est} outside [{lo}, {hi}] ± {slack}"
                );
            }
        }
    }

    #[test]
    fn validator_counts_by_kind_in_schema_order() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            for _ in 0..3 {
                sink.record(&Event::Tick { at_ps: 1, events: 0, pending: 0 });
            }
            sink.record(&Event::FastRtx { at_ps: 2, flow: 0, cwnd_bytes: 0 });
        }
        let stats = validate_trace(BufReader::new(&buf[..])).unwrap();
        assert_eq!(
            stats.by_kind,
            vec![("tick".to_string(), 3), ("fast_rtx".to_string(), 1)]
        );
    }
}
