//! In-memory spans around the harness's calls into each layer.
//!
//! A [`Tracer`] that is off reads no clock and stores nothing, so the
//! timed reps run without it; the traced rep records `{name, start_ns,
//! end_ns, parent}` per span and the file is written once, at the end.
//! A span's *self time* is its duration minus what its direct children
//! cover, which is what the per-layer stage metrics report.

use std::time::Instant;

use tcn_experiments::json::{Json, ToJson};

/// One closed (or still open: `end_ns == start_ns`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Stage name, e.g. `net.run_s`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Free-form counters recorded at close (events, hops of a slice).
    pub counts: Vec<(&'static str, u64)>,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder. Spans nest by call order: a span begun while another
/// is open is its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing and never reads the clock.
    pub fn off() -> Self {
        Tracer {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer; span times count from now.
    pub fn on() -> Self {
        Tracer {
            origin: Some(Instant::now()),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.origin.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.origin.map_or(0, |o| o.elapsed().as_nanos() as u64)
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if self.origin.is_none() {
            return SpanId(None);
        }
        let now = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Close `id` (and any span left open inside it by an early return).
    pub fn end(&mut self, id: SpanId) {
        self.end_with(id, Vec::new());
    }

    /// Close `id`, attaching counters measured over it.
    pub fn end_with(&mut self, id: SpanId, counts: Vec<(&'static str, u64)>) {
        let Some(idx) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
        self.spans[idx].counts = counts;
    }

    /// Every span recorded so far, in begin order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration, in seconds, of each span called `name`, in begin order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let named = self.spans.iter().filter(|s| s.name == name);
        named
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Summed self time, in seconds, of every span called `name`.
    pub fn self_seconds(&self, name: &str) -> f64 {
        self_ns(&self.spans, name) as f64 / 1e9
    }

    /// The spans as JSON rows, each tagged with `workload`.
    pub fn to_json(&self, workload: &str) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let mut fields = vec![
                        ("name", s.name.to_json()),
                        ("start_ns", s.start_ns.to_json()),
                        ("end_ns", s.end_ns.to_json()),
                        ("parent", s.parent.map(|p| p as u64).to_json()),
                        ("workload", workload.to_json()),
                    ];
                    for (k, v) in &s.counts {
                        fields.push((k, v.to_json()));
                    }
                    Json::obj(fields)
                })
                .collect(),
        )
    }
}

/// Summed self time in nanoseconds of the spans called `name`: each
/// one's duration minus the durations of its direct children.
pub fn self_ns(spans: &[Span], name: &str) -> u64 {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100] holds slices [10,30] and [40,90]; the second
        // slice holds an inner [50,60] that must not be subtracted
        // from `run` twice.
        let spans = vec![
            span("run", 0, 100, None),
            span("slice", 10, 30, Some(0)),
            span("slice", 40, 90, Some(0)),
            span("inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_ns(&spans, "run"), 100 - 20 - 50);
        assert_eq!(self_ns(&spans, "slice"), 20 + (50 - 10));
        assert_eq!(self_ns(&spans, "inner"), 10);
        assert_eq!(self_ns(&spans, "absent"), 0);
    }

    #[test]
    fn tracer_nests_by_call_order_and_off_records_nothing() {
        let mut t = Tracer::on();
        let a = t.begin("a");
        let b = t.begin("b");
        t.end_with(b, vec![("events", 7)]);
        let c = t.begin("c");
        // `c` is left open: closing `a` closes it too.
        let _ = c;
        t.end(a);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[1].counts, vec![("events", 7)]);
        assert!(s[0].end_ns >= s[2].end_ns);

        let mut off = Tracer::off();
        let id = off.begin("a");
        off.end(id);
        assert!(off.spans().is_empty());
        assert!(!off.is_on());
    }
}
