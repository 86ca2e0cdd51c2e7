//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself around each public call into a
//! layer (name, start, end, parent span and op id); nothing inside the
//! program is instrumented. Alongside spans the recorder keeps counters
//! (summed over ops) and gauges (set once per run). Everything stays in
//! memory until [`Tracer::write`] dumps it when the run ends. A disabled
//! tracer records nothing, so untraced runs pay one branch per call site.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
    gauges: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }

    /// Tags every span opened from now on with op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    pub fn end(&mut self, span: SpanId) {
        if let SpanId(Some(index)) = span {
            self.spans[index].end = self.epoch.elapsed();
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(index), "spans close in LIFO order");
        }
    }

    /// Closes `span` under a name chosen once the call's outcome is known.
    pub fn end_as(&mut self, span: SpanId, name: &'static str) {
        if let SpanId(Some(index)) = span {
            self.spans[index].name = name;
        }
        self.end(span);
    }

    /// Runs `call` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, call: impl FnOnce() -> R) -> R {
        let span = self.begin(name);
        let result = call();
        self.end(span);
        result
    }

    /// Records a span whose interval was measured elsewhere (an open-loop
    /// request, timed from its due time to its response).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                op: self.op,
                parent: None,
                start: start.saturating_duration_since(self.epoch),
                end: end.saturating_duration_since(self.epoch),
            });
        }
    }

    /// Adds `value` to counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counters.entry(name).or_default() += value;
        }
    }

    /// Sets gauge `name`.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.gauges.insert(name, value);
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, in milliseconds: each span's duration minus
    /// the part of it its child spans cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Duration> = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.end.saturating_sub(span.start);
            }
        }
        let mut totals = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(&children) {
            let own = span.end.saturating_sub(span.start).saturating_sub(*covered);
            *totals.entry(span.name).or_default() += own.as_secs_f64() * 1e3;
        }
        totals
    }

    /// Writes every span (one JSON object per line), then the counters and
    /// gauges, to `path`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {index}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                span.name,
                span.op,
                span.start.as_nanos(),
                span.end.as_nanos()
            )?;
        }
        for (kind, values) in [("counter", &self.counters), ("gauge", &self.gauges)] {
            for (name, value) in values {
                writeln!(out, "{{\"{kind}\": \"{name}\", \"value\": {value}}}")?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("outer");
        tracer.span("inner", || std::thread::sleep(Duration::from_millis(20)));
        tracer.end(outer);
        let self_ms = tracer.self_ms();
        assert!(self_ms["inner"] >= 20.0);
        assert!(self_ms["outer"] < self_ms["inner"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        tracer.span("x", || ());
        tracer.count("c", 1.0);
        assert_eq!(tracer.span_count(), 0);
        assert_eq!(tracer.counter("c"), 0.0);
    }
}
