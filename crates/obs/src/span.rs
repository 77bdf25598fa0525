//! Lightweight span tracing: wall-time scopes recorded into latency
//! histograms and mirrored as structured records in a bounded JSONL
//! sink.
//!
//! Spans are decision-inert by construction — they read the monotonic
//! clock and write atomics/ring slots, never touching control state or
//! RNG streams. The sink is a fixed-capacity ring of `Copy` slots: once
//! full, the oldest records are dropped and counted, so a long run can
//! never grow memory unboundedly, and emitting never allocates — names are
//! `&'static str` until a reader asks for [`SpanRecord`]s.

use crate::hist::Histogram;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed span, as readers see it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Span name (e.g. `"controller.sense"`).
    pub name: String,
    /// Controller tick (or other logical time) the span belongs to.
    pub tick: u64,
    /// Measured wall time in nanoseconds.
    pub nanos: u64,
}

/// One completed span, as the ring stores it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    name: &'static str,
    tick: u64,
    nanos: u64,
}

impl Slot {
    fn record(&self) -> SpanRecord {
        SpanRecord {
            name: self.name.to_string(),
            tick: self.tick,
            nanos: self.nanos,
        }
    }
}

#[derive(Debug)]
struct SinkInner {
    capacity: usize,
    slots: VecDeque<Slot>,
    dropped: u64,
}

/// A bounded, shareable sink of completed span records.
#[derive(Debug, Clone)]
pub struct SpanSink {
    inner: Arc<Mutex<SinkInner>>,
}

impl SpanSink {
    /// Creates a sink retaining at most `capacity` records (oldest
    /// evicted first). A zero capacity drops — and counts — everything.
    pub fn bounded(capacity: usize) -> Self {
        SpanSink {
            inner: Arc::new(Mutex::new(SinkInner {
                capacity,
                slots: VecDeque::with_capacity(capacity.min(4096)),
                dropped: 0,
            })),
        }
    }

    /// Appends one record, evicting the oldest when full.
    pub fn emit(&self, name: &'static str, tick: u64, nanos: u64) {
        self.emit_all(tick, &[(name, nanos)]);
    }

    /// Appends the `(name, nanos)` spans of one tick, in order, under one
    /// lock — what a control period does with its four stage spans.
    pub fn emit_all(&self, tick: u64, spans: &[(&'static str, u64)]) {
        let mut inner = crate::lock(&self.inner);
        if inner.capacity == 0 {
            inner.dropped += spans.len() as u64;
            return;
        }
        for &(name, nanos) in spans {
            if inner.slots.len() == inner.capacity {
                inner.slots.pop_front();
                inner.dropped += 1;
            }
            inner.slots.push_back(Slot { name, tick, nanos });
        }
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        crate::lock(&self.inner).slots.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records evicted or refused because the sink was full.
    pub fn dropped(&self) -> u64 {
        crate::lock(&self.inner).dropped
    }

    /// Clones out the retained records, oldest first.
    pub fn records(&self) -> Vec<SpanRecord> {
        crate::lock(&self.inner)
            .slots
            .iter()
            .map(Slot::record)
            .collect()
    }

    /// Renders the retained records as JSON Lines, one record per
    /// line, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in self.records() {
            let line = serde_json::to_string(&record).expect("span record serializes");
            let _ = writeln!(out, "{line}");
        }
        out
    }
}

/// A named span: binds an optional latency histogram and an optional
/// sink; [`Span::start`] produces a guard that records the elapsed
/// wall time into both on drop.
#[derive(Debug, Clone, Default)]
pub struct Span {
    name: &'static str,
    histogram: Option<Histogram>,
    sink: Option<SpanSink>,
}

impl Span {
    /// Creates a span with no outputs (a no-op until wired).
    pub fn new(name: &'static str) -> Self {
        Span {
            name,
            histogram: None,
            sink: None,
        }
    }

    /// Records elapsed nanos into `histogram` on every finish.
    pub fn with_histogram(mut self, histogram: Histogram) -> Self {
        self.histogram = Some(histogram);
        self
    }

    /// Emits a [`SpanRecord`] to `sink` on every finish.
    pub fn with_sink(mut self, sink: SpanSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Starts measuring; the returned guard records on drop.
    pub fn start(&self, tick: u64) -> SpanGuard<'_> {
        SpanGuard {
            span: self,
            tick,
            started: Instant::now(),
        }
    }

    /// Records an externally measured duration (for call sites that
    /// accumulate several segments and record once per period).
    pub fn record(&self, tick: u64, nanos: u64) {
        if let Some(h) = &self.histogram {
            h.record(nanos);
        }
        if let Some(s) = &self.sink {
            s.emit(self.name, tick, nanos);
        }
    }
}

/// Measures a scope; records into the parent [`Span`] on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    span: &'a Span,
    tick: u64,
    started: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.span.record(self.tick, nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Unit;

    #[test]
    fn guard_records_into_histogram_and_sink() {
        let hist = Histogram::new(Unit::Nanos);
        let sink = SpanSink::bounded(8);
        let span = Span::new("test.scope")
            .with_histogram(hist.clone())
            .with_sink(sink.clone());
        {
            let _guard = span.start(42);
        }
        assert_eq!(hist.count(), 1);
        let records = sink.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "test.scope");
        assert_eq!(records[0].tick, 42);
    }

    #[test]
    fn sink_is_bounded_and_counts_drops() {
        let sink = SpanSink::bounded(2);
        for tick in 0..5 {
            sink.emit("s", tick, 1);
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
        let ticks: Vec<u64> = sink.records().iter().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![3, 4]);
    }

    #[test]
    fn zero_capacity_sink_drops_everything() {
        let sink = SpanSink::bounded(0);
        sink.emit("s", 0, 1);
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn a_batch_is_the_same_as_its_emits_in_order() {
        let (one_by_one, batched) = (SpanSink::bounded(3), SpanSink::bounded(3));
        for tick in 0..3 {
            one_by_one.emit("a", tick, 1);
            one_by_one.emit("b", tick, 2);
            batched.emit_all(tick, &[("a", 1), ("b", 2)]);
        }
        assert_eq!(batched.records(), one_by_one.records());
        assert_eq!(batched.dropped(), 3);
        assert_eq!(batched.to_jsonl(), one_by_one.to_jsonl());
    }

    #[test]
    fn a_reader_that_panics_holding_the_sink_does_not_stop_the_emitter() {
        let sink = SpanSink::bounded(2);
        sink.emit("s", 0, 1);
        crate::poison(&sink.inner);
        sink.emit("s", 1, 1);
        sink.emit_all(2, &[("s", 1)]);
        assert_eq!((sink.len(), sink.dropped()), (2, 1));
        assert_eq!(sink.records()[1].tick, 2);
    }

    #[test]
    fn jsonl_renders_one_record_per_line() {
        let sink = SpanSink::bounded(4);
        sink.emit("a", 1, 10);
        sink.emit("b", 2, 20);
        let jsonl = sink.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: SpanRecord = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first.name, "a");
        assert_eq!(first.nanos, 10);
    }
}
