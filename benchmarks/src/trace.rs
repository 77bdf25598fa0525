//! Benchmark-owned tracing: an in-memory span buffer plus clocked wrappers
//! around the calls into each layer (`ObservationSource::{next_observation,
//! apply}` and `Policy::decide`). Nothing inside the crates is touched.
//!
//! A span is (name, start, end, parent, rep). A span's *self time* is its
//! duration minus the part its children cover, so the spans of a pass add
//! up to the pass.

use stay_away::telemetry::{
    Action, Observation, ObservationSource, Policy, SourceMeta, TelemetryError, TickRecord,
};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
const ROOT: u32 = u32::MAX;

/// Most spans written to the JSONL file; the per-call spans of a
/// 600k-tick pass would otherwise be a ~150 MB file. Aggregates are always
/// computed over every span.
const MAX_SPANS_WRITTEN: usize = 50_000;

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    rep: u32,
}

/// Per-name totals over a finished trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations, seconds.
    pub busy_s: f64,
    /// Sum of self times, seconds.
    pub self_s: f64,
    /// Durations in nanoseconds, sorted ascending.
    pub durations_ns: Vec<u64>,
}

impl SpanTotals {
    /// The `q`-quantile of the durations in microseconds (nearest rank).
    pub fn quantile_us(&self, q: f64) -> f64 {
        match self.durations_ns.len() {
            0 => 0.0,
            n => {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                self.durations_ns[rank - 1] as f64 / 1e3
            }
        }
    }
}

/// The span buffer of one traced pass. Single-threaded by construction:
/// the wrappers run on the driver thread only.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<SpanRec>>,
    current: Cell<u32>,
    rep: Cell<u32>,
}

impl Tracer {
    /// An empty tracer. Its buffer grows during the first pass it records
    /// and is kept by [`Tracer::reset`], so later passes never reallocate
    /// inside a measured call.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            current: Cell::new(ROOT),
            rep: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        let since = self.epoch.elapsed();
        since.as_secs() * 1_000_000_000 + u64::from(since.subsec_nanos())
    }

    /// Forgets every span but keeps the buffer, and tags the spans that
    /// follow with the next repetition id.
    pub fn reset(&self) {
        self.spans.borrow_mut().clear();
        self.current.set(ROOT);
        self.rep.set(self.rep.get() + 1);
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = self.current.get();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(SpanRec {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                rep: self.rep.get(),
            });
            spans.len() - 1
        };
        self.current.set(idx as u32);
        let start_ns = self.now_ns();
        let result = f();
        let end_ns = self.now_ns();
        self.current.set(parent);
        let mut spans = self.spans.borrow_mut();
        spans[idx].start_ns = start_ns;
        spans[idx].end_ns = end_ns;
        result
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// True before the first span.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-name totals: count, busy time, self time and the sorted
    /// durations.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in spans.iter().zip(&child_ns) {
            let duration = s.end_ns - s.start_ns;
            let t = totals.entry(s.name).or_default();
            t.count += 1;
            t.busy_s += duration as f64 / 1e9;
            t.self_s += duration.saturating_sub(*children) as f64 / 1e9;
            t.durations_ns.push(duration);
        }
        for t in totals.values_mut() {
            t.durations_ns.sort_unstable();
        }
        totals
    }

    /// Writes the spans as JSONL: structural spans first come first
    /// served up to [`MAX_SPANS_WRITTEN`], then one `truncated` record
    /// saying how many were left out.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures of `out`.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        for (idx, s) in spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{idx},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{}}}",
                s.name, s.start_ns, s.end_ns, s.rep
            )?;
        }
        if spans.len() > MAX_SPANS_WRITTEN {
            writeln!(
                out,
                "{{\"truncated\":{},\"total\":{}}}",
                spans.len() - MAX_SPANS_WRITTEN,
                spans.len()
            )?;
        }
        out.flush()
    }
}

/// Clocks `next_observation` (and optionally `apply`) of any source. An
/// `apply` of no actions does nothing in any substrate and is not a span:
/// on the cheapest workloads the clock would cost more than the call.
pub struct TracedSource<'t, S> {
    inner: S,
    tracer: &'t Tracer,
    next: &'static str,
    apply: Option<&'static str>,
}

impl<'t, S: ObservationSource> TracedSource<'t, S> {
    /// Wraps `inner`; `next_observation` is recorded as span `next`, and
    /// `apply` as span `apply` when one is named (open-loop sources, whose
    /// `apply` does nothing, pass `None`).
    pub fn new(
        inner: S,
        tracer: &'t Tracer,
        next: &'static str,
        apply: Option<&'static str>,
    ) -> Self {
        TracedSource {
            inner,
            tracer,
            next,
            apply,
        }
    }

    /// Unwraps the source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: ObservationSource> ObservationSource for TracedSource<'_, S> {
    fn meta(&self) -> SourceMeta {
        self.inner.meta()
    }

    fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError> {
        let inner = &mut self.inner;
        self.tracer.span(self.next, || inner.next_observation())
    }

    fn apply(&mut self, actions: &[Action]) -> Result<u64, TelemetryError> {
        let inner = &mut self.inner;
        match self.apply {
            Some(name) if !actions.is_empty() => self.tracer.span(name, || inner.apply(actions)),
            _ => inner.apply(actions),
        }
    }

    fn record_for(&self, observation: &Observation, actions: &[Action]) -> TickRecord {
        self.inner.record_for(observation, actions)
    }

    fn batch_work(&self) -> f64 {
        self.inner.batch_work()
    }
}

/// Clocks `Policy::decide`.
pub struct TracedPolicy<'t, 'p> {
    inner: &'p mut dyn Policy,
    tracer: &'t Tracer,
}

impl<'t, 'p> TracedPolicy<'t, 'p> {
    /// Wraps `inner`; every `decide` is recorded as `stayaway.decide`.
    pub fn new(inner: &'p mut dyn Policy, tracer: &'t Tracer) -> Self {
        TracedPolicy { inner, tracer }
    }
}

impl Policy for TracedPolicy<'_, '_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, observation: &Observation) -> Vec<Action> {
        let inner = &mut *self.inner;
        self.tracer
            .span("stayaway.decide", || inner.decide(observation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let tracer = Tracer::new();
        tracer.span("outer", || {
            tracer.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tracer.span("inner", || ());
        });
        let totals = tracer.totals();
        let (outer, inner) = (&totals["outer"], &totals["inner"]);
        assert_eq!((outer.count, inner.count), (1, 2));
        assert!(inner.busy_s >= 0.002);
        assert!((outer.busy_s - outer.self_s - inner.busy_s).abs() < 1e-9);
        assert_eq!(inner.self_s, inner.busy_s);
        assert!(inner.quantile_us(1.0) >= 2000.0);
    }

    #[test]
    fn jsonl_links_children_to_parents() {
        let tracer = Tracer::new();
        tracer.span("discarded", || ());
        tracer.reset();
        tracer.span("outer", || tracer.span("inner", || ()));
        let mut out = Vec::new();
        tracer.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"outer\"") && lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"rep\":1"));
    }
}
