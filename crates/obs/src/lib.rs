//! The Stay-Away observability plane (DESIGN.md §11).
//!
//! A dependency-free metrics and tracing toolkit shared by the
//! controller, telemetry sources, and the fleet runtime:
//!
//! - [`MetricsRegistry`] — named counters, gauges, and log-bucketed
//!   histograms with p50/p95/p99 estimation, handed out as lock-free
//!   atomic handles.
//! - [`Span`] / [`SpanGuard`] / [`SpanSink`] — lightweight wall-time
//!   tracing into latency histograms and a bounded JSONL record ring.
//! - [`FlightRecorder`] — a typed, causally-linked structured-event
//!   ring (the flight recorder, DESIGN.md §16): throttles, predictor
//!   verdicts, cluster verbs, and SLO violations in one logical-time
//!   stream, byte-identical across worker counts.
//! - [`HttpServer`] / [`Introspection`] — a std-only live HTTP view
//!   (`/metrics`, `/state`, `/events`, `/health`).
//! - [`export`] — Prometheus text exposition and pretty JSON
//!   snapshots; [`promlint`] validates the former in CI and [`diff`]
//!   compares two of the latter (the `metrics-diff` regression gate).
//!
//! The plane's one hard invariant is **decision-inertness**: recording
//! reads the monotonic clock and writes atomics, never consuming
//! controller RNG or branching control logic, so an instrumented run
//! produces bit-for-bit the actions, events, β, and state map of an
//! uninstrumented one. Timing histograms compare by invocation count
//! only ([`Unit::Nanos`]), and fleet rollups ship
//! [`MetricsSnapshot::stable_view`] so merged JSON stays byte-identical
//! across worker counts.

pub mod diff;
pub mod event;
pub mod export;
pub mod hist;
pub mod http;
pub mod promlint;
pub mod recorder;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use event::{
    attr, causal_chain, events_from_jsonl, events_to_jsonl, sort_events, AttrValue, ChainError,
    EventId, EventKind, EventRecord, Layer,
};
pub use export::{to_json, to_prometheus};
pub use hist::{
    bucket_bounds, bucket_index, num_buckets, Histogram, HistogramSnapshot, MergeOutcome, Unit,
    NUM_BUCKETS, SUB_BITS,
};
pub use http::{HttpServer, Introspection, StateCell, StateScalar};
pub use recorder::{merge_streams, FlightRecorder, DEFAULT_EVENT_CAPACITY};
pub use registry::{valid_metric_name, Counter, Gauge, MetricsRegistry};
pub use snapshot::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};
pub use span::{Span, SpanGuard, SpanRecord, SpanSink};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks one of the plane's mutexes, recovering the guard when a thread
/// panicked while holding it. Every critical section in this crate leaves
/// its data valid at each step (ring pushes, counter bumps, whole-value
/// replacement), so the state behind a poisoned lock is still good — and a
/// reader that panicked must not take the controller down with it.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Test support: leaves `mutex` poisoned, the way a reader thread that
/// panicked while holding the guard would.
#[cfg(test)]
pub(crate) fn poison<T: Send + 'static>(mutex: &std::sync::Arc<Mutex<T>>) {
    let held = std::sync::Arc::clone(mutex);
    let reader = std::thread::spawn(move || {
        let _guard = held.lock().unwrap();
        panic!("reader died holding the lock");
    });
    assert!(reader.join().is_err());
    assert!(mutex.is_poisoned());
}
