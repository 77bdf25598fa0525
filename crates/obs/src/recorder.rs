//! The flight recorder: a bounded, shareable ring of [`EventRecord`]s
//! (DESIGN.md §16).
//!
//! One recorder exists per decision locus — a standalone run, a fleet
//! cell, a cluster host, or the cluster plane itself — identified by
//! its `scope`. Every event a locus emits is written by exactly one
//! thread (cells never share recorders), so the per-recorder stream is
//! deterministic by construction; merged streams sort into the
//! canonical `(tick, layer, seq, scope)` order with
//! [`merge_streams`](crate::event::sort_events).
//!
//! Like the metrics plane, recording is **decision-inert**: it writes
//! ring slots and bookkeeping, never consuming controller RNG, reading
//! wall clock, or feeding anything back into control logic. The
//! causal-link query [`FlightRecorder::last_id_of_kind`] only shapes
//! event *metadata* (the `cause` field of later events), never
//! decisions.

use crate::event::{sort_events, EventId, EventKind, EventRecord, Layer};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default ring capacity used by the runtime planes.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

#[derive(Debug)]
struct RecorderInner {
    scope: u32,
    subject: String,
    capacity: usize,
    next_seq: u64,
    events: VecDeque<EventRecord>,
    /// Most recent id per kind — survives ring eviction, so causal
    /// links are identical for any capacity.
    last_by_kind: Vec<(EventKind, EventId)>,
}

/// A cheaply-clonable handle to one bounded event ring.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<RecorderInner>>,
    /// Records evicted or refused. Bumped under the ring's lock by the one
    /// writer, read without it: a controller sets its `events_dropped`
    /// gauge from it every period.
    dropped: Arc<AtomicU64>,
}

impl FlightRecorder {
    /// Creates a recorder for scope `scope` whose default subject is
    /// `subject` (e.g. `cell:3`, `host:1`), retaining at most
    /// `capacity` records (oldest evicted first). Sequence numbers and
    /// causal links are independent of the capacity; a zero capacity
    /// retains nothing but still counts and sequences every event.
    pub fn bounded(scope: u32, subject: impl Into<String>, capacity: usize) -> Self {
        FlightRecorder {
            inner: Arc::new(Mutex::new(RecorderInner {
                scope,
                subject: subject.into(),
                capacity,
                next_seq: 0,
                events: VecDeque::with_capacity(capacity.min(4096)),
                last_by_kind: Vec::new(),
            })),
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A recorder with the default runtime capacity.
    pub fn for_scope(scope: u32, subject: impl Into<String>) -> Self {
        Self::bounded(scope, subject, DEFAULT_EVENT_CAPACITY)
    }

    /// This recorder's scope index.
    pub fn scope(&self) -> u32 {
        crate::lock(&self.inner).scope
    }

    /// Records one event against the recorder's default subject.
    pub fn record(
        &self,
        tick: u64,
        layer: Layer,
        kind: EventKind,
        cause: Option<EventId>,
        attrs: Vec<(String, crate::event::AttrValue)>,
    ) -> EventId {
        self.push(tick, layer, kind, None, cause, attrs)
    }

    /// Records one event for an explicit subject (cluster verbs name
    /// jobs, not the recorder's own locus). Returns the new event's id.
    pub fn record_for(
        &self,
        tick: u64,
        layer: Layer,
        kind: EventKind,
        subject: impl Into<String>,
        cause: Option<EventId>,
        attrs: Vec<(String, crate::event::AttrValue)>,
    ) -> EventId {
        self.push(tick, layer, kind, Some(subject.into()), cause, attrs)
    }

    /// The one critical section behind both record calls; `subject`
    /// defaults to the recorder's own.
    fn push(
        &self,
        tick: u64,
        layer: Layer,
        kind: EventKind,
        subject: Option<String>,
        cause: Option<EventId>,
        attrs: Vec<(String, crate::event::AttrValue)>,
    ) -> EventId {
        let mut inner = crate::lock(&self.inner);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let id = EventId {
            scope: inner.scope,
            seq,
        };
        match inner.last_by_kind.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, last)) => *last = id,
            None => inner.last_by_kind.push((kind, id)),
        }
        if inner.capacity == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return id;
        }
        if inner.events.len() == inner.capacity {
            inner.events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let record = EventRecord {
            tick,
            layer,
            seq,
            scope: id.scope,
            kind,
            subject: subject.unwrap_or_else(|| inner.subject.clone()),
            cause,
            attrs,
        };
        inner.events.push_back(record);
        id
    }

    /// Id of the most recently recorded event of `kind`, even when the
    /// ring has since evicted it. The backbone of causal links: an SLO
    /// violation names the last predictor verdict, a migration names
    /// the source host's last violation.
    pub fn last_id_of_kind(&self, kind: EventKind) -> Option<EventId> {
        let inner = crate::lock(&self.inner);
        inner
            .last_by_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, id)| *id)
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        crate::lock(&self.inner).events.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records evicted or refused because the ring was full.
    /// Takes no lock.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Clones out the retained records, oldest first.
    pub fn events(&self) -> Vec<EventRecord> {
        let inner = crate::lock(&self.inner);
        inner.events.iter().cloned().collect()
    }
}

/// Merges per-recorder streams into the canonical total order. The
/// result is independent of the order the streams are listed in, so
/// fleet and cluster rollups are byte-identical for any worker count.
pub fn merge_streams(streams: impl IntoIterator<Item = Vec<EventRecord>>) -> Vec<EventRecord> {
    let mut merged: Vec<EventRecord> = streams.into_iter().flatten().collect();
    sort_events(&mut merged);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::attr;

    #[test]
    fn records_carry_scope_sequence_and_subject() {
        let rec = FlightRecorder::bounded(3, "cell:3", 8);
        let a = rec.record(1, Layer::Controller, EventKind::Throttle, None, Vec::new());
        let b = rec.record_for(
            2,
            Layer::Cluster,
            EventKind::Migrate,
            "job:7",
            Some(a),
            vec![attr("from", "host:0")],
        );
        assert_eq!((a.scope, a.seq), (3, 0));
        assert_eq!((b.scope, b.seq), (3, 1));
        let events = rec.events();
        assert_eq!(events[0].subject, "cell:3");
        assert_eq!(events[1].subject, "job:7");
        assert_eq!(events[1].cause, Some(a));
        assert_eq!(events[0].id(), a);
    }

    #[test]
    fn ring_evicts_oldest_but_sequences_forever() {
        let rec = FlightRecorder::bounded(0, "run", 2);
        for tick in 0..5 {
            rec.record(tick, Layer::Controller, EventKind::Resume, None, Vec::new());
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        let seqs: Vec<u64> = rec.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn last_id_survives_eviction_and_zero_capacity() {
        let rec = FlightRecorder::bounded(1, "run", 0);
        assert_eq!(rec.last_id_of_kind(EventKind::Throttle), None);
        let first = rec.record(1, Layer::Controller, EventKind::Throttle, None, Vec::new());
        let second = rec.record(2, Layer::Controller, EventKind::Throttle, None, Vec::new());
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 2);
        assert_ne!(first, second);
        assert_eq!(rec.last_id_of_kind(EventKind::Throttle), Some(second));
        assert_eq!(rec.last_id_of_kind(EventKind::Resume), None);
    }

    #[test]
    fn a_reader_that_panics_holding_the_ring_does_not_stop_the_recorder() {
        let rec = FlightRecorder::bounded(0, "run", 4);
        let first = rec.record(1, Layer::Controller, EventKind::Throttle, None, Vec::new());
        crate::poison(&rec.inner);
        let second = rec.record(
            2,
            Layer::Controller,
            EventKind::Resume,
            Some(first),
            Vec::new(),
        );
        assert_eq!(second.seq, first.seq + 1);
        assert_eq!(rec.last_id_of_kind(EventKind::Throttle), Some(first));
        assert_eq!((rec.len(), rec.dropped()), (2, 0));
    }

    #[test]
    fn merge_is_order_independent() {
        let a = FlightRecorder::bounded(0, "cell:0", 8);
        let b = FlightRecorder::bounded(1, "cell:1", 8);
        a.record(2, Layer::Controller, EventKind::Throttle, None, Vec::new());
        b.record(
            1,
            Layer::Workload,
            EventKind::SloViolation,
            None,
            Vec::new(),
        );
        a.record(
            1,
            Layer::Controller,
            EventKind::BetaChange,
            None,
            Vec::new(),
        );
        let ab = merge_streams([a.events(), b.events()]);
        let ba = merge_streams([b.events(), a.events()]);
        assert_eq!(ab, ba);
        let ticks: Vec<u64> = ab.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![1, 1, 2]);
    }

    #[test]
    fn jsonl_round_trips_through_the_ring() {
        let rec = FlightRecorder::for_scope(0, "run");
        rec.record(
            4,
            Layer::Predictor,
            EventKind::PredictorVerdict,
            None,
            vec![attr("votes", 3u64)],
        );
        let back =
            crate::event::events_from_jsonl(&crate::event::events_to_jsonl(&rec.events())).unwrap();
        assert_eq!(back, rec.events());
    }
}
