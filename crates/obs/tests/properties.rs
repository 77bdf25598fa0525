//! Property-based tests for the observability plane's algebra: merge
//! must be associative and commutative (fleet rollups fold per-cell
//! snapshots in arbitrary groupings) and quantiles must be monotone. The
//! record paths are held to from-scratch models: a histogram to the naive
//! count / sum / min / max / bucket tally of what was recorded, the span
//! ring to a `VecDeque<SpanRecord>`.

use proptest::prelude::*;
use stayaway_obs::{
    bucket_bounds, bucket_index, Histogram, HistogramSnapshot, SpanRecord, SpanSink, Unit,
    NUM_BUCKETS, SUB_BITS,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Barrier;

fn values_strategy(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 0..max_len)
}

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new(Unit::None);
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

fn merged(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = a.clone();
    assert!(!out.merge(b).skipped(), "same-unit merge must not skip");
    out
}

/// The span names a ring can be handed: literals, as at every call site.
const SPAN_NAMES: [&str; 4] = [
    "controller.sense",
    "controller.map",
    "controller.predict",
    "controller.act",
];

/// Ticks of one to four `(name index, nanos)` spans each — the shape of
/// what a controller emits, with single-span ticks taking `emit`.
fn span_ticks_strategy(max_ticks: usize) -> impl Strategy<Value = Vec<Vec<(usize, u64)>>> {
    prop::collection::vec(
        prop::collection::vec((0usize..SPAN_NAMES.len(), any::<u64>()), 1..5),
        0..max_ticks,
    )
}

/// Drives `ticks` into a sink of `capacity` and into the reference model
/// (a `VecDeque<SpanRecord>` with a drop counter), then compares every
/// reader.
fn check_sink_against_model(
    capacity: usize,
    ticks: &[Vec<(usize, u64)>],
) -> Result<(), TestCaseError> {
    let sink = SpanSink::bounded(capacity);
    let mut model: VecDeque<SpanRecord> = VecDeque::new();
    let mut dropped = 0u64;
    for (tick, spans) in ticks.iter().enumerate() {
        let tick = tick as u64;
        let named: Vec<(&'static str, u64)> = spans
            .iter()
            .map(|&(name, nanos)| (SPAN_NAMES[name], nanos))
            .collect();
        match named[..] {
            [(name, nanos)] => sink.emit(name, tick, nanos),
            _ => sink.emit_all(tick, &named),
        }
        for (name, nanos) in named {
            model.push_back(SpanRecord {
                name: name.to_string(),
                tick,
                nanos,
            });
            if model.len() > capacity {
                model.pop_front();
                dropped += 1;
            }
        }
    }
    let expected: Vec<SpanRecord> = model.into_iter().collect();
    prop_assert_eq!(sink.len(), expected.len());
    prop_assert_eq!(sink.is_empty(), expected.is_empty());
    prop_assert_eq!(sink.dropped(), dropped);
    prop_assert_eq!(sink.records(), expected);
    Ok(())
}

/// Two writers, disjoint value ranges, released together: the guarded
/// `fetch_min` / `fetch_max` must leave the exact extremes whichever
/// thread's loads were stale.
#[test]
fn extremes_are_exact_under_concurrent_writers() {
    let h = Histogram::new(Unit::None);
    let start = Barrier::new(2);
    let (low, high) = (10u64..5_010, 1_000_000u64..1_005_000);
    std::thread::scope(|scope| {
        // One range ascends and one descends, so each thread keeps moving
        // an extreme the other is also reading.
        scope.spawn(|| {
            start.wait();
            low.clone().rev().for_each(|v| h.record(v));
        });
        scope.spawn(|| {
            start.wait();
            high.clone().for_each(|v| h.record(v));
        });
    });
    let snap = h.snapshot();
    assert_eq!((snap.min, snap.max), (10, 1_004_999));
    assert_eq!(snap.count, 10_000);
    assert_eq!(snap.sum, low.sum::<u64>() + high.sum::<u64>());
    assert_eq!(snap.buckets.iter().map(|b| b.count).sum::<u64>(), 10_000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A snapshot is the naive tally of what was recorded: count, wrapping
    /// sum, exact extremes, one bucket count per occupied bucket.
    #[test]
    fn snapshot_equals_a_naive_model(xs in values_strategy(64)) {
        let snap = snapshot_of(&xs);
        let mut buckets: BTreeMap<u32, u64> = BTreeMap::new();
        for &v in &xs {
            *buckets.entry(bucket_index::<SUB_BITS>(v) as u32).or_default() += 1;
        }
        prop_assert_eq!(snap.count, xs.len() as u64);
        prop_assert_eq!(snap.sum, xs.iter().fold(0u64, |sum, &v| sum.wrapping_add(v)));
        prop_assert_eq!(snap.min, xs.iter().copied().min().unwrap_or(0));
        prop_assert_eq!(snap.max, xs.iter().copied().max().unwrap_or(0));
        let recorded: Vec<(u32, u64)> = snap.buckets.iter().map(|b| (b.index, b.count)).collect();
        prop_assert_eq!(recorded, buckets.into_iter().collect::<Vec<_>>());
    }

    /// The span ring against its model at the two degenerate capacities.
    #[test]
    fn span_ring_matches_a_deque_model_at_capacities_0_and_1(ticks in span_ticks_strategy(24)) {
        check_sink_against_model(0, &ticks)?;
        check_sink_against_model(1, &ticks)?;
    }

    /// `(a ∪ b) ∪ c == a ∪ (b ∪ c)` — field by field, buckets included.
    #[test]
    fn merge_is_associative(
        xs in values_strategy(24),
        ys in values_strategy(24),
        zs in values_strategy(24),
    ) {
        let (a, b, c) = (snapshot_of(&xs), snapshot_of(&ys), snapshot_of(&zs));
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert!(left.bitwise_eq(&right),
            "associativity violated: {left:?} != {right:?}");
    }

    /// `a ∪ b == b ∪ a`.
    #[test]
    fn merge_is_commutative(xs in values_strategy(32), ys in values_strategy(32)) {
        let (a, b) = (snapshot_of(&xs), snapshot_of(&ys));
        prop_assert!(merged(&a, &b).bitwise_eq(&merged(&b, &a)));
    }

    /// Merging two snapshots equals recording all values into one.
    /// Values are bounded so the live `sum` cannot overflow — atomic
    /// recording wraps where snapshot merging saturates.
    #[test]
    fn merge_equals_pooled_recording(
        xs in prop::collection::vec(0u64..(1 << 55), 0..32),
        ys in prop::collection::vec(0u64..(1 << 55), 0..32),
    ) {
        let pooled: Vec<u64> = xs.iter().chain(ys.iter()).copied().collect();
        prop_assert!(merged(&snapshot_of(&xs), &snapshot_of(&ys))
            .bitwise_eq(&snapshot_of(&pooled)));
    }

    /// The empty snapshot is a merge identity.
    #[test]
    fn empty_is_identity(xs in values_strategy(32)) {
        let a = snapshot_of(&xs);
        let empty = HistogramSnapshot::empty(Unit::None);
        prop_assert!(merged(&a, &empty).bitwise_eq(&a));
        prop_assert!(merged(&empty, &a).bitwise_eq(&a));
    }

    /// Quantiles are monotone in `q` and bracketed by min/max.
    #[test]
    fn quantiles_are_monotone(
        xs in values_strategy(64),
        q1 in 0.0f64..=1.0,
        q2 in 0.0f64..=1.0,
    ) {
        let snap = snapshot_of(&xs);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        match (snap.quantile(lo), snap.quantile(hi)) {
            (None, None) => prop_assert!(xs.is_empty()),
            (Some(a), Some(b)) => {
                prop_assert!(a <= b, "quantile({lo}) = {a} > quantile({hi}) = {b}");
                prop_assert!(a >= snap.min && b <= snap.max);
            }
            other => prop_assert!(false, "inconsistent quantiles: {other:?}"),
        }
    }

    /// Every value maps into a bucket whose bounds contain it.
    #[test]
    fn bucket_bounds_contain_their_values(v in any::<u64>()) {
        let index = bucket_index::<SUB_BITS>(v);
        prop_assert!(index < NUM_BUCKETS);
        let (lo, hi) = bucket_bounds::<SUB_BITS>(index);
        prop_assert!(lo <= v && v <= hi, "value {v} outside bucket [{lo}, {hi}]");
    }

    /// Bucket indexing is monotone: larger values never land in
    /// earlier buckets (what makes quantile estimation order-correct).
    #[test]
    fn bucket_index_is_monotone(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bucket_index::<SUB_BITS>(lo) <= bucket_index::<SUB_BITS>(hi));
    }

    /// Merge respects the relaxed-equality contract too: counts add.
    #[test]
    fn merged_count_is_sum_of_counts(xs in values_strategy(32), ys in values_strategy(32)) {
        let m = merged(&snapshot_of(&xs), &snapshot_of(&ys));
        prop_assert_eq!(m.count, (xs.len() + ys.len()) as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The span ring against its model at the CLI's capacity: up to 12 800
    /// records and 4 000 on average, so about half the cases wrap the ring.
    #[test]
    fn span_ring_matches_a_deque_model_at_capacity_4096(ticks in span_ticks_strategy(3200)) {
        check_sink_against_model(4096, &ticks)?;
    }
}
