//! Property-based tests for the observability plane's algebra: merge
//! must be associative and commutative (fleet rollups fold per-cell
//! snapshots in arbitrary groupings) and quantiles must be monotone.

use proptest::prelude::*;
use stayaway_obs::{
    bucket_bounds, bucket_index, Histogram, HistogramSnapshot, Unit, NUM_BUCKETS, SUB_BITS,
};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

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
