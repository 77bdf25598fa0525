//! Log-bucketed histograms with atomic recording and quantile estimation.
//!
//! Buckets follow an HDR-style log-linear layout: values below
//! `2^SUB_BITS` get one exact bucket each, and every higher power-of-two
//! octave is split into `2^SUB_BITS` linear sub-buckets. The layout
//! ([`bucket_index`], [`bucket_bounds`], [`num_buckets`]) is generic over
//! the bit count and is the workspace's only one: these histograms use
//! [`SUB_BITS`]` = 3` — relative quantile error bounded by one eighth of
//! the bucket's octave (~12.5%), the whole `u64` domain in
//! [`NUM_BUCKETS`] slots — and the workload engine's latency histogram
//! uses 5.
//!
//! Recording is lock-free (relaxed atomics); snapshots are sparse
//! (only non-empty buckets) so they stay cheap to merge, serialize, and
//! ship across fleet cells.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Linear sub-bucket bits per octave of this module's histograms.
pub const SUB_BITS: u32 = 3;
/// Total bucket count covering the full `u64` domain.
pub const NUM_BUCKETS: usize = num_buckets(SUB_BITS);

/// Buckets a layout with `sub_bits` linear sub-bucket bits per octave
/// needs to cover the full `u64` domain.
pub const fn num_buckets(sub_bits: u32) -> usize {
    (65 - sub_bits as usize) << sub_bits
}

/// What a histogram's recorded values measure. Timing histograms get
/// relaxed equality (wall-clock nanos are non-deterministic) and are
/// stripped down to invocation counts by
/// [`stable_view`](crate::MetricsSnapshot::stable_view).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Unit {
    /// Dimensionless values (iteration counts, sizes, ...): full
    /// bit-for-bit equality.
    None,
    /// Wall-clock nanoseconds: equality compares invocation counts
    /// only, mirroring how `StageTiming` ignores recorded nanos.
    Nanos,
}

/// Maps a value to its bucket index in the layout with `BITS` sub-bucket
/// bits per octave. Total and monotone over `u64`.
pub fn bucket_index<const BITS: u32>(value: u64) -> usize {
    let sub_count = 1u64 << BITS;
    if value < sub_count {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros() as u64; // 2^octave <= value
    let sub = (value >> (octave - BITS as u64)) & (sub_count - 1);
    (sub_count + (octave - BITS as u64) * sub_count + sub) as usize
}

/// Inclusive `[lo, hi]` value range covered by bucket `index` of the
/// layout with `BITS` sub-bucket bits per octave.
pub fn bucket_bounds<const BITS: u32>(index: usize) -> (u64, u64) {
    let (index, sub_count) = (index as u64, 1u64 << BITS);
    if index < sub_count {
        return (index, index);
    }
    let octave = (index - sub_count) / sub_count + BITS as u64;
    let sub = (index - sub_count) % sub_count;
    let width = 1u64 << (octave - BITS as u64);
    let lo = (1u64 << octave) + sub * width;
    (lo, lo + (width - 1))
}

/// Representative value reported for bucket `index` (the range
/// midpoint; exact for the low linear buckets).
fn bucket_midpoint(index: usize) -> u64 {
    let (lo, hi) = bucket_bounds::<SUB_BITS>(index);
    lo + (hi - lo) / 2
}

#[derive(Debug)]
struct HistogramCore {
    unit: Unit,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
}

/// A cheaply-clonable handle to an atomic log-bucketed histogram.
/// Recording never allocates, locks, or branches on control state, so
/// instrumented code paths stay decision-inert.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Creates a standalone (unregistered) histogram — useful for
    /// tests and benches; production code obtains handles from
    /// [`MetricsRegistry`](crate::MetricsRegistry).
    pub fn new(unit: Unit) -> Self {
        Histogram {
            core: Arc::new(HistogramCore {
                unit,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
                buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            }),
        }
    }

    /// The unit this histogram records.
    pub(crate) fn unit(&self) -> Unit {
        self.core.unit
    }

    /// Records one value. Lock-free; relaxed ordering (metrics need no
    /// synchronisation edges).
    ///
    /// Three read-modify-writes in the common case: the extremes are
    /// touched only when a plain load says `value` would move them. The
    /// load can be stale only towards a *looser* extreme (`min` only ever
    /// falls, `max` only ever rises), so a skipped update is never one
    /// that was needed, and the update itself is still `fetch_min` /
    /// `fetch_max`, so concurrent writers cannot overwrite a tighter one.
    pub fn record(&self, value: u64) {
        let core = &*self.core;
        core.buckets[bucket_index::<SUB_BITS>(value)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        if value < core.min.load(Ordering::Relaxed) {
            core.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > core.max.load(Ordering::Relaxed) {
            core.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (wrapping only past `u64::MAX` total,
    /// i.e. ~585 years of nanoseconds).
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// Takes a sparse snapshot of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &*self.core;
        let count = core.count.load(Ordering::Relaxed);
        let mut buckets = Vec::new();
        for (index, bucket) in core.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push(BucketCount {
                    index: index as u32,
                    count: n,
                });
            }
        }
        HistogramSnapshot {
            unit: core.unit,
            count,
            sum: core.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                core.min.load(Ordering::Relaxed)
            },
            max: core.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// What [`HistogramSnapshot::merge`] did. Unit mismatches are typed
/// and counted rather than debug-asserted: a release build must never
/// silently fold nanoseconds into dimensionless buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome {
    /// Units matched; `other` was folded into `self`.
    Merged,
    /// Units disagreed; `self` was left untouched.
    SkippedUnitMismatch,
}

impl MergeOutcome {
    /// True when the merge was refused over a unit mismatch.
    pub fn skipped(self) -> bool {
        self == MergeOutcome::SkippedUnitMismatch
    }
}

/// One non-empty bucket in a sparse snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Bucket index (see [`bucket_index`]).
    pub index: u32,
    /// Values recorded into this bucket.
    pub count: u64,
}

/// An immutable, sparse histogram snapshot. Merging is associative and
/// commutative (all totals use saturating adds), which is what lets
/// fleet rollups fold per-cell snapshots in any grouping while the
/// fixed fold order keeps float-free results byte-identical.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Unit of the recorded values.
    pub(crate) unit: Unit,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty(unit: Unit) -> Self {
        HistogramSnapshot {
            unit,
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: Vec::new(),
        }
    }

    /// Folds `other` into `self`. Bucket counts and totals use
    /// saturating adds, so the operation is associative and
    /// commutative for any sequence of merges.
    ///
    /// Unit mismatches (nanos folded into a dimensionless histogram,
    /// or vice versa) are refused, not silently merged: `self` is left
    /// untouched and [`MergeOutcome::SkippedUnitMismatch`] reports the
    /// skip so callers can count it
    /// ([`MetricsSnapshot::merge`](crate::MetricsSnapshot::merge)
    /// does).
    #[must_use = "a skipped merge means the snapshots disagree on units"]
    pub fn merge(&mut self, other: &HistogramSnapshot) -> MergeOutcome {
        if self.unit != other.unit {
            return MergeOutcome::SkippedUnitMismatch;
        }
        if other.count == 0 {
            return MergeOutcome::Merged;
        }
        if self.count == 0 {
            *self = other.clone();
            return MergeOutcome::Merged;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) if x.index == y.index => {
                    merged.push(BucketCount {
                        index: x.index,
                        count: x.count.saturating_add(y.count),
                    });
                    a.next();
                    b.next();
                }
                (Some(x), Some(y)) if x.index < y.index => {
                    merged.push(**x);
                    a.next();
                }
                (Some(_), Some(y)) => {
                    merged.push(**y);
                    b.next();
                }
                (Some(x), None) => {
                    merged.push(**x);
                    a.next();
                }
                (None, Some(y)) => {
                    merged.push(**y);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        MergeOutcome::Merged
    }

    /// Estimated value at quantile `q ∈ [0, 1]`: the midpoint of the
    /// bucket holding the rank-`⌈q·count⌉` value. Monotone in `q` by
    /// construction. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for bucket in &self.buckets {
            seen = seen.saturating_add(bucket.count);
            if seen >= rank {
                return Some(bucket_midpoint(bucket.index as usize).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Mean of recorded values; `None` when empty.
    pub(crate) fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Strips non-deterministic content: timing ([`Unit::Nanos`])
    /// snapshots keep only their invocation count (sum/min/max zeroed,
    /// buckets cleared); dimensionless snapshots pass through. Fleet
    /// rollups publish this view so the merged JSON is byte-identical
    /// regardless of worker count or machine speed.
    pub(crate) fn stable_view(&self) -> HistogramSnapshot {
        match self.unit {
            Unit::None => self.clone(),
            Unit::Nanos => HistogramSnapshot {
                unit: Unit::Nanos,
                count: self.count,
                sum: 0,
                min: 0,
                max: 0,
                buckets: Vec::new(),
            },
        }
    }

    /// Full field-by-field comparison, regardless of unit (the
    /// `PartialEq` impl relaxes [`Unit::Nanos`] comparisons to counts
    /// only).
    pub fn bitwise_eq(&self, other: &HistogramSnapshot) -> bool {
        self.unit == other.unit
            && self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.buckets == other.buckets
    }
}

/// Timing histograms compare by invocation count only — wall-clock
/// nanos differ run to run — exactly as `StageTiming`'s clocks ignore
/// recorded nanos. Dimensionless histograms compare bit-for-bit.
impl PartialEq for HistogramSnapshot {
    fn eq(&self, other: &Self) -> bool {
        match (self.unit, other.unit) {
            (Unit::Nanos, Unit::Nanos) => self.count == other.count,
            _ => self.bitwise_eq(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_values_get_exact_buckets() {
        for v in 0..1 << SUB_BITS {
            assert_eq!(bucket_index::<SUB_BITS>(v), v as usize);
            assert_eq!(bucket_bounds::<SUB_BITS>(v as usize), (v, v));
        }
    }

    #[test]
    fn bucket_bounds_partition_the_domain() {
        let mut expected_lo = 0u64;
        for index in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds::<SUB_BITS>(index);
            assert_eq!(lo, expected_lo, "bucket {index} lower bound");
            assert!(hi >= lo);
            assert_eq!(bucket_index::<SUB_BITS>(lo), index);
            assert_eq!(bucket_index::<SUB_BITS>(hi), index);
            if hi == u64::MAX {
                assert_eq!(index, NUM_BUCKETS - 1);
                return;
            }
            expected_lo = hi + 1;
        }
        panic!("last bucket must end at u64::MAX");
    }

    #[test]
    fn record_and_quantiles() {
        let h = Histogram::new(Unit::None);
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.sum, 500_500);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1000);
        let p50 = snap.quantile(0.5).unwrap();
        let p99 = snap.quantile(0.99).unwrap();
        // Log-linear buckets bound relative error by one sub-bucket.
        assert!((400..=625).contains(&p50), "p50 = {p50}");
        assert!((875..=1000).contains(&p99), "p99 = {p99}");
        assert!(snap.quantile(0.0).unwrap() <= p50);
        assert!(p50 <= p99);
    }

    #[test]
    fn empty_snapshot_has_no_quantiles() {
        let snap = Histogram::new(Unit::Nanos).snapshot();
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.mean(), None);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let (a, b, all) = (
            Histogram::new(Unit::None),
            Histogram::new(Unit::None),
            Histogram::new(Unit::None),
        );
        for v in [0u64, 1, 7, 8, 9, 100, 1_000_000, u64::MAX] {
            a.record(v);
            all.record(v);
        }
        for v in [3u64, 8, 500, u64::MAX - 1] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.snapshot();
        assert_eq!(merged.merge(&b.snapshot()), MergeOutcome::Merged);
        assert!(merged.bitwise_eq(&all.snapshot()));
    }

    #[test]
    fn unit_mismatch_is_skipped_and_reported() {
        let timing = Histogram::new(Unit::Nanos);
        timing.record(123_456);
        let dimensionless = Histogram::new(Unit::None);
        dimensionless.record(7);
        let mut target = dimensionless.snapshot();
        let before = target.clone();
        // Release builds used to fold nanos into dimensionless buckets
        // here; the mismatch must now leave the target untouched.
        let outcome = target.merge(&timing.snapshot());
        assert!(outcome.skipped());
        assert!(target.bitwise_eq(&before));
        // Same refusal in the other direction, and for empty operands:
        // the unit check comes before the emptiness fast paths.
        let mut timing_snap = timing.snapshot();
        assert!(timing_snap.merge(&before).skipped());
        let mut empty = HistogramSnapshot::empty(Unit::None);
        assert!(empty
            .merge(&HistogramSnapshot::empty(Unit::Nanos))
            .skipped());
        assert_eq!(empty.count, 0);
    }

    #[test]
    fn nanos_equality_ignores_recorded_values() {
        let (a, b) = (Histogram::new(Unit::Nanos), Histogram::new(Unit::Nanos));
        a.record(10);
        a.record(20);
        b.record(999_999);
        b.record(1);
        assert_eq!(a.snapshot(), b.snapshot());
        assert!(!a.snapshot().bitwise_eq(&b.snapshot()));
        b.record(5);
        assert_ne!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn stable_view_drops_timing_payload_but_keeps_counts() {
        let h = Histogram::new(Unit::Nanos);
        h.record(123_456);
        h.record(789);
        let stable = h.snapshot().stable_view();
        assert_eq!(stable.count, 2);
        assert_eq!(stable.sum, 0);
        assert!(stable.buckets.is_empty());
        let d = Histogram::new(Unit::None);
        d.record(42);
        assert!(d.snapshot().stable_view().bitwise_eq(&d.snapshot()));
    }
}
