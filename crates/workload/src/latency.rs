//! O(1)-memory deterministic latency tracking.
//!
//! Per-request latencies arrive as integer nanoseconds and land in a
//! log-bucketed histogram: 32 sub-buckets per power of two gives ≈ 2.2 %
//! relative resolution over the full `u64` range with a fixed ~2 K-bucket
//! footprint. Quantile extraction walks bucket counts — pure integer
//! state, so identical request streams yield bit-identical p50/p95/p99
//! regardless of worker count or platform.

use serde::{Deserialize, Serialize};
use stayaway_obs::{bucket_bounds, bucket_index, num_buckets};

/// Linear sub-bucket bits per octave in the shared log-linear layout
/// ([`stayaway_obs::bucket_index`]): 32 sub-buckets ≈ 2.2 % relative
/// error. A bucket is represented by its lower bound.
const SUB_BITS: u32 = 5;

/// A log-bucketed latency histogram over integer nanoseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub(crate) fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; num_buckets(SUB_BITS)],
            total: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// Records one latency sample.
    #[inline]
    pub(crate) fn record(&mut self, latency_ns: u64) {
        self.counts[bucket_index::<SUB_BITS>(latency_ns)] += 1;
        self.total += 1;
        self.sum_ns = self.sum_ns.saturating_add(latency_ns);
        self.max_ns = self.max_ns.max(latency_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency in milliseconds (0 when empty).
    pub(crate) fn mean_ms(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.total as f64 / 1e6
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) in integer nanoseconds: the floor
    /// of the first bucket whose cumulative count reaches `⌈q·total⌉`.
    /// Returns 0 when empty. Pure integer arithmetic — deterministic.
    pub(crate) fn quantile_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds::<SUB_BITS>(i).0.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// The `q`-quantile in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile_ns(q) as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bucket_of` as this file defined it before the layout moved to
    /// `stayaway_obs`, kept verbatim as the reference.
    fn parent_bucket_of(value_ns: u64) -> usize {
        const SUBBUCKETS: usize = 1 << SUB_BITS;
        if value_ns < SUBBUCKETS as u64 {
            return value_ns as usize;
        }
        let exp = 63 - value_ns.leading_zeros(); // floor(log2), >= SUB_BITS
        let mantissa = (value_ns >> (exp - SUB_BITS)) as usize & (SUBBUCKETS - 1);
        ((exp - SUB_BITS + 1) as usize) * SUBBUCKETS + mantissa
    }

    /// `bucket_floor` likewise.
    fn parent_bucket_floor(index: usize) -> u64 {
        const SUBBUCKETS: usize = 1 << SUB_BITS;
        if index < SUBBUCKETS {
            return index as u64;
        }
        let exp = (index / SUBBUCKETS - 1) as u32 + SUB_BITS;
        let mantissa = (index % SUBBUCKETS) as u64;
        (1u64 << exp) | (mantissa << (exp - SUB_BITS))
    }

    #[test]
    fn shared_layout_at_five_bits_is_the_layout_this_file_had() {
        let mut values = vec![0, u64::MAX];
        for shift in 0..64 {
            let p = 1u64 << shift;
            values.extend([p - 1, p, p.saturating_add(1)]);
        }
        for v in values {
            let index = bucket_index::<SUB_BITS>(v);
            assert_eq!(index, parent_bucket_of(v), "index of {v}");
            assert_eq!(
                bucket_bounds::<SUB_BITS>(index).0,
                parent_bucket_floor(index),
                "floor of {v}"
            );
        }
        assert_eq!(num_buckets(SUB_BITS), 1920);
        // Spot values, as literals.
        for (v, index, floor) in [
            (0, 0, 0),
            (31, 31, 31),
            (33, 33, 33),
            (65, 64, 64),
            (1_000_000, 509, 999_424),
            (u64::MAX, 1919, 0xfc00_0000_0000_0000),
        ] {
            assert_eq!(bucket_index::<SUB_BITS>(v), index);
            assert_eq!(bucket_bounds::<SUB_BITS>(index).0, floor);
        }
    }

    #[test]
    fn buckets_are_monotone_and_self_consistent() {
        let mut last = 0;
        for v in [0u64, 1, 31, 32, 33, 100, 1_000, 1_000_000, u64::MAX / 2] {
            let b = bucket_index::<SUB_BITS>(v);
            assert!(b >= last || v < 32, "bucket order broke at {v}");
            last = b;
            // The representative never exceeds the value, and is within
            // ~3.2% below it for log buckets.
            let floor = bucket_bounds::<SUB_BITS>(b).0;
            assert!(floor <= v, "floor {floor} > value {v}");
            if v >= 32 {
                assert!((v - floor) as f64 <= v as f64 / 32.0 + 1.0);
            } else {
                assert_eq!(floor, v);
            }
        }
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let mut h = LatencyHistogram::new();
        // 100 samples: 1ms..100ms.
        for i in 1..=100u64 {
            h.record(i * 1_000_000);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ms(0.50);
        let p95 = h.quantile_ms(0.95);
        let p99 = h.quantile_ms(0.99);
        assert!((48.0..=50.0).contains(&p50), "p50 {p50}");
        assert!((92.0..=95.0).contains(&p95), "p95 {p95}");
        assert!((96.0..=99.0).contains(&p99), "p99 {p99}");
        assert!(p50 <= p95 && p95 <= p99);
        assert!((h.mean_ms() - 50.5).abs() < 0.01);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ns(0.99), 0);
        assert_eq!(h.mean_ms(), 0.0);
    }

    #[test]
    fn identical_streams_are_bit_identical() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for i in 0..10_000u64 {
            let v = (i * 2_654_435_761) % 50_000_000;
            a.record(v);
            b.record(v);
        }
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
