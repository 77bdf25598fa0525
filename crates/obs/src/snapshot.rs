//! Point-in-time metric snapshots: serializable, mergeable, and — via
//! [`MetricsSnapshot::stable_view`] — reducible to a deterministic form
//! safe to compare byte-for-byte across runs and worker counts.
//!
//! Samples live in `Vec`s sorted by name (the vendored serde has no
//! map support, and sorted vectors give deterministic JSON anyway).

use crate::hist::HistogramSnapshot;
use serde::{Deserialize, Serialize};

/// One counter sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub(crate) help: String,
    /// Counter value.
    pub value: u64,
}

/// One gauge sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub(crate) help: String,
    /// Gauge value.
    pub value: f64,
}

/// One histogram sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub(crate) help: String,
    /// The sparse histogram snapshot.
    pub hist: HistogramSnapshot,
}

/// A full registry snapshot. Equality inherits the histogram
/// semantics: timing histograms compare by invocation count only.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counters, ascending by name.
    pub counters: Vec<CounterSample>,
    /// Gauges, ascending by name.
    pub gauges: Vec<GaugeSample>,
    /// Histograms, ascending by name.
    pub histograms: Vec<HistogramSample>,
}

/// Merges two sorted-by-name sample lists, combining same-name entries
/// with `combine` and keeping the result sorted.
fn merge_by_name<T, K, C>(a: &[T], b: &[T], key: K, mut combine: C) -> Vec<T>
where
    T: Clone,
    K: Fn(&T) -> &str,
    C: FnMut(&T, &T) -> T,
{
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match key(&a[i]).cmp(key(&b[j])) {
            std::cmp::Ordering::Equal => {
                out.push(combine(&a[i], &b[j]));
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl MetricsSnapshot {
    /// True when the snapshot holds no samples at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`, by name: counters add (saturating),
    /// histograms merge bucket-wise, gauges **sum** — a merged gauge is
    /// a fleet-wide total, not an average; callers wanting means divide
    /// by the cell count. Fleet aggregation calls this in fixed cell
    /// order, so even float gauge sums are byte-deterministic.
    ///
    /// Same-name histograms whose units disagree are **not** merged:
    /// the left-hand sample wins untouched and the skip is counted in
    /// the returned total (see
    /// [`MergeOutcome`](crate::hist::MergeOutcome)). Zero whenever both
    /// snapshots come from identically-registered registries.
    pub fn merge(&mut self, other: &MetricsSnapshot) -> u64 {
        let mut unit_mismatches = 0u64;
        self.counters = merge_by_name(
            &self.counters,
            &other.counters,
            |c| c.name.as_str(),
            |x, y| CounterSample {
                name: x.name.clone(),
                help: x.help.clone(),
                value: x.value.saturating_add(y.value),
            },
        );
        self.gauges = merge_by_name(
            &self.gauges,
            &other.gauges,
            |g| g.name.as_str(),
            |x, y| GaugeSample {
                name: x.name.clone(),
                help: x.help.clone(),
                value: x.value + y.value,
            },
        );
        self.histograms = merge_by_name(
            &self.histograms,
            &other.histograms,
            |h| h.name.as_str(),
            |x, y| {
                let mut hist = x.hist.clone();
                if hist.merge(&y.hist).skipped() {
                    unit_mismatches += 1;
                }
                HistogramSample {
                    name: x.name.clone(),
                    help: x.help.clone(),
                    hist,
                }
            },
        );
        unit_mismatches
    }

    /// The deterministic projection of this snapshot: every timing
    /// histogram is reduced to its invocation count (see
    /// `HistogramSnapshot::stable_view`); counters, gauges, and
    /// dimensionless histograms pass through unchanged.
    pub fn stable_view(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|h| HistogramSample {
                    name: h.name.clone(),
                    help: h.help.clone(),
                    hist: h.hist.stable_view(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_snapshot(counter: u64, gauge: f64, values: &[u64]) -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.counter("c_total", "c").add(counter);
        reg.gauge("g", "g").set(gauge);
        let h = reg.histogram("h", "h");
        for &v in values {
            h.record(v);
        }
        reg.snapshot()
    }

    #[test]
    fn merge_unions_by_name() {
        let mut a = sample_snapshot(3, 0.5, &[1, 2]);
        let b = sample_snapshot(4, 0.25, &[3]);
        assert_eq!(a.merge(&b), 0);
        assert_eq!(a.counters[0].value, 7);
        assert_eq!(a.gauges[0].value, 0.75);
        assert_eq!(a.histograms[0].hist.count, 3);
    }

    #[test]
    fn merge_counts_unit_mismatches_and_keeps_the_left_sample() {
        let reg_a = MetricsRegistry::new();
        reg_a.histogram("h", "dimensionless here").record(7);
        let reg_b = MetricsRegistry::new();
        reg_b.latency_histogram("h", "timing there").record(123_456);
        let mut merged = reg_a.snapshot();
        let before = merged.histograms[0].hist.clone();
        assert_eq!(merged.merge(&reg_b.snapshot()), 1);
        assert!(merged.histograms[0].hist.bitwise_eq(&before));
    }

    #[test]
    fn merge_keeps_disjoint_names_sorted() {
        let reg_a = MetricsRegistry::new();
        reg_a.counter("b_total", "b").inc();
        let reg_b = MetricsRegistry::new();
        reg_b.counter("a_total", "a").inc();
        reg_b.counter("c_total", "c").inc();
        let mut merged = reg_a.snapshot();
        merged.merge(&reg_b.snapshot());
        let names: Vec<&str> = merged.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a_total", "b_total", "c_total"]);
    }

    #[test]
    fn stable_view_strips_only_timing_histograms() {
        let reg = MetricsRegistry::new();
        let lat = reg.latency_histogram("lat_nanos", "timing");
        lat.record(12_345);
        let dim = reg.histogram("iters", "iterations");
        dim.record(7);
        let stable = reg.snapshot().stable_view();
        let lat_s = &stable.histograms[some_index(&stable, "lat_nanos")].hist;
        assert_eq!((lat_s.count, lat_s.sum), (1, 0));
        assert!(lat_s.buckets.is_empty());
        let dim_s = &stable.histograms[some_index(&stable, "iters")].hist;
        assert_eq!(dim_s.sum, 7);
    }

    fn some_index(snap: &MetricsSnapshot, name: &str) -> usize {
        snap.histograms.iter().position(|h| h.name == name).unwrap()
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let snap = sample_snapshot(9, 1.5, &[4, 4, 900]);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert!(back.histograms[0].hist.bitwise_eq(&snap.histograms[0].hist));
    }

    #[test]
    fn nanos_histograms_drive_relaxed_snapshot_equality() {
        let reg1 = MetricsRegistry::new();
        reg1.latency_histogram("lat_nanos", "t").record(10);
        let reg2 = MetricsRegistry::new();
        reg2.latency_histogram("lat_nanos", "t").record(77_777);
        assert_eq!(reg1.snapshot(), reg2.snapshot());
    }
}
