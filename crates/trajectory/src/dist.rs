//! Windowed empirical distributions of trajectory parameters.
//!
//! The trajectory of an execution mode drifts as applications change phase,
//! so the model must weight recent behaviour: observations are kept in a
//! bounded sliding window (oldest evicted first). From the window the
//! distribution exposes histogram-CDF inverse-transform sampling (what the
//! predictor draws from — the paper's sampler without its KDE smoothing
//! step) and a KDE fit for inspection only.
//!
//! **Maintenance invariant.** The distribution owns the histogram it
//! samples from, and after every [`observe`](EmpiricalDistribution::observe)
//! that histogram equals `Histogram::auto_range(window, bins)` — counts,
//! bounds and error cases alike. While the window's extremes stay put an
//! observation costs one bin increment (plus one decrement for the evicted
//! value); only an observation that moves an extreme — a new minimum or
//! maximum, or the eviction of the last copy of one — recounts the window,
//! so at most one rebuild per window change and none per draw.
//! [`sample`](EmpiricalDistribution::sample) is one CDF inversion on that
//! live state and allocates nothing.

use crate::histogram::{extremes, Histogram};
use crate::kde::Kde;
use crate::TrajectoryError;
use rand::Rng;
use std::collections::VecDeque;

/// Default sliding-window capacity.
pub const DEFAULT_WINDOW: usize = 512;

/// Default number of histogram bins used for sampling.
pub const DEFAULT_BINS: usize = 24;

/// A bounded sliding window of scalar observations with sampling support.
#[derive(Debug, Clone)]
pub struct EmpiricalDistribution {
    window: VecDeque<f64>,
    capacity: usize,
    bins: usize,
    /// Always `Histogram::auto_range(window, bins)`.
    histogram: Result<Histogram, TrajectoryError>,
    /// Smallest and largest value in the window (`(∞, −∞)` when empty).
    extremes: (f64, f64),
    /// How many window entries equal each extreme. Step lengths sit on
    /// their minimum (a period that stays in its state is a zero-length
    /// step), so evicting *a* copy of an extreme is routine and only
    /// evicting the *last* one moves the range.
    copies: (usize, usize),
}

impl EmpiricalDistribution {
    /// Creates an empty distribution with default window and bin counts.
    pub fn new() -> Self {
        EmpiricalDistribution::with_capacity(DEFAULT_WINDOW, DEFAULT_BINS)
    }

    /// Creates an empty distribution with explicit window capacity and bin
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `bins == 0`.
    pub fn with_capacity(capacity: usize, bins: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        assert!(bins > 0, "bin count must be positive");
        EmpiricalDistribution {
            window: VecDeque::with_capacity(capacity),
            capacity,
            bins,
            histogram: Histogram::auto_range(&[], bins),
            extremes: extremes(std::iter::empty()),
            copies: (0, 0),
        }
    }

    /// Number of observations currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Records an observation (non-finite values are silently dropped — a
    /// single bad sample must not poison the model).
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let evicted = if self.window.len() == self.capacity {
            self.window.pop_front()
        } else {
            None
        };
        self.window.push_back(value);

        let (lo, hi) = self.extremes;
        let (lo_copies, hi_copies) = &mut self.copies;
        *lo_copies += usize::from(value == lo);
        *hi_copies += usize::from(value == hi);
        if let Some(old) = evicted {
            *lo_copies -= usize::from(old == lo);
            *hi_copies -= usize::from(old == hi);
        }
        // The range moves when a value lands outside it or the last copy of
        // an extreme leaves; only then is the window recounted.
        if value < lo || value > hi || *lo_copies == 0 || *hi_copies == 0 {
            let (lo, hi) = extremes(self.window.iter().copied());
            let copies_of = |x: f64| self.window.iter().filter(|&&v| v == x).count();
            self.copies = (copies_of(lo), copies_of(hi));
            self.extremes = (lo, hi);
            // Recounted in place once a histogram exists, so a moved
            // extreme costs no allocation.
            let window = self.window.make_contiguous();
            match &mut self.histogram {
                Ok(h) => {
                    if let Err(e) = h.recount_auto_range(window) {
                        self.histogram = Err(e);
                    }
                }
                Err(_) => self.histogram = Histogram::auto_range(window, self.bins),
            }
        } else if let Ok(h) = &mut self.histogram {
            if let Some(old) = evicted {
                h.remove(old);
            }
            h.insert(value);
        }
    }

    /// Fits a KDE to the current window.
    ///
    /// # Errors
    ///
    /// Returns [`TrajectoryError::InsufficientData`] when empty.
    pub fn kde(&self) -> Result<Kde, TrajectoryError> {
        Kde::fit(&self.to_vec())
    }

    /// Draws a value by inverse-transform sampling on the windowed
    /// histogram (the paper's §3.2.3 sampler).
    ///
    /// # Errors
    ///
    /// Returns [`TrajectoryError::InsufficientData`] when empty.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<f64, TrajectoryError> {
        let h = self.histogram.as_ref().map_err(Clone::clone)?;
        Ok(h.inverse_cdf(rng.gen_range(0.0..=1.0)))
    }

    /// Copies the windowed observations out (oldest first).
    pub fn to_vec(&self) -> Vec<f64> {
        self.window.iter().copied().collect()
    }
}

impl Default for EmpiricalDistribution {
    fn default() -> Self {
        EmpiricalDistribution::new()
    }
}

impl Extend<f64> for EmpiricalDistribution {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.observe(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The sampler as it was before the histogram became maintained state, kept
    /// as the reference: copy the window out, rebuild the whole histogram,
    /// invert its CDF at one uniform draw.
    fn collect_and_rebuild_sample<R: Rng>(
        d: &EmpiricalDistribution,
        bins: usize,
        rng: &mut R,
    ) -> f64 {
        let h = Histogram::auto_range(&d.to_vec(), bins).unwrap();
        h.inverse_cdf(rng.gen_range(0.0..=1.0))
    }

    /// Observations that exercise every maintenance case: non-finite values
    /// (dropped), a coarse grid (duplicates, repeated minima and maxima) and
    /// free values (fresh extremes).
    fn observation_strategy() -> impl Strategy<Value = f64> {
        (0u8..10, -3.0f64..3.0).prop_map(|(kind, x)| match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2..=5 => (x * 2.0).round() / 2.0,
            _ => x,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// After every `observe` — window smaller than the sequence, so minima
        /// and maxima get evicted — the distribution's histogram equals a
        /// from-scratch `auto_range` over the window, and `sample` returns the
        /// bits the collect-and-rebuild sampler returns from the same RNG state.
        #[test]
        fn maintained_histogram_equals_rebuild(
            values in prop::collection::vec(observation_strategy(), 1..80),
            constant in any::<bool>(),
            capacity in 1usize..12,
            bins in 1usize..30,
            seed in 0u64..1000,
        ) {
            let mut d = EmpiricalDistribution::with_capacity(capacity, bins);
            let mut rng = StdRng::seed_from_u64(seed);
            for &v in &values {
                // Constant data: every finite observation is the same value.
                d.observe(if constant && v.is_finite() { 0.75 } else { v });
                let window = d.to_vec();
                prop_assert!(window.len() <= capacity);
                if window.is_empty() {
                    prop_assert!(d.histogram.is_err());
                    prop_assert!(d.sample(&mut rng).is_err());
                    continue;
                }
                prop_assert_eq!(
                    d.histogram.clone().unwrap(),
                    Histogram::auto_range(&window, bins).unwrap()
                );
                let mut reference_rng = rng.clone();
                let got = d.sample(&mut rng).unwrap();
                let want = collect_and_rebuild_sample(&d, bins, &mut reference_rng);
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn observe_records_in_order() {
        let mut d = EmpiricalDistribution::new();
        d.observe(1.0);
        d.observe(3.0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.to_vec(), vec![1.0, 3.0]);
    }

    #[test]
    fn window_evicts_oldest() {
        let mut d = EmpiricalDistribution::with_capacity(3, 4);
        for v in [1.0, 2.0, 3.0, 4.0] {
            d.observe(v);
        }
        assert_eq!(d.len(), 3);
        assert_eq!(d.to_vec(), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let mut d = EmpiricalDistribution::new();
        d.observe(f64::NAN);
        d.observe(f64::INFINITY);
        assert!(d.is_empty());
    }

    #[test]
    fn sampling_stays_within_observed_range() {
        let mut d = EmpiricalDistribution::new();
        d.extend((0..100).map(|i| 0.2 + 0.6 * (i as f64 / 99.0)));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let s = d.sample(&mut rng).unwrap();
            assert!((0.2..=0.8).contains(&s), "sample {s} out of range");
        }
    }

    #[test]
    fn sampling_reflects_bias() {
        // 90% of mass at 0.9 → most samples land high.
        let mut d = EmpiricalDistribution::new();
        d.extend(std::iter::repeat_n(0.9, 90));
        d.extend(std::iter::repeat_n(0.1, 10));
        let mut rng = StdRng::seed_from_u64(11);
        let n = 1000;
        let high = (0..n).filter(|_| d.sample(&mut rng).unwrap() > 0.5).count();
        assert!(high > 800, "only {high}/{n} samples were high");
    }

    #[test]
    fn empty_distribution_errors() {
        let d = EmpiricalDistribution::new();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(d.histogram.is_err());
        assert!(d.kde().is_err());
        assert!(d.sample(&mut rng).is_err());
    }

    #[test]
    #[should_panic(expected = "window capacity")]
    fn zero_capacity_panics() {
        let _ = EmpiricalDistribution::with_capacity(0, 4);
    }
}
