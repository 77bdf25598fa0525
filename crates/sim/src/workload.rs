//! Workload-intensity traces.
//!
//! Figure 1 of the paper motivates Stay-Away with the diurnal read workload
//! of Wikipedia (periods of low intensity are co-location opportunities).
//! The original AWS-hosted trace is no longer published, so
//! [`Trace::diurnal`] synthesises a trace with the same qualitative shape:
//! a day/night sinusoid, a weekly modulation and multiplicative noise.

use crate::SimError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A workload-intensity time series with values in `[0, 1]`.
///
/// Index `t` is a simulator tick; reads past the end wrap around, so a
/// single day's trace drives arbitrarily long runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    samples: Vec<f64>,
}

/// Parameters of the synthetic diurnal generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalParams {
    /// Ticks per simulated day.
    pub ticks_per_day: usize,
    /// Number of days to generate.
    pub days: usize,
    /// Lowest night-time intensity.
    pub base: f64,
    /// Day/night swing added on top of `base`.
    pub amplitude: f64,
    /// Relative weekly modulation (weekends dip by this fraction).
    pub weekly_dip: f64,
    /// Multiplicative noise amplitude.
    pub noise: f64,
}

impl Default for DiurnalParams {
    fn default() -> Self {
        DiurnalParams {
            ticks_per_day: 96, // 15-minute buckets
            days: 4,
            base: 0.15,
            amplitude: 0.75,
            weekly_dip: 0.15,
            noise: 0.05,
        }
    }
}

impl Trace {
    /// Builds a trace from raw samples (clamped into `[0, 1]`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] for an empty or non-finite series.
    pub fn from_samples(samples: Vec<f64>) -> Result<Self, SimError> {
        if samples.is_empty() {
            return Err(SimError::Trace("empty trace".into()));
        }
        if samples.iter().any(|s| !s.is_finite()) {
            return Err(SimError::Trace("non-finite sample".into()));
        }
        Ok(Trace {
            samples: samples.into_iter().map(|s| s.clamp(0.0, 1.0)).collect(),
        })
    }

    /// A piecewise-constant trace from `(intensity, duration)` segments —
    /// used to script the workload-variation timelines of Figure 13.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] when no segment has positive duration.
    pub fn piecewise(segments: &[(f64, usize)]) -> Result<Self, SimError> {
        let mut samples = Vec::new();
        for &(intensity, len) in segments {
            samples.extend(vec![intensity.clamp(0.0, 1.0); len]);
        }
        Trace::from_samples(samples)
    }

    /// Synthesises a Wikipedia-like diurnal trace (Figure 1's shape).
    pub fn diurnal(params: DiurnalParams, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = params.ticks_per_day * params.days;
        let mut samples = Vec::with_capacity(n.max(1));
        for t in 0..n {
            let day_phase = (t % params.ticks_per_day) as f64 / params.ticks_per_day as f64;
            // Peak in the afternoon (phase ~0.6), trough at night.
            let diurnal = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * (day_phase - 0.1)).cos());
            let day = t / params.ticks_per_day;
            let weekly = if day % 7 >= 5 {
                1.0 - params.weekly_dip
            } else {
                1.0
            };
            let noise = 1.0 + params.noise * (rng.gen::<f64>() * 2.0 - 1.0);
            let v = (params.base + params.amplitude * diurnal) * weekly * noise;
            samples.push(v.clamp(0.0, 1.0));
        }
        if samples.is_empty() {
            samples.push(params.base.clamp(0.0, 1.0));
        }
        Trace { samples }
    }

    /// Intensity at tick `t` (wrapping past the end).
    pub fn intensity(&self, t: u64) -> f64 {
        self.samples[(t as usize) % self.samples.len()]
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Always false: traces are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Borrow the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace() {
        let t = Trace::piecewise(&[(0.4, 5)]).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.intensity(3), 0.4);
        assert_eq!(t.intensity(7), 0.4); // wraps
    }

    #[test]
    fn clamping_into_unit_interval() {
        let t = Trace::from_samples(vec![-0.5, 0.5, 1.5]).unwrap();
        assert_eq!(t.samples(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn rejects_bad_samples() {
        assert!(Trace::from_samples(vec![]).is_err());
        assert!(Trace::from_samples(vec![f64::NAN]).is_err());
    }

    #[test]
    fn piecewise_concatenates_segments() {
        let t = Trace::piecewise(&[(0.2, 3), (0.8, 2)]).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.intensity(2), 0.2);
        assert_eq!(t.intensity(3), 0.8);
        assert!(Trace::piecewise(&[]).is_err());
    }

    #[test]
    fn diurnal_trace_has_day_night_swing() {
        let p = DiurnalParams::default();
        let t = Trace::diurnal(p, 42);
        assert_eq!(t.len(), p.ticks_per_day * p.days);
        let min = t.samples().iter().copied().fold(1.0, f64::min);
        let max = t.samples().iter().copied().fold(0.0, f64::max);
        assert!(min < 0.3, "night intensity too high: {min}");
        assert!(max > 0.7, "day intensity too low: {max}");
        // Deterministic per seed.
        assert_eq!(t, Trace::diurnal(p, 42));
        assert_ne!(t, Trace::diurnal(p, 43));
    }

    #[test]
    fn diurnal_trace_peaks_during_daytime() {
        let p = DiurnalParams {
            noise: 0.0,
            ..DiurnalParams::default()
        };
        let t = Trace::diurnal(p, 1);
        // The afternoon bucket outweighs the pre-dawn bucket.
        let afternoon = t.intensity((p.ticks_per_day as f64 * 0.6) as u64);
        let predawn = t.intensity((p.ticks_per_day as f64 * 0.1) as u64);
        assert!(afternoon > predawn + 0.3);
    }
}
