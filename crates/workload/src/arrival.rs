//! Open-loop request arrival processes.
//!
//! Every tenant generates its requests from one of these processes,
//! independently of how the host is doing — the *open-loop* property that
//! makes latency a meaningful QoS signal (a closed-loop generator would
//! slow down with the host and hide the queueing collapse). Each process
//! is a declarative, serde-round-trippable description; sampling is
//! seeded and consumes only the tenant's dedicated arrival RNG, so the
//! arrival timeline is identical under every control policy.

use crate::WorkloadError;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Nanoseconds per second, the engine's time unit.
pub const NANOS_PER_SEC: f64 = 1e9;

/// One simulated day: the longest inter-arrival gap a draw can produce
/// and the longest control tick a scenario may declare, so neither can
/// walk the `u64` nanosecond clock to its end.
pub(crate) const MAX_GAP_SECS: f64 = 86_400.0;

/// A time-varying request arrival process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `rps` requests per second.
    Poisson {
        /// Mean arrival rate, requests per second.
        rps: f64,
    },
    /// Sinusoidal diurnal curve between `base_rps` (trough) and
    /// `peak_rps` (crest) with the given period. The rate starts at the
    /// trough and peaks half a period in.
    Diurnal {
        /// Trough arrival rate, requests per second.
        base_rps: f64,
        /// Crest arrival rate, requests per second.
        peak_rps: f64,
        /// Full trough→crest→trough period, seconds.
        period_secs: f64,
    },
    /// Poisson base load with a periodic flash-crowd burst: for the first
    /// `burst_secs` of every `period_secs` window the rate jumps to
    /// `base_rps + burst_rps`.
    FlashCrowd {
        /// Steady background rate, requests per second.
        base_rps: f64,
        /// Additional rate during the burst, requests per second.
        burst_rps: f64,
        /// Burst recurrence period, seconds.
        period_secs: f64,
        /// Burst duration at the start of each period, seconds.
        burst_secs: f64,
    },
    /// Square-wave batch phases: `on_rps` for `on_secs`, then silence for
    /// `off_secs`, repeating — phase-shifting batch jobs that come and go.
    OnOff {
        /// Arrival rate during the on-phase, requests per second.
        on_rps: f64,
        /// On-phase duration, seconds.
        on_secs: f64,
        /// Off-phase (zero-rate) duration, seconds.
        off_secs: f64,
    },
}

impl ArrivalProcess {
    /// Validates the process parameters.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] describing the first
    /// problem found.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let check = |name: &str, v: f64, positive: bool| -> Result<(), WorkloadError> {
            let ok = v.is_finite() && if positive { v > 0.0 } else { v >= 0.0 };
            if ok {
                Ok(())
            } else {
                Err(WorkloadError::InvalidSpec {
                    reason: format!(
                        "arrival parameter {name} must be finite and positive, got {v}"
                    ),
                })
            }
        };
        match self {
            ArrivalProcess::Poisson { rps } => check("rps", *rps, true),
            ArrivalProcess::Diurnal {
                base_rps,
                peak_rps,
                period_secs,
            } => {
                check("base_rps", *base_rps, true)?;
                check("peak_rps", *peak_rps, true)?;
                check("period_secs", *period_secs, true)?;
                if peak_rps < base_rps {
                    return Err(WorkloadError::InvalidSpec {
                        reason: format!("diurnal peak_rps {peak_rps} below base_rps {base_rps}"),
                    });
                }
                Ok(())
            }
            ArrivalProcess::FlashCrowd {
                base_rps,
                burst_rps,
                period_secs,
                burst_secs,
            } => {
                check("base_rps", *base_rps, true)?;
                check("burst_rps", *burst_rps, false)?;
                check("period_secs", *period_secs, true)?;
                check("burst_secs", *burst_secs, true)?;
                if burst_secs > period_secs {
                    return Err(WorkloadError::InvalidSpec {
                        reason: format!(
                            "flash-crowd burst_secs {burst_secs} exceeds period_secs {period_secs}"
                        ),
                    });
                }
                Ok(())
            }
            ArrivalProcess::OnOff {
                on_rps,
                on_secs,
                off_secs,
            } => {
                check("on_rps", *on_rps, true)?;
                check("on_secs", *on_secs, true)?;
                check("off_secs", *off_secs, false)
            }
        }
    }

    /// Instantaneous arrival rate at simulated time `t_secs`, requests
    /// per second.
    pub fn rate_at(&self, t_secs: f64) -> f64 {
        match self {
            ArrivalProcess::Poisson { rps } => *rps,
            ArrivalProcess::Diurnal {
                base_rps,
                peak_rps,
                period_secs,
            } => {
                let phase = (t_secs / period_secs).fract();
                base_rps
                    + (peak_rps - base_rps)
                        * 0.5
                        * (1.0 - (2.0 * std::f64::consts::PI * phase).cos())
            }
            ArrivalProcess::FlashCrowd {
                base_rps,
                burst_rps,
                period_secs,
                burst_secs,
            } => {
                let into_period = t_secs % period_secs;
                if into_period < *burst_secs {
                    base_rps + burst_rps
                } else {
                    *base_rps
                }
            }
            ArrivalProcess::OnOff {
                on_rps,
                on_secs,
                off_secs,
            } => {
                let cycle = on_secs + off_secs;
                if cycle <= 0.0 || t_secs % cycle < *on_secs {
                    *on_rps
                } else {
                    0.0
                }
            }
        }
    }

    /// Mean arrival rate over one full cycle, requests per second — used
    /// for listings and rough sizing, not for sampling.
    pub fn mean_rps(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rps } => *rps,
            ArrivalProcess::Diurnal {
                base_rps, peak_rps, ..
            } => 0.5 * (base_rps + peak_rps),
            ArrivalProcess::FlashCrowd {
                base_rps,
                burst_rps,
                period_secs,
                burst_secs,
            } => base_rps + burst_rps * burst_secs / period_secs,
            ArrivalProcess::OnOff {
                on_rps,
                on_secs,
                off_secs,
            } => on_rps * on_secs / (on_secs + off_secs),
        }
    }

    /// Samples the absolute time of the next arrival after `now_ns`,
    /// in integer nanoseconds. Always strictly greater than `now_ns`.
    ///
    /// The process is sampled piecewise-exponentially: the gap is drawn
    /// from the instantaneous rate at the current time, and zero-rate
    /// stretches (the off-phase of [`ArrivalProcess::OnOff`]) are skipped
    /// to the next positive-rate instant before drawing. This slightly
    /// smears very sharp rate edges (a draw started just before an edge
    /// uses the pre-edge rate) but keeps sampling O(1) per request.
    pub fn next_arrival_ns(&self, now_ns: u64, rng: &mut StdRng) -> u64 {
        let mut t_ns = now_ns;
        // Skip zero-rate stretches (at most once per off-phase).
        if let ArrivalProcess::OnOff {
            on_secs, off_secs, ..
        } = self
        {
            let cycle = on_secs + off_secs;
            let t_secs = t_ns as f64 / NANOS_PER_SEC;
            if cycle > 0.0 && t_secs % cycle >= *on_secs {
                // Jump to the start of the next on-phase.
                let next_cycle = (t_secs / cycle).floor() + 1.0;
                t_ns = (next_cycle * cycle * NANOS_PER_SEC) as u64;
            }
        }
        let rate = self.rate_at(t_ns as f64 / NANOS_PER_SEC);
        // rate is validated positive for every reachable phase.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let gap_secs = -u.ln() / rate;
        // Clamp to a day of simulated time so a pathological draw can
        // never overflow the u64 clock.
        let gap_ns = (gap_secs * NANOS_PER_SEC).min(MAX_GAP_SECS * NANOS_PER_SEC) as u64;
        t_ns.saturating_add(gap_ns.max(1))
    }

    /// Short human-readable summary for listings.
    pub fn summary(&self) -> String {
        match self {
            ArrivalProcess::Poisson { rps } => format!("poisson {rps} rps"),
            ArrivalProcess::Diurnal {
                base_rps,
                peak_rps,
                period_secs,
            } => format!("diurnal {base_rps}-{peak_rps} rps / {period_secs}s"),
            ArrivalProcess::FlashCrowd {
                base_rps,
                burst_rps,
                period_secs,
                burst_secs,
            } => format!(
                "flash-crowd {base_rps}+{burst_rps} rps ({burst_secs}s burst / {period_secs}s)"
            ),
            ArrivalProcess::OnOff {
                on_rps,
                on_secs,
                off_secs,
            } => format!("on-off {on_rps} rps ({on_secs}s on / {off_secs}s off)"),
        }
    }
}

impl fmt::Display for ArrivalProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(ArrivalProcess::Poisson { rps: 100.0 }.validate().is_ok());
        assert!(ArrivalProcess::Poisson { rps: 0.0 }.validate().is_err());
        assert!(ArrivalProcess::Poisson { rps: f64::NAN }
            .validate()
            .is_err());
        assert!(ArrivalProcess::Diurnal {
            base_rps: 10.0,
            peak_rps: 5.0,
            period_secs: 60.0
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::FlashCrowd {
            base_rps: 10.0,
            burst_rps: 90.0,
            period_secs: 10.0,
            burst_secs: 20.0
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::OnOff {
            on_rps: 1.0,
            on_secs: 30.0,
            off_secs: 0.0
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn rates_follow_the_declared_shape() {
        let d = ArrivalProcess::Diurnal {
            base_rps: 10.0,
            peak_rps: 110.0,
            period_secs: 100.0,
        };
        assert!((d.rate_at(0.0) - 10.0).abs() < 1e-9);
        assert!((d.rate_at(50.0) - 110.0).abs() < 1e-9);
        let f = ArrivalProcess::FlashCrowd {
            base_rps: 10.0,
            burst_rps: 90.0,
            period_secs: 60.0,
            burst_secs: 5.0,
        };
        assert_eq!(f.rate_at(1.0), 100.0);
        assert_eq!(f.rate_at(30.0), 10.0);
        let o = ArrivalProcess::OnOff {
            on_rps: 8.0,
            on_secs: 20.0,
            off_secs: 10.0,
        };
        assert_eq!(o.rate_at(5.0), 8.0);
        assert_eq!(o.rate_at(25.0), 0.0);
        assert!((o.mean_rps() - 8.0 * 20.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_strictly_advancing_and_deterministic() {
        let p = ArrivalProcess::Poisson { rps: 1000.0 };
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut now = 0u64;
        for _ in 0..1000 {
            let next_a = p.next_arrival_ns(now, &mut a);
            let next_b = p.next_arrival_ns(now, &mut b);
            assert_eq!(next_a, next_b);
            assert!(next_a > now);
            now = next_a;
        }
        // ~1000 rps for ~1000 draws ≈ 1 simulated second.
        let secs = now as f64 / NANOS_PER_SEC;
        assert!((0.5..2.0).contains(&secs), "simulated {secs}s");
    }

    #[test]
    fn onoff_off_phase_is_skipped() {
        let o = ArrivalProcess::OnOff {
            on_rps: 100.0,
            on_secs: 10.0,
            off_secs: 10.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        // Start in the middle of the off-phase: the next arrival must land
        // in the next on-phase.
        let now = (15.0 * NANOS_PER_SEC) as u64;
        let next = o.next_arrival_ns(now, &mut rng);
        let t = next as f64 / NANOS_PER_SEC;
        assert!(t >= 20.0, "arrival at {t}s should wait for the on-phase");
    }

    #[test]
    fn serde_round_trip() {
        for p in [
            ArrivalProcess::Poisson { rps: 250.0 },
            ArrivalProcess::Diurnal {
                base_rps: 50.0,
                peak_rps: 500.0,
                period_secs: 300.0,
            },
            ArrivalProcess::FlashCrowd {
                base_rps: 100.0,
                burst_rps: 900.0,
                period_secs: 120.0,
                burst_secs: 10.0,
            },
            ArrivalProcess::OnOff {
                on_rps: 2.0,
                on_secs: 40.0,
                off_secs: 20.0,
            },
        ] {
            let text = serde_json::to_string(&p).unwrap();
            let back: ArrivalProcess = serde_json::from_str(&text).unwrap();
            assert_eq!(back, p);
        }
    }
}
