//! Per-invocation resource demand profiles.
//!
//! A [`DemandProfile`] declares what one invocation of a tenant's
//! application costs — service time, per-invocation rate demands and the
//! per-container occupancy footprint — plus the container-pool limits
//! (concurrency per container, maximum pool size, cold-start penalty,
//! queue bound). Demands compose additively across running invocations
//! into the host's contention signal; the engine turns oversubscription
//! into a service-time slowdown.

use crate::WorkloadError;
use serde::{Deserialize, Serialize};
use stayaway_telemetry::{ResourceKind, ResourceVector};

/// What one invocation demands and how the tenant's container pool is
/// shaped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemandProfile {
    /// Nominal (uncontended) service time per invocation, milliseconds.
    pub service_ms: f64,
    /// Multiplicative service-time jitter half-width in `[0, 1)`: each
    /// invocation's nominal time is drawn uniformly from
    /// `service_ms · [1 − jitter, 1 + jitter]`.
    pub service_jitter: f64,
    /// CPU cores consumed while an invocation runs.
    pub cpu_per_invocation: f64,
    /// Memory bandwidth consumed while an invocation runs, MB/s.
    pub membw_per_invocation: f64,
    /// Disk I/O consumed while an invocation runs, MB/s.
    pub disk_per_invocation: f64,
    /// Network traffic consumed while an invocation runs, MB/s.
    pub net_per_invocation: f64,
    /// Resident footprint of one warm container, MB (occupancy).
    pub container_mb: f64,
    /// Last-level cache footprint of one warm container, MB (occupancy).
    pub cache_mb: f64,
    /// Concurrent invocations one container can serve.
    pub concurrency: u32,
    /// Maximum containers the tenant may keep deployed at once.
    pub max_containers: u32,
    /// Cold-start (deploy) delay before a fresh container serves,
    /// milliseconds.
    pub cold_start_ms: f64,
    /// Bound on queued (undispatched) requests; overflow is dropped and
    /// counted as an SLO miss.
    pub queue_cap: u32,
}

impl DemandProfile {
    /// Validates the profile.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] describing the first
    /// problem found.
    pub(crate) fn validate(&self) -> Result<(), WorkloadError> {
        let finite_nonneg = [
            ("service_jitter", self.service_jitter),
            ("cpu_per_invocation", self.cpu_per_invocation),
            ("membw_per_invocation", self.membw_per_invocation),
            ("disk_per_invocation", self.disk_per_invocation),
            ("net_per_invocation", self.net_per_invocation),
            ("container_mb", self.container_mb),
            ("cache_mb", self.cache_mb),
            ("cold_start_ms", self.cold_start_ms),
        ];
        for (name, v) in finite_nonneg {
            if !v.is_finite() || v < 0.0 {
                return Err(WorkloadError::InvalidSpec {
                    reason: format!("demand parameter {name} must be finite and >= 0, got {v}"),
                });
            }
        }
        if !self.service_ms.is_finite() || self.service_ms <= 0.0 {
            return Err(WorkloadError::InvalidSpec {
                reason: format!("service_ms must be positive, got {}", self.service_ms),
            });
        }
        if self.service_jitter >= 1.0 {
            return Err(WorkloadError::InvalidSpec {
                reason: format!("service_jitter must be < 1, got {}", self.service_jitter),
            });
        }
        if self.concurrency == 0 {
            return Err(WorkloadError::InvalidSpec {
                reason: "concurrency must be at least 1".into(),
            });
        }
        if self.max_containers == 0 {
            return Err(WorkloadError::InvalidSpec {
                reason: "max_containers must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// Per-invocation *rate* demand as a resource vector (occupancy axes
    /// zero — those are per-container, see [`Self::container_occupancy`]).
    pub fn invocation_rates(&self) -> ResourceVector {
        ResourceVector::zero()
            .with(ResourceKind::Cpu, self.cpu_per_invocation)
            .with(ResourceKind::MemBandwidth, self.membw_per_invocation)
            .with(ResourceKind::DiskIo, self.disk_per_invocation)
            .with(ResourceKind::Network, self.net_per_invocation)
    }

    /// Per-warm-container occupancy footprint (memory and cache axes).
    pub fn container_occupancy(&self) -> ResourceVector {
        ResourceVector::zero()
            .with(ResourceKind::Memory, self.container_mb)
            .with(ResourceKind::Cache, self.cache_mb)
    }

    /// Nominal service time in integer nanoseconds.
    pub fn service_ns(&self) -> u64 {
        (self.service_ms * 1e6) as u64
    }

    /// Cold-start delay in integer nanoseconds.
    #[inline]
    pub(crate) fn cold_start_ns(&self) -> u64 {
        (self.cold_start_ms * 1e6) as u64
    }
}

/// How long idle warm containers are kept before eviction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KeepalivePolicy {
    /// Keep an idle container warm for a fixed window, then evict — the
    /// common FaaS default (dslab-faas's `FixedTimeColdStartPolicy`).
    Fixed {
        /// Idle window before eviction, seconds.
        idle_secs: f64,
    },
    /// Never evict: containers stay warm for the whole run.
    Eager,
    /// Evict the moment the last invocation finishes: every request after
    /// a quiet gap pays the cold start.
    Never,
}

impl KeepalivePolicy {
    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] on a non-finite or negative
    /// idle window.
    pub(crate) fn validate(&self) -> Result<(), WorkloadError> {
        if let KeepalivePolicy::Fixed { idle_secs } = self {
            if !idle_secs.is_finite() || *idle_secs < 0.0 {
                return Err(WorkloadError::InvalidSpec {
                    reason: format!("keepalive idle_secs must be finite and >= 0, got {idle_secs}"),
                });
            }
        }
        Ok(())
    }

    /// Idle window in integer nanoseconds, or `None` for [`Self::Eager`]
    /// (no expiry event is ever scheduled). [`Self::Never`] is zero.
    #[inline]
    pub(crate) fn idle_window_ns(&self) -> Option<u64> {
        match self {
            KeepalivePolicy::Fixed { idle_secs } => Some((idle_secs * 1e9) as u64),
            KeepalivePolicy::Eager => None,
            KeepalivePolicy::Never => Some(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kv-front profile of the memcached-like library scenario.
    fn kv_front() -> DemandProfile {
        crate::spec::by_name("memcached-like").unwrap().tenants[0]
            .demand
            .clone()
    }

    #[test]
    fn validation_rejects_degenerate_profiles() {
        let mut p = kv_front();
        p.service_ms = 0.0;
        assert!(p.validate().is_err());
        let mut p = kv_front();
        p.service_jitter = 1.0;
        assert!(p.validate().is_err());
        let mut p = kv_front();
        p.concurrency = 0;
        assert!(p.validate().is_err());
        let mut p = kv_front();
        p.max_containers = 0;
        assert!(p.validate().is_err());
        let mut p = kv_front();
        p.cpu_per_invocation = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn vectors_split_rates_from_occupancy() {
        let p = kv_front();
        let rates = p.invocation_rates();
        assert_eq!(rates.get(ResourceKind::Cpu), p.cpu_per_invocation);
        assert_eq!(rates.get(ResourceKind::Memory), 0.0);
        let occ = p.container_occupancy();
        assert_eq!(occ.get(ResourceKind::Memory), p.container_mb);
        assert_eq!(occ.get(ResourceKind::Cpu), 0.0);
    }

    #[test]
    fn nanosecond_conversions() {
        let p = DemandProfile {
            service_ms: 2.5,
            cold_start_ms: 100.0,
            ..kv_front()
        };
        assert_eq!(p.service_ns(), 2_500_000);
        assert_eq!(p.cold_start_ns(), 100_000_000);
    }

    #[test]
    fn keepalive_windows() {
        assert_eq!(
            KeepalivePolicy::Fixed { idle_secs: 2.0 }.idle_window_ns(),
            Some(2_000_000_000)
        );
        assert_eq!(KeepalivePolicy::Eager.idle_window_ns(), None);
        assert_eq!(KeepalivePolicy::Never.idle_window_ns(), Some(0));
        assert!(KeepalivePolicy::Fixed { idle_secs: -1.0 }
            .validate()
            .is_err());
        assert!(KeepalivePolicy::Eager.validate().is_ok());
    }

    #[test]
    fn serde_round_trip() {
        let p = kv_front();
        let text = serde_json::to_string(&p).unwrap();
        let back: DemandProfile = serde_json::from_str(&text).unwrap();
        assert_eq!(back, p);
        for k in [
            KeepalivePolicy::Fixed { idle_secs: 30.0 },
            KeepalivePolicy::Eager,
            KeepalivePolicy::Never,
        ] {
            let text = serde_json::to_string(&k).unwrap();
            let back: KeepalivePolicy = serde_json::from_str(&text).unwrap();
            assert_eq!(back, k);
        }
    }
}
