//! Declarative scenario specifications and the named scenario library.
//!
//! A [`WorkloadScenario`] fully describes a multi-tenant host run: the
//! host capacities, the control-tick period, the latency SLO of the
//! sensitive tenant(s), and one [`TenantSpec`] per co-located tenant
//! (arrival process + demand profile + keepalive policy). Scenarios are
//! plain serde values — they print, diff and round-trip as JSON — and the
//! built-in [`library`] ships seven named co-location situations covering
//! the paper's evaluation axes (steady service, CPU and memory
//! aggressors, phase-shifting batch, flash crowds and a many-tenant
//! storm).

use crate::arrival::{ArrivalProcess, MAX_GAP_SECS, NANOS_PER_SEC};
use crate::demand::{DemandProfile, KeepalivePolicy};
use crate::WorkloadError;
use serde::{Deserialize, Serialize};
use stayaway_telemetry::{AppClass, HostSpec};

/// Latency SLO of the scenario's sensitive tenants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Per-request completion deadline, milliseconds. A request whose
    /// end-to-end latency (queueing + cold start + contended service)
    /// exceeds this — or that is dropped — misses the SLO.
    pub deadline_ms: f64,
    /// Fraction of a tick's sensitive requests that must meet the
    /// deadline for the tick to count as satisfied, in `(0, 1]`.
    pub target_satisfaction: f64,
}

impl SloSpec {
    /// Validates the SLO.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] on out-of-range values.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if !self.deadline_ms.is_finite() || self.deadline_ms <= 0.0 {
            return Err(WorkloadError::InvalidSpec {
                reason: format!("slo deadline_ms must be positive, got {}", self.deadline_ms),
            });
        }
        if !self.target_satisfaction.is_finite()
            || self.target_satisfaction <= 0.0
            || self.target_satisfaction > 1.0
        {
            return Err(WorkloadError::InvalidSpec {
                reason: format!(
                    "slo target_satisfaction must be in (0, 1], got {}",
                    self.target_satisfaction
                ),
            });
        }
        Ok(())
    }

    /// Deadline in integer nanoseconds.
    pub fn deadline_ns(&self) -> u64 {
        (self.deadline_ms * 1e6) as u64
    }
}

/// One tenant of the simulated host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Tenant name (unique within a scenario).
    pub name: String,
    /// Sensitive (SLO-protected, never throttled) or batch (throttleable).
    pub class: AppClass,
    /// Open-loop request arrival process.
    pub arrival: ArrivalProcess,
    /// Per-invocation demand and container-pool shape.
    pub demand: DemandProfile,
    /// Idle-container keepalive policy.
    pub keepalive: KeepalivePolicy,
}

impl TenantSpec {
    /// Validates the tenant.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] on an empty name or an
    /// invalid arrival/demand/keepalive component.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.name.is_empty() {
            return Err(WorkloadError::InvalidSpec {
                reason: "tenant name must not be empty".into(),
            });
        }
        self.arrival.validate()?;
        self.demand.validate()?;
        self.keepalive.validate()
    }
}

/// A complete, declarative multi-tenant host scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadScenario {
    /// Library name (CLI token after `workload:`).
    pub name: String,
    /// One-line description for listings.
    pub description: String,
    /// Host capacities.
    pub host: HostSpec,
    /// Control-tick period, seconds — the cadence at which the engine
    /// emits observations and accepts actuations.
    pub tick_period_secs: f64,
    /// Latency SLO applied to sensitive tenants.
    pub slo: SloSpec,
    /// Co-located tenants.
    pub tenants: Vec<TenantSpec>,
}

impl WorkloadScenario {
    /// The first sensitive tenant: the application a host running this
    /// scenario protects, whose name keys the templates learned on it.
    pub fn sensitive_tenant(&self) -> Option<&TenantSpec> {
        self.tenants.iter().find(|t| t.class == AppClass::Sensitive)
    }

    /// Validates the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] on an invalid host, SLO,
    /// tick period, tenant set, or duplicate tenant names.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.name.is_empty() {
            return Err(WorkloadError::InvalidSpec {
                reason: "scenario name must not be empty".into(),
            });
        }
        self.host
            .validate()
            .map_err(|e| WorkloadError::InvalidSpec {
                reason: format!("scenario '{}': {e}", self.name),
            })?;
        // The engine's clock is integer nanoseconds: a period that rounds
        // below 1 ns never ends a tick, and one beyond a day (the bound
        // inter-arrival gaps are clamped to) walks off the u64 clock.
        let period_ns = self.tick_period_secs * NANOS_PER_SEC;
        if !(period_ns >= 1.0 && self.tick_period_secs <= MAX_GAP_SECS) {
            return Err(WorkloadError::InvalidSpec {
                reason: format!(
                    "tick_period_secs must be between 1 ns and {MAX_GAP_SECS} s, got {}",
                    self.tick_period_secs
                ),
            });
        }
        self.slo.validate()?;
        if self.tenants.is_empty() {
            return Err(WorkloadError::InvalidSpec {
                reason: format!("scenario '{}' has no tenants", self.name),
            });
        }
        for (i, t) in self.tenants.iter().enumerate() {
            t.validate()?;
            if self.tenants[..i].iter().any(|p| p.name == t.name) {
                return Err(WorkloadError::InvalidSpec {
                    reason: format!("duplicate tenant name '{}'", t.name),
                });
            }
        }
        Ok(())
    }

    /// Tick period in integer nanoseconds.
    pub fn tick_period_ns(&self) -> u64 {
        (self.tick_period_secs * NANOS_PER_SEC) as u64
    }

    /// Names of the batch co-runners, for listings.
    pub fn co_runners(&self) -> Vec<&str> {
        self.tenants
            .iter()
            .filter(|t| t.class == AppClass::Batch)
            .map(|t| t.name.as_str())
            .collect()
    }
}

fn slo(deadline_ms: f64) -> SloSpec {
    SloSpec {
        deadline_ms,
        target_satisfaction: 0.95,
    }
}

/// A latency-sensitive request-serving tenant.
fn serving_tenant(name: &str, arrival: ArrivalProcess, demand: DemandProfile) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        class: AppClass::Sensitive,
        arrival,
        demand,
        keepalive: KeepalivePolicy::Eager,
    }
}

/// A best-effort batch tenant.
fn batch_tenant(
    name: &str,
    arrival: ArrivalProcess,
    demand: DemandProfile,
    keepalive: KeepalivePolicy,
) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        class: AppClass::Batch,
        arrival,
        demand,
        keepalive,
    }
}

/// Demand of a memcached-style key-value front end: sub-millisecond
/// service, network heavy, tiny CPU slices.
fn kv_demand() -> DemandProfile {
    DemandProfile {
        service_ms: 1.0,
        service_jitter: 0.2,
        cpu_per_invocation: 0.04,
        membw_per_invocation: 40.0,
        disk_per_invocation: 0.0,
        net_per_invocation: 4.0,
        container_mb: 256.0,
        cache_mb: 0.5,
        concurrency: 16,
        max_containers: 4,
        cold_start_ms: 200.0,
        queue_cap: 1024,
    }
}

/// Demand of a CPU-bound batch worker: long invocations pinning a core.
fn cpu_hog_demand(service_ms: f64) -> DemandProfile {
    DemandProfile {
        service_ms,
        service_jitter: 0.1,
        cpu_per_invocation: 1.0,
        membw_per_invocation: 100.0,
        disk_per_invocation: 0.0,
        net_per_invocation: 0.0,
        container_mb: 256.0,
        cache_mb: 0.5,
        concurrency: 1,
        max_containers: 3,
        cold_start_ms: 500.0,
        queue_cap: 64,
    }
}

/// The seven named scenarios, in listing order.
pub fn library() -> Vec<WorkloadScenario> {
    let host = HostSpec::default();
    vec![
        WorkloadScenario {
            name: "memcached-like".into(),
            description: "steady key-value serving beside one CPU-bound batch worker".into(),
            host,
            tick_period_secs: 1.0,
            slo: slo(5.0),
            tenants: vec![
                serving_tenant(
                    "kv-front",
                    ArrivalProcess::Poisson { rps: 800.0 },
                    kv_demand(),
                ),
                batch_tenant(
                    "crunch",
                    ArrivalProcess::Poisson { rps: 4.0 },
                    cpu_hog_demand(400.0),
                    KeepalivePolicy::Fixed { idle_secs: 30.0 },
                ),
            ],
        },
        WorkloadScenario {
            name: "video-transcode-like".into(),
            description: "diurnal API serving beside long memory-bandwidth-heavy transcodes".into(),
            host,
            tick_period_secs: 1.0,
            slo: slo(40.0),
            tenants: vec![
                serving_tenant(
                    "api",
                    ArrivalProcess::Diurnal {
                        base_rps: 100.0,
                        peak_rps: 500.0,
                        period_secs: 120.0,
                    },
                    DemandProfile {
                        service_ms: 8.0,
                        service_jitter: 0.25,
                        cpu_per_invocation: 0.15,
                        membw_per_invocation: 80.0,
                        disk_per_invocation: 0.5,
                        net_per_invocation: 3.0,
                        container_mb: 384.0,
                        cache_mb: 0.75,
                        concurrency: 8,
                        max_containers: 6,
                        cold_start_ms: 400.0,
                        queue_cap: 512,
                    },
                ),
                batch_tenant(
                    "transcode",
                    ArrivalProcess::Poisson { rps: 1.5 },
                    DemandProfile {
                        service_ms: 1500.0,
                        service_jitter: 0.3,
                        cpu_per_invocation: 1.0,
                        membw_per_invocation: 2000.0,
                        disk_per_invocation: 40.0,
                        net_per_invocation: 1.0,
                        container_mb: 768.0,
                        cache_mb: 1.0,
                        concurrency: 1,
                        max_containers: 3,
                        cold_start_ms: 800.0,
                        queue_cap: 32,
                    },
                    KeepalivePolicy::Fixed { idle_secs: 20.0 },
                ),
            ],
        },
        WorkloadScenario {
            name: "cpu-bomb".into(),
            description: "key-value serving against a saturating CPU aggressor".into(),
            host,
            tick_period_secs: 1.0,
            slo: slo(5.0),
            tenants: vec![
                serving_tenant(
                    "kv-front",
                    ArrivalProcess::Poisson { rps: 600.0 },
                    kv_demand(),
                ),
                batch_tenant(
                    "cpu-bomb",
                    ArrivalProcess::Poisson { rps: 20.0 },
                    DemandProfile {
                        max_containers: 8,
                        concurrency: 2,
                        cache_mb: 1.0,
                        ..cpu_hog_demand(600.0)
                    },
                    KeepalivePolicy::Eager,
                ),
            ],
        },
        WorkloadScenario {
            name: "memory-bomb".into(),
            description: "key-value serving against a memory-footprint + bandwidth aggressor"
                .into(),
            host,
            tick_period_secs: 1.0,
            slo: slo(5.0),
            tenants: vec![
                serving_tenant(
                    "kv-front",
                    ArrivalProcess::Poisson { rps: 600.0 },
                    kv_demand(),
                ),
                batch_tenant(
                    "mem-bomb",
                    ArrivalProcess::Poisson { rps: 6.0 },
                    DemandProfile {
                        service_ms: 900.0,
                        service_jitter: 0.2,
                        cpu_per_invocation: 0.4,
                        membw_per_invocation: 8000.0,
                        disk_per_invocation: 0.0,
                        net_per_invocation: 0.0,
                        container_mb: 2048.0,
                        cache_mb: 1.5,
                        concurrency: 1,
                        max_containers: 4,
                        cold_start_ms: 600.0,
                        queue_cap: 64,
                    },
                    KeepalivePolicy::Eager,
                ),
            ],
        },
        WorkloadScenario {
            name: "phase-shift-batch".into(),
            description: "steady serving beside batch work that comes and goes in phases".into(),
            host,
            tick_period_secs: 1.0,
            slo: slo(5.0),
            tenants: vec![
                serving_tenant(
                    "api",
                    ArrivalProcess::Poisson { rps: 400.0 },
                    DemandProfile {
                        service_ms: 3.0,
                        ..kv_demand()
                    },
                ),
                batch_tenant(
                    "phaser",
                    ArrivalProcess::OnOff {
                        on_rps: 12.0,
                        on_secs: 40.0,
                        off_secs: 40.0,
                    },
                    DemandProfile {
                        max_containers: 6,
                        concurrency: 2,
                        ..cpu_hog_demand(500.0)
                    },
                    KeepalivePolicy::Fixed { idle_secs: 10.0 },
                ),
            ],
        },
        WorkloadScenario {
            name: "flash-crowd".into(),
            description: "serving hit by periodic flash crowds while batch work runs".into(),
            host,
            tick_period_secs: 1.0,
            slo: slo(5.0),
            tenants: vec![
                TenantSpec {
                    name: "storefront".into(),
                    class: AppClass::Sensitive,
                    arrival: ArrivalProcess::FlashCrowd {
                        base_rps: 200.0,
                        burst_rps: 2800.0,
                        period_secs: 60.0,
                        burst_secs: 8.0,
                    },
                    demand: DemandProfile {
                        service_ms: 3.0,
                        concurrency: 12,
                        max_containers: 8,
                        ..kv_demand()
                    },
                    keepalive: KeepalivePolicy::Fixed { idle_secs: 20.0 },
                },
                batch_tenant(
                    "reindex",
                    ArrivalProcess::Poisson { rps: 3.0 },
                    cpu_hog_demand(700.0),
                    KeepalivePolicy::Fixed { idle_secs: 30.0 },
                ),
            ],
        },
        WorkloadScenario {
            name: "multi-tenant-storm".into(),
            description: "two sensitive services and three heterogeneous batch aggressors".into(),
            host,
            tick_period_secs: 1.0,
            slo: slo(10.0),
            tenants: vec![
                serving_tenant(
                    "kv-front",
                    ArrivalProcess::Poisson { rps: 500.0 },
                    kv_demand(),
                ),
                serving_tenant(
                    "api",
                    ArrivalProcess::Diurnal {
                        base_rps: 80.0,
                        peak_rps: 300.0,
                        period_secs: 90.0,
                    },
                    DemandProfile {
                        service_ms: 6.0,
                        max_containers: 6,
                        ..kv_demand()
                    },
                ),
                batch_tenant(
                    "crunch",
                    ArrivalProcess::Poisson { rps: 5.0 },
                    cpu_hog_demand(500.0),
                    KeepalivePolicy::Fixed { idle_secs: 20.0 },
                ),
                batch_tenant(
                    "mem-churn",
                    ArrivalProcess::OnOff {
                        on_rps: 4.0,
                        on_secs: 30.0,
                        off_secs: 30.0,
                    },
                    DemandProfile {
                        service_ms: 800.0,
                        service_jitter: 0.2,
                        cpu_per_invocation: 0.3,
                        membw_per_invocation: 3000.0,
                        disk_per_invocation: 0.0,
                        net_per_invocation: 0.0,
                        container_mb: 1024.0,
                        cache_mb: 1.25,
                        concurrency: 1,
                        max_containers: 3,
                        cold_start_ms: 600.0,
                        queue_cap: 64,
                    },
                    KeepalivePolicy::Fixed { idle_secs: 15.0 },
                ),
                batch_tenant(
                    "log-ship",
                    ArrivalProcess::FlashCrowd {
                        base_rps: 2.0,
                        burst_rps: 10.0,
                        period_secs: 45.0,
                        burst_secs: 5.0,
                    },
                    DemandProfile {
                        service_ms: 300.0,
                        service_jitter: 0.15,
                        cpu_per_invocation: 0.2,
                        membw_per_invocation: 200.0,
                        disk_per_invocation: 30.0,
                        net_per_invocation: 20.0,
                        container_mb: 256.0,
                        cache_mb: 0.25,
                        concurrency: 2,
                        max_containers: 2,
                        cold_start_ms: 300.0,
                        queue_cap: 128,
                    },
                    KeepalivePolicy::Fixed { idle_secs: 10.0 },
                ),
            ],
        },
    ]
}

/// Resolves a library scenario by name.
///
/// # Errors
///
/// Returns [`WorkloadError::UnknownScenario`] when no scenario of that
/// name exists.
pub fn by_name(name: &str) -> Result<WorkloadScenario, WorkloadError> {
    library()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| WorkloadError::UnknownScenario { name: name.into() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_has_the_seven_documented_scenarios() {
        assert_eq!(
            library().into_iter().map(|s| s.name).collect::<Vec<_>>(),
            vec![
                "memcached-like",
                "video-transcode-like",
                "cpu-bomb",
                "memory-bomb",
                "phase-shift-batch",
                "flash-crowd",
                "multi-tenant-storm",
            ]
        );
    }

    #[test]
    fn every_library_scenario_validates() {
        for s in library() {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
        }
    }

    #[test]
    fn every_scenario_has_a_sensitive_and_a_batch_tenant() {
        for s in library() {
            assert!(
                s.tenants.iter().any(|t| t.class == AppClass::Sensitive),
                "{} has no sensitive tenant",
                s.name
            );
            assert!(
                !s.co_runners().is_empty(),
                "{} has no batch co-runner",
                s.name
            );
        }
    }

    #[test]
    fn by_name_resolves_and_rejects() {
        assert_eq!(by_name("cpu-bomb").unwrap().name, "cpu-bomb");
        assert!(matches!(
            by_name("nope"),
            Err(WorkloadError::UnknownScenario { .. })
        ));
    }

    #[test]
    fn scenarios_round_trip_through_serde() {
        for s in library() {
            let text = serde_json::to_string(&s).unwrap();
            let back: WorkloadScenario = serde_json::from_str(&text).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn validation_rejects_duplicates_and_empty() {
        let mut s = by_name("memcached-like").unwrap();
        s.tenants.push(s.tenants[0].clone());
        assert!(s.validate().is_err());
        let mut s = by_name("memcached-like").unwrap();
        s.tenants.clear();
        assert!(s.validate().is_err());
        let mut s = by_name("memcached-like").unwrap();
        s.slo.target_satisfaction = 0.0;
        assert!(s.validate().is_err());
        let mut s = by_name("memcached-like").unwrap();
        s.tick_period_secs = 0.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn a_tick_period_below_one_nanosecond_is_rejected() {
        // 1e-10 s truncates to a 0 ns period: no tick ever ends.
        let mut s = by_name("memcached-like").unwrap();
        for secs in [1e-10, 0.9e-9, f64::MIN_POSITIVE, -1.0, f64::NAN] {
            s.tick_period_secs = secs;
            assert!(
                matches!(s.validate(), Err(WorkloadError::InvalidSpec { .. })),
                "{secs}"
            );
            assert!(crate::WorkloadHost::new(s.clone(), 1).is_err(), "{secs}");
        }
        s.tick_period_secs = 1e-9;
        assert_eq!(s.validate(), Ok(()));
        assert_eq!(s.tick_period_ns(), 1);
    }

    #[test]
    fn a_tick_period_beyond_one_day_is_rejected() {
        // 1e300 s saturates to u64::MAX ns: the first tick simulates
        // centuries and the second overflows.
        let mut s = by_name("memcached-like").unwrap();
        for secs in [86_400.5, 1e300, f64::INFINITY] {
            s.tick_period_secs = secs;
            assert!(
                matches!(s.validate(), Err(WorkloadError::InvalidSpec { .. })),
                "{secs}"
            );
            assert!(crate::WorkloadHost::new(s.clone(), 1).is_err(), "{secs}");
        }
        s.tick_period_secs = 86_400.0;
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn multi_tenant_storm_is_the_stress_scenario() {
        let s = by_name("multi-tenant-storm").unwrap();
        assert_eq!(s.tenants.len(), 5);
        assert_eq!(s.co_runners().len(), 3);
    }
}
