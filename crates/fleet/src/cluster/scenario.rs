//! Declarative cluster scenarios: hosts plus movable jobs.
//!
//! A [`ClusterScenario`] composes per-host [`WorkloadScenario`]s (the
//! resident tenants — sensitive services and any batch work that is
//! pinned to its host) with a list of movable [`JobSpec`]s submitted to
//! the cluster admission queue over time. The built-in
//! [`cluster_library`] ships two situations sized so that *where* the
//! jobs land matters: a hot host that per-host throttling already fights
//! over, a bursty host that punishes co-location, and spare capacity that
//! a scoring policy can exploit.

use crate::cluster::job::JobSpec;
use crate::FleetError;
use serde::{Deserialize, Serialize};
use stayaway_telemetry::AppClass;
use stayaway_workload::{by_name, ArrivalProcess, DemandProfile, KeepalivePolicy, TenantSpec};
use stayaway_workload::{SloSpec, WorkloadScenario};

/// A complete cluster experiment: hosts with resident tenants, plus the
/// movable batch jobs submitted to the admission queue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterScenario {
    /// Library name (CLI token).
    pub name: String,
    /// One-line description for listings.
    pub description: String,
    /// Per-host scenarios, in host-index order. All hosts share one
    /// control-tick period (the cluster clock).
    pub hosts: Vec<WorkloadScenario>,
    /// Movable jobs, in job-id order.
    pub jobs: Vec<JobSpec>,
}

impl ClusterScenario {
    /// Validates the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for empty host/job lists,
    /// invalid host scenarios or jobs, mismatched tick periods, a host
    /// without a sensitive tenant, or duplicate job names.
    pub(crate) fn validate(&self) -> Result<(), FleetError> {
        let invalid = |reason: String| FleetError::InvalidConfig { reason };
        if self.name.is_empty() {
            return Err(invalid("cluster scenario name must not be empty".into()));
        }
        if self.hosts.is_empty() {
            return Err(invalid(format!("cluster '{}' has no hosts", self.name)));
        }
        if self.jobs.is_empty() {
            return Err(invalid(format!("cluster '{}' has no jobs", self.name)));
        }
        for host in &self.hosts {
            host.validate()
                .map_err(|e| invalid(format!("cluster '{}': {e}", self.name)))?;
            if host.tick_period_ns() != self.hosts[0].tick_period_ns() {
                return Err(invalid(format!(
                    "cluster '{}': host '{}' tick period differs — all hosts share one clock",
                    self.name, host.name
                )));
            }
            if !host.tenants.iter().any(|t| t.class == AppClass::Sensitive) {
                return Err(invalid(format!(
                    "cluster '{}': host '{}' has no sensitive tenant",
                    self.name, host.name
                )));
            }
        }
        for (i, job) in self.jobs.iter().enumerate() {
            job.validate()
                .map_err(|e| invalid(format!("cluster '{}': {e}", self.name)))?;
            if self.jobs[..i].iter().any(|p| p.name == job.name) {
                return Err(invalid(format!(
                    "cluster '{}': duplicate job name '{}'",
                    self.name, job.name
                )));
            }
        }
        Ok(())
    }

    /// The shared control-tick period, nanoseconds.
    pub(crate) fn tick_period_ns(&self) -> u64 {
        self.hosts[0].tick_period_ns()
    }
}

/// Strips the batch tenants out of a library workload scenario, leaving
/// the sensitive residents, and renames the host.
fn sensitive_only(library_name: &str, host_name: &str) -> Result<WorkloadScenario, FleetError> {
    let mut s = full_host(library_name, host_name)?;
    s.tenants.retain(|t| t.class == AppClass::Sensitive);
    Ok(s)
}

/// A full library scenario (resident batch included), renamed.
fn full_host(library_name: &str, host_name: &str) -> Result<WorkloadScenario, FleetError> {
    let mut s = by_name(library_name)?;
    s.name = host_name.into();
    Ok(s)
}

/// A lightly loaded spare host: one loose-SLO key-value sensitive tenant,
/// so the host is never empty but batch placed here runs nearly free.
fn spare_host(host_name: &str, tenant: &str, rps: f64) -> Result<WorkloadScenario, FleetError> {
    let mut s = sensitive_only("memcached-like", host_name)?;
    s.description = "lightly loaded spare capacity".into();
    s.slo = SloSpec {
        deadline_ms: 25.0,
        target_satisfaction: 0.95,
    };
    let Some(first) = s.tenants.first_mut() else {
        return Err(FleetError::InvalidConfig {
            reason: "library scenario 'memcached-like' has no sensitive tenant".into(),
        });
    };
    first.name = tenant.into();
    first.arrival = ArrivalProcess::Poisson { rps };
    Ok(s)
}

/// The movable version of a library scenario's batch tenant.
fn job_from(
    library_name: &str,
    tenant: &str,
    job: &str,
    submit: u64,
    duration: u64,
) -> Result<JobSpec, FleetError> {
    let spec = by_name(library_name)?
        .tenants
        .into_iter()
        .find(|t| t.name == tenant && t.class == AppClass::Batch)
        .ok_or_else(|| FleetError::InvalidConfig {
            reason: format!("library scenario '{library_name}' has no batch tenant '{tenant}'"),
        })?;
    Ok(JobSpec {
        name: job.into(),
        tenant: TenantSpec {
            name: job.into(),
            ..spec
        },
        submit_tick: submit,
        duration_ticks: duration,
    })
}

/// A CPU-bound movable job built from scratch.
fn cpu_job(job: &str, rps: f64, service_ms: f64, submit: u64, duration: u64) -> JobSpec {
    JobSpec {
        name: job.into(),
        tenant: TenantSpec {
            name: job.into(),
            class: AppClass::Batch,
            arrival: ArrivalProcess::Poisson { rps },
            demand: DemandProfile {
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
            },
            keepalive: KeepalivePolicy::Fixed { idle_secs: 15.0 },
        },
        submit_tick: submit,
        duration_ticks: duration,
    }
}

/// The built-in cluster scenarios, in listing order.
///
/// # Errors
///
/// Returns [`FleetError::Workload`] when a workload library scenario a
/// cluster host or job is built from is missing, and
/// [`FleetError::InvalidConfig`] when one lacks the tenant it is built
/// from.
pub fn cluster_library() -> Result<Vec<ClusterScenario>, FleetError> {
    Ok(vec![
        ClusterScenario {
            name: "hotspot".into(),
            description: "a throttle-contested host, a steady host and spare capacity; \
                          four jobs arrive over time"
                .into(),
            hosts: vec![
                full_host("memcached-like", "steady")?,
                full_host("cpu-bomb", "contested")?,
                spare_host("spare", "edge-cache", 120.0)?,
            ],
            jobs: vec![
                job_from("video-transcode-like", "transcode", "transcode-run", 0, 120)?,
                // The library memory bomb fills a whole host's RAM; the
                // movable version gets half the container pool so *some*
                // host can always take it.
                {
                    let mut j = job_from("memory-bomb", "mem-bomb", "mem-sweep", 8, 112)?;
                    j.tenant.demand.max_containers = 2;
                    j
                },
                cpu_job("batch-crunch", 4.0, 400.0, 16, 96),
                cpu_job("reindex-run", 3.0, 700.0, 32, 80),
            ],
        },
        ClusterScenario {
            name: "storm-cluster".into(),
            description: "a many-tenant storm host, a phase-shifting host, a flash-crowd \
                          host and spare capacity; five jobs arrive over time"
                .into(),
            hosts: vec![
                full_host("multi-tenant-storm", "storm")?,
                full_host("phase-shift-batch", "phased")?,
                sensitive_only("flash-crowd", "bursty")?,
                spare_host("overflow", "logger", 80.0)?,
            ],
            jobs: vec![
                job_from("cpu-bomb", "cpu-bomb", "bomb-run", 0, 128)?,
                job_from("multi-tenant-storm", "mem-churn", "churn-run", 8, 112)?,
                job_from("multi-tenant-storm", "log-ship", "ship-run", 16, 104)?,
                job_from(
                    "video-transcode-like",
                    "transcode",
                    "transcode-batch",
                    24,
                    96,
                )?,
                cpu_job("spill-crunch", 5.0, 500.0, 40, 80),
            ],
        },
    ])
}

/// Resolves a cluster scenario by name.
///
/// # Errors
///
/// Returns [`FleetError::InvalidConfig`] when no scenario of that name
/// exists, and propagates [`cluster_library`]'s errors.
pub fn cluster_by_name(name: &str) -> Result<ClusterScenario, FleetError> {
    let library = cluster_library()?;
    let names: Vec<&str> = library.iter().map(|s| s.name.as_str()).collect();
    let unknown = FleetError::InvalidConfig {
        reason: format!(
            "unknown cluster scenario '{name}' (expected one of: {})",
            names.join(", ")
        ),
    };
    library.into_iter().find(|s| s.name == name).ok_or(unknown)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_scenarios_validate() {
        let library = cluster_library().unwrap();
        let names: Vec<&str> = library.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["hotspot", "storm-cluster"]);
        for s in library {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(s.hosts.len() >= 3);
            assert!(s.jobs.len() >= 4);
        }
    }

    #[test]
    fn by_name_resolves_and_rejects() {
        assert_eq!(cluster_by_name("hotspot").unwrap().name, "hotspot");
        assert!(cluster_by_name("nope").is_err());
    }

    #[test]
    fn a_missing_library_piece_is_a_typed_error_not_a_panic() {
        assert!(matches!(
            full_host("no-such-scenario", "h"),
            Err(FleetError::Workload(_))
        ));
        assert!(matches!(
            sensitive_only("no-such-scenario", "h"),
            Err(FleetError::Workload(_))
        ));
        let err = job_from("cpu-bomb", "no-such-tenant", "j", 0, 1).unwrap_err();
        assert!(
            matches!(&err, FleetError::InvalidConfig { reason } if reason.contains("no-such-tenant")),
            "{err}"
        );
        // A sensitive tenant of that name is no batch tenant either.
        assert!(job_from("memcached-like", "kv-front", "j", 0, 1).is_err());
        assert!(spare_host("s", "t", 1.0).is_ok());
    }

    #[test]
    fn scenarios_round_trip_through_serde() {
        for s in cluster_library().unwrap() {
            let text = serde_json::to_string(&s).unwrap();
            let back: ClusterScenario = serde_json::from_str(&text).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn validation_rejects_broken_clusters() {
        let good = cluster_by_name("hotspot").unwrap();
        let mut s = good.clone();
        s.hosts.clear();
        assert!(s.validate().is_err());
        let mut s = good.clone();
        s.jobs.clear();
        assert!(s.validate().is_err());
        let mut s = good.clone();
        s.jobs.push(s.jobs[0].clone());
        assert!(s.validate().is_err());
        let mut s = good.clone();
        s.hosts[1].tick_period_secs = 2.0;
        assert!(s.validate().is_err());
        let mut s = good;
        s.hosts[2].tenants[0].class = AppClass::Batch;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validation_inherits_the_tick_period_bounds() {
        // Every host shares the period, so only the host scenario's own
        // check can object: below 1 ns no tick ends, beyond a day the
        // clock overflows.
        for secs in [1e-10, 1e300] {
            let mut s = cluster_by_name("hotspot").unwrap();
            for host in &mut s.hosts {
                host.tick_period_secs = secs;
            }
            let err = s.validate().unwrap_err().to_string();
            assert!(err.contains("tick_period_secs"), "{secs}: {err}");
        }
    }
}
