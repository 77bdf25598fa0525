//! The interference-aware cluster plane (DESIGN.md §14).
//!
//! The fleet runs N *sealed* cells; the cluster runs N *open* hosts under
//! one orchestrator. Batch work arrives as movable [`JobSpec`]s at a
//! cluster admission queue, and an object-safe [`ClusterPolicy`] decides —
//! at every epoch boundary — where each job runs: admit it to a host,
//! keep it queued, defer it, or migrate it between hosts
//! ([`ClusterAction::Migrate`]). Placement is scored from live per-host
//! state ([`HostSnapshot`]: load, recent QoS, frozen jobs, registry
//! template verdicts), in the spirit of scoring-based cluster schedulers
//! layered above per-host interference control.
//!
//! Determinism carries over from the fleet unchanged, even though hosts
//! are no longer independent:
//!
//! * **Placement-independent request streams.** Every job owns two RNG
//!   streams derived from `(cluster_seed, job_id)` — disjoint from the
//!   host-seed space — and generates its `(arrival, nominal-service)`
//!   pairs against the shared cluster clock, folding them into a per-job
//!   FNV digest. Hosts receive them as injected events that consume no
//!   host RNG, so the digest (and the arrival timeline) is identical under
//!   every cluster policy, every placement, and every migration history.
//! * **Serial barriers, parallel cells.** All cross-host coordination
//!   (scoring, placement, routing, departures) happens serially at epoch
//!   boundaries in fixed host/job order; between barriers each host
//!   advances alone on the worker pool. `workers = 1` and `workers = 8`
//!   produce byte-identical [`ClusterOutcome`] JSON.

pub mod action;
pub mod job;
pub mod outcome;
pub mod policy;
pub mod runner;
pub mod scenario;

pub use action::ClusterAction;
pub use job::{derive_job_seed, JobSpec};
pub use outcome::{ClusterOutcome, HostRollup, JobRollup};
pub use policy::{ClusterPolicy, ClusterPolicySpec, HostSnapshot, JobView};
pub use runner::{Cluster, ClusterConfig};
pub use scenario::{cluster_by_name, cluster_library, ClusterScenario};
