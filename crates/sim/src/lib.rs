//! Deterministic host/container simulator for Stay-Away.
//!
//! The paper's testbed — LXC containers on a quad-core i5 running VLC, a
//! Memcached-backed webservice, SPEC soplex, CloudSuite's Twitter influence
//! ranking, CPUBomb and MemoryBomb — is not reproducible here, so this crate
//! implements the closest synthetic equivalent: a discrete-time simulator
//! whose containers run phase-scripted application models against a shared
//! host with realistic contention physics:
//!
//! * **CPU, memory bandwidth, disk and network** are work-conserving shared
//!   resources allocated max-min fairly ([`contention`]);
//! * **RAM** is an occupancy resource: over-commitment forces swapping,
//!   which slows down applications in proportion to how hard they touch
//!   memory and induces extra disk traffic;
//! * **Last-level cache** is a footprint resource: overflow degrades the
//!   CPU efficiency of cache-hungry applications.
//!
//! Each simulated tick is one Stay-Away control period. Controllers interact
//! with the simulator exclusively through the [`Policy`] trait —
//! per-container resource-usage observations in, pause/resume signals out —
//! which is the same interface the paper's middleware has against LXC
//! (resource monitoring + SIGSTOP/SIGCONT).
//!
//! Everything is deterministic given a seed: an experiment is a
//! `(Scenario, seed)` pair and re-runs bit-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod apps;
pub mod container;
pub mod contention;
pub mod harness;
pub mod host;
pub mod qos;
pub mod scenario;
pub mod source;
pub mod workload;

mod error;

pub use app::{Application, Phase, PhasedApp};
pub use container::Container;
pub use error::SimError;
pub use harness::Harness;
pub use host::Host;
pub use scenario::Scenario;
pub use source::SimSource;
pub use workload::Trace;
// The telemetry plane's types, for the crates that have no normal
// dependency on `stayaway-telemetry` of their own (`baselines`, `bench`).
pub use stayaway_telemetry::{
    Action, AppClass, ContainerId, HostSpec, NullPolicy, Observation, Policy, QosSummary,
    ResourceKind, RunOutcome,
};
