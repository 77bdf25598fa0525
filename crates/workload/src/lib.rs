//! Request-driven multi-tenant workload plane (DESIGN.md §13).
//!
//! A deterministic discrete-event simulator of one multi-tenant host,
//! replacing the per-tick synthetic QoS score with what the paper's
//! evaluation actually measures: per-request latency percentiles and
//! SLO-violation rates over open-loop request streams under co-located
//! interference.
//!
//! - [`ArrivalProcess`] — seeded open-loop arrivals: Poisson, diurnal
//!   curve, flash-crowd bursts, on/off batch phases.
//! - [`DemandProfile`] / [`KeepalivePolicy`] — per-invocation resource
//!   demand, container-pool shape, cold-start penalty, idle eviction.
//! - [`WorkloadScenario`] — declarative serde specs; [`library`] ships
//!   seven named co-location situations resolvable [`by_name`].
//! - [`WorkloadHost`] — the discrete-event engine (its queue orders only
//!   the control tick that is open, DESIGN.md §13): container
//!   lifecycle, contention-stretched service times, SIGSTOP-style
//!   freezes, integer-nanosecond determinism. It is its own
//!   [`ObservationSource`], so existing policies and the fleet sense the
//!   event-driven host unchanged.
//! - [`bench_scenario`] / [`BenchTable`] — the per-scenario/per-policy
//!   QoS grid behind `stayaway bench-scenarios`.
//!
//! [`ObservationSource`]: stayaway_telemetry::ObservationSource

pub mod arrival;
pub mod demand;
pub mod engine;
mod error;
pub mod latency;
mod metrics;
mod queue;
pub mod report;
pub mod spec;

pub use arrival::ArrivalProcess;
pub use demand::{DemandProfile, KeepalivePolicy};
pub use engine::{RunTotals, WorkloadHost};
pub use error::WorkloadError;
pub use latency::LatencyHistogram;
pub use report::{bench_scenario, BenchTable, ScenarioQos};
pub use spec::{by_name, library, SloSpec, TenantSpec, WorkloadScenario};

/// The engine under the name the perf ledger (`benchmarks/`) imports it by.
pub type WorkloadSource = WorkloadHost;
