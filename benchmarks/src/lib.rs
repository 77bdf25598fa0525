//! The repo's perf ledger.
//!
//! Five workloads, six end-to-end metrics and a per-crate breakdown,
//! driven through the facade crate's public API only (`telemetry::drive`, `Fleet::run`/`run_cell`, `Cluster::run`,
//! `Controller::for_host[_observed]`, `RecordingSource`/`TraceSource`,
//! `Observability`). `benchmarks/README.md` has the tables; [`spec`] has
//! the contract as data.

#![forbid(unsafe_code)]

pub mod clock;
pub mod harness;
pub mod layers;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
