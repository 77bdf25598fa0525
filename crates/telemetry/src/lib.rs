//! The Stay-Away telemetry plane: canonical observation types and
//! pluggable observation sources.
//!
//! The paper's middleware samples live per-VM ⟨CPU, Mem, I/O, Net⟩ vectors
//! once per control period (§3.1). This crate makes that ingestion layer a
//! first-class seam, so the controller is substrate agnostic:
//!
//! * the **canonical types** every layer speaks — [`Observation`],
//!   [`ResourceKind`]/[`ResourceVector`], [`Action`], the [`Policy`]
//!   trait, [`HostSpec`] and the run-accounting records — live here, not
//!   in the simulator;
//! * an object-safe [`ObservationSource`] trait abstracts where
//!   observations come from, with four backends: the deterministic
//!   simulator (`stayaway_sim::Harness`), the request-driven workload
//!   engine (`stayaway_workload::WorkloadHost`), recorded JSONL traces
//!   ([`TraceSource`], tee-recordable around any source via
//!   [`RecordingSource`]) and best-effort live Linux procfs/cgroup
//!   sampling ([`ProcfsSource`]); [`FaultySource`] injects sensor dropout
//!   and actuation failure around any of them;
//! * [`step`] is the one control period — sample, decide, actuate,
//!   account — and [`drive`] the run loop over it that the bench runner,
//!   fleet cells, the simulator harness, cluster hosts and the CLI share.
//!
//! Record/replay is the determinism tool of the workspace: a controller's
//! state depends only on the observation sequence and its own seeded
//! randomness, so replaying a recorded trace through the same policy
//! configuration reproduces every action, event and statistic
//! bit-for-bit. A trace (version 2) names the containers once, in its
//! header's roster, and holds one JSON array per observation of only the
//! values that change — `[tick, violated, qos, [[flags, [usage×6], ipc],
//! …]]` — with a line restating the roster where a source's containers
//! change. [`TraceWriter`] writes into one kept line buffer and
//! [`TraceSource`] reads each line in place into the observation the loop
//! handed back, so a steady recording or replay allocates nothing per
//! period. Version 1 traces, one `serde`-derived observation object per
//! line, still replay. A header member added later that a replay can do
//! without is skipped by readers and needs no version bump.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod host;
mod observation;
pub mod procfs;
mod resources;
mod run;
mod source;
mod trace;

mod error;

pub use error::TelemetryError;
pub use host::HostSpec;
pub use observation::{
    Action, AppClass, ContainerId, ContainerObs, NullPolicy, Observation, Policy,
};
pub use procfs::ProcfsSource;
pub use resources::{ResourceKind, ResourceVector};
pub use run::{derive_record, drive, step, QosSummary, RequestQos, RunOutcome, TickRecord};
pub use source::{FaultySource, ObservationSource, SourceKind, SourceMeta};
pub use trace::{RecordingSource, TraceHeader, TraceSource, TraceWriter, TRACE_VERSION};

/// The SplitMix64 golden gamma.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One round of the SplitMix64 output mix (Steele, Lea & Flood 2014), a
/// bijective avalanche over `u64`: the workspace's one seed mixer — fleet
/// cell seeds, workload tenant streams and [`FaultySource`]'s draws.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
