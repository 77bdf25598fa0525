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
//!   observations come from, with three backends: the deterministic
//!   simulator (`stayaway_sim::SimSource`), recorded JSONL traces
//!   ([`TraceSource`], tee-recordable around any source via
//!   [`RecordingSource`]) and best-effort live Linux procfs/cgroup
//!   sampling ([`ProcfsSource`]);
//! * [`step`] is the one control period — sample, decide, actuate,
//!   account — and [`drive`] the run loop over it that the bench runner,
//!   fleet cells, the simulator harness, cluster hosts and the CLI share.
//!
//! Record/replay is the determinism tool of the workspace: a controller's
//! state depends only on the observation sequence and its own seeded
//! randomness, so replaying a recorded trace through the same policy
//! configuration reproduces every action, event and statistic
//! bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod host;
pub mod observation;
pub mod procfs;
pub mod resources;
pub mod run;
pub mod source;
pub mod trace;

mod error;

pub use codec::{decode_observation, decode_observation_into, encode_observation};
pub use error::TelemetryError;
pub use host::HostSpec;
pub use observation::{
    Action, AppClass, ContainerId, ContainerObs, NullPolicy, Observation, Policy,
};
pub use procfs::ProcfsSource;
pub use resources::{ResourceKind, ResourceVector};
pub use run::{derive_record, drive, step, QosSummary, RequestQos, RunOutcome, TickRecord};
pub use source::{ObservationSource, SourceKind, SourceMeta};
pub use trace::{
    RecordingSource, TraceHeader, TraceSource, TraceWriter, TRACE_FORMAT, TRACE_VERSION,
};
