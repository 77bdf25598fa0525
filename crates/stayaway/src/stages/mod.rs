//! The staged control pipeline.
//!
//! The paper's control loop is explicitly three mechanisms — mapping,
//! prediction, action — fed by per-VM measurements. This module makes each
//! a first-class stage: one type that owns its mechanism's state outright,
//! with no engine or manager behind it. The [`crate::Controller`] reduces
//! to a thin composer and per-stage cost is measurable
//! ([`crate::stats::StageTiming`]):
//!
//! ```text
//! Observation ─▶ SenseStage ─▶ MapStage ─▶ PredictStage ─▶ ActStage ─▶ Actions
//!                (raw vector,   (dedup +     (verdicts +     (throttle/
//!                 mode, QoS     incremental   trajectory      resume + β)
//!                 violation)    MDS)          sampling)
//! ```
//!
//! Stage boundaries follow data ownership, not strict call order: within
//! one period the composer interleaves short stage calls (e.g. a violation
//! first labels the map, then adapts β in the act stage) exactly as the
//! paper's §3 mechanism requires. Stages never hold references to each
//! other; later stages receive an explicit `&MapStage` argument where they
//! must consult learned state, which keeps the data flow auditable.

mod act;
pub(crate) mod map;
mod predict;
pub(crate) mod sense;

pub use act::{ActStage, ResumeDecision};
pub use map::{MapStage, MappedState};
pub use predict::{Forecast, PredictStage};
pub use sense::{SenseStage, Sensed};
