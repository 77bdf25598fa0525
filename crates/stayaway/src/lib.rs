//! The Stay-Away controller — the paper's primary contribution.
//!
//! Every control period the controller routes one observation through the
//! explicit [`stages`] pipeline (Sense → Map → Predict → Act), the §3
//! mechanism made first-class:
//!
//! 1. **Sense** ([`stages::sense`]): the per-VM resource-usage snapshot is
//!    classified into an execution mode, assessed for QoS violations, and
//!    aggregated into the raw measurement vector (batch VMs form one
//!    *logical VM*, §5).
//! 2. **Map** ([`stages::map`]): the vector is normalised into `[0, 1]`
//!    per metric, deduplicated to a representative sample set (§4), and a
//!    new representative is placed into the 2-D map — re-solved with
//!    warm-started SMACOF and Procrustes-aligned to the previous frame
//!    only when it does not fit.
//! 3. **Predict** ([`stages::predict`], the verdict ledger over the
//!    swappable [`predictors`] plane): the configured
//!    [`predictors::Predictor`] — the paper's KDE/trajectory design by
//!    default, or a competitor (`xapp`, `denoise`, `last-tick`) — feeds on
//!    the mapped observation and forecasts whether the next co-located
//!    state violates (§3.2, DESIGN.md §15).
//! 4. **Act** ([`stages::act`]): a predicted (or observed) violation
//!    pauses the batch applications holding the majority resource share;
//!    the β-learned phase-change detector and a randomised optimistic
//!    retry decide when to resume (§3.3).
//!
//! Each stage is one type that owns its mechanism's state outright. The
//! [`Controller`] is a thin composer over these stages and implements
//! [`ControlPolicy`] — the unified control-plane interface ([`policy`])
//! that the bench runner, fleet cells and CLI program against, for the
//! Stay-Away controller and baselines alike. Per-stage cost is recorded in
//! latency histograms by the observability plane ([`obs`], DESIGN.md §11)
//! and surfaced both as a [`stayaway_obs::MetricsSnapshot`] and through the
//! [`stats::StageTiming`] compatibility view on [`ControllerStats`].
//!
//! The state map doubles as a reusable [`stayaway_statespace::Template`]
//! for future runs of the same sensitive application (§6).
//!
//! # Example
//!
//! ```
//! use stayaway_core::{Controller, ControllerConfig};
//! use stayaway_sim::scenario::Scenario;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = Scenario::vlc_with_twitter(7);
//! let mut harness = scenario.build_harness()?;
//! let mut controller = Controller::for_host(
//!     ControllerConfig::default(),
//!     harness.host().spec(),
//! )?;
//! let outcome = harness.run(&mut controller, 200);
//! println!(
//!     "violations: {} / {} active ticks",
//!     outcome.qos.violations, outcome.qos.active_ticks
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod config;
pub mod controller;
pub mod obs;
pub mod policy;
pub mod predictors;
pub mod stages;
pub mod stats;
pub mod violation;

mod error;

pub use config::ControllerConfig;
pub use controller::Controller;
pub use error::CoreError;
pub use obs::{MappingMetrics, Observability};
pub use policy::ControlPolicy;
pub use predictors::{Forecast, Predictor, PredictorKind, PredictorStats};
pub use stats::{hit_ratio, ControllerStats, ResumeReason, StageClock, StageTiming};
pub use violation::{ViolationDetection, ViolationDetector};
