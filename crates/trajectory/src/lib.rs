//! Trajectory modelling and prediction for Stay-Away (§3.2.3 of the paper).
//!
//! The temporal evolution of the mapped state is a trajectory in the 2-D
//! state space. Following the paper (which borrows its parameterisation from
//! movement ecology), a trajectory is described by two per-step parameters:
//!
//! * **distance** `d` — the step length between successive positions, and
//! * **absolute angle** `α` — the angle between the x-axis and the step.
//!
//! Each of the four [execution modes](stayaway_statespace::ExecutionMode)
//! gets its own empirical model: windowed histograms of `d` and `α`, from
//! which candidate future states are drawn by inverse-transform sampling —
//! one uniform draw inverted through the histogram's CDF, linearly
//! interpolated inside the bin. A majority of candidates falling inside a
//! violation-range triggers preventive throttling.
//!
//! The paper smooths the histograms with a Gaussian kernel density
//! estimate before sampling; this crate does not. [`Kde`] exists and is
//! tested, but it is reached only through the
//! [`EmpiricalDistribution::kde`] inspection accessor and the `kernels`
//! bench — never on the forecast path (ROADMAP `[judge]` records the gap).
//!
//! Modules:
//!
//! * [`step`] — step extraction from point sequences;
//! * [`histogram`] — fixed-bin empirical histograms with CDF inversion;
//! * [`kde`] — Gaussian kernel density estimation (Silverman bandwidth),
//!   for inspection;
//! * [`dist`] — windowed empirical distributions: the maintained histogram
//!   the sampler inverts, and the window a [`Kde`] can be fitted to;
//! * [`model`] — the per-mode trajectory model and [`ModePredictor`], which
//!   routes a mode to its model (or, pooled, every mode to one — the
//!   ablation study's baseline);
//! * [`generators`] — reference synthetic trajectories (biased random walk,
//!   Lévy flight, correlated bursts) used for validation;
//! * [`var`] — a VAR(1) forecaster, the §3.1 alternative the paper
//!   discusses, kept for the `ablation_var` comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod generators;
pub mod histogram;
pub mod kde;
pub mod model;
pub mod step;
pub mod var;

mod error;

pub use dist::EmpiricalDistribution;
pub use error::TrajectoryError;
pub use histogram::Histogram;
pub use kde::Kde;
pub use model::{ModePredictor, Prediction, TrajectoryModel};
pub use step::Step;
pub use var::{VarFit, VarModel};
