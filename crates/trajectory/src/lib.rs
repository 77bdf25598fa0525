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
//! tested, but it is reached only through the crate-private
//! `EmpiricalDistribution::kde` accessor — never on the forecast path
//! (ROADMAP `[judge]` records the gap).
//!
//! This crate provides:
//!
//! * [`step`] — step extraction from point sequences;
//! * [`Histogram`] — fixed-bin empirical histograms with CDF inversion;
//! * [`Kde`] — Gaussian kernel density estimation (Silverman bandwidth),
//!   for inspection;
//! * [`EmpiricalDistribution`] — windowed empirical distributions: the
//!   maintained histogram the sampler inverts, and the window a [`Kde`]
//!   can be fitted to;
//! * [`TrajectoryModel`] — the per-mode trajectory model, and
//!   [`ModePredictor`], which routes a mode to its model (or, pooled,
//!   every mode to one — the ablation study's baseline);
//! * [`generators`] — reference synthetic trajectories (biased random walk,
//!   Lévy flight, correlated bursts) used for validation;
//! * [`VarModel`] — a VAR(1) forecaster, the §3.1 alternative the paper
//!   discusses, kept for the `ablation_var` comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dist;
pub mod generators;
mod histogram;
mod kde;
mod model;
pub mod step;
mod var;

mod error;

pub use dist::EmpiricalDistribution;
pub use error::TrajectoryError;
pub use histogram::Histogram;
pub use kde::Kde;
pub use model::{ModePredictor, Prediction, TrajectoryModel};
pub use step::Step;
pub use var::VarModel;
