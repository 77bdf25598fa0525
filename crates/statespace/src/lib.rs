//! State-space model for Stay-Away (§3.1–§3.2 of the paper).
//!
//! After the MDS mapping step, every deduplicated measurement vector owns a
//! point in the 2-D plane — a *mapped-state*. States observed during a QoS
//! violation are *violation-states*; all others are *safe-states*. Around
//! each violation-state lies a *violation-range*: the unexplored
//! neighbourhood presumed unsafe, whose radius follows the Rayleigh-scaled
//! distance to the nearest safe-state (§3.2.2):
//!
//! ```text
//! R = d · exp(−d² / (2c²))
//! ```
//!
//! with `d` the distance to the nearest safe-state and `c` the median
//! coordinate range of the mapped space.
//!
//! This crate provides:
//!
//! * [`Point2`] — the 2-D point type with distances and angles;
//! * [`ExecutionMode`] — the four execution modes of §3.2.3;
//! * [`rayleigh_radius`] — the Rayleigh violation-range radius;
//! * [`StateMap`] — the mutable state map maintained by the controller;
//! * [`Template`] — persistable violation templates (§6);
//! * [`viz`] — SVG rendering of the map, the paper's "visualise co-located
//!   execution" contribution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod map;
mod mode;
mod point;
mod range;
mod template;
pub mod viz;

mod error;

pub use error::StateSpaceError;
pub use map::{StateEntry, StateKind, StateMap};
pub use mode::ExecutionMode;
pub use point::Point2;
pub use range::{rayleigh_peak, rayleigh_radius, ViolationRange};
pub use template::{Template, TemplateState};
