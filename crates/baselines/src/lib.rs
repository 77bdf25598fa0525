//! Baseline throttling policies to compare Stay-Away against.
//!
//! * [`AlwaysThrottle`] — batch applications never run: the isolated-run
//!   QoS bound (lower utilisation band, perfect QoS).
//! * [`ReactivePolicy`] — throttle *after* observing a violation, resume
//!   after a quiet cooldown: a Bubble-Flux-style phase-in/phase-out runtime
//!   without Stay-Away's prediction.
//! * [`StaticThresholdPolicy`] — an a-priori profiling rule ("only co-run
//!   while the sensitive application uses less than X% CPU"), representing
//!   the static approaches (§1) that cannot adapt to unknown workloads.
//!
//! Co-location with no mitigation at all — the paper's "without
//! Stay-Away" curves — is `stayaway_telemetry::NullPolicy`. Faults are
//! injected at the substrate, not around a policy:
//! `stayaway_telemetry::FaultySource` wraps any observation source.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod always;
mod reactive;
mod static_threshold;

pub use always::AlwaysThrottle;
pub use reactive::ReactivePolicy;
pub use static_threshold::StaticThresholdPolicy;
