//! Canonical per-tick observations and the policy interface they feed.
//!
//! A [`Policy`] is anything that watches per-container resource usage and
//! decides which batch containers to pause or resume — the Stay-Away
//! controller, or one of the baselines. The interface deliberately mirrors
//! what the paper's middleware gets from LXC: periodic per-VM metric
//! samples, a QoS-violation report from the sensitive application, and
//! SIGSTOP/SIGCONT as the only actuators. Observations are substrate
//! agnostic: they can come from the simulator, a recorded trace or a live
//! procfs sampler (see [`crate::ObservationSource`]).

use crate::resources::ResourceVector;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether a container hosts a latency-sensitive or a best-effort batch
/// application (the paper's co-location constraint of §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AppClass {
    /// Latency-sensitive: QoS-protected, never throttled.
    Sensitive,
    /// Best-effort batch: may be throttled at any time.
    Batch,
}

impl fmt::Display for AppClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppClass::Sensitive => f.write_str("sensitive"),
            AppClass::Batch => f.write_str("batch"),
        }
    }
}

/// Opaque identifier of a container within one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ContainerId(usize);

impl ContainerId {
    /// Creates an id from a raw index. Sources mint ids; consumers treat
    /// them as opaque and only ever hand them back in [`Action`]s.
    pub fn from_raw(raw: usize) -> Self {
        ContainerId(raw)
    }

    /// The raw index.
    pub fn raw(&self) -> usize {
        self.0
    }
}

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// What a policy observes about one container at one tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContainerObs {
    /// The container.
    pub id: ContainerId,
    /// Application name.
    pub name: String,
    /// Sensitive or batch.
    pub class: AppClass,
    /// True when the container was scheduled, unfinished and unpaused —
    /// i.e. it actually consumed resources this tick.
    pub active: bool,
    /// True while SIGSTOP-ed.
    pub paused: bool,
    /// True once the application has completed.
    pub finished: bool,
    /// Measured resource usage (with monitoring noise applied).
    pub usage: ResourceVector,
    /// Instructions-per-cycle analogue: a hardware-counter-style progress
    /// proxy (nominal ≈ 1.0 when the application runs at full speed, with
    /// monitoring noise). §3.1 notes IPC can replace application-reported
    /// QoS violations; see the controller's `ViolationDetection` option.
    pub ipc: f64,
    /// Scheduling priority (lower = more important; meaningful for
    /// sensitive containers when several are co-scheduled, §2.1).
    pub priority: u8,
}

impl ContainerObs {
    /// An entry for a source to overwrite: empty name, zero usage.
    fn blank() -> Self {
        ContainerObs {
            id: ContainerId(0),
            name: String::new(),
            class: AppClass::Batch,
            active: false,
            paused: false,
            finished: false,
            usage: ResourceVector::zero(),
            ipc: 0.0,
            priority: 0,
        }
    }
}

/// One tick's observation, as delivered to a policy.
///
/// The default is the empty observation a source refills when it has no
/// recycled one to hand (see [`crate::ObservationSource::recycle`]).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Observation {
    /// The tick this observation describes.
    pub tick: u64,
    /// Per-container observations.
    pub containers: Vec<ContainerObs>,
    /// True when the sensitive application reported a QoS violation this
    /// tick (the paper's application-reported violation signal).
    pub qos_violation: bool,
    /// Normalised QoS value in `[0, 1]` delivered by the sensitive
    /// application this tick (1.0 = full service).
    pub qos_value: f64,
}

impl Observation {
    /// Iterator over batch containers.
    pub fn batch(&self) -> impl Iterator<Item = &ContainerObs> + '_ {
        self.containers
            .iter()
            .filter(|c| c.class == AppClass::Batch)
    }

    /// Iterator over sensitive containers.
    pub fn sensitive(&self) -> impl Iterator<Item = &ContainerObs> + '_ {
        self.containers
            .iter()
            .filter(|c| c.class == AppClass::Sensitive)
    }

    /// True when any sensitive container is active.
    pub fn sensitive_active(&self) -> bool {
        self.sensitive().any(|c| c.active)
    }

    /// True when any batch container is active.
    pub fn batch_active(&self) -> bool {
        self.batch().any(|c| c.active)
    }

    /// Resizes `containers` to `len` for a source refilling a recycled
    /// observation in place, and returns them: surplus entries are dropped,
    /// missing ones appended blank, and the kept ones keep their name
    /// buffers. Every field of every returned entry is the caller's to
    /// overwrite.
    pub fn resize_containers(&mut self, len: usize) -> &mut [ContainerObs] {
        self.containers.resize_with(len, ContainerObs::blank);
        &mut self.containers
    }
}

/// An actuation a policy can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// SIGSTOP the container (rejected for sensitive containers).
    Pause(ContainerId),
    /// SIGCONT the container.
    Resume(ContainerId),
}

/// A throttling policy driven by per-tick observations.
pub trait Policy {
    /// Human-readable policy name (used in experiment reports).
    fn name(&self) -> &str;

    /// Observes one tick and returns the actuations to apply before the
    /// next tick.
    fn decide(&mut self, observation: &Observation) -> Vec<Action>;
}

/// The do-nothing policy: co-location without any prevention (the paper's
/// "without Stay-Away" curves).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullPolicy;

impl NullPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        NullPolicy
    }
}

impl Policy for NullPolicy {
    fn name(&self) -> &str {
        "no-prevention"
    }

    fn decide(&mut self, _observation: &Observation) -> Vec<Action> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(classes: &[(AppClass, bool)]) -> Observation {
        Observation {
            tick: 0,
            containers: classes
                .iter()
                .enumerate()
                .map(|(i, &(class, active))| ContainerObs {
                    id: ContainerId::from_raw(i),
                    name: format!("app{i}"),
                    class,
                    active,
                    paused: false,
                    finished: false,
                    usage: ResourceVector::zero(),
                    ipc: if active { 1.0 } else { 0.0 },
                    priority: 0,
                })
                .collect(),
            qos_violation: false,
            qos_value: 1.0,
        }
    }

    #[test]
    fn class_filters() {
        let o = obs(&[
            (AppClass::Sensitive, true),
            (AppClass::Batch, false),
            (AppClass::Batch, true),
        ]);
        assert_eq!(o.sensitive().count(), 1);
        assert_eq!(o.batch().count(), 2);
        assert!(o.sensitive_active());
        assert!(o.batch_active());
    }

    #[test]
    fn activity_detection_with_everything_paused() {
        let o = obs(&[(AppClass::Sensitive, false), (AppClass::Batch, false)]);
        assert!(!o.sensitive_active());
        assert!(!o.batch_active());
    }

    #[test]
    fn null_policy_never_acts() {
        let mut p = NullPolicy::new();
        assert_eq!(p.name(), "no-prevention");
        let o = obs(&[(AppClass::Batch, true)]);
        assert!(p.decide(&o).is_empty());
    }

    #[test]
    fn container_id_round_trips_through_raw() {
        let id = ContainerId::from_raw(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.to_string(), "c42");
    }

    #[test]
    fn observation_serde_round_trip() {
        let o = obs(&[(AppClass::Sensitive, true), (AppClass::Batch, false)]);
        let text = serde_json::to_string(&o).unwrap();
        let back: Observation = serde_json::from_str(&text).unwrap();
        assert_eq!(back, o);
    }
}
