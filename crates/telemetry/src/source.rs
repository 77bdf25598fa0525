//! The pluggable observation-source interface.
//!
//! An [`ObservationSource`] is where per-tick [`Observation`]s come from:
//! the deterministic simulator, a recorded JSONL trace, or a live procfs
//! sampler. The trait is object-safe — consumers hold
//! `Box<dyn ObservationSource>` and neither know nor care which substrate
//! is behind it — and deliberately small: one pull method plus metadata,
//! with optional hooks for substrates that can actuate ([`apply`]) or
//! report ground-truth accounting ([`record_for`], [`batch_work`],
//! [`request_qos`]). [`FaultySource`] wraps any source with faults.
//!
//! [`apply`]: ObservationSource::apply
//! [`record_for`]: ObservationSource::record_for
//! [`batch_work`]: ObservationSource::batch_work
//! [`request_qos`]: ObservationSource::request_qos

use crate::observation::{Action, Observation};
use crate::run::{derive_record, RequestQos, TickRecord};
use crate::{splitmix64, HostSpec, ResourceKind, ResourceVector, TelemetryError, GAMMA};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which substrate an observation stream comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SourceKind {
    /// The deterministic host/container simulator.
    Sim,
    /// A recorded JSONL trace replayed open-loop.
    Trace,
    /// Live best-effort sampling of Linux `/proc` and cgroup-v2 files.
    Procfs,
    /// The request-driven multi-tenant workload engine.
    Workload,
}

impl fmt::Display for SourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceKind::Sim => f.write_str("sim"),
            SourceKind::Trace => f.write_str("trace"),
            SourceKind::Procfs => f.write_str("procfs"),
            SourceKind::Workload => f.write_str("workload"),
        }
    }
}

/// Static metadata describing an observation source.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceMeta {
    /// The substrate kind.
    pub kind: SourceKind,
    /// The metric set this source reports (procfs cannot measure cache
    /// footprints, for example).
    pub metrics: Vec<ResourceKind>,
    /// Declared control-period length in seconds: the wall-clock pacing a
    /// deployment should sample at. The drive loop itself never sleeps —
    /// sim and trace substrates are replayed as fast as possible.
    pub tick_period_secs: f64,
    /// The observed host's capacities, when the source knows them
    /// (simulator always, traces from their header, procfs best-effort).
    pub host: Option<HostSpec>,
}

/// A pull-based stream of per-tick observations with optional actuation.
pub trait ObservationSource {
    /// Static metadata: substrate kind, metric set, declared tick period
    /// and host capacities.
    fn meta(&self) -> SourceMeta;

    /// Produces the next observation, or `Ok(None)` when the source is
    /// exhausted (finite traces; the simulator never exhausts).
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError`] on decode or sampling failures.
    fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError>;

    /// Hands an observation back once its period is accounted for, so the
    /// source may refill it in place on a later
    /// [`next_observation`](ObservationSource::next_observation) instead
    /// of allocating a fresh one. [`crate::step`] calls it. A source may
    /// keep the buffers (the `containers` vector, the name strings) but
    /// none of the values: what it returns next must equal what it would
    /// have returned without the recycled observation, whatever that
    /// observation held. The default drops it.
    fn recycle(&mut self, observation: Observation) {
        drop(observation);
    }

    /// Applies the policy's actions to the substrate, returning how many
    /// were rejected (e.g. pausing a sensitive container). Open-loop
    /// sources (trace replay, procfs without an actuator) accept and
    /// ignore everything: the recorded world already ran.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError`] on actuation failures.
    fn apply(&mut self, actions: &[Action]) -> Result<u64, TelemetryError> {
        let _ = actions;
        Ok(0)
    }

    /// Builds the run-accounting record for one tick. The default derives
    /// it from the observation alone ([`derive_record`]); substrates with
    /// ground-truth physics (the simulator) override it with their exact
    /// noiseless accounting.
    fn record_for(&self, observation: &Observation, actions: &[Action]) -> TickRecord {
        derive_record(observation, actions.len(), self.meta().host.as_ref())
    }

    /// Total nominal batch work completed so far. Only substrates with
    /// ground truth (the simulator) report a non-zero value.
    fn batch_work(&self) -> f64 {
        0.0
    }

    /// Per-request QoS of the run so far. Only substrates that simulate
    /// individual requests (the workload engine) report one.
    fn request_qos(&self) -> Option<RequestQos> {
        None
    }
}

/// A boxed source is a source, so wrappers generic over `S:
/// ObservationSource` (the [`crate::RecordingSource`] tee) compose with
/// `Box<dyn ObservationSource>`.
impl<S: ObservationSource + ?Sized> ObservationSource for Box<S> {
    fn meta(&self) -> SourceMeta {
        (**self).meta()
    }

    fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError> {
        (**self).next_observation()
    }

    fn recycle(&mut self, observation: Observation) {
        (**self).recycle(observation);
    }

    fn apply(&mut self, actions: &[Action]) -> Result<u64, TelemetryError> {
        (**self).apply(actions)
    }

    fn record_for(&self, observation: &Observation, actions: &[Action]) -> TickRecord {
        (**self).record_for(observation, actions)
    }

    fn batch_work(&self) -> f64 {
        (**self).batch_work()
    }

    fn request_qos(&self) -> Option<RequestQos> {
        (**self).request_qos()
    }
}

/// Wraps any source with the two faults a SIGSTOP/SIGCONT controller meets
/// first (§3.1, §3.3). Per period, with seeded probabilities, a **sensor
/// dropout** blanks every container's usage and IPC in place, and an
/// **actuation failure** swallows a non-empty action batch, so the
/// period's record counts no actions. Everything else forwards.
#[derive(Debug)]
pub struct FaultySource<S> {
    inner: S,
    sensor_dropout: f64,
    action_failure: f64,
    /// SplitMix64 state.
    state: u64,
    dropped_observations: u64,
    dropped_actions: u64,
    /// The last `apply` swallowed its batch.
    swallowed: bool,
}

impl<S: ObservationSource> FaultySource<S> {
    /// Wraps `inner` with per-period fault probabilities; at 0 and 0 it is
    /// transparent.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::InvalidConfig`] when a rate lies outside
    /// `[0, 1]`.
    pub fn new(
        inner: S,
        sensor_dropout: f64,
        action_failure: f64,
        seed: u64,
    ) -> Result<Self, TelemetryError> {
        if ![sensor_dropout, action_failure]
            .iter()
            .all(|p| (0.0..=1.0).contains(p))
        {
            return Err(TelemetryError::InvalidConfig {
                reason: format!("fault rates {sensor_dropout} / {action_failure} outside [0, 1]"),
            });
        }
        Ok(FaultySource {
            inner,
            sensor_dropout,
            action_failure,
            state: seed,
            dropped_observations: 0,
            dropped_actions: 0,
            swallowed: false,
        })
    }

    /// Observations blanked so far.
    pub fn dropped_observations(&self) -> u64 {
        self.dropped_observations
    }

    /// Action batches swallowed so far.
    pub fn dropped_actions(&self) -> u64 {
        self.dropped_actions
    }

    /// One Bernoulli draw with success probability `p`.
    fn strikes(&mut self, p: f64) -> bool {
        let bits = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        ((bits >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

impl<S: ObservationSource> ObservationSource for FaultySource<S> {
    fn meta(&self) -> SourceMeta {
        self.inner.meta()
    }

    fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError> {
        let mut next = self.inner.next_observation()?;
        if let Some(observation) = &mut next {
            if self.strikes(self.sensor_dropout) {
                self.dropped_observations += 1;
                for c in &mut observation.containers {
                    c.usage = ResourceVector::zero();
                    c.ipc = 0.0;
                }
            }
        }
        Ok(next)
    }

    fn recycle(&mut self, observation: Observation) {
        self.inner.recycle(observation);
    }

    fn apply(&mut self, actions: &[Action]) -> Result<u64, TelemetryError> {
        self.swallowed = !actions.is_empty() && self.strikes(self.action_failure);
        if self.swallowed {
            self.dropped_actions += 1;
            return Ok(0);
        }
        self.inner.apply(actions)
    }

    fn record_for(&self, observation: &Observation, actions: &[Action]) -> TickRecord {
        let reached = if self.swallowed { &[] } else { actions };
        self.inner.record_for(observation, reached)
    }

    fn batch_work(&self) -> f64 {
        self.inner.batch_work()
    }

    fn request_qos(&self) -> Option<RequestQos> {
        self.inner.request_qos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Empty;
    impl ObservationSource for Empty {
        fn meta(&self) -> SourceMeta {
            SourceMeta {
                kind: SourceKind::Procfs,
                metrics: vec![ResourceKind::Cpu],
                tick_period_secs: 1.0,
                host: None,
            }
        }
        fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError> {
            Ok(None)
        }
    }

    #[test]
    fn trait_is_object_safe_with_working_defaults() {
        let mut boxed: Box<dyn ObservationSource> = Box::new(Empty);
        assert!(boxed.next_observation().unwrap().is_none());
        assert_eq!(boxed.apply(&[]).unwrap(), 0);
        assert_eq!(boxed.batch_work(), 0.0);
        assert_eq!(boxed.request_qos(), None);
        assert_eq!(boxed.meta().kind, SourceKind::Procfs);
    }

    #[test]
    fn source_kinds_render_as_cli_tokens() {
        assert_eq!(SourceKind::Sim.to_string(), "sim");
        assert_eq!(SourceKind::Trace.to_string(), "trace");
        assert_eq!(SourceKind::Procfs.to_string(), "procfs");
        assert_eq!(SourceKind::Workload.to_string(), "workload");
    }
}
