//! The workload-backed observation source.
//!
//! [`WorkloadSource`] adapts a [`WorkloadHost`] to the telemetry plane's
//! [`ObservationSource`] interface: `next_observation` runs the event
//! engine one control tick forward, `apply` actuates freezes/resumes at
//! the tick boundary, and `record_for` returns the engine's noiseless
//! ground-truth accounting — so `stayaway_telemetry::drive` closes the
//! loop over the request-driven host exactly as it does over the
//! per-tick simulator, and every existing policy senses it unchanged.

use crate::engine::{RunTotals, WorkloadHost};
use crate::latency::LatencyHistogram;
use crate::metrics::WorkloadMetrics;
use crate::spec::WorkloadScenario;
use crate::WorkloadError;
use stayaway_obs::{attr, EventKind, FlightRecorder, Layer, MetricsRegistry};
use stayaway_telemetry::{
    Action, Observation, ObservationSource, RequestQos, ResourceKind, SourceKind, SourceMeta,
    TelemetryError, TickRecord,
};

/// Drives a [`WorkloadHost`] as a telemetry observation source.
#[derive(Debug)]
pub struct WorkloadSource {
    host: WorkloadHost,
    recorder: Option<FlightRecorder>,
    /// The observation handed back through [`ObservationSource::recycle`],
    /// refilled by the next tick.
    spare: Option<Observation>,
}

impl WorkloadSource {
    /// Builds the source for a scenario and seed.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] when the scenario fails
    /// validation.
    pub fn new(scenario: WorkloadScenario, seed: u64) -> Result<Self, WorkloadError> {
        Ok(WorkloadSource {
            host: WorkloadHost::new(scenario, seed)?,
            recorder: None,
            spare: None,
        })
    }

    /// Attaches decision-inert instrumentation from `registry`.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.host = self.host.with_metrics(WorkloadMetrics::register(registry));
        self
    }

    /// Records workload-layer SLO violations into the flight recorder
    /// (one [`EventKind::SloViolation`] per violated tick with the
    /// sensitive tenant active). Decision-inert: the engine never reads
    /// the recorder back.
    pub fn with_recorder(mut self, recorder: FlightRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Shared access to the engine.
    pub fn host(&self) -> &WorkloadHost {
        &self.host
    }

    /// Mutable access to the engine, for the verbs that act on a host from
    /// outside its closed loop (the cluster plane's `attach_tenant`,
    /// `detach_tenant` and `inject_arrival`).
    pub fn host_mut(&mut self) -> &mut WorkloadHost {
        &mut self.host
    }

    /// Whole-run latency histogram of sensitive requests.
    pub fn latency(&self) -> &LatencyHistogram {
        self.host.latency()
    }

    /// Whole-run request totals.
    pub fn totals(&self) -> &RunTotals {
        self.host.totals()
    }

    /// The run's event-timeline fingerprint (determinism tests).
    pub fn timeline_digest(&self) -> u64 {
        self.host.timeline_digest()
    }
}

impl ObservationSource for WorkloadSource {
    fn meta(&self) -> SourceMeta {
        SourceMeta {
            kind: SourceKind::Workload,
            metrics: ResourceKind::ALL.to_vec(),
            tick_period_secs: self.host.scenario().tick_period_secs,
            host: Some(self.host.scenario().host),
        }
    }

    fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError> {
        let mut observation = self.spare.take().unwrap_or_default();
        self.host.advance_tick_into(&mut observation);
        Ok(Some(observation))
    }

    fn recycle(&mut self, observation: Observation) {
        self.spare = Some(observation);
    }

    fn apply(&mut self, actions: &[Action]) -> Result<u64, TelemetryError> {
        Ok(self.host.apply(actions))
    }

    fn record_for(&self, observation: &Observation, actions: &[Action]) -> TickRecord {
        let record = self.host.last_record(actions.len()).unwrap_or_else(|| {
            stayaway_telemetry::derive_record(
                observation,
                actions.len(),
                Some(&self.host.scenario().host),
            )
        });
        if record.violated && record.sensitive_active {
            if let Some(rec) = &self.recorder {
                let cause = rec.last_id_of_kind(EventKind::PredictorVerdict);
                rec.record(
                    record.tick,
                    Layer::Workload,
                    EventKind::SloViolation,
                    cause,
                    vec![
                        attr("qos", record.qos_value),
                        attr("batch_active", record.batch_active as u64),
                    ],
                );
            }
        }
        record
    }

    fn batch_work(&self) -> f64 {
        self.host.batch_work()
    }

    fn request_qos(&self) -> Option<RequestQos> {
        let (latency, totals) = (self.latency(), self.totals());
        Some(RequestQos {
            p50_ms: latency.quantile_ms(0.50),
            p95_ms: latency.quantile_ms(0.95),
            p99_ms: latency.quantile_ms(0.99),
            mean_ms: latency.mean_ms(),
            slo_violation_rate: totals.slo_violation_rate(),
            requests: totals.arrivals,
            completed: totals.completed,
            dropped: totals.dropped,
            cold_starts: totals.cold_starts,
            evictions: totals.evictions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::by_name;
    use stayaway_telemetry::{drive, NullPolicy, Policy};

    fn source(name: &str, seed: u64) -> WorkloadSource {
        WorkloadSource::new(by_name(name).unwrap(), seed).unwrap()
    }

    #[test]
    fn meta_reports_the_workload_substrate() {
        let s = source("memcached-like", 1);
        let meta = s.meta();
        assert_eq!(meta.kind, SourceKind::Workload);
        assert_eq!(meta.tick_period_secs, 1.0);
        assert!(meta.host.is_some());
    }

    #[test]
    fn drive_closes_the_loop_deterministically() {
        let mut a = source("cpu-bomb", 17);
        let mut b = source("cpu-bomb", 17);
        let out_a = drive(&mut a, &mut NullPolicy::new(), 30).unwrap();
        let out_b = drive(&mut b, &mut NullPolicy::new(), 30).unwrap();
        assert_eq!(out_a, out_b);
        assert_eq!(a.timeline_digest(), b.timeline_digest());
        assert_eq!(out_a.timeline.len(), 30);
        assert!(out_a.batch_work > 0.0);
        // The per-request read-out mirrors the engine's own accounting.
        let qos = a.request_qos().expect("the engine simulates requests");
        assert_eq!(a.request_qos(), b.request_qos());
        assert_eq!(qos.requests, a.totals().arrivals);
        assert_eq!(qos.completed, a.totals().completed);
        assert_eq!(qos.p95_ms, a.latency().quantile_ms(0.95));
        assert_eq!(qos.slo_violation_rate, a.totals().slo_violation_rate());
    }

    /// Pauses every unpaused batch container it sees.
    struct PauseAll;
    impl Policy for PauseAll {
        fn name(&self) -> &str {
            "pause-all"
        }
        fn decide(&mut self, obs: &Observation) -> Vec<Action> {
            obs.batch()
                .filter(|c| !c.paused)
                .map(|c| Action::Pause(c.id))
                .collect()
        }
    }

    #[test]
    fn pausing_batch_improves_latency_under_contention() {
        let mut contended = source("cpu-bomb", 23);
        drive(&mut contended, &mut NullPolicy::new(), 40).unwrap();
        let mut protected = source("cpu-bomb", 23);
        drive(&mut protected, &mut PauseAll, 40).unwrap();
        let p95_contended = contended.latency().quantile_ms(0.95);
        let p95_protected = protected.latency().quantile_ms(0.95);
        assert!(
            p95_protected < p95_contended,
            "pause should help: {p95_protected} vs {p95_contended}"
        );
        assert!(protected.totals().slo_violation_rate() <= contended.totals().slo_violation_rate());
    }

    #[test]
    fn arrival_timeline_is_policy_independent() {
        // Open-loop property: the same requests arrive whatever the
        // policy does to the batch tenants.
        let mut idle = source("cpu-bomb", 29);
        drive(&mut idle, &mut NullPolicy::new(), 30).unwrap();
        let mut throttled = source("cpu-bomb", 29);
        drive(&mut throttled, &mut PauseAll, 30).unwrap();
        assert_eq!(idle.totals().arrivals, throttled.totals().arrivals);
    }
}
