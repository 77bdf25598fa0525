//! Controller-side observability wiring (DESIGN.md §11).
//!
//! [`Observability`] is the option bundle threaded through
//! [`Controller::for_host_observed`](crate::Controller::for_host_observed):
//! which [`MetricsRegistry`] receives the controller's instruments,
//! whether per-stage spans are mirrored to a [`SpanSink`], which
//! [`FlightRecorder`] receives decision events and which [`StateCell`]
//! receives `/state`. It is the one instrument bundle of a host's closed
//! loop: the fleet's cells, the cluster's hosts and the CLI's single-host
//! commands hand the same bundle to the observation source and the policy.
//!
//! Everything here obeys the plane's one invariant: recording reads
//! the clock and writes atomics — it never consumes controller RNG and
//! never branches control logic — so an instrumented run's actions, β
//! and state map are bit-for-bit those of a bare run, and the recorded
//! event stream is the same whichever other instruments are on.

use crate::predictors::Forecast;
use crate::stats::ResumeReason;
use stayaway_obs::{
    attr, AttrValue, Counter, EventId, EventKind, FlightRecorder, Gauge, Histogram, Layer,
    MetricsRegistry, SpanSink, StateCell,
};
use stayaway_statespace::Point2;
use stayaway_telemetry::splitmix64;
use std::time::Instant;

/// Observability options for a controller instance.
///
/// [`Observability::disabled`] (the default) still maintains the
/// per-stage latency histograms that back
/// [`ControllerStats::stage_timing`](crate::ControllerStats) — they
/// live in a private registry nobody exports, and like every bundle's
/// they record one control period in 16. [`Observability::enabled`]
/// points the instruments at a caller-owned registry, which
/// [`Observability::exported_registry`] then hands out, and turns on the
/// deep derived metrics (e.g. the O(n²) final embedding stress).
#[derive(Debug, Clone)]
pub struct Observability {
    registry: MetricsRegistry,
    sink: Option<SpanSink>,
    recorder: Option<FlightRecorder>,
    state: Option<StateCell>,
    exported: bool,
}

impl Default for Observability {
    fn default() -> Self {
        Observability::disabled()
    }
}

impl Observability {
    /// Instruments record into a private registry; no spans, no deep
    /// metrics. The default for [`crate::Controller::for_host`].
    pub fn disabled() -> Self {
        Observability {
            registry: MetricsRegistry::new(),
            sink: None,
            recorder: None,
            state: None,
            exported: false,
        }
    }

    /// Full instrumentation into the caller's registry, deep derived
    /// metrics included.
    pub fn enabled(registry: MetricsRegistry) -> Self {
        Observability {
            registry,
            sink: None,
            recorder: None,
            state: None,
            exported: true,
        }
    }

    /// Mirrors per-stage spans into `sink` as structured records.
    pub fn with_sink(mut self, sink: SpanSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Records typed controller decisions (throttle, resume, β change,
    /// predictor verdicts, drift anchors, learned violations) into the
    /// flight recorder's bounded event ring (DESIGN.md §16). This is the
    /// controller's only event path: without a recorder no decision is
    /// retained.
    pub fn with_recorder(mut self, recorder: FlightRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Publishes the live controller state into `state` after every
    /// control period, for the `/state` HTTP endpoint: a dozen scalars
    /// copied per period, a JSON document only when the cell is read.
    pub fn with_state(mut self, state: StateCell) -> Self {
        self.state = Some(state);
        self
    }

    /// The registry instruments are registered into.
    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The span sink, when configured.
    pub(crate) fn sink(&self) -> Option<&SpanSink> {
        self.sink.as_ref()
    }

    /// The flight recorder, when configured.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// The live-state cell, when configured.
    pub fn state(&self) -> Option<&StateCell> {
        self.state.as_ref()
    }

    /// The caller's registry when the bundle was built
    /// [`enabled`](Observability::enabled) — the only registry worth
    /// reporting, merging or handing to a substrate — and `None` for the
    /// private one of a [`disabled`](Observability::disabled) bundle.
    /// Deep derived metrics are computed exactly when it is `Some`.
    pub fn exported_registry(&self) -> Option<&MetricsRegistry> {
        self.exported.then_some(&self.registry)
    }
}

/// The controller's registered instrument handles, beside the bundle they
/// were registered from. Created once at construction; recording is
/// lock-free from then on.
///
/// Each decision of a period is one call here (DESIGN.md §8): it bumps
/// the decision's counters and, only when the bundle carries a recorder,
/// builds the event's attributes and records it — charged to no stage.
#[derive(Debug)]
pub(crate) struct ControllerMetrics {
    pub(crate) bundle: Observability,
    // Per-stage wall-time, one record per stage of each clocked period
    // (one in `CLOCK_STRIDE`) — the primary store behind the
    // `ControllerStats::stage_timing` compatibility view.
    pub(crate) sense_latency: Histogram,
    pub(crate) map_latency: Histogram,
    pub(crate) predict_latency: Histogram,
    pub(crate) act_latency: Histogram,
    // Prediction-plane instruments (DESIGN.md §15): one record per
    // forecast invocation of the configured predictor on a clocked
    // period. Since a controller runs exactly one predictor, this
    // histogram *is* per-predictor at cell granularity; fleet rollups
    // attribute it via the per-predictor cohorts.
    pub(crate) forecast_latency: Histogram,
    pub(crate) verdicts: Counter,
    pub(crate) violation_verdicts: Counter,
    pub(crate) periods: Counter,
    pub(crate) samples_rejected: Counter,
    pub(crate) violations_observed: Counter,
    pub(crate) violations_predicted: Counter,
    pub(crate) throttles: Counter,
    pub(crate) resumes: Counter,
    pub(crate) prediction_checks: Counter,
    pub(crate) prediction_hits: Counter,
    pub(crate) mapping_errors: Counter,
    pub(crate) throttled_periods: Counter,
    pub(crate) beta: Gauge,
    pub(crate) duty_cycle: Gauge,
    pub(crate) events_dropped: Gauge,
    pub(crate) states: Gauge,
    pub(crate) violation_states: Gauge,
    /// Registered lazily at the first verified prediction so the
    /// accuracy series is *omitted* — not reported as 1.0 — before any
    /// check has run (the `hit_ratio(0, 0)` fix, exporter-side).
    pub(crate) hit_ratio: Option<Gauge>,
}

impl ControllerMetrics {
    pub(crate) fn register(bundle: Observability) -> Self {
        let r = &bundle.registry;
        ControllerMetrics {
            sense_latency: r.latency_histogram(
                "stayaway_controller_sense_latency_nanos",
                "Wall time of the sense stage on one period in 16",
            ),
            map_latency: r.latency_histogram(
                "stayaway_controller_map_latency_nanos",
                "Wall time of the map stage on one period in 16",
            ),
            predict_latency: r.latency_histogram(
                "stayaway_controller_predict_latency_nanos",
                "Wall time of the predict stage on one period in 16",
            ),
            act_latency: r.latency_histogram(
                "stayaway_controller_act_latency_nanos",
                "Wall time of the act stage on one period in 16",
            ),
            forecast_latency: r.latency_histogram(
                "stayaway_predict_forecast_latency_nanos",
                "Wall time of one forecast invocation of the configured predictor",
            ),
            verdicts: r.counter(
                "stayaway_predict_verdicts_total",
                "Forecasts that produced a verdict (predictor past warm-up)",
            ),
            violation_verdicts: r.counter(
                "stayaway_predict_violation_verdicts_total",
                "Verdicts that predicted an impending violation",
            ),
            periods: r.counter(
                "stayaway_controller_periods_total",
                "Control periods executed",
            ),
            samples_rejected: r.counter(
                "stayaway_controller_samples_rejected_total",
                "Raw metric samples sanitised to zero by the sense stage",
            ),
            violations_observed: r.counter(
                "stayaway_controller_violations_observed_total",
                "QoS violations reported by the sensitive application",
            ),
            violations_predicted: r.counter(
                "stayaway_controller_violations_predicted_total",
                "Predictions that flagged an impending violation",
            ),
            throttles: r.counter(
                "stayaway_controller_throttles_total",
                "Throttle actions issued",
            ),
            resumes: r.counter("stayaway_controller_resumes_total", "Resume actions issued"),
            prediction_checks: r.counter(
                "stayaway_controller_prediction_checks_total",
                "Predictions whose verdict was checked against reality",
            ),
            prediction_hits: r.counter(
                "stayaway_controller_prediction_hits_total",
                "Checked predictions whose verdict matched reality",
            ),
            mapping_errors: r.counter(
                "stayaway_controller_mapping_errors_total",
                "Control periods skipped because the mapping pipeline errored",
            ),
            throttled_periods: r.counter(
                "stayaway_controller_throttled_periods_total",
                "Control periods that ended with batch applications paused",
            ),
            beta: r.gauge(
                "stayaway_controller_beta",
                "Current phase-change threshold β",
            ),
            duty_cycle: r.gauge(
                "stayaway_controller_throttle_duty_cycle",
                "Fraction of control periods spent throttled",
            ),
            events_dropped: r.gauge(
                "stayaway_controller_events_dropped",
                "Events evicted from the flight recorder's bounded ring",
            ),
            states: r.gauge(
                "stayaway_controller_states",
                "Representative states currently held",
            ),
            violation_states: r.gauge(
                "stayaway_controller_violation_states",
                "Violation-labelled states currently held",
            ),
            hit_ratio: None,
            bundle,
        }
    }

    /// A QoS violation observed and its state `rep` labelled (§3.2.1).
    /// The event names the verdict that was in force when the violation
    /// slipped through: last period's, since this period's forecast has
    /// not run yet.
    pub(crate) fn violation_learned(&self, clock: &mut Laps, tick: u64, rep: usize) {
        self.violations_observed.inc();
        let cause = |rec: &FlightRecorder| rec.last_id_of_kind(EventKind::PredictorVerdict);
        let attrs = || vec![attr("state", rep as u64)];
        self.decision(clock, tick, EventKind::SloViolation, cause, attrs);
    }

    /// β raised to `beta` by a violation that followed a phase-change
    /// resume (§3.3).
    pub(crate) fn beta_raised(&self, clock: &mut Laps, tick: u64, beta: f64) {
        let cause = |rec: &FlightRecorder| rec.last_id_of_kind(EventKind::SloViolation);
        let attrs = || vec![attr("beta", beta)];
        self.decision(clock, tick, EventKind::BetaChange, cause, attrs);
    }

    /// A forecast that produced a verdict. Returns its event, the cause a
    /// throttle later in the period names.
    pub(crate) fn verdict(
        &self,
        clock: &mut Laps,
        tick: u64,
        forecast: &Forecast,
    ) -> Option<EventId> {
        self.verdicts.inc();
        if forecast.predicted_violation {
            self.violation_verdicts.inc();
            self.violations_predicted.inc();
        }
        let attrs = || {
            vec![
                attr("predicted", forecast.predicted_violation),
                attr("votes", forecast.votes as u64),
                attr("samples", forecast.samples as u64),
            ]
        };
        self.decision(clock, tick, EventKind::PredictorVerdict, |_| None, attrs)
    }

    /// A throttle of `count` containers. Its cause is this period's
    /// `verdict` when one exists (the proactive path); a reactive throttle
    /// names the violation it answers.
    pub(crate) fn throttled(
        &self,
        clock: &mut Laps,
        tick: u64,
        count: usize,
        proactive: bool,
        verdict: Option<EventId>,
    ) {
        self.throttles.inc();
        let cause =
            |rec: &FlightRecorder| verdict.or_else(|| rec.last_id_of_kind(EventKind::SloViolation));
        let attrs = || vec![attr("count", count as u64), attr("proactive", proactive)];
        self.decision(clock, tick, EventKind::Throttle, cause, attrs);
    }

    /// The drift reference of the current throttle anchored at `anchor`.
    pub(crate) fn anchored(&self, clock: &mut Laps, tick: u64, anchor: Point2) {
        let cause = |rec: &FlightRecorder| rec.last_id_of_kind(EventKind::Throttle);
        let attrs = || vec![attr("x", anchor.x), attr("y", anchor.y)];
        self.decision(clock, tick, EventKind::DriftAnchor, cause, attrs);
    }

    /// The current throttle ended for `reason`.
    pub(crate) fn resumed(&self, clock: &mut Laps, tick: u64, reason: ResumeReason) {
        self.resumes.inc();
        let why = match reason {
            ResumeReason::PhaseChange => "phase-change",
            ResumeReason::Optimistic => "optimistic",
        };
        let cause = |rec: &FlightRecorder| rec.last_id_of_kind(EventKind::Throttle);
        let attrs = || vec![attr("reason", why)];
        self.decision(clock, tick, EventKind::Resume, cause, attrs);
    }

    /// The one event write of every decision above, on the predictor's
    /// layer for a verdict and the controller's otherwise. Without a
    /// recorder it builds nothing and returns `None`; with one it records,
    /// then moves the period's stage boundary past the write, so the write
    /// is charged to no stage (callers lap the stage they ran first).
    fn decision(
        &self,
        clock: &mut Laps,
        tick: u64,
        kind: EventKind,
        cause: impl FnOnce(&FlightRecorder) -> Option<EventId>,
        attrs: impl FnOnce() -> Vec<(String, AttrValue)>,
    ) -> Option<EventId> {
        let rec = self.bundle.recorder()?;
        let layer = match kind {
            EventKind::PredictorVerdict => Layer::Predictor,
            _ => Layer::Controller,
        };
        let id = rec.record(tick, layer, kind, cause(rec), attrs());
        clock.skip();
        Some(id)
    }

    /// Publishes the prediction hit ratio, registering the gauge on
    /// first use (`checks > 0` guaranteed by the caller).
    pub(crate) fn set_hit_ratio(&mut self, ratio: f64) {
        let gauge = self.hit_ratio.get_or_insert_with(|| {
            self.bundle.registry.gauge(
                "stayaway_controller_prediction_hit_ratio",
                "Fraction of checked predictions whose verdict matched reality",
            )
        });
        gauge.set(ratio);
    }
}

/// The stage clock reads one control period in this many (DESIGN.md §11).
pub(crate) const CLOCK_STRIDE: u64 = 16;

/// Whether control period `period` (counted from 0) is the one period of
/// its block of [`CLOCK_STRIDE`] that the stage clock reads. The block's
/// offset is hashed from the block index, so the pick is a pure function
/// of the period count: it draws no controller RNG, is the same whatever
/// instruments are on, and does not lock onto a periodic workload.
pub(crate) fn clocked(period: u64) -> bool {
    period % CLOCK_STRIDE == splitmix64(period / CLOCK_STRIDE) % CLOCK_STRIDE
}

/// The period's stopwatch. On a [`clocked`] period it reads the clock once
/// per boundary, shared by the stretch that ends there and the one that
/// starts; on any other period it reads no clock and every lap is 0.
pub(crate) struct Laps {
    boundary: Option<Instant>,
}

impl Laps {
    /// The stopwatch of control period `period` (counted from 0).
    pub(crate) fn start(period: u64) -> Self {
        Laps {
            boundary: clocked(period).then(Instant::now),
        }
    }

    /// Whether this period reads the clock.
    pub(crate) fn is_clocked(&self) -> bool {
        self.boundary.is_some()
    }

    /// Nanoseconds since the previous boundary; now is the new boundary.
    pub(crate) fn lap(&mut self) -> u64 {
        let Some(boundary) = &mut self.boundary else {
            return 0;
        };
        let now = Instant::now();
        let nanos = now.duration_since(*boundary).as_nanos() as u64;
        *boundary = now;
        nanos
    }

    /// Moves the boundary to now, charging the stretch behind it (a
    /// flight-recorder write) to no stage.
    fn skip(&mut self) {
        if let Some(boundary) = &mut self.boundary {
            *boundary = Instant::now();
        }
    }
}

/// Mapping instrument handles, passed down from the controller into
/// [`crate::stages::MapStage`].
#[derive(Debug, Clone)]
pub struct MappingMetrics {
    samples: Counter,
    smacof_runs: Counter,
    smacof_iterations: Histogram,
    placements: Counter,
    solves_skipped: Counter,
    final_stress: Gauge,
    column_stress: Gauge,
    dedup_ratio: Gauge,
    repr_states: Gauge,
    soft_capped: Counter,
    nn_candidates: Counter,
    sweep_latency: Histogram,
    append_latency: Histogram,
    deep: bool,
}

impl Default for MappingMetrics {
    /// Shallow instruments in a private registry nobody exports, as a
    /// [`Observability::disabled`] controller registers them.
    fn default() -> Self {
        MappingMetrics::register(&MetricsRegistry::new(), false)
    }
}

impl MappingMetrics {
    /// Registers the mapping instruments into `registry`. `deep`
    /// additionally computes the map's stress after each global solve
    /// (O(n²), decision-inert) and publishes each placed state's column
    /// stress.
    pub(crate) fn register(registry: &MetricsRegistry, deep: bool) -> Self {
        MappingMetrics {
            samples: registry.counter(
                "stayaway_mapping_samples_total",
                "Raw measurement vectors mapped",
            ),
            smacof_runs: registry.counter(
                "stayaway_mapping_smacof_runs_total",
                "Global SMACOF solves (new states that re-laid the whole map)",
            ),
            smacof_iterations: registry.histogram(
                "stayaway_mapping_smacof_iterations",
                "Majorization sweeps per global SMACOF solve",
            ),
            placements: registry.counter(
                "stayaway_mapping_placements_total",
                "New states that fit the map where single-point placement put them, no other state moved",
            ),
            solves_skipped: registry.counter(
                "stayaway_mapping_solves_skipped_total",
                "Misfit new states placed without a global solve because the solves before them were futile",
            ),
            final_stress: registry.gauge(
                "stayaway_mapping_final_stress",
                "Normalised stress of the map after its most recent global solve",
            ),
            column_stress: registry.gauge(
                "stayaway_mapping_column_stress",
                "Normalised column stress of the newest state after its single-point placement",
            ),
            dedup_ratio: registry.gauge(
                "stayaway_mapping_dedup_ratio",
                "Fraction of mapped samples absorbed into existing representatives",
            ),
            repr_states: registry.gauge(
                "stayaway_mapping_repr_states",
                "Representative states held by the dedup set",
            ),
            soft_capped: registry.counter(
                "stayaway_mapping_soft_capped_total",
                "Samples absorbed by the soft state cap",
            ),
            nn_candidates: registry.counter(
                "stayaway_mapping_nn_candidates_total",
                "Representative distances evaluated by nearest-representative queries (dedup inserts, nearest, 3-nearest placement)",
            ),
            // Latency histograms end in `_nanos`, so fleet rollups strip
            // their timing payload via `stable_view` (counts survive).
            sweep_latency: registry.latency_histogram(
                "stayaway_mapping_sweep_latency_nanos",
                "Wall time of one global SMACOF solve (all majorization sweeps)",
            ),
            append_latency: registry.latency_histogram(
                "stayaway_mapping_append_latency_nanos",
                "Wall time of one distance-matrix column append batch",
            ),
            deep,
        }
    }

    /// One sample mapped; refreshes the dedup ratio and repr-set size.
    pub(crate) fn on_sample(&self, repr_states: usize, samples_seen: u64) {
        self.samples.inc();
        self.repr_states.set(repr_states as f64);
        if samples_seen > 0 {
            self.dedup_ratio
                .set(1.0 - repr_states as f64 / samples_seen as f64);
        }
    }

    /// One sample absorbed by the soft state cap.
    pub(crate) fn on_soft_capped(&self) {
        self.soft_capped.inc();
    }

    /// One nearest-representative query evaluated `candidates` distances.
    pub(crate) fn on_candidates(&self, candidates: u64) {
        self.nn_candidates.add(candidates);
    }

    /// One new state fitted by single-point placement: whether it `fits`
    /// the map as it stood and, a misfit, whether its global solve was
    /// `skipped` because the solves before it were futile. The column
    /// stress that decided it is published in deep mode.
    pub(crate) fn on_placement(&self, column_stress: f64, fits: bool, skipped: bool) {
        if fits {
            self.placements.inc();
        }
        if skipped {
            self.solves_skipped.inc();
        }
        if self.deep {
            self.column_stress.set(column_stress);
        }
    }

    /// One global SMACOF solve: its wall time, its majorization sweeps
    /// and, in deep mode only (`stress` is a closure so shallow mode pays
    /// nothing), the map's stress after it.
    pub(crate) fn on_solve(&self, nanos: u64, sweeps: u64, stress: impl FnOnce() -> Option<f64>) {
        self.sweep_latency.record(nanos);
        self.smacof_runs.inc();
        self.smacof_iterations.record(sweeps);
        if let Some(s) = self.deep.then(stress).flatten() {
            self.final_stress.set(s);
        }
    }

    /// One distance-matrix append batch finished in `nanos`
    /// wall-nanoseconds.
    pub(crate) fn on_append_timed(&self, nanos: u64) {
        self.append_latency.record(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_period_of_each_block_is_clocked_and_every_offset_occurs() {
        let mut offsets = [0u32; CLOCK_STRIDE as usize];
        for block in 0..4096 {
            let first = block * CLOCK_STRIDE;
            let picked: Vec<u64> = (first..first + CLOCK_STRIDE)
                .filter(|&p| clocked(p))
                .collect();
            assert_eq!(picked.len(), 1, "block {block} clocked {picked:?}");
            offsets[(picked[0] - first) as usize] += 1;
        }
        assert!(
            offsets.iter().all(|&n| n > 0),
            "offsets never picked: {offsets:?}"
        );
    }
}
