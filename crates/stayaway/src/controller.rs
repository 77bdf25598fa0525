//! The Stay-Away controller: a thin composer over the staged pipeline
//! (sense → map → predict → act), every period.

use crate::config::ControllerConfig;
use crate::obs::{ControllerMetrics, Laps, MappingMetrics, Observability, CLOCK_STRIDE};
use crate::policy::ControlPolicy;
use crate::stages::{ActStage, MapStage, PredictStage, ResumeDecision, SenseStage};
use crate::stats::{hit_ratio, ControllerStats, StageClock, StageTiming};
use crate::CoreError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stayaway_obs::MetricsSnapshot;
use stayaway_statespace::{ExecutionMode, Point2, StateMap, Template};
use stayaway_telemetry::{Action, HostSpec, Observation, Policy};

/// The Stay-Away middleware for one host.
///
/// Implements [`Policy`], so it plugs into any
/// [`stayaway_telemetry::ObservationSource`] substrate — the simulator
/// harness, a recorded trace, or live procfs sampling; against real
/// infrastructure the same observation/action contract would be backed by
/// cgroups and SIGSTOP/SIGCONT.
///
/// The controller itself owns no mechanism: each period it routes data
/// through the four [`crate::stages`] in the paper's §3 order, translates
/// stage outcomes into statistics and flight-recorder events (the one
/// decision stream, present only when [`Observability::with_recorder`]
/// supplied a recorder), and records per-stage wall time, on one period
/// in 16, into [`crate::stats::StageTiming`]. All randomness is drawn
/// from the controller's single seeded RNG, in a fixed call order, so
/// runs with the same seed are bit-identical.
#[derive(Debug)]
pub struct Controller {
    sense: SenseStage,
    map: MapStage,
    predict: PredictStage,
    act: ActStage,
    rng: StdRng,
    /// Tick of the first throttle and whether it was proactive
    /// (prediction- or template-driven rather than a reaction to an
    /// observed violation); `None` until the controller throttles. Kept
    /// outside the bounded recorder ring so eviction cannot lose it.
    first_throttle: Option<(u64, bool)>,
    obs: ControllerMetrics,
}

impl Controller {
    /// Creates a controller for a host with the given capacities.
    ///
    /// Instrumentation records into a private registry (see
    /// [`Observability::disabled`]); use
    /// [`Controller::for_host_observed`] to export metrics.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for invalid configurations.
    pub fn for_host(config: ControllerConfig, spec: &HostSpec) -> Result<Self, CoreError> {
        Controller::for_host_observed(config, spec, Observability::disabled())
    }

    /// Creates a controller whose instruments register into the given
    /// [`Observability`] bundle (registry, optional span sink, recorder
    /// and `/state` cell; deep derived metrics when the registry is
    /// exported).
    ///
    /// Observability is decision-inert: the controller's actions, β and
    /// state map are bit-for-bit identical whichever bundle is passed (and
    /// so is the event stream, for any bundle carrying a recorder) —
    /// instrumentation reads the clock and writes atomics, never consuming
    /// the controller's RNG.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for invalid configurations.
    pub fn for_host_observed(
        config: ControllerConfig,
        spec: &HostSpec,
        obs: Observability,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        let deep = obs.exported_registry().is_some();
        let mapping_metrics = MappingMetrics::register(obs.registry(), deep);
        Ok(Controller {
            rng: StdRng::seed_from_u64(config.seed ^ 0x517cc1b727220a95),
            sense: SenseStage::new(&config.metrics, config.violation_detection),
            map: MapStage::new(&config, spec, mapping_metrics)?,
            predict: PredictStage::new(&config),
            act: ActStage::new(&config, spec.capacities()),
            first_throttle: None,
            obs: ControllerMetrics::register(obs),
        })
    }

    /// The learned state map.
    pub fn state_map(&self) -> &StateMap {
        self.map.state_map()
    }

    /// The 2-D position of representative state `rep` (None before the
    /// first sample).
    pub fn state_point(&self, rep: usize) -> Option<Point2> {
        if rep < self.map.repr_count() {
            self.map.point_of(rep).ok()
        } else {
            None
        }
    }

    /// Number of representative states.
    pub fn repr_count(&self) -> usize {
        self.map.repr_count()
    }

    /// The representative state the most recent observation mapped to
    /// (None before the first period).
    pub fn current_state(&self) -> Option<usize> {
        self.predict.current_state()
    }

    /// Aggregate statistics so far, read where each is kept: decisions in
    /// their registry counters (the only count of them), states in the map
    /// stage. [`ControllerStats::stage_timing`] counts every finished
    /// period exactly (the periods less the errored ones) and estimates
    /// its nanoseconds from the per-stage latency histograms, which hold
    /// one period in 16 (their count is `clocked`): each sampled period
    /// stands for the 16 of its block, so the estimate is additive across
    /// controllers and across a run's stretches.
    pub fn stats(&self) -> ControllerStats {
        let o = &self.obs;
        let finished = o.periods.get() - o.mapping_errors.get();
        let clock = |h: &stayaway_obs::Histogram| StageClock {
            invocations: finished,
            clocked: h.count(),
            nanos: h.sum() * CLOCK_STRIDE,
        };
        ControllerStats {
            periods: o.periods.get(),
            violations_observed: o.violations_observed.get(),
            violations_predicted: o.violations_predicted.get(),
            throttles: o.throttles.get(),
            resumes: o.resumes.get(),
            prediction_checks: o.prediction_checks.get(),
            prediction_hits: o.prediction_hits.get(),
            states: self.map.repr_count(),
            violation_states: self.map.state_map().violation_count(),
            mapping_errors: o.mapping_errors.get(),
            // Plus what the prediction plane sanitised itself (0 for the KDE).
            samples_rejected: o.samples_rejected.get() + self.predict.predictor_stats().rejected,
            events_dropped: self.events_dropped(),
            stage_timing: StageTiming {
                sense: clock(&o.sense_latency),
                map: clock(&o.map_latency),
                predict: clock(&o.predict_latency),
                act: clock(&o.act_latency),
            },
        }
    }

    /// A point-in-time snapshot of every instrument this controller
    /// registered (per-stage latency histograms, decision counters, β
    /// and duty-cycle gauges, map-stage metrics).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.bundle.registry().snapshot()
    }

    /// Records the flight recorder evicted or refused; 0 without one.
    fn events_dropped(&self) -> u64 {
        self.obs.bundle.recorder().map_or(0, |rec| rec.dropped())
    }

    /// The current β (§3.3).
    pub fn beta(&self) -> f64 {
        self.act.beta()
    }

    /// Exports the learned states as a template for future executions of
    /// the same sensitive application (§6).
    ///
    /// # Errors
    ///
    /// Propagates template-construction failures.
    pub fn export_template(&self, sensitive_app: &str) -> Result<Template, CoreError> {
        self.map.export_template(sensitive_app)
    }

    /// Seeds the controller with a template captured in a previous run:
    /// its states become the initial state map, violation labels included,
    /// so known violations are avoided from the first period (§6).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Template`] on dimension mismatch and propagates
    /// embedding failures.
    pub fn import_template(&mut self, template: &Template) -> Result<(), CoreError> {
        self.map.import_template(template)?;
        self.predict.on_template_imported(&self.map);
        Ok(())
    }

    /// One control period; called by the [`Policy`] impl.
    ///
    /// Stage calls interleave where the paper's mechanism demands it (an
    /// observed violation first labels the map, then adapts β), so each
    /// stage's wall time is accumulated across its calls within the period
    /// and recorded once at the end. On the one period in 16 that is
    /// clocked, the clock is read once per stage boundary ([`Laps`]): the
    /// read that ends one stretch starts the next; every other period
    /// reads no clock and records no stage. Verify → track is one predict
    /// stretch unless a violation is learned in between, and its end is
    /// the forecast's start. Each decision is one [`ControllerMetrics`]
    /// call made right after the lap of the stage that took it, so its
    /// event write is charged to no stage.
    fn period(&mut self, obs: &Observation) -> Result<Vec<Action>, CoreError> {
        let mut clock = Laps::start(self.obs.periods.get());
        self.obs.periods.inc();
        let tick = obs.tick;
        let mut spent = StageNanos::default();

        // ---- Sense ------------------------------------------------------
        let sensed = self.sense.observe(obs);
        if sensed.rejected > 0 {
            self.obs.samples_rejected.add(sensed.rejected);
        }
        spent.sense = clock.lap();

        // ---- Map --------------------------------------------------------
        let mapped = self.map.ingest(&sensed)?;
        spent.map = clock.lap();

        // ---- Verify the previous prediction against reality -------------
        // (Before the violation label below: the verdict is judged against
        // the map as the forecast could have known it.)
        let verdict = self.predict.verify(&self.map, mapped.rep, mapped.point);
        if let Some(hit) = verdict {
            self.obs.prediction_checks.inc();
            if hit {
                self.obs.prediction_hits.inc();
            }
        }

        // ---- Learn violations --------------------------------------------
        if sensed.violated {
            spent.predict += clock.lap();
            self.map.mark_violation(mapped.rep)?;
            spent.map += clock.lap();
            self.obs.violation_learned(&mut clock, tick, mapped.rep);
            let beta_raised = self.act.note_violation(tick);
            spent.act += clock.lap();
            if beta_raised {
                self.obs.beta_raised(&mut clock, tick, self.act.beta());
            }
        }

        // ---- Trajectory update -------------------------------------------
        self.predict
            .track(&self.map, mapped.rep, mapped.point, &sensed)?;
        spent.predict += clock.lap();

        // ---- Act ---------------------------------------------------------
        let mut actions = Vec::new();
        let mut reissued = 0;

        if self.act.is_throttling() {
            // §3.3: watch the sensitive application's isolated trajectory
            // for a phase change; resume on drift beyond β or optimistically.
            let decision = self.act.maybe_resume(
                &self.map,
                &sensed,
                mapped.point,
                self.sense.last_batch_usage(),
                &mut self.rng,
            );
            // A pause the substrate lost shows as a target still running;
            // a committed resume releases every target anyway.
            if !matches!(decision, ResumeDecision::Resumed { .. }) {
                reissued = self.act.reconcile(obs, &mut actions);
            }
            spent.act += clock.lap();
            if let Some(anchor) = self.act.take_anchor_established() {
                self.obs.anchored(&mut clock, tick, anchor);
            }
            if let ResumeDecision::Resumed {
                reason,
                actions: resumes,
            } = decision
            {
                actions = resumes;
                self.obs.resumed(&mut clock, tick, reason);
            }
        } else {
            // Not throttled: predict the next state while co-located.
            let mut predicted_violation = false;
            let mut verdict = None;
            if sensed.mode == ExecutionMode::CoLocated {
                let forecast =
                    self.predict
                        .forecast(&self.map, &sensed, mapped.point, &mut self.rng);
                let forecast_nanos = clock.lap();
                spent.predict += forecast_nanos;
                if clock.is_clocked() {
                    self.obs.forecast_latency.record(forecast_nanos);
                }
                if let Some(forecast) = forecast {
                    predicted_violation = forecast.predicted_violation;
                    verdict = self.obs.verdict(&mut clock, tick, &forecast);
                }
            }

            // A resume the substrate lost shows as a container still
            // paused. Settled before the throttle below picks its targets.
            reissued = self.act.reconcile(obs, &mut actions);

            // Re-visiting a known violation-state is a predicted violation
            // with certainty 1 — this is what lets an imported template (§6)
            // act before any violation is re-observed. (Merely entering the
            // wider violation-range is left to the sampled predictor so
            // borderline safe states are not over-throttled.)
            let current_in_range =
                sensed.mode == ExecutionMode::CoLocated && self.map.is_violation_state(mapped.rep);
            let should_throttle = sensed.mode == ExecutionMode::CoLocated
                && (predicted_violation || current_in_range || sensed.violated);
            let targets = if should_throttle {
                self.act.throttle_targets(obs)
            } else {
                Vec::new()
            };
            spent.act += clock.lap();
            if !targets.is_empty() {
                let proactive = (predicted_violation || current_in_range) && !sensed.violated;
                self.first_throttle.get_or_insert((tick, proactive));
                self.obs
                    .throttled(&mut clock, tick, targets.len(), proactive, verdict);
                let (engaged, pauses) = self.act.engage(tick, targets);
                spent.act += clock.lap();
                if engaged {
                    // A prediction consumed now will not see its next
                    // state under co-location; drop the pending verdict.
                    self.predict.cancel_verdict();
                    actions.extend(pauses);
                }
            }
        }

        if reissued > 0 {
            // Registered at the first re-issue: a run whose every action
            // arrived exports the series it always did.
            let help = "Pauses and resumes re-issued because the observation showed them lost, \
                        and resumes of pauses this controller did not issue";
            let name = "stayaway_controller_reissued_actions_total";
            self.obs.bundle.registry().counter(name, help).add(reissued);
        }
        self.finish_period(tick, mapped.point, clock.is_clocked().then_some(spent));
        self.sense.recycle(sensed);
        Ok(actions)
    }

    /// End-of-period instrumentation: on a clocked period (`spent` is its
    /// stage times) one latency record per stage and the mirrored span
    /// records; on every period the derived gauges. Pure writes —
    /// decision-inert.
    fn finish_period(&mut self, tick: u64, point: Point2, spent: Option<StageNanos>) {
        use stayaway_obs::StateScalar::{Bool, F64, U64};
        if let Some(spent) = spent {
            self.obs.sense_latency.record(spent.sense);
            self.obs.map_latency.record(spent.map);
            self.obs.predict_latency.record(spent.predict);
            self.obs.act_latency.record(spent.act);
            if let Some(sink) = self.obs.bundle.sink() {
                sink.emit_all(
                    tick,
                    &[
                        ("controller.sense", spent.sense),
                        ("controller.map", spent.map),
                        ("controller.predict", spent.predict),
                        ("controller.act", spent.act),
                    ],
                );
            }
        }
        let throttling = self.act.is_throttling();
        if throttling {
            self.obs.throttled_periods.inc();
        }
        let beta = self.act.beta();
        let duty_cycle = self.obs.throttled_periods.get() as f64 / self.obs.periods.get() as f64;
        let states = self.map.repr_count();
        let violation_states = self.map.state_map().violation_count();
        self.obs.beta.set(beta);
        self.obs.duty_cycle.set(duty_cycle);
        self.obs.events_dropped.set(self.events_dropped() as f64);
        self.obs.states.set(states as f64);
        self.obs.violation_states.set(violation_states as f64);
        let (hits, checks) = (
            self.obs.prediction_hits.get(),
            self.obs.prediction_checks.get(),
        );
        if let Some(ratio) = hit_ratio(hits, checks) {
            self.obs.set_hit_ratio(ratio);
        }
        if let Some(state) = self.obs.bundle.state() {
            state.publish(&[
                ("tick", U64(tick)),
                ("beta", F64(beta)),
                ("throttling", Bool(throttling)),
                ("duty_cycle", F64(duty_cycle)),
                ("point_x", F64(point.x)),
                ("point_y", F64(point.y)),
                ("states", U64(states as u64)),
                ("violation_states", U64(violation_states as u64)),
                ("periods", U64(self.obs.periods.get())),
                (
                    "violations_observed",
                    U64(self.obs.violations_observed.get()),
                ),
                ("throttles", U64(self.obs.throttles.get())),
                ("resumes", U64(self.obs.resumes.get())),
            ]);
        }
    }
}

/// Wall time one period spent in each stage, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
struct StageNanos {
    sense: u64,
    map: u64,
    predict: u64,
    act: u64,
}

impl Policy for Controller {
    fn name(&self) -> &str {
        "stay-away"
    }

    fn decide(&mut self, observation: &Observation) -> Vec<Action> {
        match self.period(observation) {
            Ok(actions) => actions,
            Err(_) => {
                self.obs.mapping_errors.inc();
                Vec::new()
            }
        }
    }
}

impl ControlPolicy for Controller {
    fn stats(&self) -> ControllerStats {
        Controller::stats(self)
    }

    fn first_throttle(&self) -> Option<(u64, bool)> {
        self.first_throttle
    }

    fn export_template(&self, sensitive_app: &str) -> Result<Option<Template>, CoreError> {
        Controller::export_template(self, sensitive_app).map(Some)
    }

    fn import_template(&mut self, template: &Template) -> Result<bool, CoreError> {
        Controller::import_template(self, template)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stayaway_obs::{EventKind, FlightRecorder};
    use stayaway_sim::scenario::Scenario;
    use stayaway_telemetry::NullPolicy;
    use stayaway_telemetry::ObservationSource;

    fn default_controller(h: &stayaway_sim::Harness) -> Controller {
        Controller::for_host(ControllerConfig::default(), h.host().spec()).unwrap()
    }

    /// A default controller emitting its decisions into `rec`.
    fn recorded_controller(h: &stayaway_sim::Harness, rec: &FlightRecorder) -> Controller {
        let obs = Observability::disabled().with_recorder(rec.clone());
        Controller::for_host_observed(ControllerConfig::default(), h.host().spec(), obs).unwrap()
    }

    #[test]
    fn construction_validates_config() {
        let spec = HostSpec::default();
        let bad = ControllerConfig {
            prediction_samples: 0,
            ..ControllerConfig::default()
        };
        assert!(Controller::for_host(bad, &spec).is_err());
    }

    #[test]
    fn reduces_violations_against_cpubomb() {
        let scenario = Scenario::vlc_with_cpubomb(11);
        let ticks = 250;

        let mut h0 = scenario.build_harness().unwrap();
        let baseline = h0.run(&mut NullPolicy::new(), ticks);

        let mut h1 = scenario.build_harness().unwrap();
        let mut ctl = default_controller(&h1);
        let guarded = h1.run(&mut ctl, ticks);

        assert!(
            guarded.qos.violations * 4 < baseline.qos.violations,
            "stay-away {} vs baseline {} violations",
            guarded.qos.violations,
            baseline.qos.violations
        );
        assert!(ctl.stats().throttles > 0);
        assert!(ctl.state_map().violation_count() > 0);
    }

    #[test]
    fn reduces_violations_against_twitter_while_keeping_batch_running() {
        let scenario = Scenario::vlc_with_twitter(13);
        let ticks = 300;

        let mut h0 = scenario.build_harness().unwrap();
        let baseline = h0.run(&mut NullPolicy::new(), ticks);

        let mut h1 = scenario.build_harness().unwrap();
        let mut ctl = default_controller(&h1);
        let guarded = h1.run(&mut ctl, ticks);

        assert!(
            guarded.qos.violations < baseline.qos.violations,
            "no improvement: {} vs {}",
            guarded.qos.violations,
            baseline.qos.violations
        );
        // The batch application must still make progress (not starved).
        assert!(
            guarded.batch_work > 0.15 * baseline.batch_work,
            "batch starved: {} vs {}",
            guarded.batch_work,
            baseline.batch_work
        );
    }

    #[test]
    fn observe_only_mode_never_acts() {
        let scenario = Scenario::vlc_with_cpubomb(5);
        let mut h = scenario.build_harness().unwrap();
        let config = ControllerConfig {
            actions_enabled: false,
            ..ControllerConfig::default()
        };
        let mut ctl = Controller::for_host(config, h.host().spec()).unwrap();
        let out = h.run(&mut ctl, 150);
        assert!(out.timeline.iter().all(|r| r.actions == 0));
        // It still learns violation states.
        assert!(ctl.state_map().violation_count() > 0);
    }

    #[test]
    fn template_round_trip_preserves_labels() {
        let scenario = Scenario::vlc_with_cpubomb(7);
        let mut h = scenario.build_harness().unwrap();
        let mut ctl = default_controller(&h);
        h.run(&mut ctl, 200);
        let template = ctl.export_template("vlc-streaming").unwrap();
        assert!(template.violation_count() > 0);
        assert_eq!(template.len(), ctl.repr_count());

        // Import into a fresh controller.
        let mut fresh = default_controller(&h);
        fresh.import_template(&template).unwrap();
        assert!(fresh.state_map().violation_count() > 0);
        assert_eq!(fresh.repr_count(), template.len());
    }

    #[test]
    fn template_gives_head_start_against_new_batch() {
        // Learn with CPUBomb, reuse against soplex (the §7.3 experiment).
        // The head start is behavioural: the warm controller recognises the
        // contended regime from the imported violation-states and throttles
        // *proactively* — before the violation detector fires in the reuse
        // run — while the cold controller can only react to an observed
        // violation. Total violation counts are not compared: both runs
        // bottom out at the handful of unavoidable first-contact ticks, so
        // that difference is ±1 sampling noise.
        let learn = Scenario::vlc_with_cpubomb(19);
        let mut h = learn.build_harness().unwrap();
        let mut ctl = default_controller(&h);
        h.run(&mut ctl, 250);
        let template = ctl.export_template("vlc-streaming").unwrap();

        let reuse = Scenario::vlc_with_soplex(19);

        // Cold controller.
        let mut h_cold = reuse.build_harness().unwrap();
        let mut cold = default_controller(&h_cold);
        h_cold.run(&mut cold, 250);

        // Warm controller.
        let mut h_warm = reuse.build_harness().unwrap();
        let mut warm = default_controller(&h_warm);
        warm.import_template(&template).unwrap();
        h_warm.run(&mut warm, 250);

        let (warm_tick, warm_proactive) = warm.first_throttle().expect("warm controller throttles");
        let (cold_tick, cold_proactive) = cold.first_throttle().expect("cold controller throttles");
        assert!(
            warm_proactive,
            "warm first throttle at tick {warm_tick} was reactive"
        );
        assert!(
            !cold_proactive,
            "cold controller cannot act proactively before its first violation"
        );
        assert!(
            warm_tick < cold_tick,
            "no head start: warm first acted at {warm_tick}, cold at {cold_tick}"
        );
    }

    #[test]
    fn stats_and_events_accumulate() {
        let scenario = Scenario::vlc_with_cpubomb(23);
        let mut h = scenario.build_harness().unwrap();
        let rec = FlightRecorder::for_scope(0, "run");
        let mut ctl = recorded_controller(&h, &rec);
        h.run(&mut ctl, 200);
        let stats = ctl.stats();
        assert_eq!(stats.periods, 200);
        assert!(stats.states > 0);
        assert!(stats.violation_states > 0);
        assert!(!rec.is_empty());
        assert_eq!(stats.mapping_errors, 0);
        // Events are tick-ordered.
        let ticks: Vec<u64> = rec.events().iter().map(|e| e.tick).collect();
        assert!(ticks.windows(2).all(|w| w[0] <= w[1]));
    }

    /// The stage clock's sampling rule, copied here as the oracle the
    /// controller is held to: period `p` (from 0) is clocked when it is
    /// the offset `splitmix64(block) % 16` of its block of 16.
    fn sampled(p: u64) -> bool {
        p % 16 == stayaway_telemetry::splitmix64(p / 16) % 16
    }

    #[test]
    fn stage_timing_covers_every_period() {
        let scenario = Scenario::vlc_with_cpubomb(23);
        let mut h = scenario.build_harness().unwrap();
        let mut ctl = default_controller(&h);
        let mut clocked = 0;
        for period in 0..200 {
            let observation = h.next_observation().unwrap().unwrap();
            let actions = ctl.decide(&observation);
            h.apply(&actions);
            clocked += u64::from(sampled(period));
            let t = ctl.stats().stage_timing;
            // Every finished period is counted, clocked or not, and so is
            // every clocked one...
            for clock in [t.sense, t.map, t.predict, t.act] {
                assert_eq!((clock.invocations, clock.clocked), (period + 1, clocked));
            }
            // ...and the time estimate is non-zero once a sample landed.
            let nanos = t.sense.nanos + t.map.nanos + t.predict.nanos + t.act.nanos;
            assert_eq!(nanos > 0, clocked > 0, "period {period}: {nanos} ns");
        }
        assert!(clocked > 0);
    }

    /// The sampled periods are a function of the period count alone: a
    /// bare controller and one with every instrument on clock the same
    /// periods — the ones the rule names — and decide the same actions.
    #[test]
    fn every_bundle_clocks_the_same_periods_and_decides_alike() {
        let scenario = Scenario::vlc_with_twitter(7);
        let mut bare_host = scenario.build_harness().unwrap();
        let mut watched_host = scenario.build_harness().unwrap();
        let spec = *bare_host.host().spec();
        let mut bare = Controller::for_host(ControllerConfig::default(), &spec).unwrap();
        let sink = stayaway_obs::SpanSink::bounded(4096);
        let obs = Observability::enabled(stayaway_obs::MetricsRegistry::new())
            .with_sink(sink.clone())
            .with_recorder(FlightRecorder::for_scope(0, "watched"))
            .with_state(stayaway_obs::StateCell::new());
        let mut watched =
            Controller::for_host_observed(ControllerConfig::default(), &spec, obs).unwrap();
        let samples = |ctl: &Controller| {
            let snapshot = ctl.metrics();
            let sense = snapshot
                .histograms
                .iter()
                .find(|h| h.name == "stayaway_controller_sense_latency_nanos")
                .expect("sense histogram registered");
            sense.hist.count
        };
        let (mut clocked_ticks, mut actions_seen) = (Vec::new(), 0);
        for period in 0..600 {
            let bare_obs = bare_host.next_observation().unwrap().unwrap();
            let watched_obs = watched_host.next_observation().unwrap().unwrap();
            let (bare_before, watched_before) = (samples(&bare), samples(&watched));
            let bare_actions = bare.decide(&bare_obs);
            let watched_actions = watched.decide(&watched_obs);
            assert_eq!(bare_actions, watched_actions, "period {period}");
            actions_seen += bare_actions.len();
            bare_host.apply(&bare_actions);
            watched_host.apply(&watched_actions);
            let expected = u64::from(sampled(period));
            assert_eq!(
                samples(&bare) - bare_before,
                expected,
                "bare, period {period}"
            );
            assert_eq!(
                samples(&watched) - watched_before,
                expected,
                "watched, period {period}"
            );
            if sampled(period) {
                clocked_ticks.push(bare_obs.tick);
            }
        }
        assert!(actions_seen > 0, "the run never acted");
        assert_eq!(bare.stats(), watched.stats());
        // The span sink holds the four stretches of each clocked period.
        let mut span_ticks: Vec<u64> = sink.records().iter().map(|r| r.tick).collect();
        span_ticks.dedup();
        assert_eq!(span_ticks, clocked_ticks);
        assert_eq!(sink.records().len(), 4 * clocked_ticks.len());
    }

    /// `/state` is rendered when someone asks; the bytes must be those of
    /// the `json!` tree the controller used to build every period — key
    /// order, `u64` fields as integers, floats with their `.0` (the first
    /// period's point is the origin, `0.0`), `beta` and the duty cycle as
    /// floats. Checked after every period of the run.
    #[test]
    fn state_document_renders_the_bytes_the_eager_tree_did() {
        let scenario = Scenario::vlc_with_cpubomb(23);
        let mut h = scenario.build_harness().unwrap();
        let cell = stayaway_obs::StateCell::new();
        let obs = Observability::disabled().with_state(cell.clone());
        let mut ctl =
            Controller::for_host_observed(ControllerConfig::default(), h.host().spec(), obs)
                .unwrap();
        let mut whole_floats = 0;
        for _ in 0..400 {
            let observation = h.next_observation().unwrap().unwrap();
            let actions = ctl.decide(&observation);
            h.apply(&actions);
            let point = ctl.state_point(ctl.current_state().unwrap()).unwrap();
            let eager = serde_json::json!({
                "tick": observation.tick,
                "beta": ctl.act.beta(),
                "throttling": ctl.act.is_throttling(),
                "duty_cycle": ctl.obs.throttled_periods.get() as f64
                    / ctl.stats().periods as f64,
                "point_x": point.x,
                "point_y": point.y,
                "states": ctl.map.repr_count() as u64,
                "violation_states": ctl.map.state_map().violation_count() as u64,
                "periods": ctl.stats().periods,
                "violations_observed": ctl.stats().violations_observed,
                "throttles": ctl.stats().throttles,
                "resumes": ctl.stats().resumes,
            });
            let rendered = serde_json::to_string_pretty(&cell.get()).unwrap();
            assert_eq!(
                rendered,
                serde_json::to_string_pretty(&eager).unwrap(),
                "tick {}",
                observation.tick
            );
            whole_floats += rendered.matches(".0,").count();
        }
        let stats = ctl.stats();
        assert!(stats.throttles > 0 && stats.violations_observed > 0);
        assert!(whole_floats > 0, "no whole-valued float was ever rendered");
    }

    #[test]
    fn recorder_bound_is_the_event_bound_and_drops_are_counted() {
        let scenario = Scenario::vlc_with_cpubomb(29);
        let mut h = scenario.build_harness().unwrap();
        let rec = FlightRecorder::bounded(0, "run", 8);
        let mut ctl = recorded_controller(&h, &rec);
        h.run(&mut ctl, 400);
        assert!(rec.len() <= 8);
        let stats = ctl.stats();
        assert!(
            stats.events_dropped > 0,
            "a 400-tick CPUBomb run must overflow an 8-event ring"
        );
        assert_eq!(stats.events_dropped, rec.dropped());
        // The retained suffix is still tick-ordered.
        let ticks: Vec<u64> = rec.events().iter().map(|e| e.tick).collect();
        assert!(ticks.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn without_a_recorder_no_events_are_retained_or_dropped() {
        let scenario = Scenario::vlc_with_cpubomb(29);
        let mut h = scenario.build_harness().unwrap();
        let mut ctl = default_controller(&h);
        h.run(&mut ctl, 400);
        let stats = ctl.stats();
        assert!(stats.throttles > 0);
        assert_eq!(stats.events_dropped, 0);
        // The first throttle is still known: it never lived in a ring.
        assert!(ctl.first_throttle().is_some());
    }

    #[test]
    fn determinism_same_seed_same_decisions() {
        let run = || {
            let scenario = Scenario::vlc_with_twitter(3);
            let mut h = scenario.build_harness().unwrap();
            let mut ctl = default_controller(&h);
            let out = h.run(&mut ctl, 150);
            (out, ctl.stats())
        };
        let (o1, s1) = run();
        let (o2, s2) = run();
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn beta_grows_under_persistent_contention() {
        // CPUBomb never phase-changes, so optimistic resumes re-violate and
        // β should be incremented at least once over a long run.
        let scenario = Scenario::vlc_with_cpubomb(31);
        let mut h = scenario.build_harness().unwrap();
        let rec = FlightRecorder::for_scope(0, "run");
        let mut ctl = recorded_controller(&h, &rec);
        h.run(&mut ctl, 400);
        let increases = rec
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::BetaChange)
            .count();
        assert!(
            ctl.beta() > 0.01 || increases == 0,
            "beta accessor inconsistent with events"
        );
    }
}
