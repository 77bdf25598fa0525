//! Robustness of the Stay-Away controller under injected faults: sensor
//! dropouts and actuation failures, injected at the substrate by
//! `FaultySource`, must degrade the protection gracefully, not
//! catastrophically — on the simulator and on the request-driven workload
//! engine. Also the wrapper's own contract: transparent at rate 0, seeded
//! and counted otherwise, a typed error for a rate that is no probability.

use stay_away::baselines::{AlwaysThrottle, NoPrevention};
use stay_away::core::{Controller, ControllerConfig};
use stay_away::sim::scenario::Scenario;
use stay_away::sim::Harness;
use stay_away::telemetry::{
    drive, step, Action, FaultySource, HostSpec, NullPolicy, Observation, ObservationSource,
    Policy, RecordingSource, RunOutcome, SourceMeta, TelemetryError, TickRecord, TraceSource,
};
use stay_away::workload::{by_name, WorkloadHost};

const TICKS: u64 = 300;

fn controller(spec: &HostSpec) -> Controller {
    Controller::for_host(ControllerConfig::default(), spec).expect("controller")
}

fn sim(scenario: &Scenario) -> Harness {
    scenario.build_harness().expect("harness")
}

/// Runs the default controller over `source` wrapped in a `FaultySource`.
fn faulty_run<S: ObservationSource>(
    source: S,
    dropout: f64,
    failure: f64,
    seed: u64,
) -> (RunOutcome, Controller, FaultySource<S>) {
    let mut ctl = controller(&source.meta().host.expect("host spec"));
    let mut faulty = FaultySource::new(source, dropout, failure, seed).expect("rates");
    let out = drive(&mut faulty, &mut ctl, TICKS).expect("run");
    (out, ctl, faulty)
}

/// Lost pauses and resumes the controller has re-issued so far.
fn reissued(ctl: &Controller) -> u64 {
    ctl.metrics()
        .counters
        .iter()
        .find(|c| c.name == "stayaway_controller_reissued_actions_total")
        .map_or(0, |c| c.value)
}

#[test]
fn survives_sensor_dropout() {
    let scenario = Scenario::vlc_with_cpubomb(61);
    let baseline = sim(&scenario).run(&mut NoPrevention::new(), TICKS);

    // 10% of ticks the stats read fails and the controller sees zeros.
    let (out, ctl, faulty) = faulty_run(sim(&scenario), 0.10, 0.0, 99);

    assert!(faulty.dropped_observations() > 10);
    assert!(
        out.qos.violations * 3 <= baseline.qos.violations,
        "dropout defeated the controller: {} vs {}",
        out.qos.violations,
        baseline.qos.violations
    );
    // The controller never crashed out of its pipeline.
    assert_eq!(ctl.stats().mapping_errors, 0);
}

/// A third of the SIGSTOP/SIGCONT batches never arrive. Measured: 22
/// violations against 235 without prevention and 17 fault-free; 19–31
/// over wrapper seeds 2–9, 99 and 100. Before the act stage re-issued lost
/// actions, a lost pause left it "throttling" a running bomb and a lost
/// resume froze the batch for good.
#[test]
fn survives_actuation_failures() {
    let scenario = Scenario::vlc_with_cpubomb(62);
    let baseline = sim(&scenario).run(&mut NoPrevention::new(), TICKS);

    let (out, ctl, faulty) = faulty_run(sim(&scenario), 0.0, 0.33, 100);

    assert!(
        out.qos.violations * 8 <= baseline.qos.violations,
        "actuation faults defeated the controller: {} vs {}",
        out.qos.violations,
        baseline.qos.violations
    );
    // Every swallowed batch here held one action, re-issued a period later.
    assert_eq!(reissued(&ctl), faulty.dropped_actions());
}

#[test]
fn combined_faults_still_beat_no_prevention() {
    let scenario = Scenario::vlc_with_twitter(63);
    let baseline = sim(&scenario).run(&mut NoPrevention::new(), TICKS);

    let (out, _, _) = faulty_run(sim(&scenario), 0.05, 0.15, 101);
    assert!(
        out.qos.violations < baseline.qos.violations / 2,
        "combined faults: {} vs {}",
        out.qos.violations,
        baseline.qos.violations
    );
}

/// The request-driven engine under 10 % dropout and 15 % actuation
/// failure. Measured: 4 violating ticks of 300 against 300 without
/// prevention (4 fault-free), a sensitive SLO miss rate of 0.011 against
/// 0.997; 1–5 ticks over wrapper seeds 1–7.
#[test]
fn faulty_workload_engine_still_beats_no_prevention() {
    let host = || WorkloadHost::new(by_name("cpu-bomb").unwrap(), 7).unwrap();
    let mut null_host = host();
    let baseline = drive(&mut null_host, &mut NullPolicy::new(), TICKS).unwrap();
    let null_misses = null_host.request_qos().unwrap().slo_violation_rate;

    let (out, ctl, faulty) = faulty_run(host(), 0.10, 0.15, 102);

    assert!(faulty.dropped_observations() > 10);
    assert!(
        out.qos.violations * 20 <= baseline.qos.violations,
        "faults defeated the controller on the engine: {} vs {}",
        out.qos.violations,
        baseline.qos.violations
    );
    let misses = faulty.request_qos().unwrap().slo_violation_rate;
    assert!(misses * 20.0 <= null_misses, "{misses} vs {null_misses}");
    assert_eq!(ctl.stats().mapping_errors, 0);
}

/// Forwards to the wrapped source but loses the first action batch that
/// pauses and the first that resumes, each while armed: one SIGSTOP and
/// one SIGCONT that never arrive.
struct LoseFirst<S> {
    inner: S,
    pause_armed: bool,
    resume_armed: bool,
    swallowed: bool,
}

impl<S: ObservationSource> ObservationSource for LoseFirst<S> {
    fn meta(&self) -> SourceMeta {
        self.inner.meta()
    }

    fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError> {
        self.inner.next_observation()
    }

    fn apply(&mut self, actions: &[Action]) -> Result<u64, TelemetryError> {
        let pauses = actions.iter().any(|a| matches!(a, Action::Pause(_)));
        let resumes = actions.iter().any(|a| matches!(a, Action::Resume(_)));
        self.swallowed = (pauses && self.pause_armed) || (resumes && self.resume_armed);
        if self.swallowed {
            self.pause_armed &= !pauses;
            self.resume_armed &= !resumes;
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
}

/// One lost pause and one lost resume, on vlc + CPUBomb, cost nothing once
/// the act stage checks its record against the observed `paused` flags.
/// Measured: losing both gives 18 violations against 17 fault-free (65
/// before the re-issue: the stage "throttled" a running bomb until an
/// optimistic resume fired); losing only the first resume gives batch work
/// 8.5 against 8.5 (0.5 before: the bomb stayed frozen for good).
#[test]
fn one_lost_pause_and_one_lost_resume_are_reissued() {
    let scenario = Scenario::vlc_with_cpubomb(62);
    let clean = sim(&scenario).run(&mut controller(sim(&scenario).host().spec()), TICKS);
    for pause_armed in [true, false] {
        let mut lossy = LoseFirst {
            inner: sim(&scenario),
            pause_armed,
            resume_armed: true,
            swallowed: false,
        };
        let mut ctl = controller(sim(&scenario).host().spec());
        let out = drive(&mut lossy, &mut ctl, TICKS).unwrap();
        assert!(!lossy.pause_armed && !lossy.resume_armed);
        assert_eq!(reissued(&ctl), 1 + pause_armed as u64);
        assert!(
            out.qos.violations <= clean.qos.violations + 3,
            "a lost pause let the bomb run: {} violations, {} fault-free",
            out.qos.violations,
            clean.qos.violations
        );
        assert!(
            out.batch_work >= 0.9 * clean.batch_work,
            "a lost resume froze the batch: work {} against {}",
            out.batch_work,
            clean.batch_work
        );
    }
}

/// Batch work over `ticks` of vlc + CPUBomb, and the violations after the
/// swap, when a fresh controller replaces the running one at the first
/// tick the batch is shown paused (`restart`), or when none does.
fn restart_run(seed: u64, ticks: u64, restart: bool) -> (f64, f64, u64) {
    let mut h = sim(&Scenario::vlc_with_cpubomb(seed));
    let mut ctl = controller(h.host().spec());
    let (mut swap, mut violations) = (None, 0);
    for _ in 0..ticks {
        let (record, _) = step(&mut h, &mut ctl).unwrap().expect("live source");
        if swap.is_some() {
            violations += record.violated as u64;
        } else if record.batch_paused > 0 {
            swap = Some(h.batch_work());
            if restart {
                ctl = controller(h.host().spec());
            }
        }
    }
    let at_swap = swap.expect("the batch was paused");
    (at_swap, h.batch_work() - at_swap, violations)
}

/// A controller that restarts while the batch is paused resumes the pause
/// it inherited: the observation shows it paused, and the fresh act stage
/// neither paused it nor resumed it. Measured on 600 ticks: seed 62 does
/// 11.50 batch work after the swap with 23 violations, restarted or not
/// (0.00 work and no violations when the fresh controller left the
/// inherited pause in place).
#[test]
fn a_restarted_controller_resumes_the_pause_it_inherited() {
    for seed in [62, 61, 7] {
        let (at, whole, whole_violations) = restart_run(seed, 600, false);
        let (at_restart, restarted, violations) = restart_run(seed, 600, true);
        assert_eq!(at, at_restart, "the runs agree up to the swap");
        println!(
            "seed {seed}: batch work after the swap {restarted:.2} restarted, \
             {whole:.2} whole; violations {violations} against {whole_violations}"
        );
        assert!(
            restarted >= 0.9 * whole,
            "the inherited pause froze the batch: work {restarted} against {whole}"
        );
    }
}

/// Delegates to the wrapped policy and keeps every observation it saw.
struct Tape<P> {
    inner: P,
    seen: Vec<Observation>,
}

impl<P: Policy> Policy for Tape<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, observation: &Observation) -> Vec<Action> {
        self.seen.push(observation.clone());
        self.inner.decide(observation)
    }
}

/// The bare source's run and the zero-rate wrapper's run see the same
/// observations and end in the same outcome.
fn assert_transparent<S: ObservationSource>(build: impl Fn() -> S, ticks: u64) {
    let run = |source: &mut dyn ObservationSource| {
        let mut tape = Tape {
            inner: controller(&source.meta().host.expect("host spec")),
            seen: Vec::new(),
        };
        let out = drive(source, &mut tape, ticks).unwrap();
        (out, tape.seen)
    };
    let (bare, bare_seen) = run(&mut build());
    let mut faulty = FaultySource::new(build(), 0.0, 0.0, 7).unwrap();
    let (wrapped, wrapped_seen) = run(&mut faulty);
    assert_eq!(wrapped, bare);
    assert_eq!(wrapped_seen, bare_seen);
    assert!(bare.timeline.iter().any(|r| r.actions > 0), "nothing acted");
    assert_eq!(
        (faulty.dropped_observations(), faulty.dropped_actions()),
        (0, 0)
    );
}

#[test]
fn zero_rates_are_transparent_on_every_substrate() {
    let scenario = Scenario::vlc_with_cpubomb(1);
    assert_transparent(|| sim(&scenario), 200);
    assert_transparent(
        || WorkloadHost::new(by_name("cpu-bomb").unwrap(), 3).unwrap(),
        200,
    );
    let mut tee = RecordingSource::new(sim(&scenario), Vec::new()).unwrap();
    drive(&mut tee, &mut NoPrevention::new(), 200).unwrap();
    let (_, trace) = tee.finish().unwrap();
    assert_transparent(|| TraceSource::new(trace.as_slice()).unwrap(), 1_000);
}

/// Pauses and resumes the batch containers on alternating ticks, so
/// every tick carries actions for the wrapper to swallow.
struct ToggleBatch {
    tick: u64,
}

impl Policy for ToggleBatch {
    fn name(&self) -> &str {
        "toggle-batch"
    }

    fn decide(&mut self, observation: &Observation) -> Vec<Action> {
        self.tick += 1;
        let pause = self.tick.is_multiple_of(2);
        observation
            .batch()
            .map(|c| {
                if pause {
                    Action::Pause(c.id)
                } else {
                    Action::Resume(c.id)
                }
            })
            .collect()
    }
}

#[test]
fn faults_are_counted_and_deterministic() {
    let run = |seed: u64| {
        let scenario = Scenario::vlc_with_cpubomb(2);
        let mut faulty = FaultySource::new(sim(&scenario), 0.3, 0.3, seed).unwrap();
        let out = drive(&mut faulty, &mut ToggleBatch { tick: 0 }, 100).unwrap();
        (out, faulty.dropped_observations(), faulty.dropped_actions())
    };
    let (o1, d1, a1) = run(5);
    let (o2, d2, a2) = run(5);
    assert_eq!(o1, o2);
    assert_eq!((d1, a1), (d2, a2));
    assert!(d1 > 10, "expected ~30 dropped observations, got {d1}");
    assert!(a1 > 10, "expected ~30 dropped action batches, got {a1}");
    // A swallowed batch reaches the record as no action at all.
    let swallowed = o1.timeline.iter().filter(|r| r.actions == 0).count() as u64;
    assert_eq!(swallowed, a1);
    // Different seeds inject different faults.
    let (o3, _, _) = run(6);
    assert_ne!(o1, o3);
}

#[test]
fn action_failures_delay_but_do_not_defeat_always_throttle() {
    let scenario = Scenario::vlc_with_cpubomb(3);
    // Half the pause attempts fail, but the policy retries every tick.
    let mut faulty = FaultySource::new(sim(&scenario), 0.0, 0.5, 11).unwrap();
    let out = drive(&mut faulty, &mut AlwaysThrottle::new(), 150).unwrap();
    // The bomb is down by the end.
    assert!(out.timeline.last().unwrap().batch_paused > 0);
    assert!(out.qos.violations < 20);
}

#[test]
fn a_rate_outside_zero_to_one_is_a_typed_error() {
    let scenario = Scenario::vlc_with_cpubomb(0);
    for (dropout, failure) in [(1.5, 0.0), (0.0, -0.1), (f64::NAN, 0.0)] {
        let err = FaultySource::new(sim(&scenario), dropout, failure, 0).unwrap_err();
        assert!(matches!(err, TelemetryError::InvalidConfig { .. }), "{err}");
    }
}
