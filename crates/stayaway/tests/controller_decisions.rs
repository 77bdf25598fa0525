//! The controller's decisions as its flight-recorder stream and its actions
//! show them, whole periods at a time (the act stage alone is
//! `act_stage.rs`):
//!
//! - every `throttle` event names a cause that is in the stream and is a
//!   `predictor-verdict` or an `slo-violation`, over the simulator's paper
//!   co-locations, every prediction plane and both violation detectors;
//! - under arbitrary observations carrying several sensitive containers
//!   with priorities, no `Pause` ever targets a sensitive container of the
//!   top priority (§2.1) — the observation the action answers decides
//!   which one that is.

use proptest::prelude::*;
use stayaway_core::aggregate::is_protected;
use stayaway_core::{
    Controller, ControllerConfig, Observability, PredictorKind, ViolationDetection,
};
use stayaway_obs::{EventKind, FlightRecorder};
use stayaway_sim::scenario::Scenario;
use stayaway_telemetry::{
    Action, AppClass, ContainerId, ContainerObs, HostSpec, Observation, Policy, ResourceVector,
};

const COLOCATIONS: [&str; 4] = [
    "vlc+cpu-bomb",
    "vlc+soplex",
    "web-mem+twitter-analysis",
    "web-mix+soplex",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_throttle_names_a_verdict_or_violation_in_the_stream(
        colocation in prop::sample::select(COLOCATIONS.to_vec()),
        predictor in prop::sample::select(PredictorKind::ALL.to_vec()),
        ipc_inferred in any::<bool>(),
        seed in 0u64..1_000,
        ticks in 150u64..400,
    ) {
        let scenario = Scenario::parse(colocation, seed).expect("a paper co-location");
        let mut harness = scenario.build_harness().expect("scenario builds");
        let config = ControllerConfig {
            predictor,
            violation_detection: if ipc_inferred {
                ViolationDetection::IpcInferred { threshold: 0.95 }
            } else {
                ViolationDetection::AppReported
            },
            seed,
            ..ControllerConfig::default()
        };
        let rec = FlightRecorder::for_scope(0, "run");
        let obs = Observability::disabled().with_recorder(rec.clone());
        let mut ctl = Controller::for_host_observed(config, harness.host().spec(), obs)
            .expect("valid config");
        harness.run(&mut ctl, ticks);
        prop_assert_eq!(rec.dropped(), 0, "the ring must hold the whole run");

        let events = rec.events();
        let throttles: Vec<_> = events.iter().filter(|e| e.kind == EventKind::Throttle).collect();
        prop_assert_eq!(throttles.len() as u64, ctl.stats().throttles);
        for throttle in throttles {
            let cause = throttle.cause;
            let named = cause.and_then(|id| events.iter().find(|e| e.id() == id));
            let Some(named) = named else {
                return Err(TestCaseError::fail(format!(
                    "throttle at tick {} names {cause:?}, not an event of the stream",
                    throttle.tick
                )));
            };
            prop_assert!(
                matches!(named.kind, EventKind::PredictorVerdict | EventKind::SloViolation),
                "throttle at tick {} caused by a {}",
                throttle.tick,
                named.kind
            );
            prop_assert!(named.tick <= throttle.tick);
        }
    }

    #[test]
    fn no_pause_targets_a_top_priority_sensitive_container(
        priorities in prop::collection::vec(0u8..3, 2..4),
        batch in 1usize..3,
        ticks in prop::collection::vec(tick(), 60..160),
    ) {
        let containers = priorities.len() + batch;
        let mut ctl = Controller::for_host(ControllerConfig::default(), &HostSpec::default())
            .expect("default config");
        for (t, draw) in ticks.iter().enumerate() {
            let observation = observe(t as u64, &priorities, containers, draw);
            for action in ctl.decide(&observation) {
                let Action::Pause(id) = action else { continue };
                let target = observation.containers.iter().find(|c| c.id == id);
                prop_assert!(
                    !target.is_some_and(|c| is_protected(&observation, c)),
                    "tick {t}: paused top-priority sensitive {id:?} in {observation:?}"
                );
            }
        }
        // A third of the periods report a violation: the controller acts.
        prop_assert!(ctl.stats().throttles > 0, "the controller never throttled");
    }
}

/// One container's draw for one tick: CPU and memory as shares of the
/// host, and its flags.
#[derive(Debug, Clone)]
struct ContainerDraw {
    cpu: f64,
    memory: f64,
    active: bool,
    paused: bool,
    finished: bool,
}

/// One tick's draw: up to five containers and the violation flag.
#[derive(Debug, Clone)]
struct TickDraw {
    containers: Vec<ContainerDraw>,
    violated: bool,
}

fn tick() -> impl Strategy<Value = TickDraw> {
    let container = (0.0..1.0f64, 0.0..1.0f64, 0u8..10, 0u8..10, 0u8..20).prop_map(
        |(cpu, memory, active, paused, finished)| ContainerDraw {
            cpu,
            memory,
            active: active != 0,
            paused: paused == 0,
            finished: finished == 0,
        },
    );
    (prop::collection::vec(container, 5), 0u8..3).prop_map(|(containers, v)| TickDraw {
        containers,
        violated: v == 0,
    })
}

/// The observation of tick `tick`: sensitive containers `0..priorities.len()`
/// at those priorities, batch containers after them up to `containers`.
fn observe(tick: u64, priorities: &[u8], containers: usize, draw: &TickDraw) -> Observation {
    let spec = HostSpec::default();
    let containers = (0..containers)
        .map(|i| {
            let d = &draw.containers[i];
            let sensitive = i < priorities.len();
            ContainerObs {
                id: ContainerId::from_raw(i),
                name: format!("c{i}"),
                class: if sensitive {
                    AppClass::Sensitive
                } else {
                    AppClass::Batch
                },
                active: d.active && !d.paused && !d.finished,
                paused: d.paused,
                finished: d.finished,
                usage: ResourceVector::new(
                    d.cpu * spec.cpu_cores,
                    d.memory * spec.ram_mb,
                    0.0,
                    0.0,
                    0.0,
                    0.0,
                ),
                ipc: 1.0,
                priority: if sensitive { priorities[i] } else { 0 },
            }
        })
        .collect();
    Observation {
        tick,
        containers,
        qos_violation: draw.violated,
        qos_value: if draw.violated { 0.5 } else { 1.0 },
    }
}
