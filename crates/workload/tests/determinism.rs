//! Workload-engine determinism: the simulated timeline is a pure function
//! of `(scenario, seed)` — same seed means bit-identical event order,
//! latency quantiles and byte-identical JSON, whatever drives the loop.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stayaway_telemetry::{drive, Action, NullPolicy, Observation, ObservationSource, Policy};
use stayaway_workload::{
    bench_scenario, by_name, library, ArrivalProcess, WorkloadHost, WorkloadScenario,
};

/// Drives `ticks` control ticks by hand, capturing every observation as
/// its JSON encoding (the byte-level contract traces and the fleet rely
/// on).
fn drive_json(
    name: &str,
    seed: u64,
    ticks: u64,
    policy: &mut dyn Policy,
) -> (WorkloadHost, Vec<String>) {
    let mut source = WorkloadHost::new(by_name(name).unwrap(), seed).unwrap();
    let mut stream = Vec::with_capacity(ticks as usize);
    for _ in 0..ticks {
        let obs: Observation = source.next_observation().unwrap().unwrap();
        let actions = policy.decide(&obs);
        source.apply(&actions);
        stream.push(serde_json::to_string(&obs).expect("observation encodes"));
    }
    (source, stream)
}

/// Pauses every unpaused batch container it sees (maximal actuation — the
/// policy that exercises freeze/resume bookkeeping hardest).
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
fn same_seed_is_bit_identical() {
    for scenario in ["memcached-like", "cpu-bomb", "multi-tenant-storm"] {
        let (a, json_a) = drive_json(scenario, 7, 40, &mut NullPolicy::new());
        let (b, json_b) = drive_json(scenario, 7, 40, &mut NullPolicy::new());
        assert_eq!(a.timeline_digest(), b.timeline_digest(), "{scenario}");
        assert_eq!(json_a, json_b, "{scenario}");
        assert_eq!(a.totals(), b.totals(), "{scenario}");
        assert_eq!(a.latency(), b.latency(), "{scenario}");
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(
                a.latency().quantile_ms(q).to_bits(),
                b.latency().quantile_ms(q).to_bits(),
                "{scenario} p{q}"
            );
        }
    }
}

#[test]
fn determinism_holds_under_actuation() {
    // Freeze/resume bookkeeping (generation bumps, remaining-time carry)
    // must be as reproducible as the idle path.
    let (a, json_a) = drive_json("cpu-bomb", 11, 40, &mut PauseAll);
    let (b, json_b) = drive_json("cpu-bomb", 11, 40, &mut PauseAll);
    assert_eq!(a.timeline_digest(), b.timeline_digest());
    assert_eq!(json_a, json_b);
}

#[test]
fn different_seeds_diverge() {
    let (a, _) = drive_json("cpu-bomb", 1, 40, &mut NullPolicy::new());
    let (b, _) = drive_json("cpu-bomb", 2, 40, &mut NullPolicy::new());
    assert_ne!(a.timeline_digest(), b.timeline_digest());
    assert_ne!(a.totals().arrivals, b.totals().arrivals);
}

#[test]
fn every_library_scenario_is_reproducible() {
    for name in library().into_iter().map(|s| s.name) {
        let row_a =
            bench_scenario(&by_name(&name).unwrap(), &mut NullPolicy::new(), 5, 25).unwrap();
        let row_b =
            bench_scenario(&by_name(&name).unwrap(), &mut NullPolicy::new(), 5, 25).unwrap();
        assert_eq!(row_a, row_b, "{name}");
        // Every library entry survives a drive and generates load.
        assert_eq!(row_a.ticks, 25, "{name}");
        assert!(row_a.requests > 0, "{name}");
        // The CLI contract is byte-identical JSON (float rendering
        // included).
        assert_eq!(
            serde_json::to_string(&row_a).unwrap(),
            serde_json::to_string(&row_b).unwrap(),
            "{name}"
        );
    }
}

#[test]
fn open_loop_arrivals_are_policy_independent() {
    let (idle, _) = drive_json("multi-tenant-storm", 3, 30, &mut NullPolicy::new());
    let (throttled, _) = drive_json("multi-tenant-storm", 3, 30, &mut PauseAll);
    assert_eq!(idle.totals().arrivals, throttled.totals().arrivals);
    // Freezing the batch tenants can only reduce their completed work.
    assert!(throttled.batch_work() <= idle.batch_work());
}

#[test]
fn driving_through_the_telemetry_loop_matches_the_manual_loop() {
    // `drive` (the production loop) and the hand-rolled loop above must
    // see the same engine: the digest depends only on (scenario, seed,
    // policy decisions).
    let mut driven = WorkloadHost::new(by_name("flash-crowd").unwrap(), 13).unwrap();
    drive(&mut driven, &mut NullPolicy::new(), 30).unwrap();
    let (manual, _) = drive_json("flash-crowd", 13, 30, &mut NullPolicy::new());
    assert_eq!(driven.timeline_digest(), manual.timeline_digest());
}

/// A valid arrival process built from fuzz inputs.
fn arbitrary_process(kind: u8, a: f64, b: f64, c: f64, d: f64) -> ArrivalProcess {
    match kind % 4 {
        0 => ArrivalProcess::Poisson { rps: a },
        1 => ArrivalProcess::Diurnal {
            base_rps: a.min(b),
            peak_rps: a.max(b),
            period_secs: 10.0 + c,
        },
        2 => ArrivalProcess::FlashCrowd {
            base_rps: a,
            burst_rps: b,
            period_secs: 10.0 + c + d,
            burst_secs: 1.0 + c / 2.0,
        },
        _ => ArrivalProcess::OnOff {
            on_rps: a,
            on_secs: 1.0 + c,
            off_secs: 1.0 + d,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Inter-arrival sampling always advances time by a finite, positive
    /// gap — no zero-step livelock, no overflow stall — for every process
    /// shape and any seed.
    #[test]
    fn inter_arrivals_are_finite_positive_and_advance(
        kind in 0u8..4,
        a in 0.5f64..2000.0,
        b in 0.5f64..2000.0,
        c in 0.1f64..50.0,
        d in 0.1f64..50.0,
        seed in 0u64..1_000,
    ) {
        let process = arbitrary_process(kind, a, b, c, d);
        process.validate().expect("generated process is valid");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now = 0u64;
        for _ in 0..200 {
            let next = process.next_arrival_ns(now, &mut rng);
            prop_assert!(next > now, "arrival must strictly advance: {next} <= {now}");
            now = next;
        }
    }

    /// Library scenarios survive a serde round-trip bit-for-bit, even
    /// with their tunables perturbed — the declarative spec is the
    /// durable interchange format.
    #[test]
    fn perturbed_scenarios_round_trip_through_serde(
        which in 0usize..7,
        deadline in 1.0f64..100.0,
        rate_scale in 0.25f64..4.0,
    ) {
        let mut scenario = library().swap_remove(which);
        scenario.slo.deadline_ms = deadline;
        if let ArrivalProcess::Poisson { rps } = &mut scenario.tenants[0].arrival {
            *rps *= rate_scale;
        }
        let text = serde_json::to_string(&scenario).unwrap();
        let back: WorkloadScenario = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(&back, &scenario);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }
}
