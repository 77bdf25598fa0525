//! The behaviour fence: the "shape holds?" predicates of EXPERIMENTS.md as
//! assertions.
//!
//! A change that moves map coordinates (the embedding, its gate, the
//! violation-range geometry) cannot be pinned bit for bit; what it must
//! keep is the shape the paper's figures show. Each test re-runs one bench
//! target's experiment — same scenario constructor, seed and horizon as
//! the `benches/<id>.rs` it names (the longer scenario lists are shared
//! definitions in `stayaway_bench::figures`), through the same
//! `stayaway_bench::{run, stayaway}` helpers — and asserts the predicate
//! EXPERIMENTS.md records for it. Thresholds sit below the numbers measured
//! when the fence was built; each test states that number and the margin.
//! The simulator is deterministic, so a failure is a behaviour change, not
//! noise: re-measure, and move a threshold only with the reason beside it.

use stayaway_bench::{
    paired_runs, prediction_accuracy_scenarios, run, stayaway, stress_elbow_scenarios,
    throttle_split,
};
use stayaway_core::{Controller, ControllerConfig, Observability};
use stayaway_mds::distance::DistanceMatrix;
use stayaway_mds::smacof::Smacof;
use stayaway_obs::FlightRecorder;
use stayaway_sim::apps::WebWorkload;
use stayaway_sim::scenario::{BatchKind, Scenario};

/// `fig07_gradual_transitions`: Twitter-Analysis's memory phase approaches
/// the violation state gradually, so some throttles can come from the
/// forecast instead of from an observed violation. Measured: 3 proactive,
/// 9 reactive. The shape is "at least one" — with none, every violation
/// was paid for first (the state of the tree before the map left its line).
#[test]
fn fig07_gradual_transitions_are_partially_preventable() {
    let scenario = Scenario::vlc_with_twitter(21);
    let recorder = FlightRecorder::for_scope(0, "fig07");
    let controller = Controller::for_host_observed(
        ControllerConfig::default(),
        scenario.host_spec(),
        Observability::disabled().with_recorder(recorder.clone()),
    )
    .expect("valid controller config");
    run(&scenario, controller, 300);
    let (proactive, reactive) = throttle_split(&recorder);
    assert!(
        proactive >= 1,
        "no throttle came from a forecast ({reactive} reactive)"
    );
}

/// The QoS-timeline predicate of `fig08` / `fig09`: Stay-Away leaves at
/// most a tenth of the unprotected run's violations and meets the
/// satisfaction floor.
fn assert_qos_shape(id: &str, scenario: &Scenario, ticks: u64, floor: f64) {
    let runs = paired_runs(scenario, ticks);
    let (without, with) = (&runs.baseline.qos, &runs.stayaway.outcome.qos);
    assert!(
        with.violations * 10 <= without.violations,
        "{id}: {} violations with Stay-Away, {} without",
        with.violations,
        without.violations
    );
    assert!(
        with.satisfaction() >= floor,
        "{id}: satisfaction {:.3} under the {floor} floor",
        with.satisfaction()
    );
}

/// `fig08_vlc_cpubomb_qos`. Measured: 312 violation ticks without, 19 with
/// (95.1 %). Floor 94 %: four more violations in 384 ticks.
#[test]
fn fig08_vlc_cpubomb_violations_are_cut_tenfold() {
    assert_qos_shape("fig08", &Scenario::vlc_with_cpubomb(8), 384, 0.94);
}

/// `fig09_vlc_twitter_qos`. Measured: 166 without, 9 with (97.7 %). Floor
/// 97 %: two more violations in 384 ticks.
#[test]
fn fig09_vlc_twitter_violations_are_cut_tenfold() {
    assert_qos_shape("fig09", &Scenario::vlc_with_twitter(9), 384, 0.97);
}

/// `fig11_util_twitter`: a phase-rich batch application keeps about half of
/// the utilisation gain an unprotected co-location would have (the paper's
/// "~50 %"). Measured: 45 % retained; the band is 40–60 %.
#[test]
fn fig11_twitter_keeps_about_half_of_its_possible_gain() {
    let scenario = Scenario::vlc_with_twitter(11);
    let runs = paired_runs(&scenario, 384);
    let cap = scenario.host_spec().cpu_cores;
    let retained = runs.stayaway.outcome.mean_gained_utilization(cap)
        / runs.baseline.mean_gained_utilization(cap);
    assert!(
        (0.40..=0.60).contains(&retained),
        "retained {retained:.3} of the possible gain"
    );
}

/// `fig14/15/16_qos_web_*`: high QoS for every batch application under
/// every webservice workload. Measured minimum over the 15 combinations:
/// 97.7 % (cpu workload + cpu-bomb); the floor is EXPERIMENTS.md's 96 %,
/// five more violations in 300 ticks.
#[test]
fn fig14_16_every_webservice_combination_stays_above_96_percent() {
    for (workload, seed) in [
        (WebWorkload::Mix, 14),
        (WebWorkload::CpuIntensive, 15),
        (WebWorkload::MemIntensive, 16),
    ] {
        for batch in BatchKind::ALL {
            let scenario = Scenario::webservice_with(workload, batch, seed);
            let out = run(
                &scenario,
                stayaway(&scenario, ControllerConfig::default()),
                300,
            )
            .outcome;
            assert!(
                out.qos.satisfaction() >= 0.96,
                "{}: satisfaction {:.3}",
                scenario.name(),
                out.qos.satisfaction()
            );
        }
    }
}

/// `claim_prediction_accuracy`: the verdict of each co-located forecast,
/// checked against the state actually reached. Measured: 100 % on the six
/// co-locations that check any prediction; `vlc+cpu-bomb` checks none and
/// scores 0 by the bench's rule, so the mean is 6/7 = 85.7 %. The 85 %
/// floor therefore trips when the checked co-locations' accuracy falls
/// under 99 % on average.
#[test]
fn claim_prediction_accuracy_stays_at_its_ceiling() {
    let scenarios = prediction_accuracy_scenarios();
    let sum: f64 = scenarios
        .iter()
        .map(|s| {
            let stats = run(s, stayaway(s, ControllerConfig::default()), 384).stats();
            stats.prediction_accuracy().unwrap_or(0.0)
        })
        .sum();
    let mean = sum / scenarios.len() as f64;
    assert!(mean >= 0.85, "mean prediction accuracy {mean:.3}");
}

/// `claim_2d_stress`: the elbow of §5 — going from one dimension to two
/// removes most of the stress of an exact solve of the learned states.
/// Measured 2-D / 1-D ratios: 0.10, 0.22, 0.27, 0.30, 0.32; the predicate
/// is "at most half" on every row. These are *cold* solves: they say two
/// dimensions are enough, not that the live map uses them — that is
/// `tests/map_quality.rs::live_map_tracks_a_cold_exact_solve`.
#[test]
fn claim_2d_stress_has_its_elbow_at_two_dimensions() {
    for scenario in &stress_elbow_scenarios() {
        let ctl = run(
            scenario,
            stayaway(scenario, ControllerConfig::default()),
            384,
        )
        .policy;
        let template = ctl.export_template("probe").expect("template");
        let vectors: Vec<Vec<f64>> = template.iter().map(|s| s.vector.clone()).collect();
        let dissim = DistanceMatrix::from_vectors(&vectors).expect("matrix");
        let stress_at = |dim: usize| {
            let solved = Smacof::new(dim).max_iterations(100).embed(&dissim);
            solved.expect("embeds").stress(&dissim).expect("stress")
        };
        let (flat, planar) = (stress_at(1), stress_at(2));
        assert!(
            planar <= 0.5 * flat,
            "{}: stress {flat:.4} in 1-D, {planar:.4} in 2-D",
            scenario.name()
        );
    }
}
