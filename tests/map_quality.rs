//! Quality of the mapped state space: the §3.1 properties the whole
//! mechanism rests on — violation/safe separation, map stability, and
//! faithful embedding of the measurement vectors.

use stay_away::core::aggregate::measurement_vector;
use stay_away::core::stages::{MapStage, Sensed};
use stay_away::core::{Controller, ControllerConfig, MappingMetrics, Observability};
use stay_away::fleet::derive_cell_seed;
use stay_away::mds::distance::DistanceMatrix;
use stay_away::mds::smacof::Smacof;
use stay_away::mds::Embedding;
use stay_away::obs::MetricsRegistry;
use stay_away::sim::apps::WebWorkload;
use stay_away::sim::scenario::{BatchKind, Scenario};
use stay_away::sim::{Action, Observation, Policy};
use stay_away::statespace::{ExecutionMode, Point2, StateKind};
use stay_away::telemetry::drive;

/// Observe-only recorder over the public map stage.
struct Recorder {
    map: MapStage,
    metrics: Vec<stay_away::sim::ResourceKind>,
    trail: Vec<(ExecutionMode, usize, Point2)>,
}

impl Policy for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }
    fn decide(&mut self, obs: &Observation) -> Vec<Action> {
        let mode = ExecutionMode::from_activity(obs.sensitive_active(), obs.batch_active());
        let sensed = Sensed {
            tick: obs.tick,
            mode,
            violated: false,
            raw: measurement_vector(obs, &self.metrics),
            rejected: 0,
        };
        if let Ok(mapped) = self.map.ingest(&sensed) {
            self.trail.push((mode, mapped.rep, mapped.point));
        }
        Vec::new()
    }
}

fn record(scenario: &Scenario, ticks: u64) -> Recorder {
    let mut harness = scenario.build_harness().expect("harness");
    let config = ControllerConfig {
        smacof_iterations: 20,
        max_states: 400,
        ..ControllerConfig::default()
    };
    let mut rec = Recorder {
        map: MapStage::new(&config, harness.host().spec(), MappingMetrics::default())
            .expect("map stage"),
        metrics: config.metrics,
        trail: Vec::new(),
    };
    harness.run(&mut rec, ticks);
    rec
}

/// Isolated execution and contended co-location must occupy distinct
/// regions of the map (the premise of violation-ranges).
#[test]
fn isolated_and_contended_states_separate() {
    let rec = record(&Scenario::vlc_with_cpubomb(41), 200);
    let centroid = |mode: ExecutionMode| -> Option<Point2> {
        let pts: Vec<Point2> = rec
            .trail
            .iter()
            .filter(|(m, _, _)| *m == mode)
            .map(|(_, _, p)| *p)
            .collect();
        if pts.is_empty() {
            return None;
        }
        Some(Point2::new(
            pts.iter().map(|p| p.x).sum::<f64>() / pts.len() as f64,
            pts.iter().map(|p| p.y).sum::<f64>() / pts.len() as f64,
        ))
    };
    let iso = centroid(ExecutionMode::SensitiveOnly).expect("isolated states exist");
    let co = centroid(ExecutionMode::CoLocated).expect("co-located states exist");
    assert!(
        iso.distance(co) > 0.1,
        "modes indistinguishable: {iso} vs {co}"
    );
}

/// The paper's four co-locations, under the seeds ISSUE 19 measured.
fn paper_colocations() -> [Scenario; 4] {
    [
        Scenario::vlc_with_cpubomb(41),
        Scenario::vlc_with_twitter(42),
        Scenario::vlc_with_soplex(43),
        Scenario::vlc_transcode_with_cpubomb(44),
    ]
}

/// The two webservice co-locations: maps whose intrinsic 2-D stress sits
/// above the column budget, so a perfectly placed state still misfits —
/// the maps the outcome gate on global solves changes.
fn floor_bound_colocations() -> [Scenario; 2] {
    [
        Scenario::webservice_with(WebWorkload::MemIntensive, BatchKind::TwitterAnalysis, 45),
        Scenario::webservice_with(WebWorkload::Mix, BatchKind::Soplex, 46),
    ]
}

/// The dissimilarities the stage's map is meant to reproduce.
fn dissimilarities(map: &MapStage) -> DistanceMatrix {
    let vectors: Vec<Vec<f64>> = (0..map.repr_count())
        .map(|i| map.normalized_vector(i).to_vec())
        .collect();
    DistanceMatrix::from_vectors(&vectors).expect("matrix")
}

/// Share of the layout's variance off its principal axis: the smaller
/// eigenvalue of the 2 × 2 coordinate covariance over the trace. Exactly
/// 0.0 for a collinear layout.
fn off_axis_share(e: &Embedding) -> f64 {
    let n = e.len() as f64;
    let c = e.centroid();
    let (mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0);
    for p in e.iter() {
        let (dx, dy) = (p[0] - c[0], p[1] - c[1]);
        sxx += dx * dx / n;
        syy += dy * dy / n;
        sxy += dx * dy / n;
    }
    let trace = sxx + syy;
    let minor = 0.5 * (trace - ((sxx - syy).powi(2) + 4.0 * sxy * sxy).sqrt());
    minor / trace
}

/// The incremental embedding must stay faithful to the high-dimensional
/// dissimilarities (low stress) even after hundreds of insertions — on
/// every co-location of the paper, not only the phase-rich one.
#[test]
fn incremental_embedding_keeps_low_stress() {
    let mut most_states = 0;
    for scenario in paper_colocations() {
        let rec = record(&scenario, 300);
        most_states = most_states.max(rec.map.repr_count());
        let stress = rec
            .map
            .embedding()
            .expect("embedding exists")
            .stress(&dissimilarities(&rec.map))
            .expect("stress");
        assert!(
            stress < 0.15,
            "{}: embedding too distorted: stress {stress:.3}",
            scenario.name()
        );
    }
    assert!(most_states >= 10, "too few states to judge ({most_states})");
}

/// The live map against an exact solve of the same representatives: the
/// single-point placement and its gates may cost at most 0.03 of stress-1
/// (measured worst case 0.019, on a 4-state map), at the end of a
/// cold-start cell (384 periods) and on a formed map (3 000) — and on the
/// formed webservice maps, whose misfits the outcome gate places without
/// a solve — and the live layout must use both of its dimensions whenever
/// the exact one does. A map grown from one point by same-direction start
/// offsets failed both by 0.11–0.39: it never left the line its first two
/// points span.
#[test]
fn live_map_tracks_a_cold_exact_solve() {
    let vlc = paper_colocations().map(|s| (s, &[384, 3_000][..]));
    let webservice = floor_bound_colocations().map(|s| (s, &[3_000][..]));
    for (scenario, periods) in vlc.into_iter().chain(webservice) {
        for &ticks in periods {
            let rec = record(&scenario, ticks);
            let dissim = dissimilarities(&rec.map);
            let live = rec.map.embedding().expect("embedding exists");
            let cold = Smacof::new(2).embed(&dissim).expect("cold solve");
            let (live_stress, cold_stress) = (
                live.stress(&dissim).expect("stress"),
                cold.stress(&dissim).expect("stress"),
            );
            let at = format!(
                "{} @ {ticks} ({} states)",
                scenario.name(),
                rec.map.repr_count()
            );
            assert!(
                live_stress <= cold_stress + 0.03,
                "{at}: live stress {live_stress:.4} vs cold {cold_stress:.4}"
            );
            let (live_2d, cold_2d) = (off_axis_share(live), off_axis_share(&cold));
            assert!(
                cold_2d < 1e-3 || live_2d > 0.1 * cold_2d,
                "{at}: live map is a line (off-axis share {live_2d:.2e} vs cold {cold_2d:.2e})"
            );
            println!(
                "{at}: stress live {live_stress:.4} cold {cold_stress:.4}, \
                 off-axis live {live_2d:.3} cold {cold_2d:.3}"
            );
        }
    }
}

/// What became of every new state on the four co-locations of the
/// ledger's `host-steady` workload (its first set under seed 3: the same
/// scenarios, cell seeds and controller configuration) over its 3 000
/// warm-up and 5 000 timed periods: `(states, placed, solved, skipped)` —
/// fitted and kept, re-laid by a global solve, or placed without one
/// because the solves before it were futile. Exact counts, so they cannot
/// flake; they fence the outcome gate's saving: without the gate the same
/// runs solved 4 / 25 / 93 / 52 times (DESIGN.md §6).
#[test]
fn host_steady_solve_counts_are_pinned() {
    let co_locations: [fn(u64) -> Scenario; 4] = [
        Scenario::vlc_with_cpubomb,
        Scenario::vlc_with_twitter,
        |seed| {
            Scenario::webservice_with(WebWorkload::MemIntensive, BatchKind::TwitterAnalysis, seed)
        },
        |seed| Scenario::webservice_with(WebWorkload::Mix, BatchKind::Soplex, seed),
    ];
    let mut counted = Vec::new();
    for (index, scenario) in co_locations.iter().enumerate() {
        let seed = derive_cell_seed(3, index as u64);
        let mut harness = scenario(seed).into_harness().expect("harness");
        let registry = MetricsRegistry::new();
        let config = ControllerConfig {
            seed,
            ..ControllerConfig::default()
        };
        let mut ctl = Controller::for_host_observed(
            config,
            harness.host().spec(),
            Observability::enabled(registry.clone()),
        )
        .expect("controller");
        drive(&mut harness, &mut ctl, 8_000).expect("run");
        let snapshot = registry.snapshot();
        let count = |name: &str| {
            let c = snapshot.counters.iter().find(|c| c.name == name);
            c.unwrap_or_else(|| panic!("{name} registered")).value
        };
        let (placed, solved, skipped) = (
            count("stayaway_mapping_placements_total"),
            count("stayaway_mapping_smacof_runs_total"),
            count("stayaway_mapping_solves_skipped_total"),
        );
        let states = ctl.stats().states as u64;
        assert_eq!(
            placed + solved + skipped,
            states,
            "{}",
            scenario(seed).name()
        );
        counted.push((states, placed, solved, skipped));
    }
    assert_eq!(
        counted,
        [
            (28, 24, 4, 0),
            (128, 102, 20, 6),
            (150, 60, 34, 56),
            (120, 68, 35, 17),
        ]
    );
}

/// Repeated visits to the same regime map to the same representative — the
/// dedup invariant the trajectory model relies on.
#[test]
fn recurring_regimes_reuse_representatives() {
    let rec = record(&Scenario::vlc_with_cpubomb(43), 300);
    // Far fewer representatives than ticks.
    assert!(
        rec.map.repr_count() * 3 < rec.trail.len(),
        "{} reps for {} ticks — dedup ineffective",
        rec.map.repr_count(),
        rec.trail.len()
    );
    // At least one representative is visited many times.
    let mut visits = vec![0usize; rec.map.repr_count()];
    for (_, rep, _) in &rec.trail {
        visits[*rep] += 1;
    }
    assert!(visits.iter().any(|&v| v > 10));
}

/// The controller's violation-states must lie in the co-located region,
/// not among isolated states (violations require interference).
#[test]
fn violation_states_live_in_the_colocated_region() {
    let scenario = Scenario::vlc_with_cpubomb(44);
    let mut h = scenario.build_harness().expect("harness");
    let mut ctl =
        Controller::for_host(ControllerConfig::default(), h.host().spec()).expect("controller");
    h.run(&mut ctl, 250);
    let map = ctl.state_map();
    assert!(map.violation_count() > 0);
    for rep in 0..map.len() {
        let e = map.entry(rep).expect("entry");
        if e.kind() == StateKind::Violation {
            assert_eq!(
                e.first_mode(),
                ExecutionMode::CoLocated,
                "violation state S{rep} first seen in mode {}",
                e.first_mode()
            );
        }
    }
}

/// Violation-ranges never swallow the nearest safe state (R < d).
#[test]
fn violation_ranges_exclude_their_nearest_safe_state() {
    let scenario = Scenario::vlc_with_twitter(45);
    let mut h = scenario.build_harness().expect("harness");
    let mut ctl =
        Controller::for_host(ControllerConfig::default(), h.host().spec()).expect("controller");
    h.run(&mut ctl, 300);
    let map = ctl.state_map();
    for rep in 0..map.len() {
        let e = map.entry(rep).expect("entry");
        if e.kind() != StateKind::Violation {
            continue;
        }
        let range = map.violation_range(rep).expect("range");
        if let Some((safe_idx, d)) = map.nearest_safe(e.point()) {
            assert!(
                range.radius() < d + 1e-12,
                "range of S{rep} (r={}) swallows safe S{safe_idx} at d={d}",
                range.radius()
            );
        }
    }
}
