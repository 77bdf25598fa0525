//! Predictor ranking determinism: the standings a fleet of two or more
//! predictors ranks — bootstrap confidence intervals included — are a
//! pure function of the fleet configuration. The worker count must not
//! leak into any serialised bit.

use stayaway_fleet::{predictor, Fleet, FleetConfig, FleetOutcome, PolicySpec, SourceSpec};

/// Every plane over three workload scenarios, one cell per combination.
fn ranked_fleet(workers: usize, seed: u64, predictors: &str) -> FleetOutcome {
    let mut config = FleetConfig::new(12, workers, seed);
    config.ticks = 64;
    config.sources =
        SourceSpec::parse_list("workload:cpu-bomb,workload:memory-bomb,workload:flash-crowd")
            .unwrap();
    config.predictors = predictor::parse_list(predictors).unwrap();
    Fleet::new(config).unwrap().run().unwrap()
}

const EVERY_PLANE: &str = "kde,xapp,denoise,last-tick";

#[test]
fn ranked_json_is_byte_identical_across_worker_counts() {
    let solo = ranked_fleet(1, 7, EVERY_PLANE);
    let pooled = ranked_fleet(4, 7, EVERY_PLANE);
    assert_eq!(solo, pooled);
    // The CLI contract is byte-identical JSON, float formatting and CI
    // bounds included.
    assert_eq!(solo.to_json().unwrap(), pooled.to_json().unwrap());
    // Every plane is ranked once, over its three scenarios.
    assert_eq!(solo.per_predictor.len(), 4);
    for standing in &solo.per_predictor {
        assert_eq!(standing.cells, 3, "{}", standing.predictor);
    }
}

#[test]
fn intervals_are_deterministic_for_a_fixed_seed_and_move_with_it() {
    let first = ranked_fleet(2, 21, EVERY_PLANE);
    let second = ranked_fleet(2, 21, EVERY_PLANE);
    for (a, b) in first.per_predictor.iter().zip(&second.per_predictor) {
        assert_eq!(a.satisfaction, b.satisfaction);
        assert_eq!(a.slo_violation_rate, b.slo_violation_rate);
        assert_eq!(a.batch_work, b.batch_work);
    }
    assert_eq!(first.to_json().unwrap(), second.to_json().unwrap());
    let reseeded = ranked_fleet(2, 22, EVERY_PLANE);
    let intervals = |outcome: &FleetOutcome| {
        (outcome.per_predictor.iter())
            .map(|s| (s.satisfaction, s.slo_violation_rate, s.batch_work))
            .collect::<Vec<_>>()
    };
    assert_ne!(
        intervals(&first),
        intervals(&reseeded),
        "a different fleet seed must change the intervals"
    );
}

#[test]
fn baseline_cells_stay_out_of_a_two_predictor_ranking() {
    let mut c = FleetConfig::new(8, 2, 9);
    c.ticks = 80;
    c.policies = vec![PolicySpec::StayAway, PolicySpec::Reactive];
    c.predictors = predictor::parse_list("kde,xapp").unwrap();
    let outcome = Fleet::new(c).unwrap().run().unwrap();
    for cell in &outcome.per_cell {
        if cell.policy == "stay-away" {
            assert_ne!(cell.predictor, predictor::NONE);
        } else {
            assert_eq!(cell.predictor, predictor::NONE);
        }
    }
    // Eight cells: four reactive ones carry no predictor, and each plane
    // ranks only its two Stay-Away cells.
    let mut ranked: Vec<(&str, usize)> = (outcome.per_predictor.iter())
        .map(|s| (s.predictor.as_str(), s.cells))
        .collect();
    ranked.sort_unstable();
    assert_eq!(ranked, [("kde", 2), ("xapp", 2)]);
}

#[test]
fn a_repeated_predictor_ranks_once_by_name() {
    let outcome = ranked_fleet(2, 7, "kde,kde,xapp");
    let mut ranked: Vec<(&str, usize)> = (outcome.per_predictor.iter())
        .map(|s| (s.predictor.as_str(), s.cells))
        .collect();
    ranked.sort_unstable();
    // The predictor digits of the twelve cells are 0, 1, 2, 0 (three cells
    // each), so `kde` holds nine cells; each cell joins exactly one
    // standing.
    assert_eq!(ranked, [("kde", 9), ("xapp", 3)]);
}

#[test]
fn one_predictor_is_not_ranked() {
    let outcome = ranked_fleet(1, 7, "xapp");
    assert!(outcome.per_predictor.is_empty());
    assert!(outcome.per_cell.iter().all(|c| c.predictor == "xapp"));
}
