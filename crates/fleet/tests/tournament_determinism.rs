//! Tournament determinism: the ranked outcome — bootstrap confidence
//! intervals included — is a pure function of the tournament
//! configuration. The worker count must not leak into any serialised bit.

use stayaway_fleet::{predictor, run_tournament, Fleet, FleetConfig, PolicySpec, TournamentConfig};

fn tournament(workers: usize, seed: u64) -> TournamentConfig {
    let mut config = TournamentConfig::new(seed);
    config.cells_per_combo = 1;
    config.ticks = 64;
    config.bootstrap_resamples = 200;
    config.workers = workers;
    config
}

#[test]
fn tournament_json_is_byte_identical_across_worker_counts() {
    let solo = run_tournament(&tournament(1, 7)).unwrap();
    let pooled = run_tournament(&tournament(4, 7)).unwrap();
    assert_eq!(solo, pooled);
    // The CLI contract is byte-identical JSON, float formatting and CI
    // bounds included.
    assert_eq!(solo.to_json().unwrap(), pooled.to_json().unwrap());
    // The default tournament really sweeps the full cross-product.
    assert_eq!(solo.standings.len(), 4);
    assert_eq!(solo.scenarios.len(), 3);
    for standing in &solo.standings {
        assert_eq!(standing.cells, 3);
    }
}

#[test]
fn tournament_cis_are_deterministic_for_a_fixed_seed_and_move_with_it() {
    let first = run_tournament(&tournament(2, 21)).unwrap();
    let second = run_tournament(&tournament(2, 21)).unwrap();
    for (a, b) in first.standings.iter().zip(&second.standings) {
        assert_eq!(a.satisfaction, b.satisfaction);
        assert_eq!(a.slo_violation_rate, b.slo_violation_rate);
        assert_eq!(a.batch_work, b.batch_work);
    }
    assert_eq!(first.to_json().unwrap(), second.to_json().unwrap());
    let reseeded = run_tournament(&tournament(2, 22)).unwrap();
    assert_ne!(
        first.to_json().unwrap(),
        reseeded.to_json().unwrap(),
        "a different tournament seed must change the outcome"
    );
}

#[test]
fn mixed_predictor_fleets_agree_across_worker_counts() {
    let run = |workers: usize| {
        let mut c = FleetConfig::new(8, workers, 7);
        c.ticks = 80;
        c.predictors = predictor::parse_list("kde,xapp,denoise,last-tick").unwrap();
        Fleet::new(c).unwrap().run().unwrap()
    };
    let solo = run(1);
    let pooled = run(4);
    assert_eq!(solo, pooled);
    assert_eq!(solo.to_json().unwrap(), pooled.to_json().unwrap());
    // Round-robin put two cells on each plane, and the rollup saw them.
    assert_eq!(solo.per_predictor.len(), 4);
    for rollup in &solo.per_predictor {
        assert_eq!(rollup.cells, 2, "{}", rollup.predictor);
    }
}

#[test]
fn baseline_cells_carry_no_predictor_and_stay_out_of_the_rollup() {
    let mut c = FleetConfig::new(6, 2, 9);
    c.ticks = 80;
    c.policies = vec![PolicySpec::StayAway, PolicySpec::Reactive];
    c.predictors = predictor::parse_list("xapp").unwrap();
    let outcome = Fleet::new(c).unwrap().run().unwrap();
    for cell in &outcome.per_cell {
        if cell.policy == "stay-away" {
            assert_eq!(cell.predictor, "xapp");
        } else {
            assert_eq!(cell.predictor, predictor::NONE);
        }
    }
    assert_eq!(outcome.per_predictor.len(), 1);
    assert_eq!(outcome.per_predictor[0].predictor, "xapp");
    assert_eq!(outcome.per_predictor[0].cells, 3);
}
