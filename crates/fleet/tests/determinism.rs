//! Fleet determinism: the aggregated outcome is a pure function of the
//! configuration — the worker count must not leak into any result bit.

use stayaway_fleet::{Fleet, FleetConfig, SourceSpec, TemplateRegistry};
use std::sync::Arc;

fn config(cells: usize, workers: usize, seed: u64, share: bool) -> FleetConfig {
    let mut c = FleetConfig::new(cells, workers, seed);
    c.ticks = 110;
    c.share_templates = share;
    c
}

#[test]
fn workers_1_and_4_agree_bit_for_bit() {
    let solo = Fleet::new(config(8, 1, 7, false)).unwrap().run().unwrap();
    let pooled = Fleet::new(config(8, 4, 7, false)).unwrap().run().unwrap();
    assert_eq!(solo, pooled);
    // The CLI contract is byte-identical JSON, so compare the rendering
    // too (float formatting included).
    assert_eq!(solo.to_json().unwrap(), pooled.to_json().unwrap());
}

#[test]
fn workers_1_and_4_agree_with_template_sharing() {
    // Sharing is the hard case: the registry is mutated mid-run, so the
    // phased pioneer/follower schedule must hide all scheduling freedom.
    let solo = Fleet::new(config(8, 1, 7, true)).unwrap().run().unwrap();
    let pooled = Fleet::new(config(8, 4, 7, true)).unwrap().run().unwrap();
    assert_eq!(solo, pooled);
    assert_eq!(solo.to_json().unwrap(), pooled.to_json().unwrap());
    assert!(solo.cells_imported > 0, "followers must have warm-started");
}

#[test]
fn workload_cells_agree_across_worker_counts() {
    // The request-driven workload substrate must uphold the same
    // contract as the simulator: worker count leaks into no result bit,
    // including the JSON rendering.
    let run = |workers: usize| {
        let mut c = config(8, workers, 7, false);
        c.ticks = 60;
        c.sources = vec![
            SourceSpec::Workload {
                scenario: "multi-tenant-storm".into(),
            },
            SourceSpec::Workload {
                scenario: "cpu-bomb".into(),
            },
        ];
        Fleet::new(c).unwrap().run().unwrap()
    };
    let solo = run(1);
    let pooled = run(4);
    assert_eq!(solo, pooled);
    assert_eq!(solo.to_json().unwrap(), pooled.to_json().unwrap());
    assert!(solo
        .per_cell
        .iter()
        .all(|cell| cell.source.starts_with("workload:")));
}

#[test]
fn more_workers_than_cells_is_fine() {
    let narrow = Fleet::new(config(3, 1, 5, false)).unwrap().run().unwrap();
    let wide = Fleet::new(config(3, 16, 5, false)).unwrap().run().unwrap();
    assert_eq!(narrow, wide);
}

#[test]
fn different_fleet_seeds_differ() {
    let a = Fleet::new(config(4, 2, 1, false)).unwrap().run().unwrap();
    let b = Fleet::new(config(4, 2, 2, false)).unwrap().run().unwrap();
    assert_ne!(a.per_cell[0].seed, b.per_cell[0].seed);
    assert_ne!(a, b);
}

#[test]
fn repeated_runs_of_one_fleet_object_are_identical() {
    let fleet = Fleet::new(config(4, 2, 9, false)).unwrap();
    assert_eq!(fleet.run().unwrap(), fleet.run().unwrap());
}

#[test]
fn registry_survives_a_serde_round_trip_unchanged() {
    // Fill a registry from real learned templates, snapshot to JSON, and
    // rebuild: publish/import must round-trip bit-for-bit.
    let fleet = Fleet::new(config(8, 4, 13, true)).unwrap();
    fleet.run().unwrap();
    let registry = fleet.registry();
    assert!(!registry.is_empty());
    let json = registry.to_json().unwrap();
    let rebuilt = TemplateRegistry::from_json(&json).unwrap();
    assert_eq!(registry.snapshot(), rebuilt.snapshot());
    assert_eq!(json, rebuilt.to_json().unwrap());
    // Imported entries drive a fresh fleet exactly like the original
    // in-memory registry does.
    let from_original = Fleet::with_registry(config(4, 2, 17, true), Arc::clone(registry)).unwrap();
    let from_rebuilt = Fleet::with_registry(config(4, 2, 17, true), Arc::new(rebuilt)).unwrap();
    assert_eq!(from_original.run().unwrap(), from_rebuilt.run().unwrap());
}

#[test]
fn sharing_shows_the_head_start_fleet_wide() {
    // With sharing on, follower cells of an already-learned workload
    // throttle proactively on first contact; with sharing off no cell can.
    let cold = Fleet::new(config(12, 4, 23, false)).unwrap().run().unwrap();
    let warm = Fleet::new(config(12, 4, 23, true)).unwrap().run().unwrap();
    assert_eq!(cold.proactive_first_throttles, 0);
    assert!(
        warm.proactive_first_throttles > 0,
        "imported templates should produce proactive first throttles"
    );
    assert!(warm.cells_imported >= 8);
}
