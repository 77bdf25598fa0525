//! Flight-recorder determinism and causality across the planes.
//!
//! The contract under test: the canonical merged event stream (DESIGN.md
//! §16) is byte-identical for any worker count at both fleet and cluster
//! scale, recording is decision-inert, and the causal links reconstruct a
//! multi-layer chain — a cluster verb caused by a host SLO violation
//! caused by a predictor verdict — from the stream alone.

use stayaway_fleet::{
    cluster_by_name, Cluster, ClusterConfig, ClusterOutcome, ClusterPolicySpec, Fleet, FleetConfig,
    FleetOutcome,
};
use stayaway_obs::{causal_chain, events_to_jsonl, EventKind, Layer};

fn fleet(workers: usize, collect_events: bool) -> FleetOutcome {
    let mut config = FleetConfig::new(64, workers, 7);
    config.ticks = 96;
    config.collect_events = collect_events;
    Fleet::new(config).unwrap().run().unwrap()
}

fn cluster(scenario: &str, workers: usize, collect_events: bool) -> ClusterOutcome {
    let mut config = ClusterConfig::new(cluster_by_name(scenario).unwrap(), 7);
    config.cluster_policy = ClusterPolicySpec::Score;
    config.workers = workers;
    config.migration = true;
    config.collect_events = collect_events;
    Cluster::new(config).unwrap().run().unwrap()
}

#[test]
fn fleet_event_stream_is_byte_identical_across_worker_counts() {
    let serial = fleet(1, true);
    let pooled = fleet(4, true);
    let serial_events = serial.events.as_ref().expect("events requested");
    let pooled_events = pooled.events.as_ref().expect("events requested");
    assert!(!serial_events.is_empty(), "a 64-cell fleet must record");
    assert_eq!(
        events_to_jsonl(serial_events),
        events_to_jsonl(pooled_events),
        "workers=1 vs workers=4 event JSONL diverged"
    );
    // The stream is in canonical (tick, layer, seq, scope) order.
    for pair in serial_events.windows(2) {
        assert!(
            (pair[0].tick, pair[0].layer, pair[0].seq, pair[0].scope)
                <= (pair[1].tick, pair[1].layer, pair[1].seq, pair[1].scope)
        );
    }
}

#[test]
fn fleet_event_collection_is_decision_inert() {
    let bare = fleet(4, false);
    let observed = fleet(4, true);
    assert!(bare.events.is_none());
    let strip = |mut o: FleetOutcome| {
        o.events = None;
        o
    };
    assert_eq!(strip(bare), strip(observed));
}

#[test]
fn cluster_event_stream_is_byte_identical_across_worker_counts() {
    let serial = cluster("storm-cluster", 1, true);
    let pooled = cluster("storm-cluster", 4, true);
    let serial_events = serial.events.as_ref().expect("events requested");
    let pooled_events = pooled.events.as_ref().expect("events requested");
    assert!(!serial_events.is_empty());
    assert_eq!(
        events_to_jsonl(serial_events),
        events_to_jsonl(pooled_events),
        "workers=1 vs workers=4 cluster event JSONL diverged"
    );
}

#[test]
fn cluster_event_collection_is_decision_inert() {
    let bare = cluster("hotspot", 4, false);
    let observed = cluster("hotspot", 4, true);
    assert!(bare.events.is_none());
    let strip = |mut o: ClusterOutcome| {
        o.events = None;
        o
    };
    assert_eq!(strip(bare), strip(observed));
}

#[test]
fn storm_cluster_migration_chains_back_to_a_predictor_verdict() {
    // storm-cluster under scoring placement actually migrates (see
    // cluster_determinism.rs), so its stream carries the full chain.
    let outcome = cluster("storm-cluster", 2, true);
    assert!(
        outcome.migrations > 0,
        "the scenario must exercise migration"
    );
    let events = outcome.events.as_ref().unwrap();
    let mut full_chains = 0;
    for migrate in events.iter().filter(|e| e.kind == EventKind::Migrate) {
        assert_eq!(migrate.layer, Layer::Cluster);
        // The library walk the `events --cause` command prints: every
        // link must resolve inside the stream.
        let chain = causal_chain(events, migrate.id()).expect("chain resolves");
        assert_eq!(chain[0], migrate);
        // First hop: the source host's SLO violation that motivated it.
        let Some(violation) = chain.get(1) else {
            continue;
        };
        assert_eq!(violation.kind, EventKind::SloViolation);
        // Second hop: the predictor verdict active on that host.
        if let Some(verdict) = chain.get(2) {
            assert_eq!(verdict.kind, EventKind::PredictorVerdict);
            assert_eq!(verdict.layer, Layer::Predictor);
            assert_eq!(verdict.scope, violation.scope);
            full_chains += 1;
        }
    }
    assert!(
        full_chains > 0,
        "no migrate event reconstructed the full cluster ← host ← predictor chain"
    );
}
