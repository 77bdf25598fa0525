//! The cluster plane's scale curve (ROADMAP `[scale]`).
//!
//! `storm-cluster` replicated to 4×10, 16×40, 32×160, 64×400 and 100×1000
//! hosts × jobs, 450 epochs × 2 ticks each — the `cluster-scale` ledger
//! workload's shape, taken out to the size the roadmap asked whether it
//! finishes at. Every point must complete with no invalid cluster action
//! and every job arrived; the per-host engine timelines are pinned to the
//! digests recorded at PR 22's parent, so an engine change that claims
//! bit-identity is held to it at every size; and the largest point's
//! outcome JSON must not depend on the worker count.
//!
//! Minutes in debug, so `#[ignore]`d; `scripts/check.sh` runs it in
//! release and the printed table is what EXPERIMENTS.md quotes:
//!
//! ```text
//! cargo test --release -p stayaway-fleet --test cluster_scale_curve -- --ignored --nocapture
//! ```

use stayaway_fleet::{
    cluster_by_name, Cluster, ClusterConfig, ClusterOutcome, ClusterPolicySpec, ClusterScenario,
};
use std::time::Instant;

const EPOCHS: u64 = 450;
const TICKS_PER_EPOCH: u64 = 2;
const SEED: u64 = 3;

/// (replicas of the 4-host set, replicas of the 5-job set, FNV-1a fold of
/// the per-host `timeline_digest`s recorded at PR 22's parent `1d814af`).
/// The 64×400 point was recorded again when the map stage gained its
/// outcome gate on global solves (DESIGN.md §6, rule 4): the gate moves a
/// host's map there, and with it that host's throttling. With the gate
/// disabled the old digest, `0xc21d_88e8_1015_dc26`, comes back.
const CURVE: [(usize, u64, u64); 5] = [
    (1, 2, 0x92a0_5cd5_3fbd_dc6c),
    (4, 8, 0x7d4d_4a33_5e89_f172),
    (8, 32, 0xac22_95dc_44e0_9dd0),
    (16, 80, 0x46f5_34b2_577c_5b17),
    (25, 200, 0xa6fa_836d_7439_26c8),
];

/// The `storm-cluster` host set × `host_replicas` and job set ×
/// `job_replicas`, each job replica submitted one stride later, all
/// within the first 40 % of the horizon (the ledger workload's recipe).
fn scenario(host_replicas: usize, job_replicas: u64) -> ClusterScenario {
    let base = cluster_by_name("storm-cluster").unwrap();
    let mut hosts = Vec::new();
    for replica in 0..host_replicas {
        for host in &base.hosts {
            let mut host = host.clone();
            host.name = format!("{}-{replica}", host.name);
            hosts.push(host);
        }
    }
    let stride = EPOCHS * TICKS_PER_EPOCH * 2 / 5 / job_replicas;
    let mut jobs = Vec::new();
    for replica in 0..job_replicas {
        for job in &base.jobs {
            let mut job = job.clone();
            job.name = format!("{}-{replica}", job.name);
            job.tenant.name = job.name.clone();
            job.submit_tick += replica * stride;
            jobs.push(job);
        }
    }
    ClusterScenario {
        name: format!("storm-cluster-x{host_replicas}"),
        description: "storm-cluster host and job sets replicated".into(),
        hosts,
        jobs,
    }
}

fn run(host_replicas: usize, job_replicas: u64, workers: usize) -> (ClusterOutcome, f64) {
    let mut config = ClusterConfig::new(scenario(host_replicas, job_replicas), SEED);
    config.epochs = EPOCHS;
    config.ticks_per_epoch = TICKS_PER_EPOCH;
    config.workers = workers;
    config.cluster_policy = ClusterPolicySpec::Score;
    config.migration = true;
    let cluster = Cluster::new(config).unwrap();
    let clock = Instant::now();
    let outcome = cluster.run().unwrap();
    (outcome, clock.elapsed().as_secs_f64())
}

fn fold_timelines(outcome: &ClusterOutcome) -> u64 {
    outcome
        .per_host
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, host| {
            (h ^ host.timeline_digest).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
#[ignore = "minutes in debug; scripts/check.sh runs it in release"]
fn the_curve_completes_with_pinned_timelines_at_every_size() {
    println!("hosts x jobs | wall s | host-ticks/s | sim req/s | timelines");
    for (host_replicas, job_replicas, pinned) in CURVE {
        let (outcome, wall) = run(host_replicas, job_replicas, 1);
        let (hosts, jobs) = (outcome.per_host.len(), outcome.per_job.len());
        let label = format!("{hosts}x{jobs}");
        assert_eq!(outcome.invalid_actions, 0, "{label}");
        assert!(outcome.per_job.iter().all(|j| j.arrived), "{label}");
        let requests: u64 = outcome.per_host.iter().map(|h| h.arrivals).sum();
        let host_ticks = hosts as u64 * EPOCHS * TICKS_PER_EPOCH;
        let timelines = fold_timelines(&outcome);
        println!(
            "{label:>12} | {wall:6.2} | {:12.0} | {:9.0} | {timelines:#018x}",
            host_ticks as f64 / wall,
            requests as f64 / wall,
        );
        assert_eq!(
            timelines, pinned,
            "{label}: per-host timelines moved: {timelines:#018x}"
        );
        if (host_replicas, job_replicas) == (25, 200) {
            let (parallel, _) = run(host_replicas, job_replicas, 2);
            assert_eq!(
                outcome.to_json().unwrap(),
                parallel.to_json().unwrap(),
                "{label}: workers=1 vs workers=2 diverged"
            );
        }
    }
}
