//! Cluster scheduling policies: where movable jobs run.
//!
//! [`ClusterPolicy`] is the object-safe decision interface of the cluster
//! plane, mirroring how [`stayaway_core::ControlPolicy`] abstracts the
//! per-host plane: at every epoch boundary the runner hands the policy a
//! read-only view of every live job ([`JobView`]) and every host
//! ([`HostSnapshot`]) and gets back placement verbs
//! ([`ClusterAction`]). Policies are deliberately pure functions of those
//! views (plus private counters), never of engine internals, so swapping
//! one in can only change *where* work runs — the job request streams are
//! placement-independent by construction.
//!
//! [`ClusterPolicySpec`] ships four planes:
//!
//! * `score` — interference-aware scoring: predicted post-placement
//!   oversubscription per resource, weighted by the host's recent QoS
//!   deficit, its frozen-job count (the local Stay-Away controller is
//!   already throttling there) and the registry template's violation
//!   history for its sensitive app; migrates away from hosts whose epoch
//!   went bad.
//! * `least-loaded` — classic utilisation-greedy placement, blind to QoS.
//! * `random` — seeded uniform placement.
//! * `none` — throttle-only Stay-Away: static round-robin, never
//!   migrates; all protection is left to the per-host controllers.

use crate::cluster::action::ClusterAction;
use crate::cluster::job::JobSpec;
use crate::seed::derive_cell_seed;
use crate::FleetError;
use serde::{Deserialize, Serialize};
use stayaway_telemetry::{HostSpec, QosSummary, ResourceKind, ResourceVector};

/// How many epochs a job may be deferred before the score policy places
/// it anyway (starvation guard).
const MAX_DEFER_EPOCHS: u64 = 6;

/// Epochs a job must stay put after a placement change before the score
/// policy will migrate it.
const MIGRATION_COOLDOWN_EPOCHS: u64 = 2;

/// The order the score policy sums per-resource overflow in — rates,
/// then LLC, then RAM. Float addition is not associative, so this order
/// is part of every placement.
const SCORE_ORDER: [ResourceKind; 6] = [
    ResourceKind::Cpu,
    ResourceKind::MemBandwidth,
    ResourceKind::DiskIo,
    ResourceKind::Network,
    ResourceKind::Cache,
    ResourceKind::Memory,
];

/// Read-only per-host state handed to cluster policies at an epoch
/// boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostSnapshot {
    /// Host index.
    pub idx: usize,
    /// Host name (from the scenario).
    pub name: String,
    /// Host capacities.
    pub spec: HostSpec,
    /// Instantaneous resource rates and occupancy at the boundary
    /// ([`stayaway_workload::WorkloadHost::load`]).
    pub load: ResourceVector,
    /// Mean total CPU rate (cores) over the last epoch.
    pub mean_cpu: f64,
    /// Sensitive QoS accounting over the last epoch only.
    pub epoch_qos: QosSummary,
    /// Batch tenants (resident or movable) currently frozen here by the
    /// host controller — it is already fighting interference.
    pub frozen_jobs: usize,
    /// Ids of the movable jobs currently placed here.
    pub placed_jobs: Vec<usize>,
    /// Violation count of the registry template for this host's
    /// sensitive app, when one is published — a prior on how
    /// interference-prone the resident is.
    pub template_violations: Option<u64>,
}

impl HostSnapshot {
    /// Fraction of the last epoch's active ticks that violated QoS.
    pub fn epoch_violation_fraction(&self) -> f64 {
        1.0 - self.epoch_qos.satisfaction()
    }
}

/// Read-only per-job state handed to cluster policies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobView {
    /// Job id (index into the scenario's job list).
    pub id: usize,
    /// Job name.
    pub name: String,
    /// Current host, when placed.
    pub placement: Option<usize>,
    /// Requests pending for this job (host queue + in flight when placed,
    /// carried backlog when not).
    pub pending: u64,
    /// Epochs spent waiting in the admission queue so far.
    pub queued_epochs: u64,
    /// Epoch of the last placement change.
    pub last_move_epoch: u64,
    /// Completed migrations.
    pub migrations: u64,
    /// True once the job's arrival stream has ended (it only drains now).
    pub stream_done: bool,
    /// Estimated steady-state demand if placed: rates via Little's law
    /// (`mean_rps × service_time`, capped by the container pool),
    /// occupancy from the estimated container count.
    pub est: ResourceVector,
}

impl JobView {
    /// Builds the view's demand estimate from a job spec.
    pub(crate) fn estimate(spec: &JobSpec) -> ResourceVector {
        let d = &spec.tenant.demand;
        let service_secs = d.service_ns() as f64 / 1e9;
        let slots = (d.concurrency as u64 * d.max_containers as u64) as f64;
        let concurrent = (spec.tenant.arrival.mean_rps() * service_secs).min(slots);
        let containers = (concurrent / d.concurrency as f64)
            .ceil()
            .clamp(1.0, d.max_containers as f64);
        d.invocation_rates().scale(concurrent) + d.container_occupancy().scale(containers)
    }
}

/// An object-safe cluster scheduling policy.
///
/// `decide` is called once per epoch with every live job (placed and
/// waiting, in job-id order) and every host (in host-index order). Jobs
/// the policy does not mention keep their current state; invalid actions
/// are counted and dropped by the runner, never applied.
pub trait ClusterPolicy: Send {
    /// Canonical policy name (CLI token).
    fn name(&self) -> &'static str;

    /// Decides this epoch's placement actions.
    fn decide(
        &mut self,
        epoch: u64,
        jobs: &[JobView],
        hosts: &[HostSnapshot],
    ) -> Vec<ClusterAction>;
}

/// Declarative choice of cluster scheduling plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterPolicySpec {
    /// Interference-aware scoring placement with migration.
    Score,
    /// Uniform random placement (seeded).
    Random,
    /// Lowest CPU-utilisation host wins.
    LeastLoaded,
    /// Throttle-only Stay-Away: static round-robin, no migration.
    NoPlacement,
}

impl ClusterPolicySpec {
    /// The canonical policy name, matching [`ClusterPolicy::name`].
    pub fn name(&self) -> &'static str {
        match self {
            ClusterPolicySpec::Score => "score",
            ClusterPolicySpec::Random => "random",
            ClusterPolicySpec::LeastLoaded => "least-loaded",
            ClusterPolicySpec::NoPlacement => "none",
        }
    }

    /// Parses a CLI policy token: `score`, `random`,
    /// `least-loaded`/`leastloaded`, `none`/`throttle-only`.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for an unknown token.
    pub fn parse(token: &str) -> Result<Self, FleetError> {
        match token.trim().to_ascii_lowercase().as_str() {
            "score" => Ok(ClusterPolicySpec::Score),
            "random" => Ok(ClusterPolicySpec::Random),
            "least-loaded" | "leastloaded" => Ok(ClusterPolicySpec::LeastLoaded),
            "none" | "throttle-only" => Ok(ClusterPolicySpec::NoPlacement),
            other => Err(FleetError::InvalidConfig {
                reason: format!(
                    "unknown cluster policy '{other}' (expected score|random|least-loaded|none)"
                ),
            }),
        }
    }

    /// Every spec, in comparison-table order.
    pub fn all() -> [ClusterPolicySpec; 4] {
        [
            ClusterPolicySpec::Score,
            ClusterPolicySpec::Random,
            ClusterPolicySpec::LeastLoaded,
            ClusterPolicySpec::NoPlacement,
        ]
    }

    /// Instantiates the policy. `seed` feeds the random baseline;
    /// `migration` gates the score policy's migration verb.
    pub fn build(&self, seed: u64, migration: bool) -> Box<dyn ClusterPolicy> {
        match self {
            ClusterPolicySpec::Score => Box::new(ScorePolicy { migration }),
            ClusterPolicySpec::Random => Box::new(RandomPolicy { seed, draws: 0 }),
            ClusterPolicySpec::LeastLoaded => Box::new(LeastLoaded),
            ClusterPolicySpec::NoPlacement => Box::new(NoPlacement),
        }
    }
}

/// Throttle-only Stay-Away: job `j` always runs on host `j mod n`.
struct NoPlacement;

impl ClusterPolicy for NoPlacement {
    fn name(&self) -> &'static str {
        "none"
    }

    fn decide(&mut self, _: u64, jobs: &[JobView], hosts: &[HostSnapshot]) -> Vec<ClusterAction> {
        jobs.iter()
            .filter(|j| j.placement.is_none())
            .map(|j| ClusterAction::Admit {
                job: j.id,
                host: j.id % hosts.len(),
            })
            .collect()
    }
}

/// Seeded uniform placement: a splitmix64-derived draw per admission.
struct RandomPolicy {
    seed: u64,
    draws: u64,
}

impl ClusterPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn decide(&mut self, _: u64, jobs: &[JobView], hosts: &[HostSnapshot]) -> Vec<ClusterAction> {
        jobs.iter()
            .filter(|j| j.placement.is_none())
            .map(|j| {
                let draw = derive_cell_seed(self.seed, self.draws);
                self.draws += 1;
                ClusterAction::Admit {
                    job: j.id,
                    host: (draw % hosts.len() as u64) as usize,
                }
            })
            .collect()
    }
}

/// Utilisation-greedy placement: lowest instantaneous CPU share wins.
struct LeastLoaded;

impl ClusterPolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn decide(&mut self, _: u64, jobs: &[JobView], hosts: &[HostSnapshot]) -> Vec<ClusterAction> {
        // Placements made this epoch must be visible to the next pick, or
        // every waiting job piles onto the same idle host.
        let mut extra = vec![0.0f64; hosts.len()];
        jobs.iter()
            .filter(|j| j.placement.is_none())
            .map(|j| {
                let host = argmin(hosts.iter().map(|h| {
                    (h.load[ResourceKind::Cpu] + extra[h.idx])
                        / h.spec.capacity(ResourceKind::Cpu).max(f64::MIN_POSITIVE)
                }))
                .expect("at least one host");
                extra[host] += j.est[ResourceKind::Cpu];
                ClusterAction::Admit { job: j.id, host }
            })
            .collect()
    }
}

/// Index of the smallest value (first wins ties) — deterministic argmin.
fn argmin(values: impl Iterator<Item = f64>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, v) in values.enumerate() {
        if best.is_none_or(|(_, b)| v < b) {
            best = Some((i, v));
        }
    }
    best.map(|(i, _)| i)
}

/// Interference-aware scoring placement (the cluster-level Stay-Away).
struct ScorePolicy {
    migration: bool,
}

impl ScorePolicy {
    /// Predicted badness of placing demand `add` on host `h`, given the
    /// demand `extra` already routed there this epoch. Oversubscription
    /// overflow per resource (how far past capacity the placement pushes
    /// the host), amplified by the host's observed interference risk,
    /// plus a small utilisation term so healthy hosts tie-break toward
    /// the emptiest one.
    fn score(h: &HostSnapshot, extra: &ResourceVector, add: &ResourceVector) -> f64 {
        // The epoch-mean CPU rate sees through momentary freezes at the
        // boundary; occupancy resources use the instantaneous snapshot.
        let used = |k: ResourceKind| match k {
            ResourceKind::Cpu => h.load[k].max(h.mean_cpu),
            _ => h.load[k],
        };
        let util = |k: ResourceKind| {
            (used(k) + extra[k] + add[k]) / h.spec.capacity(k).max(f64::MIN_POSITIVE)
        };
        let overflow = Self::overflow(util);
        let risk = Self::risk(h);
        overflow * (1.0 + risk) + 0.5 * risk + 0.2 * util(ResourceKind::Cpu)
    }

    /// How far past capacity `util` (load over capacity, per resource)
    /// runs, summed in [`SCORE_ORDER`].
    fn overflow(util: impl Fn(ResourceKind) -> f64) -> f64 {
        SCORE_ORDER.iter().map(|&k| (util(k) - 1.0).max(0.0)).sum()
    }

    /// Observed interference risk of a host: recent QoS deficit, jobs the
    /// local controller already froze, and the registry template's
    /// violation history for the resident sensitive app.
    fn risk(h: &HostSnapshot) -> f64 {
        h.epoch_violation_fraction()
            + (1.0 - h.epoch_qos.mean_qos())
            + 0.3 * h.frozen_jobs as f64
            + 0.05 * (h.template_violations.unwrap_or(0) as f64).ln_1p()
    }

    /// True when the job's memory footprint fits host `h` right now.
    fn fits(h: &HostSnapshot, extra: &ResourceVector, add: &ResourceVector) -> bool {
        let k = ResourceKind::Memory;
        h.load[k] + extra[k] + add[k] <= h.spec.capacity(k)
    }

    /// The overflow the job would cause on host `h` even if it were
    /// completely empty — demand the job brings with it wherever it goes.
    /// Deferral only makes sense for badness *beyond* this floor: waiting
    /// never shrinks the job's own appetite.
    fn intrinsic(h: &HostSnapshot, add: &ResourceVector) -> f64 {
        Self::overflow(|k| add[k] / h.spec.capacity(k).max(f64::MIN_POSITIVE))
    }
}

impl ClusterPolicy for ScorePolicy {
    fn name(&self) -> &'static str {
        "score"
    }

    fn decide(
        &mut self,
        epoch: u64,
        jobs: &[JobView],
        hosts: &[HostSnapshot],
    ) -> Vec<ClusterAction> {
        let mut actions = Vec::new();
        // Demand routed to each host earlier in this same epoch, so
        // back-to-back placements see each other.
        let mut extra = vec![ResourceVector::zero(); hosts.len()];

        for j in jobs.iter().filter(|j| j.placement.is_none()) {
            let fitting: Vec<&HostSnapshot> = hosts
                .iter()
                .filter(|h| Self::fits(h, &extra[h.idx], &j.est))
                .collect();
            if fitting.is_empty() {
                // No host has the memory: the job genuinely cannot start.
                actions.push(ClusterAction::Queue { job: j.id });
                continue;
            }
            let pick = argmin(
                fitting
                    .iter()
                    .map(|h| Self::score(h, &extra[h.idx], &j.est)),
            )
            .expect("non-empty candidates");
            let host = fitting[pick].idx;
            let best = Self::score(fitting[pick], &extra[host], &j.est);
            // Capacity exists but every placement oversubscribes badly
            // beyond what the job would cost on an empty host: defer
            // (bounded — a long wait beats starving the job).
            let floor = Self::intrinsic(fitting[pick], &j.est);
            if best - floor > 1.0 && j.queued_epochs < MAX_DEFER_EPOCHS {
                actions.push(ClusterAction::Defer { job: j.id });
                continue;
            }
            extra[host] += j.est;
            actions.push(ClusterAction::Admit { job: j.id, host });
        }

        if self.migration {
            // Rescue pass: if an epoch went bad on some host, move its
            // heaviest still-streaming job somewhere meaningfully better.
            let mut moved_this_epoch = 0;
            for h in hosts {
                if moved_this_epoch >= 2 || h.epoch_violation_fraction() < 0.25 {
                    continue;
                }
                let candidate = h
                    .placed_jobs
                    .iter()
                    .filter_map(|id| jobs.iter().find(|j| j.id == *id))
                    .filter(|j| {
                        !j.stream_done
                            && epoch.saturating_sub(j.last_move_epoch) >= MIGRATION_COOLDOWN_EPOCHS
                    })
                    .max_by(|a, b| {
                        let weight = |j: &JobView| {
                            j.est[ResourceKind::Cpu] + j.est[ResourceKind::MemBandwidth] / 100.0
                        };
                        weight(a).total_cmp(&weight(b)).then(b.id.cmp(&a.id))
                    });
                let Some(job) = candidate else { continue };
                let here = Self::score(h, &extra[h.idx], &ResourceVector::zero());
                let elsewhere = hosts
                    .iter()
                    .filter(|to| to.idx != h.idx && Self::fits(to, &extra[to.idx], &job.est))
                    .map(|to| (to.idx, Self::score(to, &extra[to.idx], &job.est)))
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                if let Some((to, score)) = elsewhere {
                    if score + 0.5 < here {
                        extra[to] += job.est;
                        actions.push(ClusterAction::Migrate {
                            job: job.id,
                            from: h.idx,
                            to,
                        });
                        moved_this_epoch += 1;
                    }
                }
            }
        }
        actions
    }
}

#[cfg(test)]
#[path = "../../tests/reference/planner.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::scenario::{cluster_by_name, cluster_library};
    use proptest::prelude::*;
    use reference::HostLoad;
    use stayaway_workload::{ArrivalProcess, DemandProfile};

    fn snapshot(idx: usize, cpu: f64) -> HostSnapshot {
        HostSnapshot {
            idx,
            name: format!("h{idx}"),
            spec: HostSpec::default(),
            load: ResourceVector::zero().with(ResourceKind::Cpu, cpu),
            mean_cpu: cpu,
            epoch_qos: QosSummary::new(),
            frozen_jobs: 0,
            placed_jobs: Vec::new(),
            template_violations: None,
        }
    }

    fn view(id: usize) -> JobView {
        let spec = &cluster_by_name("hotspot").unwrap().jobs[id];
        JobView {
            id,
            name: spec.name.clone(),
            placement: None,
            pending: 0,
            queued_epochs: 0,
            last_move_epoch: 0,
            migrations: 0,
            stream_done: false,
            est: JobView::estimate(spec),
        }
    }

    #[test]
    fn parse_accepts_canonical_names() {
        assert_eq!(
            ClusterPolicySpec::parse("score").unwrap(),
            ClusterPolicySpec::Score
        );
        assert_eq!(
            ClusterPolicySpec::parse("LEAST-LOADED").unwrap(),
            ClusterPolicySpec::LeastLoaded
        );
        assert_eq!(
            ClusterPolicySpec::parse("throttle-only").unwrap(),
            ClusterPolicySpec::NoPlacement
        );
        assert_eq!(
            ClusterPolicySpec::parse("random").unwrap(),
            ClusterPolicySpec::Random
        );
        assert!(ClusterPolicySpec::parse("bogus").is_err());
        for spec in ClusterPolicySpec::all() {
            assert_eq!(ClusterPolicySpec::parse(spec.name()).unwrap(), spec);
            assert_eq!(spec.build(1, true).name(), spec.name());
        }
    }

    #[test]
    fn estimates_respect_littles_law_and_pool_caps() {
        let est = view(2).est; // batch-crunch: 4 rps × 0.4 s, 3 × 1-wide
        assert!((est[ResourceKind::Cpu] - 1.6).abs() < 1e-9);
        assert!(est[ResourceKind::Memory] >= 256.0);
        let heavy = view(1).est; // mem-sweep: pool-capped
        assert!(heavy[ResourceKind::MemBandwidth] > 0.0);
    }

    #[test]
    fn no_placement_is_static_round_robin() {
        let hosts = [snapshot(0, 0.0), snapshot(1, 3.9)];
        let jobs = [view(0), view(1), view(2)];
        let mut p = ClusterPolicySpec::NoPlacement.build(7, true);
        let actions = p.decide(0, &jobs, &hosts);
        assert_eq!(
            actions,
            vec![
                ClusterAction::Admit { job: 0, host: 0 },
                ClusterAction::Admit { job: 1, host: 1 },
                ClusterAction::Admit { job: 2, host: 0 },
            ]
        );
    }

    #[test]
    fn least_loaded_spreads_instead_of_piling_on() {
        let hosts = [snapshot(0, 0.5), snapshot(1, 0.1)];
        let jobs = [view(2), view(3)];
        let mut p = ClusterPolicySpec::LeastLoaded.build(7, true);
        let actions = p.decide(0, &jobs, &hosts);
        let targets: Vec<usize> = actions
            .iter()
            .map(|a| match a {
                ClusterAction::Admit { host, .. } => *host,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(targets[0], 1);
        // The second placement sees the first one's load.
        assert_eq!(targets[1], 0);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let hosts = [snapshot(0, 0.0), snapshot(1, 0.0), snapshot(2, 0.0)];
        let jobs = [view(0), view(1), view(2), view(3)];
        let run = |seed| {
            ClusterPolicySpec::Random
                .build(seed, true)
                .decide(0, &jobs, &hosts)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn score_prefers_the_healthy_idle_host() {
        let mut busy = snapshot(0, 3.8);
        busy.epoch_qos.record(0.4, true);
        busy.frozen_jobs = 2;
        let idle = snapshot(1, 0.2);
        let mut p = ClusterPolicySpec::Score.build(7, true);
        let actions = p.decide(0, &[view(2)], &[busy, idle]);
        assert_eq!(actions, vec![ClusterAction::Admit { job: 2, host: 1 }]);
    }

    #[test]
    fn score_queues_when_memory_is_exhausted() {
        let mut full = snapshot(0, 0.0);
        full.load[ResourceKind::Memory] = full.spec.ram_mb;
        let mut p = ClusterPolicySpec::Score.build(7, true);
        let actions = p.decide(0, &[view(2)], &[full]);
        assert_eq!(actions, vec![ClusterAction::Queue { job: 2 }]);
    }

    #[test]
    fn score_migrates_away_from_a_violating_host() {
        let mut bad = snapshot(0, 3.9);
        for _ in 0..4 {
            bad.epoch_qos.record(0.3, true);
        }
        bad.placed_jobs = vec![2];
        let good = snapshot(1, 0.1);
        let mut placed = view(2);
        placed.placement = Some(0);
        let mut p = ClusterPolicySpec::Score.build(7, true);
        let actions = p.decide(5, &[placed.clone()], &[bad.clone(), good.clone()]);
        assert_eq!(
            actions,
            vec![ClusterAction::Migrate {
                job: 2,
                from: 0,
                to: 1
            }]
        );
        // Migration disabled: same situation, no action.
        let mut frozen = ClusterPolicySpec::Score.build(7, false);
        assert!(frozen
            .decide(5, &[placed.clone()], &[bad.clone(), good])
            .is_empty());
        // Cooldown: a job that just moved stays put.
        placed.last_move_epoch = 5;
        assert!(p.decide(6, &[placed], &[bad, snapshot(1, 0.1)]).is_empty());
    }

    /// A load as a fraction of capacity: empty, exactly full, or anywhere
    /// from idle to three times over.
    fn level() -> impl Strategy<Value = f64> {
        (0u8..4, 0.0f64..3.0).prop_map(|(pick, x)| match pick {
            0 => 0.0,
            1 => 1.0,
            _ => x,
        })
    }

    /// A random movable job: any demand profile the validator accepts,
    /// with each rate zeroed when its bit of `zeros` is set.
    fn random_job() -> impl Strategy<Value = JobSpec> {
        (
            (0.5f64..2000.0, 0.1f64..50.0, 0u8..16),
            (0.0f64..4.0, 0.0f64..5000.0, 0.0f64..300.0, 0.0f64..1500.0),
            (0.0f64..4096.0, 0.0f64..4.0, 1u32..8, 1u32..8),
        )
            .prop_map(|((service_ms, rps, zeros), rates, pool)| {
                let (cpu, membw, disk, net) = rates;
                let (container_mb, cache_mb, concurrency, max_containers) = pool;
                let rate = |bit: u8, v: f64| if zeros & bit == 0 { v } else { 0.0 };
                let mut job = cluster_by_name("hotspot").unwrap().jobs[2].clone();
                job.tenant.arrival = ArrivalProcess::Poisson { rps };
                job.tenant.demand = DemandProfile {
                    service_ms,
                    cpu_per_invocation: rate(1, cpu),
                    membw_per_invocation: rate(2, membw),
                    disk_per_invocation: rate(4, disk),
                    net_per_invocation: rate(8, net),
                    container_mb,
                    cache_mb,
                    concurrency,
                    max_containers,
                    ..job.tenant.demand
                };
                job
            })
    }

    /// `levels[i]` × capacity of `ResourceKind::ALL[i]`.
    fn scaled(spec: &HostSpec, levels: &[f64]) -> ResourceVector {
        let mut v = ResourceVector::zero();
        for (k, level) in ResourceKind::ALL.into_iter().zip(levels) {
            v[k] = level * spec.capacity(k);
        }
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The planner over `ResourceVector` computes the very bits the
        /// `HostLoad` planner did, for every library job and random ones,
        /// on empty, full and oversubscribed hosts with the epoch-mean CPU
        /// above, at and below the instantaneous rate.
        #[test]
        fn planner_math_matches_the_host_load_reference_bit_for_bit(
            random in random_job(),
            capacity in prop::collection::vec(0.25f64..4.0, 6),
            load in prop::collection::vec(level(), 6),
            extra in prop::collection::vec(level(), 6),
            mean_cpu in level(),
            history in (0u64..6, 0.0f64..1.0, 0usize..4, 0u64..50),
        ) {
            let caps = scaled(&HostSpec::default(), &capacity);
            let spec = HostSpec {
                cpu_cores: caps[ResourceKind::Cpu],
                ram_mb: caps[ResourceKind::Memory],
                membw_mbps: caps[ResourceKind::MemBandwidth],
                disk_mbps: caps[ResourceKind::DiskIo],
                net_mbps: caps[ResourceKind::Network],
                llc_mb: caps[ResourceKind::Cache],
            };
            let (ticks, qos, frozen_jobs, violations) = history;
            let mut h = snapshot(0, 0.0);
            h.spec = spec;
            h.load = scaled(&spec, &load);
            h.mean_cpu = mean_cpu * spec.cpu_cores;
            for i in 0..ticks {
                h.epoch_qos.record(qos, i % 2 == 0);
            }
            h.frozen_jobs = frozen_jobs;
            h.template_violations = (violations > 0).then_some(violations);
            let old_h = reference::HostSnapshot::of(&h);
            let extra = scaled(&spec, &extra);
            let pending = [ResourceVector::zero(), extra];

            let library = cluster_library().unwrap().into_iter().flat_map(|c| c.jobs);
            for job in library.chain([random.clone()]) {
                let est = JobView::estimate(&job);
                let old_est = reference::estimate(&job);
                prop_assert_eq!(HostLoad::of(&est).bits(), old_est.bits(), "estimate of {}", job.name);
                for e in &pending {
                    let new = ScorePolicy::score(&h, e, &est);
                    let old = reference::score(&old_h, &HostLoad::of(e), &old_est);
                    prop_assert_eq!(new.to_bits(), old.to_bits(), "score of {}: {} vs {}", job.name, new, old);
                }
                let new = ScorePolicy::intrinsic(&h, &est);
                let old = reference::intrinsic(&old_h, &old_est);
                prop_assert_eq!(new.to_bits(), old.to_bits(), "intrinsic of {}: {} vs {}", job.name, new, old);
            }
        }
    }
}
