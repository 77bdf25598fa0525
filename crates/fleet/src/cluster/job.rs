//! Movable batch jobs and their placement-independent request streams.
//!
//! A [`JobSpec`] declares a batch tenant that exists *above* any single
//! host: it is submitted to the cluster admission queue at a tick, streams
//! open-loop arrivals for a bounded window, and departs once its work
//! drains. The runtime `JobState` owns the job's arrival and service
//! RNG streams — seeded from `(cluster_seed, job_id)` via
//! [`derive_job_seed`], disjoint from the host-seed space — and generates
//! `(arrival_ns, nominal_service_ns)` pairs against the cluster clock.
//! Because generation never touches host state and hosts ingest the pairs
//! as RNG-free injected events, the stream (and its FNV digest) is a pure
//! function of `(cluster_seed, job_id, spec)`: identical under every
//! placement decision and every migration history.

use crate::seed::derive_cell_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use stayaway_telemetry::AppClass;
use stayaway_workload::{TenantSpec, WorkloadError};
use std::collections::VecDeque;

/// Job seed streams live in the upper half of the index space so they can
/// never collide with host seeds (`derive_cell_seed(seed, host_idx)` with
/// small indices): stream `s` of job `j` maps to index
/// `(1 << 32) + 2 * j + s`.
pub fn derive_job_seed(cluster_seed: u64, job: u64, stream: u64) -> u64 {
    derive_cell_seed(cluster_seed, (1u64 << 32) + 2 * job + stream)
}

/// Declarative spec of one movable batch job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Job name (unique within a cluster scenario).
    pub name: String,
    /// The batch tenant this job materialises wherever it is placed.
    pub tenant: TenantSpec,
    /// Tick at which the job arrives at the cluster admission queue.
    pub submit_tick: u64,
    /// Ticks the job's arrival stream stays active after submission; the
    /// job departs once the stream ends and its pending work drains.
    pub duration_ticks: u64,
}

impl JobSpec {
    /// Validates the job.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] for an empty name, a
    /// non-batch tenant, a zero duration, or an invalid tenant spec.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let invalid = |reason: String| WorkloadError::InvalidSpec { reason };
        if self.name.is_empty() {
            return Err(invalid("job name must not be empty".into()));
        }
        if self.tenant.class != AppClass::Batch {
            return Err(invalid(format!(
                "job '{}' must wrap a batch tenant (sensitive tenants are host-resident)",
                self.name
            )));
        }
        if self.duration_ticks == 0 {
            return Err(invalid(format!(
                "job '{}' must have a positive duration",
                self.name
            )));
        }
        self.tenant.validate()
    }
}

/// Runtime state of one job: RNG streams, generation cursor, carried
/// backlog while unplaced, and placement history.
#[derive(Debug)]
pub(crate) struct JobState {
    /// Index into the scenario's job list.
    pub id: usize,
    /// The declarative spec.
    pub spec: JobSpec,
    arrival_rng: StdRng,
    service_rng: StdRng,
    /// Time of the last generated arrival (generation cursor), ns.
    cursor_ns: u64,
    /// Absolute end of the arrival stream, ns.
    end_ns: u64,
    /// A generated arrival not yet released to a window.
    lookahead: Option<(u64, u64)>,
    /// True once the stream sampled past `end_ns`.
    stream_done: bool,
    /// FNV-1a fold of every generated `(arrival, nominal)` pair.
    pub digest: u64,
    /// Arrivals generated so far.
    pub generated: u64,
    /// Backlog accumulated while unplaced, bounded by the tenant's
    /// `queue_cap` (overflow counted in `dropped_unplaced`).
    pub carried: VecDeque<(u64, u64)>,
    /// Requests dropped because the unplaced backlog overflowed.
    pub dropped_unplaced: u64,
    /// Current host and tenant index on it, when placed.
    pub placement: Option<(usize, usize)>,
    /// Every host the job has run on, in placement order.
    pub placements: Vec<usize>,
    /// Completed migrations.
    pub migrations: u64,
    /// Epochs spent in the admission queue after arriving.
    pub queued_epochs: u64,
    /// Epoch of the last placement change (admission or migration).
    pub last_move_epoch: u64,
    /// True once `submit_tick` has passed.
    pub arrived: bool,
    /// True once the stream ended and all pending work drained.
    pub departed: bool,
}

impl JobState {
    /// Builds the runtime state of job `id` under `cluster_seed`, with
    /// the clock geometry needed to anchor the stream window.
    pub fn new(id: usize, spec: JobSpec, cluster_seed: u64, tick_period_ns: u64) -> Self {
        // Spec ticks are outside input: a submit tick or duration near
        // `u64::MAX` means "never" / "forever" and must pin the clock at
        // its end instead of wrapping round to an early arrival.
        let submit_ns = spec.submit_tick.saturating_mul(tick_period_ns);
        let end_ns = submit_ns.saturating_add(spec.duration_ticks.saturating_mul(tick_period_ns));
        JobState {
            arrival_rng: StdRng::seed_from_u64(derive_job_seed(cluster_seed, id as u64, 0)),
            service_rng: StdRng::seed_from_u64(derive_job_seed(cluster_seed, id as u64, 1)),
            cursor_ns: submit_ns,
            end_ns,
            lookahead: None,
            stream_done: false,
            digest: 0xcbf2_9ce4_8422_2325,
            generated: 0,
            carried: VecDeque::new(),
            dropped_unplaced: 0,
            placement: None,
            placements: Vec::new(),
            migrations: 0,
            queued_epochs: 0,
            last_move_epoch: 0,
            arrived: false,
            departed: false,
            id,
            spec,
        }
    }

    /// True once the arrival stream has ended.
    pub fn stream_done(&self) -> bool {
        self.stream_done
    }

    /// Releases every arrival strictly before `until_ns`, generating from
    /// the job's own streams as needed. Consumes nothing outside the job:
    /// calling this each epoch — which the runner does for every live job
    /// whether placed or not — makes the sequence a pure function of the
    /// epoch grid, never of placement.
    pub fn arrivals_before(&mut self, until_ns: u64) -> Vec<(u64, u64)> {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut out = Vec::new();
        loop {
            if self.lookahead.is_none() {
                if self.stream_done {
                    break;
                }
                let t = self
                    .spec
                    .tenant
                    .arrival
                    .next_arrival_ns(self.cursor_ns, &mut self.arrival_rng);
                if t >= self.end_ns {
                    self.stream_done = true;
                    break;
                }
                // The nominal service time comes from the dedicated
                // service stream, consumed strictly in arrival order.
                let d = &self.spec.tenant.demand;
                let u: f64 = self.service_rng.gen_range(0.0..1.0);
                let factor = 1.0 - d.service_jitter + 2.0 * d.service_jitter * u;
                let nominal = ((d.service_ns() as f64 * factor) as u64).max(1);
                self.cursor_ns = t;
                for word in [t, nominal] {
                    self.digest = (self.digest ^ word).wrapping_mul(PRIME);
                }
                self.generated += 1;
                self.lookahead = Some((t, nominal));
            }
            let (t, nominal) = self.lookahead.expect("filled above");
            if t >= until_ns {
                break;
            }
            self.lookahead = None;
            out.push((t, nominal));
        }
        out
    }

    /// Pushes work into the unplaced backlog, dropping on overflow.
    pub fn carry(&mut self, requests: impl IntoIterator<Item = (u64, u64)>) {
        let cap = self.spec.tenant.demand.queue_cap as usize;
        for req in requests {
            if self.carried.len() < cap {
                self.carried.push_back(req);
            } else {
                self.dropped_unplaced += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::scenario::cluster_library;

    fn job_spec() -> JobSpec {
        cluster_library().unwrap()[0].jobs[0].clone()
    }

    #[test]
    fn job_seeds_avoid_the_host_seed_space() {
        for job in 0..64u64 {
            for stream in 0..2 {
                let s = derive_job_seed(7, job, stream);
                for host in 0..1024u64 {
                    assert_ne!(s, derive_cell_seed(7, host));
                }
            }
        }
    }

    #[test]
    fn generation_is_independent_of_window_chopping() {
        let spec = job_spec();
        let mut coarse = JobState::new(0, spec.clone(), 11, 1_000_000_000);
        let mut fine = JobState::new(0, spec, 11, 1_000_000_000);
        let horizon = 120 * 1_000_000_000u64;
        let all = coarse.arrivals_before(horizon);
        let mut chopped = Vec::new();
        for k in 1..=120u64 {
            chopped.extend(fine.arrivals_before(k * 1_000_000_000));
        }
        assert_eq!(all, chopped);
        assert_eq!(coarse.digest, fine.digest);
        assert_eq!(coarse.generated, fine.generated);
        assert!(!all.is_empty());
    }

    #[test]
    fn stream_ends_at_the_duration_boundary() {
        let mut spec = job_spec();
        spec.submit_tick = 4;
        spec.duration_ticks = 8;
        let mut job = JobState::new(0, spec, 3, 1_000_000_000);
        let arr = job.arrivals_before(60 * 1_000_000_000);
        assert!(job.stream_done());
        assert!(arr
            .iter()
            .all(|(t, _)| (4_000_000_000..12_000_000_000).contains(t)));
        assert!(job.arrivals_before(120 * 1_000_000_000).is_empty());
    }

    #[test]
    fn carry_bounds_the_backlog() {
        let mut job = JobState::new(0, job_spec(), 5, 1_000_000_000);
        let cap = job.spec.tenant.demand.queue_cap as usize;
        job.carry((0..cap as u64 + 10).map(|i| (i, 1)));
        assert_eq!(job.carried.len(), cap);
        assert_eq!(job.dropped_unplaced, 10);
    }

    #[test]
    fn validation_rejects_degenerate_jobs() {
        let mut s = job_spec();
        s.name.clear();
        assert!(s.validate().is_err());
        let mut s = job_spec();
        s.duration_ticks = 0;
        assert!(s.validate().is_err());
        let mut s = job_spec();
        s.tenant.class = AppClass::Sensitive;
        assert!(s.validate().is_err());
        assert!(job_spec().validate().is_ok());
    }
}
