//! The deterministic discrete-event engine behind a workload scenario.
//!
//! [`WorkloadHost`] simulates one multi-tenant host in integer
//! nanoseconds. Five event kinds drive it — native and injected request
//! arrivals, container deploy completions, invocation completions and
//! idle-container expiries — popped in `(time, seq)` order, `seq` being
//! the push counter, so ties break by insertion order and the timeline is
//! a pure function of `(scenario, seed, action sequence)`. The queue
//! behind that order (`queue.rs`, DESIGN.md §13) sorts only the control
//! tick that is open: later ticks' events wait unsorted in per-tick
//! buckets and each tenant's next native arrival is a slot. Cancelled
//! timers are still queued, popped and folded into the timeline digest —
//! the generation counters make them no-ops — and the per-tenant
//! resource-time integrals move only for tenants whose running rates are
//! not all exactly zero, one `rate · dt` term per event as before.
//!
//! Every tenant owns two split RNG streams (arrival gaps, service
//! jitter), both derived from the run seed by SplitMix64, so arrival
//! timelines are identical under every control policy: the open-loop
//! property that makes latency comparable across policies.
//!
//! Contention is modelled at dispatch: an invocation's service time is
//! stretched by the product of the host's per-resource oversubscription
//! ratios (CPU, memory bandwidth, disk, network, LLC footprint) and a
//! swap penalty for RAM overcommit, sampled once when the invocation
//! starts. Freezing a tenant (the paper's SIGSTOP) halts its in-flight
//! invocations — their remaining stretched time is stored and their
//! completion events lazily invalidated through generation counters —
//! and removes their rate demands from the contention signal while the
//! frozen containers keep occupying RAM and cache, exactly the
//! behaviour Stay-Away exploits.
//!
//! The engine is its own [`ObservationSource`]: `next_observation` runs it
//! one control tick forward, `apply` actuates freezes and resumes at the
//! tick boundary, and `record_for` returns its noiseless ground-truth
//! accounting — so `stayaway_telemetry::drive` closes the loop over the
//! request-driven host exactly as it does over the simulator, and every
//! policy senses it unchanged.

use crate::arrival::NANOS_PER_SEC;
use crate::latency::LatencyHistogram;
use crate::metrics::WorkloadMetrics;
use crate::queue::{Event, EventKind, EventQueue};
use crate::spec::{TenantSpec, WorkloadScenario};
use crate::WorkloadError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stayaway_obs::{attr, FlightRecorder, Layer, MetricsRegistry};
use stayaway_telemetry::{
    splitmix64, Action, AppClass, ContainerId, Observation, ObservationSource, RequestQos,
    ResourceKind, ResourceVector, SourceKind, SourceMeta, TelemetryError, TickRecord,
};
use std::collections::VecDeque;

/// The occupancy resources a warm container holds whether or not it
/// runs; [`ResourceKind::SHARED_RATES`] are the ones its invocations use.
const OCCUPANCY: [ResourceKind; 2] = [ResourceKind::Memory, ResourceKind::Cache];

/// `v[k] += by[k]` for each `k` of `kinds`, and no other component: a
/// component left alone keeps its bits (`-0.0 + 0.0` would not).
fn add_kinds(v: &mut ResourceVector, by: &ResourceVector, kinds: &[ResourceKind]) {
    for &k in kinds {
        v[k] += by[k];
    }
}

/// `v[k] = max(v[k] − by[k], 0)` for each `k` of `kinds`, and no other.
fn sub_kinds(v: &mut ResourceVector, by: &ResourceVector, kinds: &[ResourceKind]) {
    for &k in kinds {
        v[k] = (v[k] - by[k]).max(0.0);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ContainerState {
    /// Slot unused.
    Dead,
    /// Cold-starting; serves nothing until its `ContainerReady` fires.
    Deploying,
    /// Deployed and able to serve (idle when `active == 0`).
    Warm,
}

#[derive(Debug, Clone)]
struct Container {
    state: ContainerState,
    /// Bumped on every transition; in-flight `ContainerReady` /
    /// `IdleExpire` events carrying an older value are stale.
    gen: u64,
    /// Running invocations currently assigned to this container.
    active: u32,
}

/// A request waiting for a container slot.
#[derive(Debug, Clone, Copy)]
struct Request {
    arrival_ns: u64,
    nominal_ns: u64,
}

/// An in-flight invocation.
#[derive(Debug, Clone, Copy)]
struct Running {
    slot: usize,
    arrival_ns: u64,
    nominal_ns: u64,
    finish_ns: u64,
    slowdown: f64,
    /// Bumped on freeze/resume; the scheduled `Completion` event is
    /// valid only while its gen matches.
    gen: u64,
    /// Stretched nanoseconds left when the tenant was frozen.
    frozen_remaining: Option<u64>,
}

/// Per-tick, per-tenant accounting, reset at every tick boundary.
#[derive(Debug, Clone, Copy, Default)]
struct TickStats {
    completed: u64,
    met: u64,
    dropped: u64,
    cold_starts: u64,
    evictions: u64,
    slowdown_sum: f64,
    /// Resource-time integrals over the tick (value · nanoseconds), on
    /// the [`ResourceKind::SHARED_RATES`] axes.
    acc: ResourceVector,
}

/// Whole-run request totals (ground truth, all tenants).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunTotals {
    /// Requests that arrived (all tenants).
    pub arrivals: u64,
    /// Invocations completed (all tenants).
    pub completed: u64,
    /// Sensitive requests completed.
    pub sensitive_completed: u64,
    /// Sensitive requests that met the deadline.
    pub sensitive_met: u64,
    /// Sensitive requests dropped on queue overflow.
    pub sensitive_dropped: u64,
    /// Requests dropped on queue overflow (all tenants).
    pub dropped: u64,
    /// Containers cold-started.
    pub cold_starts: u64,
    /// Idle containers evicted.
    pub evictions: u64,
}

impl RunTotals {
    /// Fraction of sensitive requests that missed the SLO (deadline
    /// overruns plus drops). 0 when no sensitive requests finished.
    pub fn slo_violation_rate(&self) -> f64 {
        let total = self.sensitive_completed + self.sensitive_dropped;
        if total == 0 {
            0.0
        } else {
            1.0 - self.sensitive_met as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Tenant {
    name: String,
    class: AppClass,
    frozen: bool,
    /// True once the tenant has been detached (migrated away): all its
    /// containers are evicted, pending work was carried off, and the slot
    /// remains only so container ids of later tenants stay stable.
    detached: bool,
    arrival_rng: StdRng,
    service_rng: StdRng,
    containers: Vec<Container>,
    /// Containers not `Dead`, maintained by construction,
    /// `deploy_container` and `evict_container`.
    alive: u32,
    free_slots: Vec<usize>,
    queue: VecDeque<Request>,
    running: Vec<Option<Running>>,
    running_free: Vec<usize>,
    running_count: u32,
    inv_gen: u64,
    /// What one invocation demands
    /// ([`crate::DemandProfile::invocation_rates`]) and one alive container
    /// holds ([`crate::DemandProfile::container_occupancy`]).
    rates: ResourceVector,
    occupancy: ResourceVector,
    /// Current rate demand of this tenant's *running, unfrozen*
    /// invocations, on the [`ResourceKind::SHARED_RATES`] axes.
    run: ResourceVector,
    /// True while this tenant is listed in [`WorkloadHost::rated`].
    rated: bool,
    stats: TickStats,
}

impl Tenant {
    /// A tenant of `spec` with no containers, no work and zero rates.
    fn new(spec: &TenantSpec, arrival_seed: u64, service_seed: u64) -> Self {
        Tenant {
            name: spec.name.clone(),
            class: spec.class,
            frozen: false,
            detached: false,
            arrival_rng: StdRng::seed_from_u64(arrival_seed),
            service_rng: StdRng::seed_from_u64(service_seed),
            containers: Vec::new(),
            alive: 0,
            free_slots: Vec::new(),
            queue: VecDeque::new(),
            running: Vec::new(),
            running_free: Vec::new(),
            running_count: 0,
            inv_gen: 0,
            rates: spec.demand.invocation_rates(),
            occupancy: spec.demand.container_occupancy(),
            run: ResourceVector::zero(),
            rated: false,
            stats: TickStats::default(),
        }
    }

    /// The pre-warmed container an eager-keepalive tenant starts with.
    fn prewarm(&mut self) {
        self.containers.push(Container {
            state: ContainerState::Warm,
            gen: 0,
            active: 0,
        });
        self.alive += 1;
    }

    fn alive_containers(&self) -> u32 {
        debug_assert_eq!(
            self.alive as usize,
            self.containers
                .iter()
                .filter(|c| c.state != ContainerState::Dead)
                .count()
        );
        self.alive
    }

    /// True when any running rate is not exactly zero — counts would not
    /// do: add/sub residues (`0.1 + 0.1 + 0.1 − 0.1 − 0.1 − 0.1 =
    /// 2.8e-17`) outlive the invocations that left them and are
    /// integrated like any other rate.
    fn has_rates(&self) -> bool {
        ResourceKind::SHARED_RATES
            .iter()
            .any(|&k| self.run[k] != 0.0)
    }
}

/// The deterministic multi-tenant host engine.
#[derive(Debug)]
pub struct WorkloadHost {
    scenario: WorkloadScenario,
    tick_period_ns: u64,
    deadline_ns: u64,
    tick: u64,
    /// Time up to which the resource-time integrals have been advanced.
    now_ns: u64,
    events: EventQueue,
    tenants: Vec<Tenant>,
    /// Indices of the tenants whose running rates are not all exactly
    /// zero — the only ones whose integrals [`Self::advance`] can move.
    rated: Vec<usize>,
    /// Host-wide load: the running rate demand of all unfrozen invocations
    /// on the [`ResourceKind::SHARED_RATES`] axes, and the occupancy of
    /// alive containers (frozen ones included — SIGSTOP keeps memory
    /// resident) on [`ResourceKind::Memory`] and [`ResourceKind::Cache`].
    load: ResourceVector,
    /// Nominal batch work completed, core-seconds.
    batch_work: f64,
    totals: RunTotals,
    latency: LatencyHistogram,
    /// FNV-1a fold of every processed event — the run's timeline
    /// fingerprint for determinism tests.
    timeline_digest: u64,
    last_record: Option<TickRecord>,
    metrics: Option<WorkloadMetrics>,
    recorder: Option<FlightRecorder>,
    /// The observation handed back through [`ObservationSource::recycle`],
    /// refilled by the next tick.
    spare: Option<Observation>,
}

impl WorkloadHost {
    /// Builds the engine for a validated scenario.
    ///
    /// Tenants with an eager keepalive policy start with one pre-warmed
    /// container (their service is already running when the controller
    /// attaches); everyone else starts cold. The first arrival of every
    /// tenant is scheduled from its dedicated arrival stream.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] when the scenario fails
    /// validation.
    pub fn new(scenario: WorkloadScenario, seed: u64) -> Result<Self, WorkloadError> {
        scenario.validate()?;
        let mut host = WorkloadHost {
            tick_period_ns: scenario.tick_period_ns(),
            deadline_ns: scenario.slo.deadline_ns(),
            tick: 0,
            now_ns: 0,
            events: EventQueue::new(scenario.tick_period_ns()),
            tenants: Vec::new(),
            rated: Vec::new(),
            load: ResourceVector::zero(),
            batch_work: 0.0,
            totals: RunTotals::default(),
            latency: LatencyHistogram::new(),
            timeline_digest: 0xcbf2_9ce4_8422_2325,
            last_record: None,
            metrics: None,
            recorder: None,
            spare: None,
            scenario,
        };
        for (i, t) in host.scenario.tenants.clone().iter().enumerate() {
            let arrival_seed = splitmix64(seed ^ splitmix64(2 * i as u64));
            let service_seed = splitmix64(seed ^ splitmix64(2 * i as u64 + 1));
            let mut tenant = Tenant::new(t, arrival_seed, service_seed);
            if t.keepalive.idle_window_ns().is_none() {
                tenant.prewarm();
                add_kinds(&mut host.load, &tenant.occupancy, &OCCUPANCY);
            }
            let first = t.arrival.next_arrival_ns(0, &mut tenant.arrival_rng);
            host.tenants.push(tenant);
            host.events.push(first, EventKind::Arrival { tenant: i });
        }
        Ok(host)
    }

    /// Attaches decision-inert instrumentation registered into `registry`.
    /// Recording only bumps atomics — it never touches RNG or control
    /// state, so instrumented and bare runs stay bit-identical.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(WorkloadMetrics::register(registry));
        self
    }

    /// Records workload-layer SLO violations into the flight recorder
    /// (one `SloViolation` event per violated tick with the sensitive
    /// tenant active). Decision-inert: the engine never reads the
    /// recorder back.
    pub fn with_recorder(mut self, recorder: FlightRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The scenario this engine runs.
    pub fn scenario(&self) -> &WorkloadScenario {
        &self.scenario
    }

    /// Whole-run latency histogram of sensitive requests.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Whole-run request totals.
    pub fn totals(&self) -> &RunTotals {
        &self.totals
    }

    /// Nominal batch work completed so far, core-seconds.
    pub fn batch_work(&self) -> f64 {
        self.batch_work
    }

    /// FNV-1a fingerprint of every event processed so far: two runs with
    /// the same scenario, seed and action sequence fold to the same
    /// digest; any divergence in the timeline changes it.
    pub fn timeline_digest(&self) -> u64 {
        self.timeline_digest
    }

    /// Instantaneous load snapshot (cluster placement input): the rates
    /// demanded by running, unfrozen invocations on the
    /// [`ResourceKind::SHARED_RATES`] axes, and the RAM and LLC held by
    /// alive containers (frozen included) on [`ResourceKind::Memory`] and
    /// [`ResourceKind::Cache`].
    pub fn load(&self) -> ResourceVector {
        self.load
    }

    /// Requests of tenant `ti` still pending: queued plus in flight
    /// (frozen invocations count — they finish after a resume).
    pub fn tenant_pending(&self, ti: usize) -> u64 {
        self.tenants
            .get(ti)
            .map_or(0, |t| t.queue.len() as u64 + u64::from(t.running_count))
    }

    /// Batch tenants currently frozen (and not detached).
    pub fn frozen_batch(&self) -> usize {
        self.tenants
            .iter()
            .filter(|t| t.class == AppClass::Batch && t.frozen && !t.detached)
            .count()
    }

    /// Attaches a new externally-driven tenant mid-run and returns its
    /// index (= its stable [`ContainerId`]). The tenant receives **no**
    /// native arrival stream — requests reach it only through
    /// [`Self::inject_arrival`] — so attaching consumes no host RNG and
    /// perturbs no resident tenant's timeline. Eager-keepalive tenants
    /// start with one pre-warmed container; everyone else starts cold and
    /// pays the cold start on first traffic (the migration cost).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] when the tenant spec fails
    /// validation.
    pub fn attach_tenant(&mut self, spec: TenantSpec) -> Result<usize, WorkloadError> {
        spec.validate()?;
        let ti = self.tenants.len();
        // The RNG streams are never consumed: attached tenants are
        // externally driven.
        let mut tenant = Tenant::new(&spec, splitmix64(ti as u64), splitmix64(ti as u64 + 1));
        if spec.keepalive.idle_window_ns().is_none() {
            tenant.prewarm();
            add_kinds(&mut self.load, &tenant.occupancy, &OCCUPANCY);
        }
        self.scenario.tenants.push(spec);
        self.tenants.push(tenant);
        Ok(ti)
    }

    /// Detaches a batch tenant (migration departure): aborts its in-flight
    /// invocations, evicts all its containers (releasing RAM, cache and
    /// rate demands), and returns the carried work — `(arrival_ns,
    /// nominal_ns)` of every aborted in-flight invocation (slot order,
    /// restarted from scratch wherever they land next) followed by every
    /// queued request (FIFO). The slot stays as a tombstone so later
    /// tenants keep their container ids.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] for an unknown index, a
    /// sensitive tenant (they are host-resident), or a double detach.
    pub fn detach_tenant(&mut self, ti: usize) -> Result<Vec<(u64, u64)>, WorkloadError> {
        let invalid = |reason: String| WorkloadError::InvalidSpec { reason };
        match self.tenants.get(ti) {
            None => return Err(invalid(format!("detach: unknown tenant {ti}"))),
            Some(t) if t.class == AppClass::Sensitive => {
                return Err(invalid(format!("detach: tenant {ti} is sensitive")))
            }
            Some(t) if t.detached => {
                return Err(invalid(format!("detach: tenant {ti} already detached")))
            }
            Some(_) => {}
        }
        let now_ns = self.boundary_ns();
        self.advance(now_ns);
        let mut carried = Vec::new();
        for i in 0..self.tenants[ti].running.len() {
            let Some(r) = self.tenants[ti].running[i] else {
                continue;
            };
            if r.frozen_remaining.is_none() {
                self.sub_running_rates(ti);
            }
            carried.push((r.arrival_ns, r.nominal_ns));
        }
        let t = &mut self.tenants[ti];
        t.running.clear();
        t.running_free.clear();
        t.running_count = 0;
        t.inv_gen += 1; // pending Completion events are stale
        carried.extend(t.queue.drain(..).map(|r| (r.arrival_ns, r.nominal_ns)));
        for slot in 0..self.tenants[ti].containers.len() {
            if self.tenants[ti].containers[slot].state != ContainerState::Dead {
                self.evict_container(ti, slot);
            }
        }
        let t = &mut self.tenants[ti];
        t.frozen = false;
        t.detached = true;
        Ok(carried)
    }

    /// Schedules an externally generated request for tenant `ti` at
    /// `time_ns` (clamped forward to the current tick boundary) with the
    /// given nominal service time. Consumes no host RNG: the cluster's
    /// job plane owns the arrival and service streams, so the same request
    /// sequence lands wherever the job is placed.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] for an unknown or detached
    /// tenant or a zero nominal service time.
    pub fn inject_arrival(
        &mut self,
        ti: usize,
        time_ns: u64,
        nominal_ns: u64,
    ) -> Result<(), WorkloadError> {
        let invalid = |reason: String| WorkloadError::InvalidSpec { reason };
        match self.tenants.get(ti) {
            None => return Err(invalid(format!("inject: unknown tenant {ti}"))),
            Some(t) if t.detached => {
                return Err(invalid(format!("inject: tenant {ti} is detached")))
            }
            Some(_) => {}
        }
        if nominal_ns == 0 {
            return Err(invalid("inject: nominal_ns must be positive".into()));
        }
        let time_ns = time_ns.max(self.boundary_ns());
        self.events.push(
            time_ns,
            EventKind::Injected {
                tenant: ti,
                nominal_ns,
            },
        );
        Ok(())
    }

    /// The current tick boundary — where the next tick starts and where
    /// `apply`, `detach_tenant` and `inject_arrival` act — in nanoseconds,
    /// saturating at the end of the `u64` clock.
    fn boundary_ns(&self) -> u64 {
        self.tick.saturating_mul(self.tick_period_ns)
    }

    fn fold_digest(&mut self, e: &Event) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = self.timeline_digest;
        for word in [e.time_ns, e.seq, e.kind.discriminant()] {
            h = (h ^ word).wrapping_mul(PRIME);
        }
        self.timeline_digest = h;
    }

    /// Advances the per-tenant resource-time integrals to `to_ns`. Must
    /// be called before any mutation of the running set.
    ///
    /// Only the tenants in `rated` are visited: everyone else's four rates
    /// are exactly `0.0`, and adding `0.0 · dt` is the identity. Each call
    /// adds its own `rate · dt` term — `acc += r·dt₁; acc += r·dt₂` is not
    /// `acc += r·(dt₁ + dt₂)` in f64, so intervals are never merged.
    fn advance(&mut self, to_ns: u64) {
        let dt = to_ns.saturating_sub(self.now_ns) as f64;
        if dt > 0.0 {
            for &ti in &self.rated {
                let t = &mut self.tenants[ti];
                for k in ResourceKind::SHARED_RATES {
                    t.stats.acc[k] += t.run[k] * dt;
                }
            }
        }
        self.now_ns = self.now_ns.max(to_ns);
    }

    /// Contention-stretch factor for a new invocation of tenant `ti`:
    /// the product of per-resource oversubscription ratios (including
    /// the invocation's own demand) and a swap penalty for RAM
    /// overcommit. Always ≥ 1. The factors multiply in the fixed order
    /// cpu · membw · disk · net · cache · (1 + overcommit).
    fn slowdown_for(&self, ti: usize) -> f64 {
        let rates = &self.tenants[ti].rates;
        let h = &self.scenario.host;
        let mut slowdown = 1.0;
        for k in ResourceKind::SHARED_RATES {
            slowdown *= ((self.load[k] + rates[k]) / h.capacity(k)).max(1.0);
        }
        let cache = (self.load[ResourceKind::Cache] / h.llc_mb).max(1.0);
        let overcommit = ((self.load[ResourceKind::Memory] - h.ram_mb) / h.ram_mb).max(0.0);
        slowdown * cache * (1.0 + overcommit)
    }

    fn add_running_rates(&mut self, ti: usize) {
        let t = &mut self.tenants[ti];
        add_kinds(&mut t.run, &t.rates, &ResourceKind::SHARED_RATES);
        add_kinds(&mut self.load, &t.rates, &ResourceKind::SHARED_RATES);
        self.refresh_rated(ti);
    }

    fn sub_running_rates(&mut self, ti: usize) {
        let t = &mut self.tenants[ti];
        sub_kinds(&mut t.run, &t.rates, &ResourceKind::SHARED_RATES);
        sub_kinds(&mut self.load, &t.rates, &ResourceKind::SHARED_RATES);
        self.refresh_rated(ti);
    }

    /// Re-derives tenant `ti`'s membership of `rated` after its running
    /// rates changed.
    fn refresh_rated(&mut self, ti: usize) {
        let t = &mut self.tenants[ti];
        let rated = t.has_rates();
        if rated == t.rated {
            return;
        }
        t.rated = rated;
        if rated {
            self.rated.push(ti);
        } else {
            self.rated.retain(|&other| other != ti);
        }
    }

    /// Starts `req` on container `slot` of tenant `ti` at `now`.
    fn start_invocation(&mut self, ti: usize, slot: usize, req: Request, now_ns: u64) {
        let slowdown = self.slowdown_for(ti);
        let stretched = ((req.nominal_ns as f64 * slowdown) as u64).max(1);
        let finish_ns = now_ns.saturating_add(stretched);
        let t = &mut self.tenants[ti];
        t.inv_gen += 1;
        let gen = t.inv_gen;
        let running = Running {
            slot,
            arrival_ns: req.arrival_ns,
            nominal_ns: req.nominal_ns,
            finish_ns,
            slowdown,
            gen,
            frozen_remaining: None,
        };
        let inv = match t.running_free.pop() {
            Some(i) => {
                t.running[i] = Some(running);
                i
            }
            None => {
                t.running.push(Some(running));
                t.running.len() - 1
            }
        };
        t.running_count += 1;
        let c = &mut t.containers[slot];
        c.active += 1;
        c.gen += 1; // invalidates any pending idle expiry
        self.add_running_rates(ti);
        self.events.push(
            finish_ns,
            EventKind::Completion {
                tenant: ti,
                inv,
                gen,
            },
        );
    }

    /// First warm container (slot order) with a free concurrency slot.
    fn free_capacity_slot(&self, ti: usize) -> Option<usize> {
        let concurrency = self.scenario.tenants[ti].demand.concurrency;
        self.tenants[ti]
            .containers
            .iter()
            .position(|c| c.state == ContainerState::Warm && c.active < concurrency)
    }

    /// Routes a request: warm capacity → run now; pool headroom → deploy
    /// and queue; else queue, dropping on overflow.
    fn dispatch(&mut self, ti: usize, req: Request, now_ns: u64) {
        if !self.tenants[ti].frozen {
            if let Some(slot) = self.free_capacity_slot(ti) {
                self.start_invocation(ti, slot, req, now_ns);
                return;
            }
            let spec = &self.scenario.tenants[ti];
            let can_deploy = self.tenants[ti].alive_containers() < spec.demand.max_containers;
            if can_deploy {
                self.deploy_container(ti, now_ns);
            }
        }
        let cap = self.scenario.tenants[ti].demand.queue_cap as usize;
        let t = &mut self.tenants[ti];
        if t.queue.len() < cap {
            t.queue.push_back(req);
        } else {
            t.stats.dropped += 1;
            self.totals.dropped += 1;
            if t.class == AppClass::Sensitive {
                self.totals.sensitive_dropped += 1;
            }
            if let Some(m) = &self.metrics {
                m.dropped.inc();
            }
        }
    }

    fn deploy_container(&mut self, ti: usize, now_ns: u64) {
        let cold_ns = self.scenario.tenants[ti].demand.cold_start_ns();
        let t = &mut self.tenants[ti];
        let slot = match t.free_slots.pop() {
            Some(s) => {
                let c = &mut t.containers[s];
                c.state = ContainerState::Deploying;
                c.gen += 1;
                c.active = 0;
                s
            }
            None => {
                t.containers.push(Container {
                    state: ContainerState::Deploying,
                    gen: 0,
                    active: 0,
                });
                t.containers.len() - 1
            }
        };
        let gen = t.containers[slot].gen;
        t.alive += 1;
        t.stats.cold_starts += 1;
        self.totals.cold_starts += 1;
        add_kinds(&mut self.load, &t.occupancy, &OCCUPANCY);
        if let Some(m) = &self.metrics {
            m.cold_starts.inc();
        }
        self.events.push(
            now_ns.saturating_add(cold_ns.max(1)),
            EventKind::ContainerReady {
                tenant: ti,
                slot,
                gen,
            },
        );
    }

    fn evict_container(&mut self, ti: usize, slot: usize) {
        let t = &mut self.tenants[ti];
        let c = &mut t.containers[slot];
        c.state = ContainerState::Dead;
        c.gen += 1;
        c.active = 0;
        t.alive -= 1;
        t.free_slots.push(slot);
        t.stats.evictions += 1;
        self.totals.evictions += 1;
        sub_kinds(&mut self.load, &t.occupancy, &OCCUPANCY);
        if let Some(m) = &self.metrics {
            m.evictions.inc();
        }
    }

    /// Arms the keepalive timer (or evicts immediately) for a container
    /// that just became idle.
    fn container_idle(&mut self, ti: usize, slot: usize, now_ns: u64) {
        match self.scenario.tenants[ti].keepalive.idle_window_ns() {
            None => {}
            Some(0) => self.evict_container(ti, slot),
            Some(window) => {
                let gen = self.tenants[ti].containers[slot].gen;
                self.events.push(
                    now_ns.saturating_add(window),
                    EventKind::IdleExpire {
                        tenant: ti,
                        slot,
                        gen,
                    },
                );
            }
        }
    }

    /// Feeds queued requests into any free capacity of tenant `ti`.
    fn drain_queue(&mut self, ti: usize, now_ns: u64) {
        while let Some(&req) = self.tenants[ti].queue.front() {
            let Some(slot) = self.free_capacity_slot(ti) else {
                break;
            };
            self.tenants[ti].queue.pop_front();
            self.start_invocation(ti, slot, req, now_ns);
        }
    }

    fn handle_arrival(&mut self, ti: usize, now_ns: u64) {
        // Schedule the successor first: the arrival stream consumes only
        // the arrival RNG, in arrival order, under every policy.
        let next = self.scenario.tenants[ti]
            .arrival
            .next_arrival_ns(now_ns, &mut self.tenants[ti].arrival_rng);
        self.events.push(next, EventKind::Arrival { tenant: ti });
        // Nominal service time comes from the dedicated service stream,
        // also consumed in arrival order.
        let d = &self.scenario.tenants[ti].demand;
        let (base_ns, jitter) = (d.service_ns(), d.service_jitter);
        let u: f64 = self.tenants[ti].service_rng.gen_range(0.0..1.0);
        let factor = 1.0 - jitter + 2.0 * jitter * u;
        let nominal_ns = ((base_ns as f64 * factor) as u64).max(1);
        self.totals.arrivals += 1;
        if let Some(m) = &self.metrics {
            m.requests.inc();
        }
        self.dispatch(
            ti,
            Request {
                arrival_ns: now_ns,
                nominal_ns,
            },
            now_ns,
        );
    }

    fn handle_container_ready(&mut self, ti: usize, slot: usize, gen: u64, now_ns: u64) {
        {
            let c = &mut self.tenants[ti].containers[slot];
            if c.state != ContainerState::Deploying || c.gen != gen {
                return; // stale: the slot was reused or evicted
            }
            c.state = ContainerState::Warm;
            c.gen += 1;
        }
        if !self.tenants[ti].frozen {
            self.drain_queue(ti, now_ns);
            if self.tenants[ti].containers[slot].active == 0 {
                self.container_idle(ti, slot, now_ns);
            }
        }
    }

    fn handle_completion(&mut self, ti: usize, inv: usize, gen: u64, now_ns: u64) {
        let running = match self.tenants[ti].running.get(inv) {
            Some(Some(r)) if r.gen == gen && r.frozen_remaining.is_none() => *r,
            _ => return, // stale: frozen or rescheduled since
        };
        let t = &mut self.tenants[ti];
        t.running[inv] = None;
        t.running_free.push(inv);
        t.running_count -= 1;
        t.stats.completed += 1;
        t.stats.slowdown_sum += running.slowdown;
        self.totals.completed += 1;
        let latency_ns = now_ns.saturating_sub(running.arrival_ns);
        let class = self.tenants[ti].class;
        match class {
            AppClass::Sensitive => {
                self.totals.sensitive_completed += 1;
                let met = latency_ns <= self.deadline_ns;
                if met {
                    self.totals.sensitive_met += 1;
                    self.tenants[ti].stats.met += 1;
                }
                self.latency.record(latency_ns);
                if let Some(m) = &self.metrics {
                    m.completed.inc();
                    m.latency.record(latency_ns);
                    if !met {
                        m.slo_misses.inc();
                    }
                }
            }
            AppClass::Batch => {
                self.batch_work += self.scenario.tenants[ti].demand.cpu_per_invocation
                    * running.nominal_ns as f64
                    / NANOS_PER_SEC;
                if let Some(m) = &self.metrics {
                    m.completed.inc();
                }
            }
        }
        let slot = running.slot;
        {
            let c = &mut self.tenants[ti].containers[slot];
            c.active = c.active.saturating_sub(1);
        }
        self.sub_running_rates(ti);
        if !self.tenants[ti].frozen {
            self.drain_queue(ti, now_ns);
            if self.tenants[ti].containers[slot].active == 0
                && self.tenants[ti].containers[slot].state == ContainerState::Warm
            {
                self.container_idle(ti, slot, now_ns);
            }
        }
    }

    fn handle_idle_expire(&mut self, ti: usize, slot: usize, gen: u64) {
        let c = &self.tenants[ti].containers[slot];
        if c.state != ContainerState::Warm || c.gen != gen || c.active != 0 {
            return; // stale: served again, evicted, or redeployed since
        }
        if self.tenants[ti].frozen {
            return; // frozen containers are not reaped; re-armed on resume
        }
        self.evict_container(ti, slot);
    }

    fn process(&mut self, event: Event) {
        self.advance(event.time_ns);
        self.fold_digest(&event);
        match event.kind {
            EventKind::Arrival { tenant } => self.handle_arrival(tenant, event.time_ns),
            EventKind::ContainerReady { tenant, slot, gen } => {
                self.handle_container_ready(tenant, slot, gen, event.time_ns)
            }
            EventKind::Completion { tenant, inv, gen } => {
                self.handle_completion(tenant, inv, gen, event.time_ns)
            }
            EventKind::IdleExpire { tenant, slot, gen } => {
                self.handle_idle_expire(tenant, slot, gen)
            }
            EventKind::Injected { tenant, nominal_ns } => {
                self.handle_injected(tenant, nominal_ns, event.time_ns)
            }
        }
    }

    /// An externally routed request lands: same accounting as a native
    /// arrival, but the nominal service time travels with the event
    /// instead of being sampled, so no RNG stream moves.
    fn handle_injected(&mut self, ti: usize, nominal_ns: u64, now_ns: u64) {
        if self.tenants[ti].detached {
            // The tenant left between injection and processing; the
            // request is lost exactly like a queue overflow.
            self.totals.dropped += 1;
            if let Some(m) = &self.metrics {
                m.dropped.inc();
            }
            return;
        }
        self.totals.arrivals += 1;
        if let Some(m) = &self.metrics {
            m.requests.inc();
        }
        self.dispatch(
            ti,
            Request {
                arrival_ns: now_ns,
                nominal_ns,
            },
            now_ns,
        );
    }

    /// Freezes a batch tenant: in-flight invocations halt (remaining
    /// stretched time stored, completions invalidated), rate demands
    /// leave the contention signal, memory and cache stay resident.
    fn freeze(&mut self, ti: usize, now_ns: u64) {
        if self.tenants[ti].frozen {
            return;
        }
        self.tenants[ti].frozen = true;
        if let Some(m) = &self.metrics {
            m.freezes.inc();
        }
        for i in 0..self.tenants[ti].running.len() {
            let t = &mut self.tenants[ti];
            let Some(r) = &mut t.running[i] else { continue };
            if r.frozen_remaining.is_some() {
                continue;
            }
            r.frozen_remaining = Some(r.finish_ns.saturating_sub(now_ns).max(1));
            t.inv_gen += 1;
            r.gen = t.inv_gen;
            self.sub_running_rates(ti);
        }
    }

    /// Resumes a frozen tenant: halted invocations reschedule at `now +
    /// remaining`, queued requests drain into free capacity, idle
    /// keepalive timers re-arm.
    fn resume(&mut self, ti: usize, now_ns: u64) {
        if !self.tenants[ti].frozen {
            return;
        }
        self.tenants[ti].frozen = false;
        if let Some(m) = &self.metrics {
            m.resumes.inc();
        }
        for i in 0..self.tenants[ti].running.len() {
            let t = &mut self.tenants[ti];
            let Some(r) = &mut t.running[i] else { continue };
            let Some(remaining) = r.frozen_remaining.take() else {
                continue;
            };
            r.finish_ns = now_ns.saturating_add(remaining);
            t.inv_gen += 1;
            r.gen = t.inv_gen;
            let (finish_ns, gen) = (r.finish_ns, r.gen);
            self.add_running_rates(ti);
            self.events.push(
                finish_ns,
                EventKind::Completion {
                    tenant: ti,
                    inv: i,
                    gen,
                },
            );
        }
        self.drain_queue(ti, now_ns);
        for slot in 0..self.tenants[ti].containers.len() {
            let c = &self.tenants[ti].containers[slot];
            if c.state == ContainerState::Warm && c.active == 0 {
                self.container_idle(ti, slot, now_ns);
            }
        }
    }

    /// Applies policy actions at the current tick boundary, returning
    /// how many were rejected (freezing sensitive tenants, unknown ids).
    pub fn apply(&mut self, actions: &[Action]) -> u64 {
        let now_ns = self.boundary_ns();
        self.advance(now_ns);
        let mut rejected = 0;
        for action in actions {
            let (id, pause) = match action {
                Action::Pause(id) => (*id, true),
                Action::Resume(id) => (*id, false),
            };
            let ti = id.raw();
            if ti >= self.tenants.len()
                || self.tenants[ti].detached
                || (pause && self.tenants[ti].class == AppClass::Sensitive)
            {
                rejected += 1;
                continue;
            }
            if pause {
                self.freeze(ti, now_ns);
            } else {
                self.resume(ti, now_ns);
            }
        }
        rejected
    }

    /// True when any sensitive request (queued or in flight) is already
    /// past its deadline at `now_ns`.
    fn sensitive_overdue(&self, now_ns: u64) -> bool {
        self.tenants.iter().enumerate().any(|(ti, t)| {
            if self.scenario.tenants[ti].class != AppClass::Sensitive {
                return false;
            }
            let overdue = |arrival: u64| now_ns.saturating_sub(arrival) > self.deadline_ns;
            t.queue.front().is_some_and(|r| overdue(r.arrival_ns))
                || t.running.iter().flatten().any(|r| overdue(r.arrival_ns))
        })
    }
}

impl ObservationSource for WorkloadHost {
    fn meta(&self) -> SourceMeta {
        SourceMeta {
            kind: SourceKind::Workload,
            metrics: ResourceKind::ALL.to_vec(),
            tick_period_secs: self.scenario.tick_period_secs,
            host: Some(self.scenario.host),
        }
    }

    /// Runs the engine up to the next tick boundary and fills the recycled
    /// observation (or a fresh one), overwriting every field: one entry
    /// per tenant slot (detached tombstones included, so indices stay
    /// container ids), each reusing the entry — and its name string — that
    /// it already held at that index. The tick's ground-truth
    /// [`TickRecord`] is kept for [`ObservationSource::record_for`].
    fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError> {
        let mut out = self.spare.take().unwrap_or_default();
        let tick_end = self.events.open_tick(self.tick);
        while let Some(event) = self.events.pop_due() {
            self.process(event);
        }
        self.advance(tick_end);

        let tick_ns = self.tick_period_ns as f64;
        let containers = out.resize_containers(self.tenants.len());
        let mut sensitive_completed = 0u64;
        let mut sensitive_met = 0u64;
        let mut sensitive_dropped = 0u64;
        let mut sensitive_cpu = 0.0;
        let mut batch_cpu = 0.0;
        let mut batch_active = 0usize;
        let mut batch_paused = 0usize;
        let mut sensitive_active = false;
        for ((ti, t), c) in self.tenants.iter().enumerate().zip(containers) {
            let busy = t.stats.acc[ResourceKind::Cpu] > 0.0 || t.stats.completed > 0;
            let active = !t.frozen && (t.alive_containers() > 0 || busy);
            let alive = t.alive_containers() as f64;
            let mut usage = ResourceVector::zero();
            for k in ResourceKind::SHARED_RATES {
                usage[k] = t.stats.acc[k] / tick_ns;
            }
            for k in OCCUPANCY {
                usage[k] = alive * t.occupancy[k];
            }
            let mean_cpu = usage[ResourceKind::Cpu];
            let ipc = if t.stats.completed > 0 {
                (t.stats.completed as f64 / t.stats.slowdown_sum).min(1.0)
            } else if t.frozen {
                0.0
            } else if active {
                1.0
            } else {
                0.0
            };
            match t.class {
                AppClass::Sensitive => {
                    sensitive_completed += t.stats.completed;
                    sensitive_met += t.stats.met;
                    sensitive_dropped += t.stats.dropped;
                    sensitive_cpu += mean_cpu;
                    sensitive_active |= active;
                }
                AppClass::Batch => {
                    batch_cpu += mean_cpu;
                    if t.frozen {
                        batch_paused += 1;
                    } else if active {
                        batch_active += 1;
                    }
                }
            }
            c.id = ContainerId::from_raw(ti);
            c.name.clear();
            c.name.push_str(&t.name);
            c.class = t.class;
            c.active = active;
            c.paused = t.frozen;
            c.finished = t.detached;
            c.usage = usage;
            c.ipc = ipc;
            c.priority = 0;
        }

        let judged = sensitive_completed + sensitive_dropped;
        let qos_value = if judged > 0 {
            sensitive_met as f64 / judged as f64
        } else if self.sensitive_overdue(tick_end) {
            0.0
        } else {
            1.0
        };
        let qos_violation = qos_value < self.scenario.slo.target_satisfaction;

        out.tick = self.tick;
        out.qos_violation = qos_violation;
        out.qos_value = qos_value;
        let utilization =
            ((sensitive_cpu + batch_cpu) / self.scenario.host.cpu_cores).clamp(0.0, 1.0);
        self.last_record = Some(TickRecord {
            tick: self.tick,
            qos_value,
            violated: qos_violation,
            sensitive_active,
            batch_active,
            batch_paused,
            sensitive_cpu,
            batch_cpu,
            utilization,
            actions: 0,
        });
        for t in &mut self.tenants {
            t.stats = TickStats::default();
        }
        self.tick += 1;
        Ok(Some(out))
    }

    fn recycle(&mut self, observation: Observation) {
        self.spare = Some(observation);
    }

    fn apply(&mut self, actions: &[Action]) -> Result<u64, TelemetryError> {
        Ok(WorkloadHost::apply(self, actions))
    }

    /// The last tick's ground-truth record with the action count filled
    /// in, and — when the sensitive tenant was active and violated — one
    /// workload-layer `SloViolation` event, caused by the predictor verdict
    /// in force.
    fn record_for(&self, observation: &Observation, actions: &[Action]) -> TickRecord {
        let record = match &self.last_record {
            Some(last) => TickRecord {
                actions: actions.len(),
                ..last.clone()
            },
            None => stayaway_telemetry::derive_record(
                observation,
                actions.len(),
                Some(&self.scenario.host),
            ),
        };
        if record.violated && record.sensitive_active {
            if let Some(rec) = &self.recorder {
                let cause = rec.last_id_of_kind(stayaway_obs::EventKind::PredictorVerdict);
                rec.record(
                    record.tick,
                    Layer::Workload,
                    stayaway_obs::EventKind::SloViolation,
                    cause,
                    vec![
                        attr("qos", record.qos_value),
                        attr("batch_active", record.batch_active as u64),
                    ],
                );
            }
        }
        record
    }

    fn batch_work(&self) -> f64 {
        self.batch_work
    }

    fn request_qos(&self) -> Option<RequestQos> {
        let (latency, totals) = (&self.latency, &self.totals);
        Some(RequestQos {
            p50_ms: latency.quantile_ms(0.50),
            p95_ms: latency.quantile_ms(0.95),
            p99_ms: latency.quantile_ms(0.99),
            mean_ms: latency.mean_ms(),
            slo_violation_rate: totals.slo_violation_rate(),
            requests: totals.arrivals,
            completed: totals.completed,
            dropped: totals.dropped,
            cold_starts: totals.cold_starts,
            evictions: totals.evictions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::by_name;
    use stayaway_telemetry::{drive, NullPolicy, Policy};

    fn host(name: &str, seed: u64) -> WorkloadHost {
        WorkloadHost::new(by_name(name).unwrap(), seed).unwrap()
    }

    #[test]
    fn same_seed_same_timeline() {
        let mut a = host("memcached-like", 42);
        let mut b = host("memcached-like", 42);
        for _ in 0..30 {
            let oa = a.next_observation().unwrap().unwrap();
            let ob = b.next_observation().unwrap().unwrap();
            assert_eq!(oa, ob);
        }
        assert_eq!(a.timeline_digest(), b.timeline_digest());
        assert_eq!(a.totals(), b.totals());
        assert_eq!(a.latency(), b.latency());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = host("memcached-like", 1);
        let mut b = host("memcached-like", 2);
        for _ in 0..10 {
            a.next_observation().unwrap().unwrap();
            b.next_observation().unwrap().unwrap();
        }
        assert_ne!(a.timeline_digest(), b.timeline_digest());
    }

    #[test]
    fn requests_flow_and_latency_is_recorded() {
        let mut h = host("memcached-like", 7);
        for _ in 0..20 {
            h.next_observation().unwrap().unwrap();
        }
        let t = h.totals();
        // ~800 rps for 20 s.
        assert!(t.arrivals > 10_000, "arrivals {}", t.arrivals);
        assert!(t.sensitive_completed > 10_000);
        assert!(h.latency().count() == t.sensitive_completed);
        // Uncontended kv service is ~1 ms; p50 must sit near it.
        let p50 = h.latency().quantile_ms(0.5);
        assert!((0.5..5.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn pausing_batch_removes_its_cpu() {
        let mut h = host("cpu-bomb", 11);
        for _ in 0..10 {
            h.next_observation().unwrap().unwrap();
        }
        // Find the batch tenant id.
        let bomb = ContainerId::from_raw(1);
        assert_eq!(h.apply(&[Action::Pause(bomb)]), 0);
        let mut batch_cpu_after = 0.0;
        for _ in 0..5 {
            let obs = h.next_observation().unwrap().unwrap();
            batch_cpu_after = obs.containers[1].usage.get(ResourceKind::Cpu);
            assert!(obs.containers[1].paused);
        }
        assert_eq!(batch_cpu_after, 0.0);
        // Resume: work picks back up.
        assert_eq!(h.apply(&[Action::Resume(bomb)]), 0);
        let before = h.totals().completed;
        for _ in 0..5 {
            h.next_observation().unwrap().unwrap();
        }
        assert!(h.totals().completed > before);
    }

    #[test]
    fn sensitive_tenants_cannot_be_paused() {
        let mut h = host("memcached-like", 3);
        h.next_observation().unwrap().unwrap();
        assert_eq!(h.apply(&[Action::Pause(ContainerId::from_raw(0))]), 1);
        assert_eq!(h.apply(&[Action::Pause(ContainerId::from_raw(99))]), 1);
    }

    #[test]
    fn contention_stretches_latency() {
        // cpu-bomb saturates the host: sensitive p95 must exceed the
        // uncontended service time.
        let mut h = host("cpu-bomb", 5);
        for _ in 0..40 {
            h.next_observation().unwrap().unwrap();
        }
        let p95 = h.latency().quantile_ms(0.95);
        assert!(p95 > 1.5, "expected contention, p95 {p95}ms");
        assert!(h.totals().slo_violation_rate() > 0.0);
        assert!(h.batch_work() > 0.0);
    }

    #[test]
    fn freeze_halts_inflight_and_resume_completes_them() {
        let mut h = host("cpu-bomb", 9);
        for _ in 0..5 {
            h.next_observation().unwrap().unwrap();
        }
        let bomb = ContainerId::from_raw(1);
        h.apply(&[Action::Pause(bomb)]);
        let completed_frozen = h.totals().completed;
        let batch_work_frozen = h.batch_work();
        for _ in 0..10 {
            h.next_observation().unwrap().unwrap();
        }
        // No batch completions while frozen.
        assert_eq!(h.batch_work(), batch_work_frozen);
        assert!(h.totals().completed > completed_frozen); // kv still completes
        h.apply(&[Action::Resume(bomb)]);
        for _ in 0..10 {
            h.next_observation().unwrap().unwrap();
        }
        assert!(h.batch_work() > batch_work_frozen);
    }

    #[test]
    fn cold_starts_and_evictions_happen() {
        let mut h = host("flash-crowd", 13);
        for _ in 0..70 {
            h.next_observation().unwrap().unwrap();
        }
        assert!(h.totals().cold_starts > 0);
        assert!(h.totals().evictions > 0, "fixed keepalive should evict");
    }

    #[test]
    fn rated_set_lists_exactly_the_tenants_with_a_nonzero_rate() {
        let mut h = host("multi-tenant-storm", 17);
        let batch: Vec<ContainerId> = (0..h.tenants.len())
            .filter(|&ti| h.tenants[ti].class == AppClass::Batch)
            .map(ContainerId::from_raw)
            .collect();
        let mut seen_idle = false;
        for tick in 0..40 {
            h.next_observation().unwrap().unwrap();
            match tick % 8 {
                2 => h.apply(
                    &batch
                        .iter()
                        .map(|id| Action::Pause(*id))
                        .collect::<Vec<_>>(),
                ),
                5 => h.apply(
                    &batch
                        .iter()
                        .map(|id| Action::Resume(*id))
                        .collect::<Vec<_>>(),
                ),
                _ => 0,
            };
            let mut listed = h.rated.clone();
            listed.sort_unstable();
            let expected: Vec<usize> = (0..h.tenants.len())
                .filter(|&ti| h.tenants[ti].has_rates())
                .collect();
            assert_eq!(listed, expected, "tick {tick}");
            for (ti, t) in h.tenants.iter().enumerate() {
                assert_eq!(t.rated, expected.contains(&ti));
            }
            seen_idle |= expected.len() < h.tenants.len();
        }
        assert!(seen_idle, "frozen tenants must leave the set");
    }

    #[test]
    fn one_nanosecond_ticks_emit_finite_observations() {
        // The shortest period validation admits: ticks end, rate means
        // divide by 1 ns and stay finite.
        let mut scenario = by_name("memcached-like").unwrap();
        scenario.tick_period_secs = 1e-9;
        let mut h = WorkloadHost::new(scenario, 3).unwrap();
        for _ in 0..1_000 {
            let obs = h.next_observation().unwrap().unwrap();
            for c in &obs.containers {
                assert!(ResourceKind::ALL
                    .iter()
                    .all(|k| c.usage.get(*k).is_finite()));
            }
            assert!(obs.qos_value.is_finite());
        }
        assert_eq!(h.tick, 1_000);
    }

    #[test]
    fn eager_tenants_start_prewarmed() {
        let h = host("memcached-like", 1);
        assert_eq!(h.tenants[0].alive_containers(), 1); // eager kv-front
        assert_eq!(h.tenants[1].alive_containers(), 0); // fixed-keepalive batch
    }

    fn movable_job_spec(name: &str) -> crate::spec::TenantSpec {
        crate::spec::TenantSpec {
            name: name.into(),
            class: AppClass::Batch,
            arrival: crate::arrival::ArrivalProcess::Poisson { rps: 5.0 },
            demand: crate::demand::DemandProfile {
                service_ms: 200.0,
                service_jitter: 0.1,
                cpu_per_invocation: 1.0,
                membw_per_invocation: 100.0,
                disk_per_invocation: 0.0,
                net_per_invocation: 0.0,
                container_mb: 256.0,
                cache_mb: 0.5,
                concurrency: 2,
                max_containers: 2,
                cold_start_ms: 300.0,
                queue_cap: 64,
            },
            keepalive: crate::demand::KeepalivePolicy::Fixed { idle_secs: 10.0 },
        }
    }

    #[test]
    fn attach_inject_detach_round_trips_work() {
        let mut h = host("memcached-like", 31);
        h.next_observation().unwrap().unwrap();
        let resident = h.tenants.len();
        let ti = h.attach_tenant(movable_job_spec("mover")).unwrap();
        assert_eq!(ti, resident);
        // Route a burst in; the job runs and completes work.
        let period = h.scenario().tick_period_ns();
        for k in 0..8u64 {
            h.inject_arrival(ti, h.tick * period + k * period / 8, 200_000_000)
                .unwrap();
        }
        let before = h.batch_work();
        for _ in 0..5 {
            h.next_observation().unwrap().unwrap();
        }
        assert!(h.batch_work() > before, "injected work should complete");
        // Inject more than completes, then detach: leftovers are carried.
        for k in 0..32u64 {
            h.inject_arrival(ti, h.tick * period + k * period / 32, 400_000_000)
                .unwrap();
        }
        h.next_observation().unwrap().unwrap();
        let pending = h.tenant_pending(ti);
        assert!(pending > 0);
        let mem_before = h.load()[ResourceKind::Memory];
        let carried = h.detach_tenant(ti).unwrap();
        assert_eq!(carried.len() as u64, pending);
        assert!(h.tenants[ti].detached);
        assert_eq!(h.tenant_pending(ti), 0);
        assert!(
            h.load()[ResourceKind::Memory] < mem_before,
            "detach releases RAM"
        );
        // Detached tenants reject further traffic and actions.
        assert!(h.inject_arrival(ti, 0, 1).is_err());
        assert!(h.detach_tenant(ti).is_err());
        assert_eq!(h.apply(&[Action::Pause(ContainerId::from_raw(ti))]), 1);
        // The host keeps running cleanly past the tombstone.
        for _ in 0..5 {
            let obs = h.next_observation().unwrap().unwrap();
            assert!(obs.containers[ti].finished);
            assert!(!obs.containers[ti].active);
        }
    }

    /// A migration cannot carry a pause: detaching clears `frozen`, and the
    /// re-attached job is a fresh tenant, so the host it lands on shows it
    /// running though its controller never resumed it.
    #[test]
    fn a_migrated_tenant_arrives_unpaused() {
        let mut h = host("memcached-like", 37);
        let ti = h.attach_tenant(movable_job_spec("mover")).unwrap();
        assert_eq!(h.apply(&[Action::Pause(ContainerId::from_raw(ti))]), 0);
        let obs = h.next_observation().unwrap().unwrap();
        assert!(obs.containers[ti].paused);
        h.detach_tenant(ti).unwrap();
        let back = h.attach_tenant(movable_job_spec("mover")).unwrap();
        let obs = h.next_observation().unwrap().unwrap();
        assert!(!obs.containers[back].paused);
        assert!(!obs.containers[ti].paused && obs.containers[ti].finished);
        assert_eq!(h.frozen_batch(), 0);
    }

    /// Asserts the host load equals what its tenants hold right now:
    /// container RAM and LLC summed over alive containers, and each shared
    /// rate summed over running, unfrozen invocations — within 1e-9
    /// relative, since the running totals carry add/sub rounding.
    fn assert_load_conserved(h: &WorkloadHost, when: &str) {
        let mut expected = ResourceVector::zero();
        for (t, spec) in h.tenants.iter().zip(&h.scenario.tenants) {
            let d = &spec.demand;
            let alive = t
                .containers
                .iter()
                .filter(|c| c.state != ContainerState::Dead)
                .count() as f64;
            expected[ResourceKind::Memory] += alive * d.container_mb;
            expected[ResourceKind::Cache] += alive * d.cache_mb;
            let running = t
                .running
                .iter()
                .flatten()
                .filter(|r| r.frozen_remaining.is_none())
                .count() as f64;
            for k in ResourceKind::SHARED_RATES {
                expected[k] += running * d.invocation_rates()[k];
            }
        }
        let load = h.load();
        for k in ResourceKind::ALL {
            let scale = load[k].abs().max(expected[k].abs()).max(1.0);
            assert!(
                (load[k] - expected[k]).abs() <= 1e-9 * scale,
                "{when}: load[{k}] = {} but the tenants hold {}",
                load[k],
                expected[k]
            );
        }
    }

    #[test]
    fn load_conserves_occupancy_and_running_rates() {
        let mut h = host("multi-tenant-storm", 19);
        let batch: Vec<ContainerId> = (0..h.tenants.len())
            .filter(|&ti| h.tenants[ti].class == AppClass::Batch)
            .map(ContainerId::from_raw)
            .collect();
        let all = |verb: fn(ContainerId) -> Action| batch.iter().map(|&id| verb(id)).collect();
        let period = h.scenario().tick_period_ns();
        let mut guest = None;
        for tick in 0..60u64 {
            let actions: Vec<Action> = match tick {
                5 => all(Action::Pause),
                12 => all(Action::Resume),
                22 => guest
                    .map(|ti| vec![Action::Pause(ContainerId::from_raw(ti))])
                    .unwrap(),
                27 => guest
                    .map(|ti| vec![Action::Resume(ContainerId::from_raw(ti))])
                    .unwrap(),
                _ => Vec::new(),
            };
            assert_eq!(h.apply(&actions), 0, "tick {tick}");
            if tick == 15 {
                guest = Some(h.attach_tenant(movable_job_spec("guest")).unwrap());
            }
            if let Some(ti) = guest.filter(|_| (15..40).contains(&tick)) {
                for k in 0..4 {
                    h.inject_arrival(ti, tick * period + k * period / 4, 300_000_000)
                        .unwrap();
                }
            }
            if tick == 40 {
                assert!(!h.detach_tenant(guest.unwrap()).unwrap().is_empty());
            }
            assert_load_conserved(&h, &format!("before tick {tick}"));
            h.next_observation().unwrap().unwrap();
            assert_load_conserved(&h, &format!("after tick {tick}"));
        }
        assert!(h.totals().evictions > 0 && h.tenants[guest.unwrap()].detached);
    }

    #[test]
    fn detach_rejects_sensitive_tenants() {
        let mut h = host("memcached-like", 33);
        h.next_observation().unwrap().unwrap();
        assert!(h.detach_tenant(0).is_err()); // kv-front is sensitive
        assert!(h.detach_tenant(99).is_err());
    }

    #[test]
    fn injection_consumes_no_host_rng() {
        // Two identical hosts; one also serves injected traffic on an
        // attached tenant. The resident tenants' native arrival/service
        // streams must be untouched: same arrivals, either way.
        let mut bare = host("memcached-like", 35);
        let mut fed = host("memcached-like", 35);
        let ti = fed.attach_tenant(movable_job_spec("guest")).unwrap();
        let period = fed.scenario().tick_period_ns();
        for k in 0..40u64 {
            fed.inject_arrival(ti, k * period / 4, 300_000_000).unwrap();
        }
        for _ in 0..20 {
            bare.next_observation().unwrap().unwrap();
            fed.next_observation().unwrap().unwrap();
        }
        assert_eq!(bare.totals().arrivals + 40, fed.totals().arrivals);
        // Sensitive latency differs (the guest contends), but the
        // sensitive request *count* is open-loop identical.
        assert_eq!(
            bare.totals().sensitive_completed
                + bare.totals().sensitive_dropped
                + bare.tenant_pending(0),
            fed.totals().sensitive_completed
                + fed.totals().sensitive_dropped
                + fed.tenant_pending(0),
        );
    }

    #[test]
    fn instrumentation_is_decision_inert() {
        let mut bare = host("multi-tenant-storm", 21);
        let registry = MetricsRegistry::new();
        let mut instrumented = WorkloadHost::new(by_name("multi-tenant-storm").unwrap(), 21)
            .unwrap()
            .with_metrics(&registry);
        for _ in 0..20 {
            let a = bare.next_observation().unwrap().unwrap();
            let b = instrumented.next_observation().unwrap().unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(bare.timeline_digest(), instrumented.timeline_digest());
        // And the metrics actually recorded.
        let snap = registry.snapshot();
        let text = stayaway_obs::to_json(&snap).to_string();
        assert!(text.contains("workload_requests_total"));
    }

    #[test]
    fn meta_reports_the_workload_substrate() {
        let meta = host("memcached-like", 1).meta();
        assert_eq!(meta.kind, SourceKind::Workload);
        assert_eq!(meta.tick_period_secs, 1.0);
        assert!(meta.host.is_some());
    }

    #[test]
    fn drive_closes_the_loop_deterministically() {
        let mut a = host("cpu-bomb", 17);
        let mut b = host("cpu-bomb", 17);
        let out_a = drive(&mut a, &mut NullPolicy::new(), 30).unwrap();
        let out_b = drive(&mut b, &mut NullPolicy::new(), 30).unwrap();
        assert_eq!(out_a, out_b);
        assert_eq!(a.timeline_digest(), b.timeline_digest());
        assert_eq!(out_a.timeline.len(), 30);
        assert!(out_a.batch_work > 0.0);
        // The per-request read-out mirrors the engine's own accounting.
        let qos = a.request_qos().expect("the engine simulates requests");
        assert_eq!(a.request_qos(), b.request_qos());
        assert_eq!(qos.requests, a.totals().arrivals);
        assert_eq!(qos.completed, a.totals().completed);
        assert_eq!(qos.p95_ms, a.latency().quantile_ms(0.95));
        assert_eq!(qos.slo_violation_rate, a.totals().slo_violation_rate());
    }

    /// Pauses every unpaused batch container it sees.
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
    fn pausing_batch_improves_latency_under_contention() {
        let mut contended = host("cpu-bomb", 23);
        drive(&mut contended, &mut NullPolicy::new(), 40).unwrap();
        let mut protected = host("cpu-bomb", 23);
        drive(&mut protected, &mut PauseAll, 40).unwrap();
        let p95_contended = contended.latency().quantile_ms(0.95);
        let p95_protected = protected.latency().quantile_ms(0.95);
        assert!(
            p95_protected < p95_contended,
            "pause should help: {p95_protected} vs {p95_contended}"
        );
        assert!(protected.totals().slo_violation_rate() <= contended.totals().slo_violation_rate());
    }

    #[test]
    fn arrival_timeline_is_policy_independent() {
        // Open-loop property: the same requests arrive whatever the
        // policy does to the batch tenants.
        let mut idle = host("cpu-bomb", 29);
        drive(&mut idle, &mut NullPolicy::new(), 30).unwrap();
        let mut throttled = host("cpu-bomb", 29);
        drive(&mut throttled, &mut PauseAll, 30).unwrap();
        assert_eq!(idle.totals().arrivals, throttled.totals().arrivals);
    }
}
