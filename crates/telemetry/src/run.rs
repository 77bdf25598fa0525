//! Run accounting and the source-agnostic closed loop.
//!
//! [`step`] is the one control period of the system — sample, decide,
//! actuate, account — over any [`ObservationSource`] and any [`Policy`],
//! and the only closed-loop body in the workspace: [`drive`] loops it into
//! a [`RunOutcome`], the simulator harness's `run` drives the harness
//! itself, and cluster hosts advance their epochs with it — so
//! every consumer (bench runner, fleet cells, cluster hosts, CLI) closes
//! the loop identically over sim, trace, workload and procfs substrates.

use crate::observation::{AppClass, Observation, Policy};
use crate::source::ObservationSource;
use crate::{HostSpec, TelemetryError};
use serde::{Deserialize, Serialize};

/// Aggregated QoS statistics over a run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct QosSummary {
    /// Ticks during which the sensitive application was active.
    pub active_ticks: u64,
    /// Ticks flagged as violations.
    pub violations: u64,
    /// Sum of QoS values over active ticks (for the mean).
    pub qos_sum: f64,
    /// Lowest QoS value observed while active.
    pub worst: f64,
}

impl QosSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        QosSummary {
            active_ticks: 0,
            violations: 0,
            qos_sum: 0.0,
            worst: 1.0,
        }
    }

    /// Records one active tick.
    pub fn record(&mut self, qos_value: f64, violated: bool) {
        self.active_ticks += 1;
        if violated {
            self.violations += 1;
        }
        self.qos_sum += qos_value;
        self.worst = self.worst.min(qos_value);
    }

    /// Pools `other`'s ticks into this summary: the counts add, `qos_sum`
    /// adds the other's sum and `worst` keeps the lower of the two.
    pub fn absorb(&mut self, other: &QosSummary) {
        self.active_ticks += other.active_ticks;
        self.violations += other.violations;
        self.qos_sum += other.qos_sum;
        self.worst = self.worst.min(other.worst);
    }

    /// Fraction of active ticks that met the QoS requirement.
    pub fn satisfaction(&self) -> f64 {
        if self.active_ticks == 0 {
            1.0
        } else {
            1.0 - self.violations as f64 / self.active_ticks as f64
        }
    }

    /// Mean QoS value over active ticks.
    pub fn mean_qos(&self) -> f64 {
        if self.active_ticks == 0 {
            1.0
        } else {
            self.qos_sum / self.active_ticks as f64
        }
    }
}

/// One tick of a recorded run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TickRecord {
    /// Tick index.
    pub tick: u64,
    /// Normalised QoS value of the sensitive application (1.0 when idle).
    pub qos_value: f64,
    /// True when this tick violated the QoS requirement.
    pub violated: bool,
    /// True when the sensitive application was active.
    pub sensitive_active: bool,
    /// Number of active batch containers.
    pub batch_active: usize,
    /// Number of paused batch containers.
    pub batch_paused: usize,
    /// CPU cores granted to sensitive containers.
    pub sensitive_cpu: f64,
    /// CPU cores granted to batch containers.
    pub batch_cpu: f64,
    /// Machine CPU utilisation in `[0, 1]`.
    pub utilization: f64,
    /// Number of actuations the policy issued this tick.
    pub actions: usize,
}

/// The outcome of a complete run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Name of the policy that drove the run.
    pub policy: String,
    /// Aggregated QoS statistics.
    pub qos: QosSummary,
    /// Tick-by-tick records.
    pub timeline: Vec<TickRecord>,
    /// Total nominal batch work completed.
    pub batch_work: f64,
    /// Actions rejected by the substrate (e.g. pausing a sensitive
    /// container).
    pub rejected_actions: u64,
}

impl RunOutcome {
    /// Mean machine CPU utilisation over the run.
    pub fn mean_utilization(&self) -> f64 {
        if self.timeline.is_empty() {
            return 0.0;
        }
        self.timeline.iter().map(|r| r.utilization).sum::<f64>() / self.timeline.len() as f64
    }

    /// Mean *gained* utilisation: the CPU share consumed by batch work,
    /// which is exactly the utilisation gained over running the sensitive
    /// application alone (Figures 10–12).
    pub fn mean_gained_utilization(&self, cpu_capacity: f64) -> f64 {
        if self.timeline.is_empty() || cpu_capacity <= 0.0 {
            return 0.0;
        }
        self.timeline.iter().map(|r| r.batch_cpu).sum::<f64>()
            / (self.timeline.len() as f64 * cpu_capacity)
    }

    /// The per-tick gained-utilisation series.
    pub fn gained_utilization_series(&self, cpu_capacity: f64) -> Vec<f64> {
        self.timeline
            .iter()
            .map(|r| {
                if cpu_capacity > 0.0 {
                    r.batch_cpu / cpu_capacity
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// Whole-run per-request QoS, reported by substrates that simulate
/// individual requests (the workload engine) through
/// [`ObservationSource::request_qos`]; tick-level substrates have none.
/// Latencies cover sensitive requests, counts cover every tenant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestQos {
    /// Median sensitive-request latency in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile sensitive-request latency in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile sensitive-request latency in milliseconds.
    pub p99_ms: f64,
    /// Mean sensitive-request latency in milliseconds.
    pub mean_ms: f64,
    /// Fraction of sensitive requests that missed their SLO.
    pub slo_violation_rate: f64,
    /// Requests that arrived.
    pub requests: u64,
    /// Invocations completed.
    pub completed: u64,
    /// Requests dropped on queue overflow.
    pub dropped: u64,
    /// Containers cold-started.
    pub cold_starts: u64,
    /// Idle containers evicted.
    pub evictions: u64,
}

/// Derives a best-effort [`TickRecord`] from an observation alone.
///
/// This is the fallback used by sources without ground-truth physics
/// (traces, procfs): per-class CPU grants come from the *measured* usage
/// (noisy where the live source was noisy), utilisation from the host
/// capacities when known. The simulator source overrides this with its
/// exact noiseless physics record.
pub fn derive_record(
    observation: &Observation,
    actions: usize,
    host: Option<&HostSpec>,
) -> TickRecord {
    let cpu_of = |class: AppClass| -> f64 {
        observation
            .containers
            .iter()
            .filter(|c| c.class == class)
            .map(|c| c.usage.get(crate::ResourceKind::Cpu))
            .sum()
    };
    let sensitive_cpu = cpu_of(AppClass::Sensitive);
    let batch_cpu = cpu_of(AppClass::Batch);
    let utilization = match host {
        Some(spec) if spec.cpu_cores > 0.0 => {
            ((sensitive_cpu + batch_cpu) / spec.cpu_cores).clamp(0.0, 1.0)
        }
        _ => 0.0,
    };
    TickRecord {
        tick: observation.tick,
        qos_value: observation.qos_value,
        violated: observation.qos_violation,
        sensitive_active: observation.sensitive_active(),
        batch_active: observation.batch().filter(|c| c.active).count(),
        batch_paused: observation.batch().filter(|c| c.paused).count(),
        sensitive_cpu,
        batch_cpu,
        utilization,
        actions,
    }
}

/// Upper bound on the timeline capacity [`drive`] reserves up front. The
/// tick budget is outside input (`--ticks`) and only a ceiling for finite
/// traces, so it must not size an allocation by itself; longer runs grow
/// the timeline as they go.
const MAX_RESERVED_TICKS: u64 = 1 << 16;

/// Runs one control period of the closed loop: pull the next observation
/// from `source`, let `policy` decide, push the actions back through the
/// source and build the tick's accounting record, then hand the
/// observation back for reuse ([`ObservationSource::recycle`]). Returns
/// the record and how many actions the substrate rejected, or `None` once
/// the source is exhausted (finite traces).
///
/// # Errors
///
/// Propagates source failures ([`TelemetryError`]): trace decode errors,
/// I/O failures, procfs sampling problems.
pub fn step<S, P>(
    source: &mut S,
    policy: &mut P,
) -> Result<Option<(TickRecord, u64)>, TelemetryError>
where
    S: ObservationSource + ?Sized,
    P: Policy + ?Sized,
{
    let Some(observation) = source.next_observation()? else {
        return Ok(None);
    };
    let actions = policy.decide(&observation);
    let rejected = source.apply(&actions)?;
    let record = source.record_for(&observation, &actions);
    source.recycle(observation);
    Ok(Some((record, rejected)))
}

/// Runs the closed loop: up to `ticks` [`step`]s against `source`,
/// accumulated into a [`RunOutcome`]. Stops early when the source is
/// exhausted (finite traces), so `ticks` is a budget, not a promise.
///
/// # Errors
///
/// Propagates source failures ([`TelemetryError`]): trace decode errors,
/// I/O failures, procfs sampling problems.
pub fn drive(
    source: &mut dyn ObservationSource,
    policy: &mut dyn Policy,
    ticks: u64,
) -> Result<RunOutcome, TelemetryError> {
    let mut qos = QosSummary::new();
    let mut timeline = Vec::with_capacity(ticks.min(MAX_RESERVED_TICKS) as usize);
    let mut rejected_actions = 0;
    for _ in 0..ticks {
        let Some((record, rejected)) = step(source, policy)? else {
            break;
        };
        if record.sensitive_active {
            qos.record(record.qos_value, record.violated);
        }
        rejected_actions += rejected;
        timeline.push(record);
    }
    Ok(RunOutcome {
        policy: policy.name().to_string(),
        qos,
        timeline,
        batch_work: source.batch_work(),
        rejected_actions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{ContainerId, ContainerObs, NullPolicy};
    use crate::source::{SourceKind, SourceMeta};
    use crate::ResourceVector;

    #[test]
    fn spec_accounting_matches_reference_values() {
        let mut s = QosSummary::new();
        s.record(1.0, false);
        s.record(0.5, true);
        s.record(0.8, true);
        assert_eq!(s.active_ticks, 3);
        assert_eq!(s.violations, 2);
        assert!((s.satisfaction() - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_qos() - 2.3 / 3.0).abs() < 1e-12);
        assert_eq!(s.worst, 0.5);
    }

    #[test]
    fn absorbing_a_summary_equals_recording_both_streams() {
        // Dyadic QoS values, so every partial sum is exact in f64.
        let first = [(1.0, false), (0.5, true), (0.75, false)];
        let second = [(0.25, true), (1.0, false)];
        let mut both = QosSummary::new();
        let (mut a, mut b) = (QosSummary::new(), QosSummary::new());
        for &(q, v) in &first {
            a.record(q, v);
            both.record(q, v);
        }
        for &(q, v) in &second {
            b.record(q, v);
            both.record(q, v);
        }
        a.absorb(&b);
        assert_eq!(a, both);
        // An empty summary is the identity on either side.
        let mut empty = QosSummary::new();
        empty.absorb(&both);
        assert_eq!(empty, both);
        both.absorb(&QosSummary::new());
        assert_eq!(empty, both);
    }

    #[test]
    fn empty_summary_is_perfect() {
        let s = QosSummary::new();
        assert_eq!(s.satisfaction(), 1.0);
        assert_eq!(s.mean_qos(), 1.0);
    }

    fn observation(tick: u64, batch_active: bool) -> Observation {
        Observation {
            tick,
            containers: vec![
                ContainerObs {
                    id: ContainerId::from_raw(0),
                    name: "svc".into(),
                    class: AppClass::Sensitive,
                    active: true,
                    paused: false,
                    finished: false,
                    usage: ResourceVector::zero().with(crate::ResourceKind::Cpu, 2.0),
                    ipc: 1.0,
                    priority: 0,
                },
                ContainerObs {
                    id: ContainerId::from_raw(1),
                    name: "batch".into(),
                    class: AppClass::Batch,
                    active: batch_active,
                    paused: !batch_active,
                    finished: false,
                    usage: ResourceVector::zero().with(
                        crate::ResourceKind::Cpu,
                        if batch_active { 1.0 } else { 0.0 },
                    ),
                    ipc: if batch_active { 1.0 } else { 0.0 },
                    priority: 0,
                },
            ],
            qos_violation: tick % 2 == 1,
            qos_value: if tick % 2 == 1 { 0.5 } else { 1.0 },
        }
    }

    #[test]
    fn derive_record_projects_observation_fields() {
        let obs = observation(3, true);
        let spec = HostSpec::default();
        let r = derive_record(&obs, 2, Some(&spec));
        assert_eq!(r.tick, 3);
        assert!(r.violated);
        assert!(r.sensitive_active);
        assert_eq!(r.batch_active, 1);
        assert_eq!(r.batch_paused, 0);
        assert_eq!(r.actions, 2);
        assert!((r.sensitive_cpu - 2.0).abs() < 1e-12);
        assert!((r.batch_cpu - 1.0).abs() < 1e-12);
        assert!((r.utilization - 0.75).abs() < 1e-12);
        // No host spec → unknown utilisation.
        assert_eq!(derive_record(&obs, 0, None).utilization, 0.0);
    }

    /// A canned source feeding a fixed observation sequence.
    struct Canned(Vec<Observation>, usize);
    impl ObservationSource for Canned {
        fn meta(&self) -> SourceMeta {
            SourceMeta {
                kind: SourceKind::Trace,
                metrics: crate::ResourceKind::ALL.to_vec(),
                tick_period_secs: 1.0,
                host: Some(HostSpec::default()),
            }
        }
        fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError> {
            let next = self.0.get(self.1).cloned();
            self.1 += 1;
            Ok(next)
        }
    }

    #[test]
    fn step_runs_one_period_and_reports_exhaustion() {
        let mut source = Canned(vec![observation(0, true), observation(1, false)], 0);
        let mut policy = NullPolicy::new();
        let (first, rejected) = step(&mut source, &mut policy).unwrap().unwrap();
        assert_eq!((first.tick, first.violated, rejected), (0, false, 0));
        assert_eq!((first.batch_active, first.actions), (1, 0));
        let (second, _) = step(&mut source, &mut policy).unwrap().unwrap();
        assert_eq!((second.tick, second.violated), (1, true));
        assert_eq!(second.batch_paused, 1);
        // The trace ran dry: no record, and asking again stays quiet.
        assert!(step(&mut source, &mut policy).unwrap().is_none());
        assert!(step(&mut source, &mut policy).unwrap().is_none());
    }

    #[test]
    fn drive_stops_when_the_source_is_exhausted() {
        let mut source = Canned((0..6).map(|t| observation(t, true)).collect(), 0);
        let mut policy = NullPolicy::new();
        let out = drive(&mut source, &mut policy, 10).unwrap();
        assert_eq!(out.policy, "no-prevention");
        // Source exhausted after 6 ticks despite asking for 10.
        assert_eq!(out.timeline.len(), 6);
        assert_eq!(out.qos.active_ticks, 6);
        assert_eq!(out.qos.violations, 3);
        assert_eq!(out.rejected_actions, 0);
        assert_eq!(out.batch_work, 0.0);
        assert!(out.mean_utilization() > 0.0);
    }

    #[test]
    fn drive_respects_tick_budget() {
        let mut source = Canned((0..6).map(|t| observation(t, false)).collect(), 0);
        let out = drive(&mut source, &mut NullPolicy::new(), 4).unwrap();
        assert_eq!(out.timeline.len(), 4);
        assert_eq!(out.timeline.last().unwrap().batch_paused, 1);
    }

    #[test]
    fn an_unbounded_tick_budget_reserves_no_more_than_the_cap() {
        // `--ticks` is outside input: the budget may exceed any trace (and
        // any address space) and must not be allocated up front.
        let mut source = Canned((0..6).map(|t| observation(t, true)).collect(), 0);
        let out = drive(&mut source, &mut NullPolicy::new(), u64::MAX).unwrap();
        assert_eq!(out.timeline.len(), 6);
        assert!(out.timeline.capacity() as u64 <= MAX_RESERVED_TICKS);
    }
}
