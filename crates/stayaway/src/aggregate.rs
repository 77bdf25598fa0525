//! Measurement-vector construction with logical-VM aggregation (§5).
//!
//! With more than one batch co-runner the dimensionality of the state space
//! would grow per VM; the paper instead treats all batch applications as
//! one *logical VM* whose metrics are the linear composition (sum, clamped
//! to capacity) of the individual batch VMs' usage. The measurement vector
//! is therefore always `2 × |metrics|` wide: the sensitive VM's metrics
//! followed by the total host load (sensitive + logical batch VM).
//!
//! Not to be confused with `stayaway_fleet::aggregate`, which shares the
//! name but not the job: this module folds container observations *within
//! one tick on one host* to feed the sense stage, while the fleet module
//! folds *finished cell outcomes* into fleet-wide rollups. They share no
//! numeric helper except the hits-over-checks ratio, which lives in
//! [`crate::stats::hit_ratio`] (its single home) and is reused by both
//! [`crate::ControllerStats::prediction_accuracy`] and the fleet's
//! aggregation.

use stayaway_telemetry::{AppClass, ContainerObs, Observation, ResourceKind, ResourceVector};

/// True when the container belongs to the *protected* set: sensitive
/// containers of the top (numerically lowest) priority among unfinished
/// sensitive containers. With several co-scheduled sensitive applications,
/// §2.1's priority rule demotes the lower-priority ones to the throttleable
/// set alongside the batch applications.
pub fn is_protected(observation: &Observation, container: &ContainerObs) -> bool {
    if container.class != AppClass::Sensitive {
        return false;
    }
    let top = observation
        .containers
        .iter()
        .filter(|c| c.class == AppClass::Sensitive && !c.finished)
        .map(|c| c.priority)
        .min();
    Some(container.priority) == top
}

/// Iterator over the throttleable containers: batch applications plus any
/// demoted (lower-priority) sensitive applications.
pub(crate) fn throttleable<'a>(
    observation: &'a Observation,
) -> impl Iterator<Item = &'a ContainerObs> + 'a {
    observation
        .containers
        .iter()
        .filter(move |c| !is_protected(observation, c))
}

/// True when any protected container is active.
pub(crate) fn protected_active(observation: &Observation) -> bool {
    observation
        .containers
        .iter()
        .any(|c| c.active && is_protected(observation, c))
}

/// True when any throttleable container is active.
pub(crate) fn throttleable_active(observation: &Observation) -> bool {
    throttleable(observation).any(|c| c.active)
}

/// Builds aggregated usage: `(protected, logical throttleable VM)`.
pub(crate) fn aggregate_usage(observation: &Observation) -> (ResourceVector, ResourceVector) {
    let mut protected = ResourceVector::zero();
    let mut rest = ResourceVector::zero();
    for c in &observation.containers {
        if is_protected(observation, c) {
            protected += c.usage;
        } else {
            rest += c.usage;
        }
    }
    (protected, rest)
}

/// Assembles the raw (unnormalised) measurement vector
/// `⟨sensitive[m₁..m_k], total[m₁..m_k]⟩` for the selected metrics, where
/// `total = sensitive + logical batch VM`.
///
/// Using the *total* host load for the second half (instead of the batch
/// VM's usage alone) follows §5's observation that "contention can be
/// accurately represented by a linear composition of resource usage
/// values" and is what makes the state map transferable across batch
/// co-runners (§6): a violation is characterised by the sensitive VM's
/// starved signature plus a saturated resource, not by which application
/// produced the pressure.
pub fn measurement_vector(observation: &Observation, metrics: &[ResourceKind]) -> Vec<f64> {
    let mut v = Vec::with_capacity(metrics.len() * 2);
    measurement_vector_into(observation, metrics, &mut v);
    v
}

/// [`measurement_vector`] into `out` (overwritten).
pub(crate) fn measurement_vector_into(
    observation: &Observation,
    metrics: &[ResourceKind],
    out: &mut Vec<f64>,
) {
    let (sensitive, batch) = aggregate_usage(observation);
    let total = sensitive + batch;
    out.clear();
    out.extend(metrics.iter().map(|&m| sensitive.get(m)));
    out.extend(metrics.iter().map(|&m| total.get(m)));
}

/// The logical throttleable VM's usage on the selected metrics into `out`
/// (overwritten) — used by the controller to estimate what resuming the
/// batch applications would add to the current load.
pub(crate) fn batch_usage_vector_into(
    observation: &Observation,
    metrics: &[ResourceKind],
    out: &mut Vec<f64>,
) {
    let (_, rest) = aggregate_usage(observation);
    out.clear();
    out.extend(metrics.iter().map(|&m| rest.get(m)));
}

/// Picks the batch containers to throttle: active batch containers are
/// sorted by their share of the (normalised) batch resource usage and the
/// heaviest ones covering at least half of it are selected — the paper's
/// "batch applications consuming a majority share of resources are
/// collectively throttled" (§5). With a single batch container this is just
/// that container.
pub(crate) fn majority_share_batch(
    observation: &Observation,
    metrics: &[ResourceKind],
    capacities: &ResourceVector,
) -> Vec<stayaway_telemetry::ContainerId> {
    let mut weights: Vec<(stayaway_telemetry::ContainerId, f64)> = throttleable(observation)
        .filter(|c| c.active)
        .map(|c| {
            let w: f64 = metrics
                .iter()
                .map(|&m| {
                    let cap = capacities.get(m);
                    if cap > 0.0 {
                        c.usage.get(m) / cap
                    } else {
                        0.0
                    }
                })
                .sum();
            (c.id, w)
        })
        .collect();
    if weights.is_empty() {
        return Vec::new();
    }
    weights.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total: f64 = weights.iter().map(|(_, w)| w).sum();
    let mut selected = Vec::new();
    let mut cum = 0.0;
    for (id, w) in weights {
        selected.push(id);
        cum += w;
        if total > 0.0 && cum >= 0.5 * total {
            break;
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use stayaway_telemetry::{ContainerId, ContainerObs};

    fn obs(containers: Vec<ContainerObs>) -> Observation {
        Observation {
            tick: 0,
            containers,
            qos_violation: false,
            qos_value: 1.0,
        }
    }

    fn cobs(raw: usize, class: AppClass, cpu: f64, active: bool) -> ContainerObs {
        // ContainerId has no public constructor; round-trip through a host.
        ContainerObs {
            id: container_id(raw),
            name: format!("app{raw}"),
            class,
            active,
            paused: false,
            finished: false,
            usage: ResourceVector::zero().with(ResourceKind::Cpu, cpu),
            ipc: if active { 1.0 } else { 0.0 },
            priority: 0,
        }
    }

    /// Obtains a real ContainerId with the given raw index by building a
    /// throwaway host.
    fn container_id(raw: usize) -> ContainerId {
        use stayaway_sim::app::{Phase, PhasedApp};
        use stayaway_sim::Host;
        use stayaway_telemetry::HostSpec;
        let mut host = Host::new(HostSpec::default()).unwrap();
        let mut id = None;
        for _ in 0..=raw {
            id = Some(
                host.add_container(
                    AppClass::Batch,
                    Box::new(
                        PhasedApp::builder("x")
                            .phase(Phase::steady(
                                ResourceVector::zero().with(ResourceKind::Cpu, 0.1),
                                1.0,
                            ))
                            .looping(true)
                            .build(),
                    ),
                    0,
                ),
            );
        }
        id.unwrap()
    }

    #[test]
    fn lower_priority_sensitive_is_throttleable() {
        let mut o = obs(vec![
            cobs(0, AppClass::Sensitive, 1.0, true),
            cobs(1, AppClass::Sensitive, 2.0, true),
            cobs(2, AppClass::Batch, 0.5, true),
        ]);
        o.containers[1].priority = 1; // demoted
        assert!(is_protected(&o, &o.containers[0]));
        assert!(!is_protected(&o, &o.containers[1]));
        assert!(!is_protected(&o, &o.containers[2]));
        let (prot, rest) = aggregate_usage(&o);
        assert_eq!(prot.get(ResourceKind::Cpu), 1.0);
        assert_eq!(rest.get(ResourceKind::Cpu), 2.5);
        assert!(protected_active(&o));
        assert!(throttleable_active(&o));
        // The demoted sensitive container can be picked for throttling.
        let caps = ResourceVector::new(4.0, 8192.0, 10_000.0, 200.0, 1000.0, 4.0);
        let picked = majority_share_batch(&o, &[ResourceKind::Cpu], &caps);
        assert_eq!(picked[0].raw(), 1);
    }

    #[test]
    fn aggregation_sums_by_class() {
        let o = obs(vec![
            cobs(0, AppClass::Sensitive, 1.0, true),
            cobs(1, AppClass::Batch, 2.0, true),
            cobs(2, AppClass::Batch, 0.5, true),
        ]);
        let (s, b) = aggregate_usage(&o);
        assert_eq!(s.get(ResourceKind::Cpu), 1.0);
        assert_eq!(b.get(ResourceKind::Cpu), 2.5);
    }

    #[test]
    fn measurement_vector_layout() {
        let o = obs(vec![
            cobs(0, AppClass::Sensitive, 1.0, true),
            cobs(1, AppClass::Batch, 2.0, true),
        ]);
        let v = measurement_vector(&o, &[ResourceKind::Cpu, ResourceKind::Memory]);
        // ⟨sensitive, total⟩: total cpu = 1 + 2.
        assert_eq!(v, vec![1.0, 0.0, 3.0, 0.0]);
        let mut b = vec![9.0];
        batch_usage_vector_into(&o, &[ResourceKind::Cpu, ResourceKind::Memory], &mut b);
        assert_eq!(b, vec![2.0, 0.0]);
    }

    #[test]
    fn majority_share_picks_heaviest() {
        let o = obs(vec![
            cobs(0, AppClass::Sensitive, 1.0, true),
            cobs(1, AppClass::Batch, 3.0, true),
            cobs(2, AppClass::Batch, 0.2, true),
        ]);
        let caps = ResourceVector::new(4.0, 8192.0, 10_000.0, 200.0, 1000.0, 4.0);
        let picked = majority_share_batch(&o, &[ResourceKind::Cpu], &caps);
        // The 3.0-core consumer alone covers > 50% of batch usage.
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].raw(), 1);
    }

    #[test]
    fn majority_share_takes_several_when_balanced() {
        let o = obs(vec![
            cobs(0, AppClass::Batch, 1.0, true),
            cobs(1, AppClass::Batch, 1.0, true),
            cobs(2, AppClass::Batch, 1.0, true),
        ]);
        let caps = ResourceVector::new(4.0, 8192.0, 10_000.0, 200.0, 1000.0, 4.0);
        let picked = majority_share_batch(&o, &[ResourceKind::Cpu], &caps);
        assert_eq!(picked.len(), 2); // 2/3 of usage ≥ half
    }

    #[test]
    fn majority_share_ignores_inactive() {
        let o = obs(vec![
            cobs(0, AppClass::Batch, 5.0, false),
            cobs(1, AppClass::Batch, 1.0, true),
        ]);
        let caps = ResourceVector::new(4.0, 8192.0, 10_000.0, 200.0, 1000.0, 4.0);
        let picked = majority_share_batch(&o, &[ResourceKind::Cpu], &caps);
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].raw(), 1);
    }

    #[test]
    fn majority_share_empty_when_no_batch_active() {
        let o = obs(vec![cobs(0, AppClass::Sensitive, 1.0, true)]);
        let caps = ResourceVector::new(4.0, 8192.0, 10_000.0, 200.0, 1000.0, 4.0);
        assert!(majority_share_batch(&o, &[ResourceKind::Cpu], &caps).is_empty());
    }
}
