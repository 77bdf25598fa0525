//! The simulated physical host.

use crate::app::Application;
use crate::container::Container;
use crate::contention::{allocate_into, Allocation, ContentionScratch};
use crate::SimError;
use stayaway_telemetry::{AppClass, ContainerId, HostSpec, ResourceKind, ResourceVector};

/// Per-container outcome of one tick.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ContainerTick {
    /// The container.
    pub(crate) id: ContainerId,
    /// Sensitive or batch.
    pub(crate) class: AppClass,
    /// Resources granted/occupied this tick.
    pub(crate) usage: ResourceVector,
    /// Progress fraction achieved this tick (0.0 when inactive).
    pub(crate) perf: f64,
    /// Whether the container demanded resources this tick.
    pub(crate) active: bool,
    /// Whether the container is currently paused.
    pub(crate) paused: bool,
    /// Whether the application has finished.
    pub(crate) finished: bool,
}

/// Host-wide outcome of one tick.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct HostTick {
    /// The tick index this report describes.
    pub(crate) tick: u64,
    /// Per-container outcomes, in container order.
    pub(crate) containers: Vec<ContainerTick>,
}

impl HostTick {
    /// Sum of granted CPU over containers of `class`, in cores.
    pub(crate) fn cpu_usage_of(&self, class: AppClass) -> f64 {
        self.containers
            .iter()
            .filter(|c| c.class == class)
            .map(|c| c.usage.get(ResourceKind::Cpu))
            .sum()
    }

    /// Machine CPU utilisation in `[0, 1]` for the given capacity.
    pub(crate) fn cpu_utilization(&self, spec: &HostSpec) -> f64 {
        let used: f64 = self
            .containers
            .iter()
            .map(|c| c.usage.get(ResourceKind::Cpu))
            .sum();
        (used / spec.cpu_cores).clamp(0.0, 1.0)
    }

    /// The tick outcome of one container.
    pub(crate) fn container(&self, id: ContainerId) -> Option<&ContainerTick> {
        self.containers.iter().find(|c| c.id == id)
    }
}

/// The simulated host: containers plus the contention engine.
#[derive(Debug)]
pub struct Host {
    spec: HostSpec,
    containers: Vec<Container>,
    tick: u64,
    physics: TickBuffers,
}

/// What one tick's physics writes, kept across ticks so a steady
/// [`Host::step_into`] allocates nothing.
#[derive(Debug, Default)]
struct TickBuffers {
    demands: Vec<ResourceVector>,
    /// Whether each container demanded this tick, read before delivery
    /// can finish it.
    active: Vec<bool>,
    allocations: Vec<Allocation>,
    scratch: ContentionScratch,
}

impl Host {
    /// Creates a host with the given capacities.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for non-positive capacities.
    pub fn new(spec: HostSpec) -> Result<Self, SimError> {
        spec.validate()?;
        Ok(Host {
            spec,
            containers: Vec::new(),
            tick: 0,
            physics: TickBuffers::default(),
        })
    }

    /// The host capacities.
    pub fn spec(&self) -> &HostSpec {
        &self.spec
    }

    /// Adds a container running `app`; returns its id.
    pub fn add_container(
        &mut self,
        class: AppClass,
        app: Box<dyn Application>,
        start_tick: u64,
    ) -> ContainerId {
        self.add_container_with_priority(class, app, start_tick, 0)
    }

    /// Adds a container with an explicit priority (lower number = more
    /// important). Sensitive containers that are not of top priority may
    /// be throttled in favour of higher-priority sensitive applications
    /// (§2.1).
    pub(crate) fn add_container_with_priority(
        &mut self,
        class: AppClass,
        app: Box<dyn Application>,
        start_tick: u64,
        priority: u8,
    ) -> ContainerId {
        let id = ContainerId::from_raw(self.containers.len());
        self.containers.push(Container::with_priority(
            id, class, app, start_tick, priority,
        ));
        id
    }

    /// Borrow a container.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownContainer`] for an unknown id.
    pub(crate) fn container(&self, id: ContainerId) -> Result<&Container, SimError> {
        self.containers
            .get(id.raw())
            .ok_or(SimError::UnknownContainer { id: id.raw() })
    }

    /// Iterate over containers.
    pub fn containers(&self) -> impl Iterator<Item = &Container> + '_ {
        self.containers.iter()
    }

    /// Pauses a container (SIGSTOP). Top-priority sensitive containers
    /// cannot be paused — the paper's constraint that only best-effort
    /// batch applications (or, with §2.1's priorities, *lower-priority*
    /// sensitive applications) are throttled.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownContainer`] for an unknown id and
    /// [`SimError::ActionRejected`] for a protected sensitive container.
    pub(crate) fn pause(&mut self, id: ContainerId) -> Result<(), SimError> {
        let top_priority = self
            .containers
            .iter()
            .filter(|c| c.class() == AppClass::Sensitive && !c.is_finished())
            .map(Container::priority)
            .min();
        let c = self
            .containers
            .get_mut(id.raw())
            .ok_or(SimError::UnknownContainer { id: id.raw() })?;
        if c.class() == AppClass::Sensitive && Some(c.priority()) == top_priority {
            return Err(SimError::ActionRejected {
                reason: format!(
                    "container {id} is a top-priority sensitive application and cannot be throttled"
                ),
            });
        }
        c.pause();
        Ok(())
    }

    /// Resumes a container (SIGCONT).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownContainer`] for an unknown id.
    pub(crate) fn resume(&mut self, id: ContainerId) -> Result<(), SimError> {
        let c = self
            .containers
            .get_mut(id.raw())
            .ok_or(SimError::UnknownContainer { id: id.raw() })?;
        c.resume();
        Ok(())
    }

    /// Advances the simulation by one tick: gathers demands from active
    /// containers, runs the contention model, delivers progress, and
    /// reports what happened into `report` (overwritten), the physics
    /// working in buffers the host keeps.
    pub(crate) fn step_into(&mut self, report: &mut HostTick) {
        let t = self.tick;
        let TickBuffers {
            demands,
            active,
            allocations,
            scratch,
        } = &mut self.physics;
        demands.clear();
        active.clear();
        for c in &mut self.containers {
            if c.is_active(t) {
                demands.push(c.app_mut().demand(t).clamp_non_negative());
                active.push(true);
            } else {
                demands.push(ResourceVector::zero());
                active.push(false);
            }
        }

        allocate_into(demands, &self.spec, scratch, allocations);

        report.tick = t;
        report.containers.clear();
        for ((c, alloc), &active) in self.containers.iter_mut().zip(&*allocations).zip(&*active) {
            if active {
                c.app_mut().deliver(alloc.perf);
            }
            report.containers.push(ContainerTick {
                id: c.id(),
                class: c.class(),
                usage: if active {
                    alloc.granted
                } else {
                    ResourceVector::zero()
                },
                perf: if active { alloc.perf } else { 0.0 },
                active,
                paused: c.is_paused(),
                finished: c.is_finished(),
            });
        }
        self.tick += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One tick of `host`, reported into a fresh [`HostTick`].
    fn step(host: &mut Host) -> HostTick {
        let mut report = HostTick::default();
        host.step_into(&mut report);
        report
    }
    use crate::app::{Phase, PhasedApp};

    fn cpu_app(name: &str, cores: f64, work: f64) -> Box<dyn Application> {
        Box::new(
            PhasedApp::builder(name)
                .phase(Phase::steady(
                    ResourceVector::zero().with(ResourceKind::Cpu, cores),
                    work,
                ))
                .build(),
        )
    }

    #[test]
    fn spec_validation() {
        assert!(HostSpec::default().validate().is_ok());
        let bad = HostSpec {
            cpu_cores: 0.0,
            ..HostSpec::default()
        };
        assert!(bad.validate().is_err());
        assert!(Host::new(bad).is_err());
    }

    #[test]
    fn single_app_runs_at_full_speed() {
        let mut host = Host::new(HostSpec::default()).unwrap();
        let id = host.add_container(AppClass::Batch, cpu_app("a", 2.0, 10.0), 0);
        let r = step(&mut host);
        assert_eq!(r.tick, 0);
        let ct = r.container(id).unwrap();
        assert!((ct.perf - 1.0).abs() < 1e-9);
        assert!((ct.usage.get(ResourceKind::Cpu) - 2.0).abs() < 1e-9);
        // The clock advanced: the next tick is tick 1.
        assert_eq!(step(&mut host).tick, 1);
    }

    #[test]
    fn contended_apps_split_cpu() {
        let mut host = Host::new(HostSpec::default()).unwrap();
        let a = host.add_container(AppClass::Sensitive, cpu_app("a", 3.0, 100.0), 0);
        let b = host.add_container(AppClass::Batch, cpu_app("b", 3.0, 100.0), 0);
        let r = step(&mut host);
        assert!((r.container(a).unwrap().perf - 2.0 / 3.0).abs() < 1e-9);
        assert!((r.container(b).unwrap().perf - 2.0 / 3.0).abs() < 1e-9);
        assert!((r.cpu_utilization(host.spec()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn paused_container_demands_nothing() {
        let mut host = Host::new(HostSpec::default()).unwrap();
        let a = host.add_container(AppClass::Sensitive, cpu_app("a", 3.0, 100.0), 0);
        let b = host.add_container(AppClass::Batch, cpu_app("b", 3.0, 100.0), 0);
        host.pause(b).unwrap();
        let r = step(&mut host);
        assert!((r.container(a).unwrap().perf - 1.0).abs() < 1e-9);
        let bt = r.container(b).unwrap();
        assert_eq!(bt.perf, 0.0);
        assert_eq!(bt.usage, ResourceVector::zero());
        assert!(bt.paused);
        assert!(!bt.active);
    }

    #[test]
    fn sensitive_containers_cannot_be_paused() {
        let mut host = Host::new(HostSpec::default()).unwrap();
        let a = host.add_container(AppClass::Sensitive, cpu_app("a", 1.0, 10.0), 0);
        assert!(matches!(
            host.pause(a),
            Err(SimError::ActionRejected { .. })
        ));
    }

    #[test]
    fn unknown_container_errors() {
        let mut host = Host::new(HostSpec::default()).unwrap();
        let ghost = ContainerId::from_raw(7);
        assert!(host.pause(ghost).is_err());
        assert!(host.resume(ghost).is_err());
        assert!(host.container(ghost).is_err());
    }

    #[test]
    fn delayed_start_keeps_container_idle() {
        let mut host = Host::new(HostSpec::default()).unwrap();
        let id = host.add_container(AppClass::Batch, cpu_app("late", 1.0, 10.0), 3);
        for t in 0..3 {
            let r = step(&mut host);
            assert!(!r.container(id).unwrap().active, "tick {t}");
        }
        let r = step(&mut host);
        assert!(r.container(id).unwrap().active);
    }

    #[test]
    fn finite_app_finishes_and_frees_resources() {
        let mut host = Host::new(HostSpec::default()).unwrap();
        let id = host.add_container(AppClass::Batch, cpu_app("short", 1.0, 3.0), 0);
        for _ in 0..3 {
            step(&mut host);
        }
        let r = step(&mut host);
        let ct = r.container(id).unwrap();
        assert!(ct.finished);
        assert!(!ct.active);
        assert_eq!(ct.usage, ResourceVector::zero());
    }

    #[test]
    fn pause_resume_restores_progress_flow() {
        let mut host = Host::new(HostSpec::default()).unwrap();
        let id = host.add_container(AppClass::Batch, cpu_app("x", 1.0, 5.0), 0);
        step(&mut host); // 1 work done
        host.pause(id).unwrap();
        for _ in 0..10 {
            step(&mut host);
        }
        assert!(!host.container(id).unwrap().is_finished());
        host.resume(id).unwrap();
        for _ in 0..4 {
            step(&mut host);
        }
        assert!(host.container(id).unwrap().is_finished());
    }

    #[test]
    fn priority_rules_for_pausing_sensitive_containers() {
        let mut host = Host::new(HostSpec::default()).unwrap();
        let top =
            host.add_container_with_priority(AppClass::Sensitive, cpu_app("top", 1.0, 100.0), 0, 0);
        let low =
            host.add_container_with_priority(AppClass::Sensitive, cpu_app("low", 1.0, 100.0), 0, 1);
        // The top-priority sensitive container is protected…
        assert!(matches!(
            host.pause(top),
            Err(SimError::ActionRejected { .. })
        ));
        // …the lower-priority one may be throttled (§2.1).
        host.pause(low).unwrap();
        assert!(host.container(low).unwrap().is_paused());
        host.resume(low).unwrap();
    }

    #[test]
    fn equal_priority_sensitives_are_all_protected() {
        let mut host = Host::new(HostSpec::default()).unwrap();
        let a = host.add_container(AppClass::Sensitive, cpu_app("a", 1.0, 100.0), 0);
        let b = host.add_container(AppClass::Sensitive, cpu_app("b", 1.0, 100.0), 0);
        assert!(host.pause(a).is_err());
        assert!(host.pause(b).is_err());
    }

    #[test]
    fn cpu_usage_by_class() {
        let mut host = Host::new(HostSpec::default()).unwrap();
        host.add_container(AppClass::Sensitive, cpu_app("s", 1.0, 100.0), 0);
        host.add_container(AppClass::Batch, cpu_app("b", 2.0, 100.0), 0);
        let r = step(&mut host);
        assert!((r.cpu_usage_of(AppClass::Sensitive) - 1.0).abs() < 1e-9);
        assert!((r.cpu_usage_of(AppClass::Batch) - 2.0).abs() < 1e-9);
    }
}
