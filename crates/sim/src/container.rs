//! Simulated containers (the LXC analogue).

use crate::app::Application;
use stayaway_telemetry::{AppClass, ContainerId};

/// A container: one application plus its scheduling state.
#[derive(Debug)]
pub struct Container {
    id: ContainerId,
    class: AppClass,
    app: Box<dyn Application>,
    start_tick: u64,
    priority: u8,
    paused: bool,
}

impl Container {
    /// Creates a container with an explicit priority (lower number = more
    /// important; only meaningful for sensitive containers, §2.1's
    /// "multiple sensitive applications … with the notion of priorities").
    pub(crate) fn with_priority(
        id: ContainerId,
        class: AppClass,
        app: Box<dyn Application>,
        start_tick: u64,
        priority: u8,
    ) -> Self {
        Container {
            id,
            class,
            app,
            start_tick,
            priority,
            paused: false,
        }
    }

    /// Scheduling priority (lower = more important, default 0).
    pub fn priority(&self) -> u8 {
        self.priority
    }

    /// The container's id.
    pub fn id(&self) -> ContainerId {
        self.id
    }

    /// Sensitive or batch.
    pub fn class(&self) -> AppClass {
        self.class
    }

    /// The application's name.
    pub(crate) fn app_name(&self) -> &str {
        self.app.name()
    }

    /// True while the container is SIGSTOP-ed.
    pub(crate) fn is_paused(&self) -> bool {
        self.paused
    }

    /// True when the application completed all its work.
    pub(crate) fn is_finished(&self) -> bool {
        self.app.is_finished()
    }

    /// True when the container is scheduled, unfinished and not paused at
    /// `tick` — i.e. it will demand resources.
    pub(crate) fn is_active(&self, tick: u64) -> bool {
        tick >= self.start_tick && !self.paused && !self.app.is_finished()
    }

    /// Pauses the container (SIGSTOP analogue). Idempotent.
    pub(crate) fn pause(&mut self) {
        self.paused = true;
    }

    /// Resumes the container (SIGCONT analogue). Idempotent.
    pub(crate) fn resume(&mut self) {
        self.paused = false;
    }

    /// Mutable access to the application (host-internal).
    pub(crate) fn app_mut(&mut self) -> &mut dyn Application {
        self.app.as_mut()
    }

    /// Shared access to the application.
    pub fn app(&self) -> &dyn Application {
        self.app.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Phase, PhasedApp};
    use stayaway_telemetry::{ResourceKind, ResourceVector};

    fn container(start: u64) -> Container {
        let app = PhasedApp::builder("t")
            .phase(Phase::steady(
                ResourceVector::zero().with(ResourceKind::Cpu, 1.0),
                5.0,
            ))
            .build();
        Container::with_priority(
            ContainerId::from_raw(0),
            AppClass::Batch,
            Box::new(app),
            start,
            0,
        )
    }

    #[test]
    fn activity_respects_start_tick() {
        let c = container(10);
        assert!(!c.is_active(9));
        assert!(c.is_active(10));
    }

    #[test]
    fn pause_resume_cycle() {
        let mut c = container(0);
        assert!(c.is_active(0));
        c.pause();
        assert!(c.is_paused());
        assert!(!c.is_active(0));
        c.pause(); // idempotent: one resume undoes both
        c.resume();
        assert!(c.is_active(0));
    }

    #[test]
    fn finished_app_deactivates_container() {
        let mut c = container(0);
        for _ in 0..5 {
            c.app_mut().deliver(1.0);
        }
        assert!(c.is_finished());
        assert!(!c.is_active(100));
    }

    #[test]
    fn id_display() {
        assert_eq!(ContainerId::from_raw(3).to_string(), "c3");
        assert_eq!(ContainerId::from_raw(3).raw(), 3);
    }
}
