//! Simulated containers (the LXC analogue).

use crate::app::{AppClass, Application};

pub use stayaway_telemetry::ContainerId;

/// A container: one application plus its scheduling state.
#[derive(Debug)]
pub struct Container {
    id: ContainerId,
    class: AppClass,
    app: Box<dyn Application>,
    start_tick: u64,
    priority: u8,
    paused: bool,
    pause_count: u64,
}

impl Container {
    /// Creates a container with an explicit priority (lower number = more
    /// important; only meaningful for sensitive containers, §2.1's
    /// "multiple sensitive applications … with the notion of priorities").
    pub fn with_priority(
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
            pause_count: 0,
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
    pub fn app_name(&self) -> &str {
        self.app.name()
    }

    /// Tick at which the container is first scheduled.
    pub fn start_tick(&self) -> u64 {
        self.start_tick
    }

    /// True while the container is SIGSTOP-ed.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Number of pause transitions so far.
    pub fn pause_count(&self) -> u64 {
        self.pause_count
    }

    /// True when the application completed all its work.
    pub fn is_finished(&self) -> bool {
        self.app.is_finished()
    }

    /// True when the container is scheduled, unfinished and not paused at
    /// `tick` — i.e. it will demand resources.
    pub fn is_active(&self, tick: u64) -> bool {
        tick >= self.start_tick && !self.paused && !self.app.is_finished()
    }

    /// Pauses the container (SIGSTOP analogue). Idempotent.
    pub fn pause(&mut self) {
        if !self.paused {
            self.paused = true;
            self.pause_count += 1;
        }
    }

    /// Resumes the container (SIGCONT analogue). Idempotent.
    pub fn resume(&mut self) {
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
    use crate::resources::{ResourceKind, ResourceVector};

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
        c.pause(); // idempotent
        assert_eq!(c.pause_count(), 1);
        c.resume();
        assert!(c.is_active(0));
        c.pause();
        assert_eq!(c.pause_count(), 2);
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
