//! Application models: the trait and a phase-scripted implementation.
//!
//! The paper's application mix is reproduced as *phase scripts*: sequences
//! of resource-demand phases (optionally ramped for gradual transitions,
//! looped for long-running services, workload-modulated for user-facing
//! ones). Progress is tracked in *nominal work ticks*: an application that
//! is granted `perf = 0.5` for a tick advances half a tick through its
//! script — throttled or contended applications take correspondingly
//! longer, exactly like a real batch job under SIGSTOP or CPU starvation.

use crate::workload::Trace;
use stayaway_telemetry::ResourceVector;

/// An application that can run inside a simulated container.
pub trait Application: std::fmt::Debug + Send {
    /// Application name (for reports and templates).
    fn name(&self) -> &str;

    /// Resource demand for the upcoming tick. `tick` is the global host
    /// tick, used by workload-driven applications to index their trace.
    fn demand(&mut self, tick: u64) -> ResourceVector;

    /// Feedback after allocation: the application progressed `perf` nominal
    /// ticks (`perf ∈ [0, 1]`). A paused application receives no call.
    fn deliver(&mut self, perf: f64);

    /// True when the application has completed all its work.
    fn is_finished(&self) -> bool;

    /// Total nominal work completed so far, in ticks.
    fn work_done(&self) -> f64;
}

/// One phase of a script: demands ramp linearly from `start` to `end`
/// over `duration` nominal ticks.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    start: ResourceVector,
    end: ResourceVector,
    duration: f64,
}

impl Phase {
    /// A constant-demand phase.
    ///
    /// # Panics
    ///
    /// Panics if `duration <= 0` or the demand vector is invalid.
    pub fn steady(demand: ResourceVector, duration: f64) -> Self {
        Phase::ramp(demand, demand, duration)
    }

    /// A linearly ramping phase (the paper's "gradual transitions").
    ///
    /// # Panics
    ///
    /// Panics if `duration <= 0` or either demand vector is invalid.
    pub fn ramp(start: ResourceVector, end: ResourceVector, duration: f64) -> Self {
        assert!(
            duration > 0.0 && duration.is_finite(),
            "phase duration must be positive"
        );
        assert!(start.is_valid() && end.is_valid(), "invalid demand vector");
        Phase {
            start,
            end,
            duration,
        }
    }

    /// Demand at `progress ∈ [0, duration]` nominal ticks into the phase.
    pub fn demand_at(&self, progress: f64) -> ResourceVector {
        self.start.lerp(&self.end, progress / self.duration)
    }

    /// Nominal length of the phase.
    pub fn duration(&self) -> f64 {
        self.duration
    }
}

/// A phase-scripted application.
///
/// Built with [`PhasedApp::builder`]; see [`crate::apps`] for the concrete
/// models of the paper's applications.
#[derive(Debug, Clone)]
pub struct PhasedApp {
    name: String,
    phases: Vec<Phase>,
    looping: bool,
    total_work: Option<f64>,
    workload: Option<(Trace, ResourceVector)>,
    phase_idx: usize,
    phase_progress: f64,
    work_done: f64,
}

impl PhasedApp {
    /// Starts building a phased application.
    pub fn builder(name: impl Into<String>) -> PhasedAppBuilder {
        PhasedAppBuilder {
            name: name.into(),
            phases: Vec::new(),
            looping: false,
            total_work: None,
            workload: None,
        }
    }
}

impl Application for PhasedApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn demand(&mut self, tick: u64) -> ResourceVector {
        if self.is_finished() {
            return ResourceVector::zero();
        }
        let base = self.phases[self.phase_idx].demand_at(self.phase_progress);
        match &self.workload {
            Some((trace, span)) => {
                let w = trace.intensity(tick);
                (base + span.scale(w)).clamp_non_negative()
            }
            None => base,
        }
    }

    fn deliver(&mut self, perf: f64) {
        if self.is_finished() {
            return;
        }
        let perf = perf.clamp(0.0, 1.0);
        self.work_done += perf;
        self.phase_progress += perf;
        while self.phase_progress >= self.phases[self.phase_idx].duration() {
            self.phase_progress -= self.phases[self.phase_idx].duration();
            if self.phase_idx + 1 < self.phases.len() {
                self.phase_idx += 1;
            } else if self.looping {
                self.phase_idx = 0;
            } else {
                // Script exhausted: clamp to the end of the last phase.
                self.phase_progress = self.phases[self.phase_idx].duration();
                break;
            }
        }
    }

    fn is_finished(&self) -> bool {
        if let Some(total) = self.total_work {
            if self.work_done >= total {
                return true;
            }
        }
        if !self.looping && self.total_work.is_none() {
            // Finite script without explicit work bound: finished when the
            // last phase has been fully traversed.
            let last = self.phases.len() - 1;
            return self.phase_idx == last && self.phase_progress >= self.phases[last].duration();
        }
        false
    }

    fn work_done(&self) -> f64 {
        self.work_done
    }
}

/// Builder for [`PhasedApp`].
#[derive(Debug, Clone)]
pub struct PhasedAppBuilder {
    name: String,
    phases: Vec<Phase>,
    looping: bool,
    total_work: Option<f64>,
    workload: Option<(Trace, ResourceVector)>,
}

impl PhasedAppBuilder {
    /// Appends a phase to the script.
    pub fn phase(mut self, phase: Phase) -> Self {
        self.phases.push(phase);
        self
    }

    /// Makes the script loop back to the first phase after the last.
    pub fn looping(mut self, looping: bool) -> Self {
        self.looping = looping;
        self
    }

    /// Bounds the total nominal work; the application finishes once done.
    pub fn total_work(mut self, ticks: f64) -> Self {
        self.total_work = Some(ticks);
        self
    }

    /// Adds workload modulation: the effective demand is the phase demand
    /// plus `span` scaled by the trace intensity at the current tick.
    pub fn workload(mut self, trace: Trace, span: ResourceVector) -> Self {
        self.workload = Some((trace, span));
        self
    }

    /// Builds the application.
    ///
    /// # Panics
    ///
    /// Panics if no phase was added.
    pub fn build(self) -> PhasedApp {
        assert!(!self.phases.is_empty(), "at least one phase is required");
        PhasedApp {
            name: self.name,
            phases: self.phases,
            looping: self.looping,
            total_work: self.total_work,
            workload: self.workload,
            phase_idx: 0,
            phase_progress: 0.0,
            work_done: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stayaway_telemetry::ResourceKind;

    fn cpu(v: f64) -> ResourceVector {
        ResourceVector::zero().with(ResourceKind::Cpu, v)
    }

    #[test]
    fn steady_phase_demand_is_constant() {
        let p = Phase::steady(cpu(2.0), 10.0);
        assert_eq!(p.demand_at(0.0), cpu(2.0));
        assert_eq!(p.demand_at(9.9), cpu(2.0));
    }

    #[test]
    fn ramp_phase_interpolates() {
        let p = Phase::ramp(cpu(0.0), cpu(4.0), 10.0);
        let mid = p.demand_at(5.0);
        assert!((mid.get(ResourceKind::Cpu) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn zero_duration_phase_panics() {
        let _ = Phase::steady(cpu(1.0), 0.0);
    }

    #[test]
    fn app_advances_through_phases_by_delivered_work() {
        let mut app = PhasedApp::builder("two-phase")
            .phase(Phase::steady(cpu(1.0), 5.0))
            .phase(Phase::steady(cpu(2.0), 5.0))
            .build();
        assert_eq!(app.phase_idx, 0);
        for _ in 0..5 {
            app.deliver(1.0);
        }
        assert_eq!(app.phase_idx, 1);
        assert_eq!(app.demand(0).get(ResourceKind::Cpu), 2.0);
    }

    #[test]
    fn throttled_app_does_not_advance() {
        let mut app = PhasedApp::builder("x")
            .phase(Phase::steady(cpu(1.0), 5.0))
            .phase(Phase::steady(cpu(2.0), 5.0))
            .build();
        for _ in 0..100 {
            app.deliver(0.0);
        }
        assert_eq!(app.phase_idx, 0);
        assert_eq!(app.work_done(), 0.0);
    }

    #[test]
    fn partial_performance_slows_progress() {
        let mut app = PhasedApp::builder("x")
            .phase(Phase::steady(cpu(1.0), 5.0))
            .phase(Phase::steady(cpu(2.0), 5.0))
            .build();
        for _ in 0..9 {
            app.deliver(0.5); // 4.5 work
        }
        assert_eq!(app.phase_idx, 0);
        app.deliver(1.0); // 5.5 → phase 1
        assert_eq!(app.phase_idx, 1);
    }

    #[test]
    fn finite_app_finishes_and_demands_zero() {
        let mut app = PhasedApp::builder("batch")
            .phase(Phase::steady(cpu(1.0), 3.0))
            .build();
        assert!(!app.is_finished());
        for _ in 0..3 {
            app.deliver(1.0);
        }
        assert!(app.is_finished());
        assert_eq!(app.demand(0), ResourceVector::zero());
        // Further delivery is a no-op.
        app.deliver(1.0);
        assert_eq!(app.work_done(), 3.0);
    }

    #[test]
    fn total_work_bound_overrides_script_length() {
        let mut app = PhasedApp::builder("loop-bounded")
            .phase(Phase::steady(cpu(1.0), 2.0))
            .looping(true)
            .total_work(7.0)
            .build();
        for _ in 0..7 {
            assert!(!app.is_finished());
            app.deliver(1.0);
        }
        assert!(app.is_finished());
    }

    #[test]
    fn looping_app_never_finishes_without_bound() {
        let mut app = PhasedApp::builder("daemon")
            .phase(Phase::steady(cpu(1.0), 2.0))
            .looping(true)
            .build();
        for _ in 0..100 {
            app.deliver(1.0);
        }
        assert!(!app.is_finished());
        assert_eq!(app.phase_idx, 0);
    }

    #[test]
    fn workload_modulates_demand() {
        let trace = Trace::piecewise(&[(0.5, 10)]).unwrap();
        let mut app = PhasedApp::builder("svc")
            .phase(Phase::steady(cpu(1.0), 1.0))
            .looping(true)
            .workload(trace, cpu(2.0))
            .build();
        let d = app.demand(3);
        assert!((d.get(ResourceKind::Cpu) - 2.0).abs() < 1e-12); // 1 + 0.5·2
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_script_panics() {
        let _ = PhasedApp::builder("empty").build();
    }
}
