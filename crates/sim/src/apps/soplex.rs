//! SPEC CPU 2006 `soplex` (batch): a linear-programming solver with steady
//! CPU demand and a slowly growing working set. Figure 5 characterises its
//! mapped trajectory as "linear … with a consistent orientation and
//! slightly varying step length", which the slow memory ramp reproduces.

use crate::app::{Phase, PhasedApp};
use stayaway_telemetry::{ResourceKind, ResourceVector};

/// Default nominal runtime in ticks.
pub const DEFAULT_WORK: f64 = 600.0;

/// Builds soplex with the default amount of work.
pub fn soplex() -> PhasedApp {
    soplex_with_work(DEFAULT_WORK)
}

/// Builds soplex with an explicit nominal runtime.
pub fn soplex_with_work(work_ticks: f64) -> PhasedApp {
    let work = work_ticks.max(1.0);
    let start = ResourceVector::new(1.0, 400.0, 2500.0, 5.0, 0.0, 1.5);
    let end = start.with(ResourceKind::Memory, 900.0);
    PhasedApp::builder("soplex")
        .phase(Phase::ramp(start, end, work))
        .total_work(work)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Application;

    #[test]
    fn memory_grows_linearly_while_cpu_is_steady() {
        let mut app = soplex_with_work(100.0);
        let d0 = app.demand(0);
        for _ in 0..50 {
            app.deliver(1.0);
        }
        let d50 = app.demand(50);
        assert_eq!(
            d0.get(ResourceKind::Cpu),
            d50.get(ResourceKind::Cpu),
            "cpu demand must be steady"
        );
        assert!(
            d50.get(ResourceKind::Memory) > d0.get(ResourceKind::Memory) + 200.0,
            "memory must ramp"
        );
    }

    #[test]
    fn finishes_after_nominal_work() {
        let mut app = soplex_with_work(10.0);
        for _ in 0..10 {
            app.deliver(1.0);
        }
        assert!(app.is_finished());
    }

    #[test]
    fn contention_stretches_runtime() {
        let mut app = soplex_with_work(10.0);
        for _ in 0..19 {
            app.deliver(0.5);
        }
        assert!(!app.is_finished());
        app.deliver(0.5);
        assert!(app.is_finished());
    }
}
