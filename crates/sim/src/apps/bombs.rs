//! Stress applications: CPUBomb (isolation benchmark suite) and the
//! custom MemoryBomb of §7.1.

use crate::app::{Phase, PhasedApp};
use stayaway_telemetry::ResourceVector;

/// CPUBomb: saturates every core, never changes phase, never finishes.
/// The paper's worst-case co-runner — "it is impossible to execute both VLC
/// streaming and CPUBomb without violating the QoS".
pub fn cpu_bomb(cores: f64) -> PhasedApp {
    let demand = ResourceVector::new(cores.max(0.1), 100.0, 200.0, 0.0, 0.0, 0.5);
    PhasedApp::builder("cpu-bomb")
        .phase(Phase::steady(demand, 1.0))
        .looping(true)
        .build()
}

/// MemoryBomb: "generates stress on the memory subsystem by allocating
/// large chunks of memory and occasionally reading the allocated content".
///
/// The model ramps its working set up to `peak_mb`, then alternates scan
/// phases (high memory bandwidth) with quiescent phases, releasing and
/// re-allocating on every cycle.
pub fn memory_bomb(peak_mb: f64) -> PhasedApp {
    let peak = peak_mb.max(100.0);
    let idle = ResourceVector::new(0.3, 500.0, 500.0, 0.0, 0.0, 1.0);
    let held = ResourceVector::new(0.3, peak, 1000.0, 0.0, 0.0, 1.0);
    let scanning = ResourceVector::new(0.4, peak, 8000.0, 0.0, 0.0, 3.0);
    PhasedApp::builder("memory-bomb")
        .phase(Phase::ramp(idle, held, 40.0)) // allocate large chunks
        .phase(Phase::steady(scanning, 10.0)) // occasionally read them
        .phase(Phase::steady(held, 10.0))
        .phase(Phase::steady(scanning, 10.0))
        .looping(true)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Application;
    use stayaway_telemetry::ResourceKind;

    #[test]
    fn cpu_bomb_demands_all_cores_forever() {
        let mut app = cpu_bomb(4.0);
        for _ in 0..500 {
            let d = app.demand(0);
            assert_eq!(d.get(ResourceKind::Cpu), 4.0);
            app.deliver(1.0);
        }
        assert!(!app.is_finished());
    }

    #[test]
    fn cpu_bomb_has_no_phase_changes() {
        let mut app = cpu_bomb(2.0);
        let first = app.demand(0);
        for _ in 0..100 {
            app.deliver(0.7);
            assert_eq!(app.demand(0), first);
        }
    }

    #[test]
    fn memory_bomb_ramps_then_scans() {
        let mut app = memory_bomb(7000.0);
        let d0 = app.demand(0);
        assert!(d0.get(ResourceKind::Memory) < 1000.0);
        for _ in 0..40 {
            app.deliver(1.0);
        }
        let d = app.demand(0);
        assert!(
            d.get(ResourceKind::Memory) > 6500.0,
            "working set not built: {}",
            d.get(ResourceKind::Memory)
        );
        // The scan phase drives the memory bus hard.
        assert!(d.get(ResourceKind::MemBandwidth) > 5000.0);
    }

    #[test]
    fn memory_bomb_floors_its_peak() {
        let mut app = memory_bomb(-5.0);
        for _ in 0..40 {
            app.deliver(1.0);
        }
        assert!(app.demand(0).get(ResourceKind::Memory) >= 100.0 - 1e-9);
    }
}
