//! CloudSuite Twitter influence ranking (batch).
//!
//! §7.2: "Twitter-Analysis experiences a mix of both CPU and memory
//! intensive phases, and is throttled only during its memory intensive
//! phase … its memory operation is intensive enough to force the OS to swap
//! pages of Webservice to disk". The model alternates a CPU-heavy ranking
//! phase with a memory-heavy graph-loading phase whose working set ramps up
//! gradually (the paper's "gradual transitions", Figure 7).

use crate::app::{Phase, PhasedApp};
use stayaway_telemetry::ResourceVector;

/// Length of the CPU-intensive phase in nominal ticks.
pub(crate) const CPU_PHASE_TICKS: f64 = 25.0;

/// Length of the memory-intensive phase in nominal ticks.
pub(crate) const MEM_PHASE_TICKS: f64 = 20.0;

/// Builds the Twitter-Analysis batch application (long-running, loops
/// through its phase cycle until the scenario ends).
pub(crate) fn twitter_analysis() -> PhasedApp {
    let cpu_phase = ResourceVector::new(1.2, 1200.0, 1500.0, 10.0, 0.0, 1.0);
    let mem_lo = ResourceVector::new(0.6, 1500.0, 4000.0, 30.0, 0.0, 2.5);
    let mem_hi = ResourceVector::new(0.6, 4500.0, 7000.0, 30.0, 0.0, 2.5);
    PhasedApp::builder("twitter-analysis")
        .phase(Phase::steady(cpu_phase, CPU_PHASE_TICKS))
        .phase(Phase::ramp(mem_lo, mem_hi, MEM_PHASE_TICKS))
        .phase(Phase::ramp(mem_hi, cpu_phase, 4.0))
        .looping(true)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Application;
    use stayaway_telemetry::ResourceKind;

    #[test]
    fn alternates_cpu_and_memory_phases() {
        let mut app = twitter_analysis();
        let d = app.demand(0);
        assert!(d.get(ResourceKind::Cpu) > 1.0, "starts cpu-heavy");
        assert!(d.get(ResourceKind::Memory) < 2000.0);

        // March to the end of the memory ramp.
        for _ in 0..((CPU_PHASE_TICKS + MEM_PHASE_TICKS) as usize - 1) {
            app.deliver(1.0);
        }
        let d = app.demand(0);
        assert!(
            d.get(ResourceKind::Memory) > 4000.0,
            "memory phase peak not reached: {}",
            d.get(ResourceKind::Memory)
        );
        assert!(d.get(ResourceKind::MemBandwidth) > 6000.0);
        assert!(d.get(ResourceKind::Cpu) < 1.0);
    }

    #[test]
    fn memory_ramp_is_gradual() {
        let mut app = twitter_analysis();
        for _ in 0..(CPU_PHASE_TICKS as usize) {
            app.deliver(1.0);
        }
        // Within the memory phase, consecutive demands differ by a bounded
        // step — a gradual transition, not a jump.
        let mut prev = app.demand(0).get(ResourceKind::Memory);
        for _ in 0..(MEM_PHASE_TICKS as usize - 1) {
            app.deliver(1.0);
            let cur = app.demand(0).get(ResourceKind::Memory);
            let delta = cur - prev;
            assert!(delta >= 0.0, "memory must grow within the phase");
            assert!(delta < 500.0, "jump of {delta} MB is not gradual");
            prev = cur;
        }
    }

    #[test]
    fn loops_forever() {
        let mut app = twitter_analysis();
        for _ in 0..10_000 {
            app.deliver(1.0);
        }
        assert!(!app.is_finished());
    }
}
