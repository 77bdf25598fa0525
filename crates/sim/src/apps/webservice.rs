//! The Memcached-backed analytics webservice (latency-sensitive).
//!
//! §7.1: "a Memcached layer for in-memory data storage" that performs
//! analytics, if necessary, before serving the data", exercised with CPU
//! intensive, memory intensive, and mixed workloads over the Community-Lab
//! monitoring dataset. QoS is the completed-transactions rate relative to
//! demand (the simulator's `perf`).

use crate::app::{Phase, PhasedApp};
use crate::workload::Trace;
use stayaway_telemetry::ResourceVector;

/// The workload mix offered to the webservice (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum WebWorkload {
    /// Statistical analysis and aggregation: CPU-bound request handling.
    CpuIntensive,
    /// Large in-memory working set, bandwidth-heavy scans; under RAM
    /// pressure the OS swaps its pages (the §7.2 degradation mechanism).
    MemIntensive,
    /// Alternating CPU- and memory-intensive periods.
    Mix,
}

impl std::fmt::Display for WebWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WebWorkload::CpuIntensive => f.write_str("cpu"),
            WebWorkload::MemIntensive => f.write_str("mem"),
            WebWorkload::Mix => f.write_str("mix"),
        }
    }
}

/// Duration of each half of the Mix workload's internal alternation.
const MIX_PHASE_TICKS: f64 = 12.0;

fn cpu_profile() -> (ResourceVector, ResourceVector) {
    // (base, workload span)
    (
        ResourceVector::new(1.0, 1500.0, 800.0, 10.0, 80.0, 2.5),
        ResourceVector::new(2.2, 300.0, 1200.0, 5.0, 320.0, 0.5),
    )
}

fn mem_profile() -> (ResourceVector, ResourceVector) {
    (
        ResourceVector::new(0.8, 2500.0, 1500.0, 20.0, 60.0, 2.5),
        ResourceVector::new(1.6, 1500.0, 4500.0, 10.0, 240.0, 0.5),
    )
}

/// Builds the webservice under the given workload type, driven by `trace`.
pub(crate) fn webservice(workload: WebWorkload, trace: Trace) -> PhasedApp {
    let name = format!("webservice-{workload}");
    match workload {
        WebWorkload::CpuIntensive => {
            let (base, span) = cpu_profile();
            PhasedApp::builder(name)
                .phase(Phase::steady(base, 1.0))
                .looping(true)
                .workload(trace, span)
                .build()
        }
        WebWorkload::MemIntensive => {
            let (base, span) = mem_profile();
            PhasedApp::builder(name)
                .phase(Phase::steady(base, 1.0))
                .looping(true)
                .workload(trace, span)
                .build()
        }
        WebWorkload::Mix => {
            let (cpu_base, cpu_span) = cpu_profile();
            let (mem_base, _) = mem_profile();
            // The mix alternates between the two resource profiles with
            // short ramps in between (gradual transitions), modulated by a
            // span that averages the two.
            let span = cpu_span.lerp(&mem_profile().1, 0.5);
            PhasedApp::builder(name)
                .phase(Phase::steady(cpu_base, MIX_PHASE_TICKS))
                .phase(Phase::ramp(cpu_base, mem_base, 3.0))
                .phase(Phase::steady(mem_base, MIX_PHASE_TICKS))
                .phase(Phase::ramp(mem_base, cpu_base, 3.0))
                .looping(true)
                .workload(trace, span)
                .build()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Application;
    use stayaway_telemetry::ResourceKind;

    #[test]
    fn cpu_workload_is_cpu_dominated() {
        let mut app = webservice(
            WebWorkload::CpuIntensive,
            Trace::piecewise(&[(1.0, 2)]).unwrap(),
        );
        let d = app.demand(0);
        assert!(d.get(ResourceKind::Cpu) > 3.0);
        assert!(d.get(ResourceKind::Memory) < 2000.0);
    }

    #[test]
    fn mem_workload_grows_working_set_with_load() {
        let trace = Trace::from_samples(vec![0.0, 1.0]).unwrap();
        let mut app = webservice(WebWorkload::MemIntensive, trace);
        let low = app.demand(0);
        let high = app.demand(1);
        assert!((low.get(ResourceKind::Memory) - 2500.0).abs() < 1e-9);
        assert!((high.get(ResourceKind::Memory) - 4000.0).abs() < 1e-9);
        assert!(high.get(ResourceKind::MemBandwidth) > 5000.0);
    }

    #[test]
    fn mix_workload_alternates_phases() {
        let mut app = webservice(WebWorkload::Mix, Trace::piecewise(&[(0.0, 2)]).unwrap());
        let start_mem = app.demand(0).get(ResourceKind::Memory);
        // Advance through the CPU phase and its ramp into the memory phase.
        for _ in 0..((MIX_PHASE_TICKS + 4.0) as usize) {
            app.deliver(1.0);
        }
        let mid_mem = app.demand(0).get(ResourceKind::Memory);
        assert!(
            mid_mem > start_mem + 500.0,
            "memory phase not reached: {start_mem} -> {mid_mem}"
        );
        // Loop back to the CPU phase eventually.
        for _ in 0..((MIX_PHASE_TICKS + 4.0) as usize) {
            app.deliver(1.0);
        }
        let back_mem = app.demand(0).get(ResourceKind::Memory);
        assert!(back_mem < mid_mem, "did not return towards cpu profile");
    }

    #[test]
    fn names_encode_workload() {
        for (w, n) in [
            (WebWorkload::CpuIntensive, "webservice-cpu"),
            (WebWorkload::MemIntensive, "webservice-mem"),
            (WebWorkload::Mix, "webservice-mix"),
        ] {
            assert_eq!(
                webservice(w, Trace::piecewise(&[(0.5, 2)]).unwrap()).name(),
                n
            );
        }
    }
}
