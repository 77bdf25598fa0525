//! VLC models: the latency-sensitive streaming server and the batch
//! transcoder.

use crate::app::{Phase, PhasedApp};
use crate::workload::Trace;
use stayaway_telemetry::ResourceVector;

/// The VLC streaming server (latency-sensitive).
///
/// Real-time transcoding-and-streaming: CPU, memory bandwidth and network
/// demand scale with the client workload `trace`; the QoS metric is the
/// achieved transcoding rate relative to real time (the simulator's `perf`).
pub fn vlc_streaming(trace: Trace) -> PhasedApp {
    // Demand floor: transcoding the base stream even with few clients.
    // Streaming is a sequential-access workload: its LLC footprint is small
    // (frames stream through), so cache pollution by co-runners hurts far
    // less than CPU or bandwidth contention.
    let base = ResourceVector::new(1.6, 900.0, 1000.0, 40.0, 100.0, 1.0);
    // Additional demand at full workload intensity.
    let span = ResourceVector::new(2.4, 100.0, 2500.0, 10.0, 600.0, 0.2);
    PhasedApp::builder("vlc-streaming")
        .phase(Phase::steady(base, 1.0))
        .looping(true)
        .workload(trace, span)
        .build()
}

/// VLC batch transcoding of a fixed-length video (finite work).
///
/// Heavy steady CPU with disk traffic and a real cache footprint; minimal
/// phase transitions, as required for the Figure 6 illustration.
pub fn vlc_transcode(work_ticks: f64) -> PhasedApp {
    let demand = ResourceVector::new(3.0, 800.0, 3000.0, 60.0, 0.0, 1.5);
    PhasedApp::builder("vlc-transcode")
        .phase(Phase::steady(demand, work_ticks.max(1.0)))
        .total_work(work_ticks.max(1.0))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Application;
    use stayaway_telemetry::ResourceKind;

    #[test]
    fn streaming_demand_tracks_workload() {
        let trace = Trace::from_samples(vec![0.0, 1.0]).unwrap();
        let mut app = vlc_streaming(trace);
        let low = app.demand(0);
        let high = app.demand(1);
        assert!((low.get(ResourceKind::Cpu) - 1.6).abs() < 1e-9);
        assert!((high.get(ResourceKind::Cpu) - 4.0).abs() < 1e-9);
        assert!(high.get(ResourceKind::Network) > low.get(ResourceKind::Network));
        assert!(!app.is_finished());
    }

    #[test]
    fn streaming_never_finishes() {
        let mut app = vlc_streaming(Trace::piecewise(&[(0.5, 4)]).unwrap());
        for _ in 0..1000 {
            app.deliver(1.0);
        }
        assert!(!app.is_finished());
    }

    #[test]
    fn transcode_finishes_after_its_work() {
        let mut app = vlc_transcode(5.0);
        for _ in 0..5 {
            assert!(!app.is_finished());
            app.deliver(1.0);
        }
        assert!(app.is_finished());
        assert_eq!(app.demand(10), ResourceVector::zero());
    }

    #[test]
    fn transcode_is_cpu_heavy() {
        let mut app = vlc_transcode(10.0);
        let d = app.demand(0);
        assert!(d.get(ResourceKind::Cpu) >= 3.0);
        assert!(d.get(ResourceKind::DiskIo) > 0.0);
    }
}
