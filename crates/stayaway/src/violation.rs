//! Violation detection sources (§3.1).
//!
//! "Stay-Away relies on the application to report whenever a QoS violation
//! happens … Alternatively, using IPC to detect QoS violation is explored
//! in other works." This module implements both: the application-reported
//! path (the paper's prototype) and an IPC-inferred detector that compares
//! the sensitive VM's hardware-counter-style progress proxy against a
//! baseline learned during isolated execution — usable when the sensitive
//! application cannot be instrumented.

use serde::{Deserialize, Serialize};
use stayaway_telemetry::Observation;

/// How the controller learns that the sensitive application's QoS is
/// violated.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ViolationDetection {
    /// The instrumented application reports violations itself (the paper's
    /// prototype: VLC's transcoding rate, the webservice's transaction
    /// rate).
    #[default]
    AppReported,
    /// Violations are inferred from the sensitive VM's IPC proxy dropping
    /// below `threshold` × the baseline IPC learned while the application
    /// ran without batch co-runners.
    IpcInferred {
        /// Fraction of the isolated-baseline IPC below which a co-located
        /// tick counts as a violation (e.g. 0.95).
        threshold: f64,
    },
}

/// Stateful violation detector used by the controller each period.
#[derive(Debug, Clone)]
pub struct ViolationDetector {
    mode: ViolationDetection,
    /// EWMA of the sensitive VM's IPC during isolated execution.
    baseline: Option<f64>,
    alpha: f64,
}

impl ViolationDetector {
    /// Creates a detector for the given mode.
    pub fn new(mode: ViolationDetection) -> Self {
        ViolationDetector {
            mode,
            baseline: None,
            alpha: 0.2,
        }
    }

    /// The configured detection mode.
    pub fn mode(&self) -> ViolationDetection {
        self.mode
    }

    /// Observes one tick and decides whether it is a violation.
    ///
    /// For [`ViolationDetection::AppReported`] this simply forwards the
    /// observation's flag. For [`ViolationDetection::IpcInferred`] the
    /// detector updates its baseline whenever the sensitive application
    /// runs alone, and flags co-located ticks whose IPC falls below the
    /// threshold fraction of that baseline. Without a baseline yet, no
    /// violation is inferred (the controller cannot distinguish slow from
    /// normal).
    pub fn assess(&mut self, observation: &Observation) -> bool {
        match self.mode {
            ViolationDetection::AppReported => observation.qos_violation,
            ViolationDetection::IpcInferred { threshold } => {
                // Counted, then summed in observation order, in two passes
                // so the detector allocates nothing in a steady period.
                let active_ipcs = || observation.sensitive().filter(|c| c.active).map(|c| c.ipc);
                let active = active_ipcs().count();
                if active == 0 {
                    return false;
                }
                let ipc = active_ipcs().sum::<f64>() / active as f64;
                if !observation.batch_active() {
                    // Isolated execution: refresh the baseline.
                    self.baseline = Some(match self.baseline {
                        None => ipc,
                        Some(b) => b + self.alpha * (ipc - b),
                    });
                    return false;
                }
                match self.baseline {
                    Some(b) if b > 0.0 => ipc < threshold * b,
                    _ => false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stayaway_telemetry::{AppClass, ContainerObs, ResourceVector};

    fn obs(sens_active: bool, batch_active: bool, ipc: f64, reported: bool) -> Observation {
        // ContainerIds are opaque; fabricate through a throwaway host.
        use stayaway_sim::app::{Phase, PhasedApp};
        use stayaway_sim::Host;
        use stayaway_telemetry::HostSpec;
        let mut host = Host::new(HostSpec::default()).unwrap();
        let mk = || {
            Box::new(
                PhasedApp::builder("x")
                    .phase(Phase::steady(
                        ResourceVector::zero().with(stayaway_telemetry::ResourceKind::Cpu, 0.1),
                        1.0,
                    ))
                    .looping(true)
                    .build(),
            )
        };
        let sid = host.add_container(AppClass::Sensitive, mk(), 0);
        let bid = host.add_container(AppClass::Batch, mk(), 0);
        Observation {
            tick: 0,
            containers: vec![
                ContainerObs {
                    id: sid,
                    name: "sens".into(),
                    class: AppClass::Sensitive,
                    active: sens_active,
                    paused: false,
                    finished: false,
                    usage: ResourceVector::zero(),
                    ipc,
                    priority: 0,
                },
                ContainerObs {
                    id: bid,
                    name: "batch".into(),
                    class: AppClass::Batch,
                    active: batch_active,
                    paused: !batch_active,
                    finished: false,
                    usage: ResourceVector::zero(),
                    ipc: if batch_active { 1.0 } else { 0.0 },
                    priority: 0,
                },
            ],
            qos_violation: reported,
            qos_value: if reported { 0.5 } else { 1.0 },
        }
    }

    #[test]
    fn app_reported_forwards_the_flag() {
        let mut d = ViolationDetector::new(ViolationDetection::AppReported);
        assert!(!d.assess(&obs(true, true, 1.0, false)));
        assert!(d.assess(&obs(true, true, 1.0, true)));
    }

    #[test]
    fn inferred_learns_baseline_then_flags_drops() {
        let mut d = ViolationDetector::new(ViolationDetection::IpcInferred { threshold: 0.9 });
        // Isolated warm-up at ipc ≈ 1.0.
        for _ in 0..10 {
            assert!(!d.assess(&obs(true, false, 1.0, false)));
        }
        assert!(d.baseline.unwrap() > 0.99);
        // Co-located at full speed: no violation.
        assert!(!d.assess(&obs(true, true, 0.98, false)));
        // Co-located with a 30% IPC drop: violation inferred, even though
        // nothing was reported.
        assert!(d.assess(&obs(true, true, 0.7, false)));
    }

    #[test]
    fn inferred_needs_a_baseline_first() {
        let mut d = ViolationDetector::new(ViolationDetection::IpcInferred { threshold: 0.9 });
        // Straight into co-location: cannot infer anything yet.
        assert!(!d.assess(&obs(true, true, 0.2, false)));
    }

    #[test]
    fn inferred_ignores_reported_flag() {
        let mut d = ViolationDetector::new(ViolationDetection::IpcInferred { threshold: 0.9 });
        for _ in 0..5 {
            d.assess(&obs(true, false, 1.0, false));
        }
        // Reported but IPC healthy → not a violation for this detector.
        assert!(!d.assess(&obs(true, true, 1.0, true)));
    }

    #[test]
    fn no_sensitive_activity_is_never_a_violation() {
        let mut d = ViolationDetector::new(ViolationDetection::IpcInferred { threshold: 0.9 });
        assert!(!d.assess(&obs(false, true, 0.0, false)));
    }
}
