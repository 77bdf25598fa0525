//! Observation-source selection: which telemetry substrate a fleet cell
//! (or a CLI run) senses through.
//!
//! A [`SourceSpec`] is the declarative, clonable description of an
//! observation substrate; [`SourceSpec::build`] instantiates it as a boxed
//! [`ObservationSource`]. It mirrors [`crate::PolicySpec`]: fleets
//! round-robin a list of specs across their cells, so one fleet can mix
//! live simulation cells with trace-replay cells in a single deterministic
//! run.

use crate::FleetError;
use stayaway_core::Observability;
use stayaway_sim::scenario::Scenario;
use stayaway_telemetry::{ObservationSource, ProcfsSource, TraceSource};
use stayaway_workload::{WorkloadScenario, WorkloadSource};

/// Declarative choice of observation substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceSpec {
    /// The deterministic simulator (the cell's scenario's
    /// [`stayaway_sim::Harness`]) — the default, and the only substrate
    /// that actuates pause/resume actions.
    Sim,
    /// Replay of a recorded JSONL trace ([`TraceSource`]); actions are
    /// accepted but have no effect, exactly as during recording.
    Trace {
        /// Path to the `stayaway-trace` JSONL file.
        path: String,
    },
    /// Best-effort live sampling of the local `/proc` and cgroup-v2 files
    /// ([`ProcfsSource`]); only available on hosts that expose them.
    Procfs,
    /// The request-driven multi-tenant workload engine
    /// ([`WorkloadSource`]) running a named scenario
    /// from the workload library; actuates pause/resume as tenant
    /// freezes.
    Workload {
        /// Name of a scenario in [`stayaway_workload::library`].
        scenario: String,
    },
}

impl SourceSpec {
    /// The canonical source name, matching
    /// [`stayaway_telemetry::SourceKind`]'s display form.
    pub fn name(&self) -> &'static str {
        match self {
            SourceSpec::Sim => "sim",
            SourceSpec::Trace { .. } => "trace",
            SourceSpec::Procfs => "procfs",
            SourceSpec::Workload { .. } => "workload",
        }
    }

    /// The full CLI token, including any argument — `sim`,
    /// `trace:<path>`, `procfs` or `workload:<scenario>`.
    pub fn label(&self) -> String {
        match self {
            SourceSpec::Trace { path } => format!("trace:{path}"),
            SourceSpec::Workload { scenario } => format!("workload:{scenario}"),
            other => other.name().to_string(),
        }
    }

    /// Parses a CLI source token: `sim`, `trace:<path>` or `procfs`.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for an unknown token or a
    /// `trace:` token with an empty path.
    pub fn parse(token: &str) -> Result<Self, FleetError> {
        let token = token.trim();
        if let Some(path) = token.strip_prefix("trace:") {
            let spec = SourceSpec::Trace {
                path: path.trim().to_string(),
            };
            spec.validate()?;
            return Ok(spec);
        }
        if let Some(scenario) = token.strip_prefix("workload:") {
            let spec = SourceSpec::Workload {
                scenario: scenario.trim().to_string(),
            };
            spec.validate()?;
            return Ok(spec);
        }
        match token.to_ascii_lowercase().as_str() {
            "sim" => Ok(SourceSpec::Sim),
            "procfs" => Ok(SourceSpec::Procfs),
            other => Err(FleetError::InvalidConfig {
                reason: format!(
                    "unknown source '{other}' (expected sim|trace:<path>|procfs|workload:<scenario>)"
                ),
            }),
        }
    }

    /// Parses a comma-separated list of source tokens (for mixed fleets).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for an empty list or any
    /// unknown token.
    pub fn parse_list(tokens: &str) -> Result<Vec<Self>, FleetError> {
        let specs: Vec<Self> = tokens
            .split(',')
            .filter(|t| !t.trim().is_empty())
            .map(Self::parse)
            .collect::<Result<_, _>>()?;
        if specs.is_empty() {
            return Err(FleetError::InvalidConfig {
                reason: "source list must not be empty".into(),
            });
        }
        Ok(specs)
    }

    /// Validates the spec's parameters (so fleet configuration errors
    /// surface before any cell starts).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] describing the problem.
    pub fn validate(&self) -> Result<(), FleetError> {
        match self {
            SourceSpec::Trace { path } if path.trim().is_empty() => {
                Err(FleetError::InvalidConfig {
                    reason: "trace source requires a non-empty path (trace:<path>)".into(),
                })
            }
            SourceSpec::Workload { scenario } => {
                stayaway_workload::by_name(scenario).map_err(|e| FleetError::InvalidConfig {
                    reason: e.to_string(),
                })?;
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Instantiates the observation substrate for one host. `scenario`
    /// and `seed` are only consulted by [`SourceSpec::Sim`] (the harness
    /// is built from the scenario prototype and reseeded) and
    /// [`SourceSpec::Workload`] (seed); a trace replays exactly what was
    /// recorded and procfs samples the live host. The bundle's
    /// [exported registry](Observability::exported_registry) receives the
    /// substrate's instruments (trace decode errors, procfs probe
    /// failures, workload engine metrics; the simulator has none), its
    /// recorder the workload engine's SLO-violation events.
    ///
    /// # Errors
    ///
    /// Propagates harness construction, trace-open and procfs-probe
    /// failures.
    pub fn build(
        &self,
        scenario: &Scenario,
        seed: u64,
        obs: &Observability,
    ) -> Result<Box<dyn ObservationSource>, FleetError> {
        Ok(match self {
            SourceSpec::Sim => {
                let mut harness = scenario.build_harness()?;
                harness.reseed(seed);
                Box::new(harness)
            }
            SourceSpec::Trace { path } => {
                let source = TraceSource::open(path)?;
                Box::new(match obs.exported_registry() {
                    Some(registry) => source.with_metrics(registry),
                    None => source,
                })
            }
            SourceSpec::Procfs => {
                let source = ProcfsSource::probe().ok_or_else(|| FleetError::InvalidConfig {
                    reason: "procfs source unavailable: this host exposes no /proc/stat".into(),
                })?;
                Box::new(match obs.exported_registry() {
                    Some(registry) => source.with_metrics(registry),
                    None => source,
                })
            }
            SourceSpec::Workload { scenario } => {
                let spec = stayaway_workload::by_name(scenario).map_err(|e| {
                    FleetError::InvalidConfig {
                        reason: e.to_string(),
                    }
                })?;
                Box::new(workload_source(spec, seed, obs)?)
            }
        })
    }
}

/// A workload engine over `scenario` under `seed`, recording into the
/// bundle's exported registry and recorder — the host of a
/// `workload:<scenario>` fleet cell and of every cluster host alike.
pub(crate) fn workload_source(
    scenario: WorkloadScenario,
    seed: u64,
    obs: &Observability,
) -> Result<WorkloadSource, FleetError> {
    let mut source = WorkloadSource::new(scenario, seed)?;
    if let Some(registry) = obs.exported_registry() {
        source = source.with_metrics(registry);
    }
    if let Some(recorder) = obs.recorder() {
        source = source.with_recorder(recorder.clone());
    }
    Ok(source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stayaway_telemetry::SourceKind;

    #[test]
    fn parse_accepts_the_three_substrates() {
        assert_eq!(SourceSpec::parse("sim").unwrap(), SourceSpec::Sim);
        assert_eq!(SourceSpec::parse("SIM").unwrap(), SourceSpec::Sim);
        assert_eq!(SourceSpec::parse("procfs").unwrap(), SourceSpec::Procfs);
        assert_eq!(
            SourceSpec::parse("trace:/tmp/t.jsonl").unwrap(),
            SourceSpec::Trace {
                path: "/tmp/t.jsonl".into()
            }
        );
        assert!(SourceSpec::parse("trace:").is_err());
        assert!(SourceSpec::parse("bogus").is_err());
    }

    #[test]
    fn parse_list_splits_on_commas() {
        let specs = SourceSpec::parse_list("sim, trace:/tmp/t.jsonl").unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name(), "sim");
        assert_eq!(specs[1].name(), "trace");
        assert!(SourceSpec::parse_list("").is_err());
        assert!(SourceSpec::parse_list("sim,bogus").is_err());
    }

    #[test]
    fn build_sim_produces_a_driveable_source() {
        let scenario = Scenario::vlc_with_cpubomb(5);
        let mut source = SourceSpec::Sim
            .build(&scenario, 5, &Observability::disabled())
            .unwrap();
        let meta = source.meta();
        assert_eq!(meta.kind, SourceKind::Sim);
        assert!(meta.host.is_some());
        assert!(source.next_observation().unwrap().is_some());
    }

    #[test]
    fn build_missing_trace_fails() {
        let scenario = Scenario::vlc_with_cpubomb(5);
        let spec = SourceSpec::Trace {
            path: "/nonexistent/trace.jsonl".into(),
        };
        assert!(spec
            .build(&scenario, 5, &Observability::disabled())
            .is_err());
    }

    #[test]
    fn validate_rejects_empty_trace_path() {
        assert!(SourceSpec::Trace { path: "  ".into() }.validate().is_err());
        assert!(SourceSpec::Sim.validate().is_ok());
        assert!(SourceSpec::Procfs.validate().is_ok());
    }

    #[test]
    fn parse_accepts_workload_scenarios() {
        let spec = SourceSpec::parse("workload:cpu-bomb").unwrap();
        assert_eq!(
            spec,
            SourceSpec::Workload {
                scenario: "cpu-bomb".into()
            }
        );
        assert_eq!(spec.name(), "workload");
        assert_eq!(spec.label(), "workload:cpu-bomb");
        // Unknown scenarios are rejected at parse time, not at cell start.
        assert!(SourceSpec::parse("workload:warp-core").is_err());
        assert!(SourceSpec::parse("workload:").is_err());
    }

    #[test]
    fn build_workload_produces_a_driveable_source() {
        let scenario = Scenario::vlc_with_cpubomb(5);
        let spec = SourceSpec::Workload {
            scenario: "memcached-like".into(),
        };
        let mut source = spec
            .build(&scenario, 5, &Observability::disabled())
            .unwrap();
        let meta = source.meta();
        assert_eq!(meta.kind, SourceKind::Workload);
        assert!(meta.host.is_some());
        assert!(source.next_observation().unwrap().is_some());
    }
}
