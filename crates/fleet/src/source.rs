//! Observation-source selection: which telemetry substrate a fleet cell
//! (or a CLI run) senses through.
//!
//! A [`SourceSpec`] is the declarative, clonable description of an
//! observation substrate; [`SourceSpec::build`] instantiates it as a boxed
//! [`ObservationSource`]. It mirrors [`crate::PolicySpec`]: a fleet's list
//! of specs is one axis of its cell matrix, so one fleet can mix
//! live simulation cells with trace-replay cells in a single deterministic
//! run.

use crate::FleetError;
use stayaway_core::Observability;
use stayaway_sim::scenario::Scenario;
use stayaway_telemetry::{ObservationSource, ProcfsSource, TraceSource};
use stayaway_workload::{WorkloadHost, WorkloadScenario};

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
    /// ([`WorkloadHost`]) running a named scenario
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
    pub(crate) fn label(&self) -> String {
        match self {
            SourceSpec::Trace { path } => format!("trace:{path}"),
            SourceSpec::Workload { scenario } => format!("workload:{scenario}"),
            other => other.name().to_string(),
        }
    }

    /// Parses a CLI source token: `sim`, `trace:<path>`, `procfs` or
    /// `workload:<scenario>`.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for an unknown token or an empty
    /// trace path, [`FleetError::Workload`] for an unknown workload scenario.
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
        crate::parse_comma_list(tokens, "source", Self::parse)
    }

    /// The scenario a run over this source reports: the simulator's
    /// `prototype` the run was configured with, which it alone runs; every
    /// other source reports its own label (`workload:<scenario>`,
    /// `trace:<path>`, `procfs`).
    pub fn scenario_label(&self, prototype: &str) -> String {
        match self {
            SourceSpec::Sim => prototype.to_string(),
            _ => self.label(),
        }
    }

    /// The sensitive-workload key a run over this source registers and
    /// exports its template under — named after what the run senses, so a
    /// template only ever warm-starts a run protecting the same
    /// application: the `<sensitive>` half of the simulator `prototype`'s
    /// `<sensitive>+<batch>` name, the scenario's sensitive tenant on the
    /// workload engine (the key [`crate::Cluster`] hosts use, so the two
    /// planes serve each other), the source label for a trace or the live
    /// host. A fleet cell and `stayaway run --template-out` key by it
    /// alike.
    pub fn sensitive_key(&self, prototype: &str) -> String {
        match self {
            SourceSpec::Sim => prototype.split('+').next().unwrap_or(prototype).to_string(),
            SourceSpec::Workload { scenario } => stayaway_workload::by_name(scenario)
                .ok()
                .and_then(|s| s.sensitive_tenant().map(|t| t.name.clone()))
                .unwrap_or_else(|| self.label()),
            SourceSpec::Trace { .. } | SourceSpec::Procfs => self.label(),
        }
    }

    /// Validates the spec's parameters (so fleet configuration errors
    /// surface before any cell starts).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for an empty trace path,
    /// [`FleetError::Workload`] for an unknown workload scenario.
    pub(crate) fn validate(&self) -> Result<(), FleetError> {
        match self {
            SourceSpec::Trace { path } if path.trim().is_empty() => {
                Err(FleetError::InvalidConfig {
                    reason: "trace source requires a non-empty path (trace:<path>)".into(),
                })
            }
            SourceSpec::Workload { scenario } => {
                stayaway_workload::by_name(scenario)?;
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Whether `build` reads its `scenario`: only the simulator does.
    /// (Labels and keys name the other sources, and the fallback host spec
    /// is the same for every scenario.)
    pub fn reads_scenario(&self) -> bool {
        matches!(self, SourceSpec::Sim)
    }

    /// Whether `build` reads its `seed`: the simulator and the workload
    /// engine do.
    pub fn reads_seed(&self) -> bool {
        matches!(self, SourceSpec::Sim | SourceSpec::Workload { .. })
    }

    /// Instantiates the observation substrate for one host, reading
    /// `scenario` and `seed` as [`SourceSpec::reads_scenario`] and
    /// [`SourceSpec::reads_seed`] declare: the simulator's harness is built
    /// from the scenario and reseeded, the workload engine takes the seed,
    /// a trace replays what was recorded and procfs samples the live host.
    /// The bundle's [exported registry](Observability::exported_registry)
    /// receives the substrate's instruments (trace decode errors, procfs
    /// probe failures, workload engine metrics; the simulator has none),
    /// its recorder the workload engine's SLO-violation events.
    ///
    /// # Errors
    ///
    /// Propagates harness construction, trace-open and procfs-probe
    /// failures.
    pub(crate) fn build(
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
                let spec = stayaway_workload::by_name(scenario)?;
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
) -> Result<WorkloadHost, FleetError> {
    let mut host = WorkloadHost::new(scenario, seed)?;
    if let Some(registry) = obs.exported_registry() {
        host = host.with_metrics(registry);
    }
    if let Some(recorder) = obs.recorder() {
        host = host.with_recorder(recorder.clone());
    }
    Ok(host)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stayaway_telemetry::{Observation, SourceKind};

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
        assert_eq!(spec.scenario_label("vlc+cpu-bomb"), "workload:cpu-bomb");
        assert_eq!(
            SourceSpec::Sim.scenario_label("vlc+cpu-bomb"),
            "vlc+cpu-bomb"
        );
        // Only the simulator runs the prototype: a replay and a live host
        // are labelled after what they sensed.
        let trace = SourceSpec::parse("trace:t.jsonl").unwrap();
        assert_eq!(trace.scenario_label("vlc+cpu-bomb"), "trace:t.jsonl");
        assert_eq!(SourceSpec::Procfs.scenario_label("vlc+cpu-bomb"), "procfs");
        // Unknown scenarios are rejected at parse time, not at cell start.
        assert!(SourceSpec::parse("workload:warp-core").is_err());
        assert!(SourceSpec::parse("workload:").is_err());
    }

    #[test]
    fn sensitive_key_names_what_the_run_senses() {
        assert_eq!(SourceSpec::Sim.sensitive_key("vlc+cpu-bomb"), "vlc");
        let workload = SourceSpec::parse("workload:cpu-bomb").unwrap();
        assert_eq!(workload.sensitive_key("vlc+cpu-bomb"), "kv-front");
        let trace = SourceSpec::parse("trace:t.jsonl").unwrap();
        assert_eq!(trace.sensitive_key("vlc+cpu-bomb"), "trace:t.jsonl");
        assert_eq!(SourceSpec::Procfs.sensitive_key("vlc+cpu-bomb"), "procfs");
    }

    /// The first 40 observations `spec` yields when built under `scenario`
    /// and `seed`.
    fn stream(spec: &SourceSpec, scenario: &Scenario, seed: u64) -> Vec<Observation> {
        let mut source = spec
            .build(scenario, seed, &Observability::disabled())
            .unwrap();
        std::iter::from_fn(|| source.next_observation().unwrap())
            .take(40)
            .collect()
    }

    /// `reads_scenario` / `reads_seed` are what `build` does: a source
    /// yields the same observation stream under two scenarios (two seeds)
    /// exactly when it is declared not to read them.
    #[test]
    fn a_source_reads_the_inputs_it_declares_and_no_other() {
        let trace = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/smoke_trace.jsonl"
        );
        let (a, b) = (Scenario::vlc_with_cpubomb(3), Scenario::vlc_with_soplex(3));
        for spec in [
            SourceSpec::Sim,
            SourceSpec::parse(&format!("trace:{trace}")).unwrap(),
            SourceSpec::parse("workload:cpu-bomb").unwrap(),
        ] {
            let reference = stream(&spec, &a, 3);
            assert_eq!(reference.len(), 40, "{spec:?}");
            let same_under_b = stream(&spec, &b, 3) == reference;
            assert_eq!(same_under_b, !spec.reads_scenario(), "{spec:?}");
            let same_under_seed = stream(&spec, &a, 11) == reference;
            assert_eq!(same_under_seed, !spec.reads_seed(), "{spec:?}");
            let both = stream(&spec, &b, 11) == reference;
            assert_eq!(both, !spec.reads_scenario() && !spec.reads_seed());
        }
        assert!(!SourceSpec::Procfs.reads_scenario() && !SourceSpec::Procfs.reads_seed());
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
