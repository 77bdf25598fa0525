//! Scenario execution helpers shared by every experiment.
//!
//! One generic entry point, [`run`], drives any [`ControlPolicy`] — the
//! Stay-Away controller or a baseline — through a scenario's closed loop.
//! There is deliberately no Stay-Away special case: experiments that need
//! the controller's internals construct one with [`stayaway`] and read it
//! back from [`PolicyRun::policy`] after the run.

use serde_json::Value;
use stayaway_core::{ControlPolicy, Controller, ControllerConfig, ControllerStats};
use stayaway_sim::scenario::Scenario;
use stayaway_sim::{Policy, RunOutcome};

/// The outcome of one policy-driven run, with the policy kept for
/// inspection (state map, events, template export for the controller;
/// nothing extra for stateless baselines).
#[derive(Debug)]
pub struct PolicyRun<P> {
    /// The run outcome.
    pub outcome: RunOutcome,
    /// The policy after the run.
    pub policy: P,
}

impl<P: ControlPolicy> PolicyRun<P> {
    /// Control-policy statistics of the run (all-zero for baselines that
    /// track nothing).
    pub fn stats(&self) -> ControllerStats {
        self.policy.stats()
    }
}

/// Runs a scenario under `policy` for `ticks` — the single runner every
/// experiment shares, for Stay-Away, baselines and observing wrappers
/// alike. The closed loop is the telemetry plane's: [`Harness::run`] is
/// `stayaway_telemetry::drive` over the harness as its own observation
/// source.
///
/// [`Harness::run`]: stayaway_sim::Harness::run
///
/// # Panics
///
/// Panics if the scenario cannot build a harness (misconfigured scenario —
/// a programming error in the experiment definition).
pub fn run<P: Policy>(scenario: &Scenario, mut policy: P, ticks: u64) -> PolicyRun<P> {
    let mut harness = scenario.build_harness().expect("scenario builds a harness");
    let outcome = harness.run(&mut policy, ticks);
    PolicyRun { outcome, policy }
}

/// Builds a fresh Stay-Away controller for the scenario's host, ready to
/// pass to [`run`].
///
/// # Panics
///
/// Panics on an invalid controller configuration (a programming error in
/// the experiment definition).
pub(crate) fn stayaway(scenario: &Scenario, config: ControllerConfig) -> Controller {
    Controller::for_host(config, scenario.host_spec()).expect("valid controller config")
}

/// The workspace-level `target/experiments/` directory, resolved from this
/// crate's manifest location so artifacts land in one place regardless of
/// the working directory cargo launches the bench with.
pub(crate) fn experiments_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("target")
        .join("experiments")
}

/// Writes experiment artifacts under `target/experiments/<id>.json` so the
/// printed series can be post-processed (e.g. plotted) without re-running.
#[derive(Debug)]
pub struct ExperimentSink {
    id: String,
}

impl ExperimentSink {
    /// Creates a sink for the experiment `id`.
    pub fn new(id: &str) -> Self {
        ExperimentSink { id: id.to_string() }
    }

    /// The output path for this experiment.
    pub fn path(&self) -> std::path::PathBuf {
        experiments_dir().join(format!("{}.json", self.id))
    }

    /// Writes the JSON document; failures are reported but non-fatal (the
    /// printed output is the primary artifact).
    pub fn write(&self, value: &Value) {
        let path = self.path();
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("warning: cannot create {}: {e}", dir.display());
                return;
            }
        }
        match std::fs::File::create(&path) {
            Ok(f) => {
                if let Err(e) = serde_json::to_writer_pretty(f, value) {
                    eprintln!("warning: cannot write {}: {e}", path.display());
                } else {
                    println!("[artifact] {}", path.display());
                }
            }
            Err(e) => eprintln!("warning: cannot create {}: {e}", path.display()),
        }
    }
}

/// Summarises a [`RunOutcome`] into a JSON object (shared shape across
/// experiments).
pub(crate) fn outcome_json(outcome: &RunOutcome, cpu_capacity: f64) -> Value {
    serde_json::json!({
        "policy": outcome.policy,
        "active_ticks": outcome.qos.active_ticks,
        "violations": outcome.qos.violations,
        "satisfaction": outcome.qos.satisfaction(),
        "mean_qos": outcome.qos.mean_qos(),
        "worst_qos": outcome.qos.worst,
        "mean_utilization": outcome.mean_utilization(),
        "mean_gained_utilization": outcome.mean_gained_utilization(cpu_capacity),
        "batch_work": outcome.batch_work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stayaway_sim::NullPolicy;

    #[test]
    fn one_runner_drives_baselines_and_stayaway_alike() {
        let scenario = Scenario::vlc_with_cpubomb(1);
        let base = run(&scenario, NullPolicy::new(), 50);
        assert_eq!(base.outcome.timeline.len(), 50);
        assert_eq!(base.stats(), ControllerStats::default());
        let sa = run(
            &scenario,
            stayaway(&scenario, ControllerConfig::default()),
            50,
        );
        assert_eq!(sa.outcome.timeline.len(), 50);
        assert!(sa.stats().periods == 50);
        // The post-run policy is recoverable for inspection.
        assert!(sa.policy.repr_count() > 0);
    }

    #[test]
    fn outcome_json_has_expected_fields() {
        let scenario = Scenario::vlc_with_cpubomb(1);
        let base = run(&scenario, NullPolicy::new(), 30).outcome;
        let v = outcome_json(&base, 4.0);
        for key in [
            "policy",
            "violations",
            "satisfaction",
            "mean_gained_utilization",
            "batch_work",
        ] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn sink_writes_artifact() {
        let sink = ExperimentSink::new("unit-test-artifact");
        sink.write(&serde_json::json!({"ok": true}));
        assert!(sink.path().exists());
        std::fs::remove_file(sink.path()).ok();
    }
}
