//! Policy selection: which control plane a fleet cell (or a CLI run) uses.
//!
//! A [`PolicySpec`] is the declarative, clonable description of a control
//! plane; [`PolicySpec::build`] instantiates it against a concrete host as
//! a boxed [`ControlPolicy`] recording into an [`Observability`] bundle.
//! Fleets round-robin a list of specs across their cells, so one fleet can
//! run mixed-policy populations (e.g. a Stay-Away cohort against a
//! reactive control group) in a single deterministic run.

use crate::FleetError;
use stayaway_baselines::{AlwaysThrottle, ReactivePolicy, StaticThresholdPolicy};
use stayaway_core::{ControlPolicy, Controller, ControllerConfig, CoreError, Observability};
use stayaway_telemetry::{HostSpec, NullPolicy};

/// The reactive baseline's cooldown: violation-free ticks before a resume.
const REACTIVE_COOLDOWN: u64 = 10;

/// The static baseline's sensitive-CPU threshold, as a fraction of the
/// machine.
const STATIC_FRACTION: f64 = 0.5;

/// Declarative choice of control plane.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// The staged Stay-Away controller (mapping + prediction + action).
    StayAway,
    /// Reactive phase-in/phase-out baseline: throttle after an observed
    /// violation, resume after 10 violation-free ticks.
    Reactive,
    /// Static profiling rule: throttle while sensitive CPU exceeds half
    /// the machine.
    StaticThreshold,
    /// Batch applications never run (isolated-run QoS bound).
    AlwaysThrottle,
    /// No prevention at all (co-location without mitigation).
    Null,
}

impl PolicySpec {
    /// The canonical policy name, matching what the built policy reports
    /// via [`stayaway_telemetry::Policy::name`].
    pub fn name(&self) -> &'static str {
        match self {
            PolicySpec::StayAway => "stay-away",
            PolicySpec::Reactive => "reactive",
            PolicySpec::StaticThreshold => "static-threshold",
            PolicySpec::AlwaysThrottle => "always-throttle",
            PolicySpec::Null => "no-prevention",
        }
    }

    /// Parses a CLI policy token. Accepted (with aliases):
    /// `stayaway`/`stay-away`, `reactive`, `static`/`static-threshold`,
    /// `always`/`always-throttle`, `null`/`none`/`no-prevention`.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for an unknown token.
    pub fn parse(token: &str) -> Result<Self, FleetError> {
        match token.trim().to_ascii_lowercase().as_str() {
            "stayaway" | "stay-away" => Ok(PolicySpec::StayAway),
            "reactive" => Ok(PolicySpec::Reactive),
            "static" | "static-threshold" => Ok(PolicySpec::StaticThreshold),
            "always" | "always-throttle" => Ok(PolicySpec::AlwaysThrottle),
            "null" | "none" | "no-prevention" => Ok(PolicySpec::Null),
            other => Err(FleetError::InvalidConfig {
                reason: format!(
                    "unknown policy '{other}' (expected stayaway|reactive|static|always|null)"
                ),
            }),
        }
    }

    /// Parses a comma-separated list of policy tokens (for mixed fleets).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for an empty list or any
    /// unknown token.
    pub fn parse_list(tokens: &str) -> Result<Vec<Self>, FleetError> {
        crate::parse_comma_list(tokens, "policy", Self::parse)
    }

    /// True when the policy can export/import state-map templates (§6);
    /// fleets only schedule template-sharing waves across such cells.
    pub fn supports_templates(&self) -> bool {
        matches!(self, PolicySpec::StayAway)
    }

    /// True when the policy runs a swappable prediction plane
    /// (DESIGN.md §15) — i.e. consults
    /// [`stayaway_core::ControllerConfig::predictor`]. Baselines do not;
    /// their cells report no predictor and join no predictor rollup.
    pub fn uses_predictor(&self) -> bool {
        matches!(self, PolicySpec::StayAway)
    }

    /// Instantiates the control plane for a host, its instruments
    /// registered into `obs`. `config` is only consulted by
    /// [`PolicySpec::StayAway`]; baselines derive what they need (e.g. CPU
    /// capacity) from the host spec and register nothing. Decisions are
    /// identical whatever the bundle.
    ///
    /// # Errors
    ///
    /// Propagates controller construction failures.
    pub fn build(
        &self,
        config: &ControllerConfig,
        spec: &HostSpec,
        obs: Observability,
    ) -> Result<Box<dyn ControlPolicy + Send>, CoreError> {
        Ok(match self {
            PolicySpec::StayAway => {
                Box::new(Controller::for_host_observed(config.clone(), spec, obs)?)
            }
            PolicySpec::Reactive => Box::new(ReactivePolicy::new(REACTIVE_COOLDOWN)),
            PolicySpec::StaticThreshold => {
                Box::new(StaticThresholdPolicy::new(STATIC_FRACTION, spec.cpu_cores))
            }
            PolicySpec::AlwaysThrottle => Box::new(AlwaysThrottle::new()),
            PolicySpec::Null => Box::new(NullPolicy::new()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_canonical_names_and_aliases() {
        assert_eq!(
            PolicySpec::parse("stay-away").unwrap(),
            PolicySpec::StayAway
        );
        assert_eq!(PolicySpec::parse("STAYAWAY").unwrap(), PolicySpec::StayAway);
        assert_eq!(PolicySpec::parse("reactive").unwrap(), PolicySpec::Reactive);
        assert_eq!(
            PolicySpec::parse("static").unwrap(),
            PolicySpec::StaticThreshold
        );
        assert_eq!(
            PolicySpec::parse("always").unwrap(),
            PolicySpec::AlwaysThrottle
        );
        assert_eq!(PolicySpec::parse("none").unwrap(), PolicySpec::Null);
        assert!(PolicySpec::parse("bogus").is_err());
    }

    #[test]
    fn parse_list_splits_on_commas() {
        let specs = PolicySpec::parse_list("stayaway, reactive,null").unwrap();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].name(), "stay-away");
        assert_eq!(specs[2].name(), "no-prevention");
        assert!(PolicySpec::parse_list("").is_err());
        assert!(PolicySpec::parse_list("stayaway,bogus").is_err());
    }

    #[test]
    fn only_stay_away_supports_templates() {
        assert!(PolicySpec::StayAway.supports_templates());
        for spec in [
            PolicySpec::Reactive,
            PolicySpec::StaticThreshold,
            PolicySpec::AlwaysThrottle,
            PolicySpec::Null,
        ] {
            assert!(!spec.supports_templates(), "{}", spec.name());
        }
    }

    #[test]
    fn build_produces_the_named_policy() {
        let spec = HostSpec::default();
        let config = ControllerConfig::default();
        for policy_spec in [
            PolicySpec::StayAway,
            PolicySpec::Reactive,
            PolicySpec::StaticThreshold,
            PolicySpec::AlwaysThrottle,
            PolicySpec::Null,
        ] {
            let built = policy_spec
                .build(&config, &spec, Observability::disabled())
                .unwrap();
            assert_eq!(built.name(), policy_spec.name());
        }
    }

    #[test]
    fn built_policies_close_the_loop_over_workload_scenarios() {
        // The `bench-scenarios` shape: a library scenario under each
        // spec-built policy, closed over the workload substrate.
        let scenario = stayaway_workload::by_name("cpu-bomb").unwrap();
        for name in ["stayaway", "reactive", "null"] {
            let spec = PolicySpec::parse(name).unwrap();
            let mut policy = spec
                .build(
                    &ControllerConfig::default(),
                    &scenario.host,
                    Observability::disabled(),
                )
                .unwrap();
            let row = stayaway_workload::bench_scenario(&scenario, policy.as_mut(), 7, 20).unwrap();
            assert_eq!(row.scenario, "cpu-bomb");
            assert_eq!(row.policy, spec.name());
            assert_eq!(row.ticks, 20);
            assert!(row.requests > 0);
            assert!(row.p50_ms <= row.p95_ms && row.p95_ms <= row.p99_ms);
        }
    }
}
