//! The unified control-plane interface.
//!
//! [`ControlPolicy`] is the one trait every control plane in this workspace
//! speaks — the staged Stay-Away [`Controller`] and all baselines alike. It
//! is a strict superset of the simulator's [`Policy`] (observe → actions):
//! on top of the decision loop it exposes the *introspection* surface the
//! bench runner, fleet cells and CLI need — aggregate statistics, the first
//! throttle, and state-map templates (§6) — all with default
//! implementations, so a baseline adopts the trait with a single empty
//! `impl` block.
//!
//! The trait is object-safe: fleets hold `Box<dyn ControlPolicy>` cells and
//! upcast to `&mut dyn Policy` when handing the policy to the simulator
//! harness.

use crate::stats::ControllerStats;
use crate::{Controller, CoreError};
use stayaway_statespace::Template;
use stayaway_telemetry::{NullPolicy, Policy};

/// A [`Policy`] with the introspection hooks of a full control plane.
///
/// Every hook has a default implementation describing a policy that tracks
/// nothing — the correct behaviour for simple baselines. Rich policies
/// (the Stay-Away [`Controller`]) override what they actually support.
pub trait ControlPolicy: Policy {
    /// Aggregate statistics so far. Policies that track nothing report
    /// all-zero stats.
    fn stats(&self) -> ControllerStats {
        ControllerStats::default()
    }

    /// Tick of the policy's first throttle and whether it was proactive.
    /// `None` for policies that never throttled or do not track it.
    fn first_throttle(&self) -> Option<(u64, bool)> {
        None
    }

    /// Exports the learned states as a reusable template for `sensitive_app`.
    /// `Ok(None)` when the policy has no template support — the one answer
    /// to "does this policy learn templates?".
    ///
    /// # Errors
    ///
    /// Propagates template-construction failures.
    fn export_template(&self, sensitive_app: &str) -> Result<Option<Template>, CoreError> {
        let _ = sensitive_app;
        Ok(None)
    }

    /// Seeds the policy with a template captured in a previous run. Returns
    /// `false` (without touching the template) when unsupported.
    ///
    /// # Errors
    ///
    /// Propagates template-import failures.
    fn import_template(&mut self, template: &Template) -> Result<bool, CoreError> {
        let _ = template;
        Ok(false)
    }
}

impl ControlPolicy for Controller {
    fn stats(&self) -> ControllerStats {
        Controller::stats(self)
    }

    fn first_throttle(&self) -> Option<(u64, bool)> {
        Controller::first_throttle(self)
    }

    fn export_template(&self, sensitive_app: &str) -> Result<Option<Template>, CoreError> {
        Controller::export_template(self, sensitive_app).map(Some)
    }

    fn import_template(&mut self, template: &Template) -> Result<bool, CoreError> {
        Controller::import_template(self, template)?;
        Ok(true)
    }
}

/// The no-prevention baseline is the minimal control plane: pure defaults.
impl ControlPolicy for NullPolicy {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ControllerConfig;
    use stayaway_sim::scenario::Scenario;

    #[test]
    fn trait_is_object_safe_and_upcasts_to_policy() {
        let mut boxed: Box<dyn ControlPolicy> = Box::new(NullPolicy::new());
        let policy: &mut dyn Policy = boxed.as_mut();
        assert_eq!(policy.name(), "no-prevention");
    }

    #[test]
    fn null_policy_reports_empty_introspection() {
        let p = NullPolicy::new();
        let cp: &dyn ControlPolicy = &p;
        assert_eq!(cp.stats(), ControllerStats::default());
        assert!(cp.first_throttle().is_none());
        assert!(cp.export_template("vlc").unwrap().is_none());
    }

    #[test]
    fn controller_exposes_full_surface_through_the_trait() {
        let scenario = Scenario::vlc_with_cpubomb(7);
        let mut h = scenario.build_harness().unwrap();
        let mut ctl = Controller::for_host(ControllerConfig::default(), h.host().spec()).unwrap();
        h.run(&mut ctl, 150);

        let cp: &dyn ControlPolicy = &ctl;
        assert!(cp.stats().periods == 150);
        assert!(cp.first_throttle().is_some());
        let template = cp.export_template("vlc-streaming").unwrap().unwrap();
        assert!(!template.is_empty());

        let mut fresh = Controller::for_host(ControllerConfig::default(), h.host().spec()).unwrap();
        let imported = ControlPolicy::import_template(&mut fresh, &template).unwrap();
        assert!(imported);
        assert_eq!(fresh.repr_count(), template.len());
    }
}
