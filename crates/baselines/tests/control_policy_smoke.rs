//! Baselines driven through the [`ControlPolicy`] trait object behave
//! exactly as when driven directly as [`Policy`] values.
//!
//! The staged-controller refactor routed every policy — Stay-Away and
//! baselines alike — through `Box<dyn ControlPolicy>` in the fleet and
//! bench layers. These smoke tests pin the equivalence: for each baseline,
//! one run through the trait object and one through a plain `&mut` borrow
//! must produce identical [`RunOutcome`]s, and the default introspection
//! hooks must report "nothing tracked" rather than fabricate data.

use stayaway_baselines::{AlwaysThrottle, ReactivePolicy, StaticThresholdPolicy};
use stayaway_core::{ControlPolicy, ControllerStats};
use stayaway_sim::scenario::Scenario;
use stayaway_sim::{NullPolicy, Policy, RunOutcome};

const TICKS: u64 = 160;

fn run_direct<P: Policy>(mut policy: P) -> RunOutcome {
    let scenario = Scenario::vlc_with_cpubomb(9);
    let mut harness = scenario.build_harness().expect("scenario builds");
    harness.run(&mut policy, TICKS)
}

fn run_boxed(mut policy: Box<dyn ControlPolicy>) -> RunOutcome {
    let scenario = Scenario::vlc_with_cpubomb(9);
    let mut harness = scenario.build_harness().expect("scenario builds");
    harness.run(policy.as_mut(), TICKS)
}

#[test]
fn reactive_outcome_is_identical_through_the_trait() {
    let direct = run_direct(ReactivePolicy::new(10));
    let boxed = run_boxed(Box::new(ReactivePolicy::new(10)));
    assert_eq!(direct, boxed);
}

#[test]
fn static_threshold_outcome_is_identical_through_the_trait() {
    let direct = run_direct(StaticThresholdPolicy::new(0.5, 4.0));
    let boxed = run_boxed(Box::new(StaticThresholdPolicy::new(0.5, 4.0)));
    assert_eq!(direct, boxed);
}

#[test]
fn always_throttle_outcome_is_identical_through_the_trait() {
    let direct = run_direct(AlwaysThrottle::new());
    let boxed = run_boxed(Box::new(AlwaysThrottle::new()));
    assert_eq!(direct, boxed);
}

#[test]
fn null_policy_outcome_is_identical_through_the_trait() {
    let direct = run_direct(NullPolicy::new());
    let boxed = run_boxed(Box::new(NullPolicy::new()));
    assert_eq!(direct, boxed);
}

#[test]
fn baseline_introspection_hooks_default_to_empty() {
    let policy: Box<dyn ControlPolicy> = Box::new(ReactivePolicy::new(10));
    assert_eq!(policy.stats(), ControllerStats::default());
    assert!(policy.first_throttle().is_none());
    assert_eq!(policy.export_template("vlc").expect("export ok"), None);
}
