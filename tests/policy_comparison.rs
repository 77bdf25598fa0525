//! Comparative behaviour of the baseline policies against Stay-Away —
//! the qualitative claims of §8 (related work) that motivate the design.

use stay_away::baselines::{AlwaysThrottle, ReactivePolicy, StaticThresholdPolicy};
use stay_away::core::{Controller, ControllerConfig};
use stay_away::sim::apps::WebWorkload;
use stay_away::sim::scenario::{BatchKind, Scenario};
use stay_away::sim::{Policy, RunOutcome};
use stay_away::telemetry::NullPolicy;

const TICKS: u64 = 300;

fn run(scenario: &Scenario, policy: &mut dyn Policy) -> RunOutcome {
    let mut h = scenario.build_harness().expect("harness");
    h.run(policy, TICKS)
}

fn run_stayaway(scenario: &Scenario) -> RunOutcome {
    let mut h = scenario.build_harness().expect("harness");
    let mut c =
        Controller::for_host(ControllerConfig::default(), h.host().spec()).expect("controller");
    h.run(&mut c, TICKS)
}

/// Reactive throttling (Bubble-Flux-style) helps, but keeps paying
/// violations on every blind resume under persistent contention; Stay-Away
/// pays mostly during learning.
#[test]
fn stayaway_beats_reactive_on_persistent_contention() {
    let scenario = Scenario::vlc_with_cpubomb(31);
    let reactive = run(&scenario, &mut ReactivePolicy::new(10));
    let stayaway = run_stayaway(&scenario);
    let none = run(&scenario, &mut NullPolicy::new());

    assert!(reactive.qos.violations < none.qos.violations);
    assert!(
        stayaway.qos.violations < reactive.qos.violations,
        "stay-away {} vs reactive {}",
        stayaway.qos.violations,
        reactive.qos.violations
    );
}

/// A static CPU threshold is blind to memory/swap contention — the §1
/// argument against a-priori profiling.
#[test]
fn static_threshold_misses_memory_contention_stayaway_does_not() {
    let scenario = Scenario::webservice_with(WebWorkload::MemIntensive, BatchKind::MemoryBomb, 32);
    let cap = scenario.host_spec().cpu_cores;
    let none = run(&scenario, &mut NullPolicy::new());
    let static_t = run(&scenario, &mut StaticThresholdPolicy::new(0.8, cap));
    let stayaway = run_stayaway(&scenario);

    // The static rule barely improves on no prevention…
    assert!(
        static_t.qos.violations * 2 >= none.qos.violations,
        "static threshold unexpectedly effective: {} vs {}",
        static_t.qos.violations,
        none.qos.violations
    );
    // …while Stay-Away identifies the memory channel at runtime.
    assert!(
        stayaway.qos.violations * 5 <= none.qos.violations,
        "stay-away {} vs none {}",
        stayaway.qos.violations,
        none.qos.violations
    );
}

/// Always-throttle gets perfect QoS at zero gain — the over-provisioning
/// status quo. Stay-Away must recover a meaningful share of the gain while
/// staying near that QoS level.
#[test]
fn stayaway_recovers_utilization_over_overprovisioning() {
    let scenario = Scenario::vlc_with_twitter(33);
    let cap = scenario.host_spec().cpu_cores;
    let isolated = run(&scenario, &mut AlwaysThrottle::new());
    let stayaway = run_stayaway(&scenario);

    assert!(isolated.mean_gained_utilization(cap) < 0.02);
    assert!(
        stayaway.mean_gained_utilization(cap) > 0.04,
        "gain {:.3} too small",
        stayaway.mean_gained_utilization(cap)
    );
    assert!(stayaway.qos.satisfaction() > 0.9);
}

/// Every policy respects the constraint that sensitive containers are
/// never paused (enforced by the host, §2.1).
#[test]
fn no_policy_can_pause_the_sensitive_container() {
    let scenario = Scenario::vlc_with_cpubomb(34);
    for policy_run in [
        run(&scenario, &mut NullPolicy::new()),
        run(&scenario, &mut AlwaysThrottle::new()),
        run(&scenario, &mut ReactivePolicy::new(5)),
        run_stayaway(&scenario),
    ] {
        // The sensitive app stays active every tick.
        assert!(policy_run.timeline.iter().all(|r| r.sensitive_active));
    }
}
