//! End-to-end closed-loop tests across all crates: the headline behaviours
//! of the paper must hold on every co-location scenario.

use stay_away::baselines::AlwaysThrottle;
use stay_away::core::{Controller, ControllerConfig};
use stay_away::sim::apps::WebWorkload;
use stay_away::sim::scenario::{BatchKind, Scenario};
use stay_away::sim::RunOutcome;
use stay_away::telemetry::NullPolicy;

const TICKS: u64 = 300;

fn run_baseline(scenario: &Scenario) -> RunOutcome {
    let mut h = scenario.build_harness().expect("harness builds");
    h.run(&mut NullPolicy::new(), TICKS)
}

fn run_stayaway(scenario: &Scenario) -> RunOutcome {
    let mut h = scenario.build_harness().expect("harness builds");
    let mut c = Controller::for_host(ControllerConfig::default(), h.host().spec())
        .expect("controller builds");
    h.run(&mut c, TICKS)
}

/// Stay-Away must cut violations by a large factor on every scenario where
/// the co-location interferes at all.
#[test]
fn stayaway_cuts_violations_across_all_colocations() {
    let scenarios = vec![
        Scenario::vlc_with_cpubomb(101),
        Scenario::vlc_with_twitter(102),
        Scenario::webservice_with(WebWorkload::CpuIntensive, BatchKind::CpuBomb, 103),
        Scenario::webservice_with(WebWorkload::MemIntensive, BatchKind::MemoryBomb, 104),
        Scenario::webservice_with(WebWorkload::Mix, BatchKind::TwitterAnalysis, 105),
    ];
    for scenario in scenarios {
        let base = run_baseline(&scenario);
        let guard = run_stayaway(&scenario);
        assert!(
            base.qos.violations >= 30,
            "{}: baseline unexpectedly healthy ({} violations)",
            scenario.name(),
            base.qos.violations
        );
        assert!(
            guard.qos.violations * 3 <= base.qos.violations,
            "{}: {} violations with stay-away vs {} without",
            scenario.name(),
            guard.qos.violations,
            base.qos.violations
        );
        assert!(
            guard.qos.satisfaction() > 0.9,
            "{}: satisfaction {:.2} too low",
            scenario.name(),
            guard.qos.satisfaction()
        );
    }
}

/// Batch applications must keep making progress under Stay-Away whenever
/// safe co-location windows exist (no starvation).
#[test]
fn stayaway_does_not_starve_phase_rich_batch_apps() {
    let scenario = Scenario::vlc_with_twitter(106);
    let base = run_baseline(&scenario);
    let guard = run_stayaway(&scenario);
    assert!(
        guard.batch_work > 0.2 * base.batch_work,
        "batch starved: {} vs {} work units",
        guard.batch_work,
        base.batch_work
    );
}

/// The gained-utilisation ordering of the paper: CPUBomb (constant
/// contention, no phases) retains far less than Twitter-Analysis.
#[test]
fn utilization_gain_ordering_matches_paper() {
    let bomb = Scenario::vlc_with_cpubomb(107);
    let twitter = Scenario::vlc_with_twitter(107);
    let cap = bomb.host_spec().cpu_cores;
    let bomb_gain = run_stayaway(&bomb).mean_gained_utilization(cap);
    let twitter_gain = run_stayaway(&twitter).mean_gained_utilization(cap);
    assert!(
        twitter_gain > 2.0 * bomb_gain,
        "twitter gain {twitter_gain:.3} should dwarf cpu-bomb gain {bomb_gain:.3}"
    );
}

/// Stay-Away must land between the two extremes: (QoS) no worse than
/// no-prevention and (utilisation) above always-throttle.
#[test]
fn stayaway_sits_between_the_extreme_policies() {
    let scenario = Scenario::vlc_with_twitter(108);
    let cap = scenario.host_spec().cpu_cores;

    let mut h = scenario.build_harness().expect("harness");
    let isolated = h.run(&mut AlwaysThrottle::new(), TICKS);

    let base = run_baseline(&scenario);
    let guard = run_stayaway(&scenario);

    assert!(guard.qos.violations <= base.qos.violations);
    assert!(guard.qos.violations >= isolated.qos.violations);
    assert!(
        guard.mean_gained_utilization(cap) > isolated.mean_gained_utilization(cap),
        "no utilisation gained over isolated execution"
    );
    assert!(guard.mean_gained_utilization(cap) <= base.mean_gained_utilization(cap) + 1e-9);
}

/// (scenario, seed) must fully determine the run: controller decisions,
/// QoS accounting and utilisation, bit-for-bit.
#[test]
fn full_stack_determinism() {
    let run = || {
        let scenario = Scenario::webservice_with(WebWorkload::Mix, BatchKind::TwitterAnalysis, 9);
        run_stayaway(&scenario)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

/// Different seeds genuinely vary the experiment.
#[test]
fn seeds_change_the_runs() {
    let a = run_stayaway(&Scenario::vlc_with_twitter(1));
    let b = run_stayaway(&Scenario::vlc_with_twitter(2));
    assert_ne!(a.timeline, b.timeline);
}

/// Before the batch application is scheduled there must be no violations:
/// a sensitive application alone can always meet its QoS.
#[test]
fn no_violations_before_colocation() {
    let scenario = Scenario::vlc_with_twitter(110);
    let guard = run_stayaway(&scenario);
    // The first co-located tick, as the run itself recorded it.
    let first_batch_tick = guard
        .timeline
        .iter()
        .position(|r| r.batch_active > 0)
        .expect("the batch job starts within the run");
    assert!(first_batch_tick > 0, "the run starts co-located");
    assert!(guard
        .timeline
        .iter()
        .take(first_batch_tick)
        .all(|r| !r.violated));
}
