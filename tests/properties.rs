//! Cross-crate property tests: invariants that must hold for arbitrary
//! seeds and run lengths.

use proptest::prelude::*;
use stay_away::core::{Controller, ControllerConfig};
use stay_away::sim::apps::WebWorkload;
use stay_away::sim::qos::QOS_THRESHOLD;
use stay_away::sim::scenario::{BatchKind, Scenario};
use stay_away::sim::ResourceKind;
use stay_away::telemetry::NullPolicy;

fn any_scenario(seed: u64, which: u8) -> Scenario {
    match which % 5 {
        0 => Scenario::vlc_with_cpubomb(seed),
        1 => Scenario::vlc_with_twitter(seed),
        2 => Scenario::vlc_with_soplex(seed),
        3 => Scenario::webservice_with(WebWorkload::Mix, BatchKind::MemoryBomb, seed),
        _ => Scenario::webservice_with(WebWorkload::CpuIntensive, BatchKind::TwitterAnalysis, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The simulator never grants more than host capacity on any resource,
    /// for any scenario, seed or policy.
    #[test]
    fn capacity_is_conserved(seed in 0u64..1000, which in 0u8..5, ticks in 20u64..120) {
        let scenario = any_scenario(seed, which);
        let mut h = scenario.build_harness().expect("harness");
        let spec = *h.host().spec();
        let out = h.run(&mut NullPolicy::new(), ticks);
        for record in &out.timeline {
            prop_assert!(record.utilization <= 1.0 + 1e-9);
            prop_assert!(record.sensitive_cpu + record.batch_cpu <= spec.cpu_cores + 1e-6);
        }
    }

    /// QoS values are always in [0, 1] and violations only flagged below
    /// the threshold.
    #[test]
    fn qos_values_are_normalized(seed in 0u64..1000, which in 0u8..5) {
        let scenario = any_scenario(seed, which);
        let mut h = scenario.build_harness().expect("harness");
        let out = h.run(&mut NullPolicy::new(), 80);
        for r in &out.timeline {
            prop_assert!((0.0..=1.0).contains(&r.qos_value));
            prop_assert_eq!(r.violated, r.sensitive_active && r.qos_value < QOS_THRESHOLD);
        }
    }

    /// The Stay-Away controller never errors out of its mapping pipeline
    /// and keeps its bookkeeping consistent on any scenario.
    #[test]
    fn controller_bookkeeping_is_consistent(seed in 0u64..500, which in 0u8..5) {
        let scenario = any_scenario(seed, which);
        let mut h = scenario.build_harness().expect("harness");
        let mut ctl = Controller::for_host(ControllerConfig::default(), h.host().spec())
            .expect("controller");
        let out = h.run(&mut ctl, 120);
        let stats = ctl.stats();
        prop_assert_eq!(stats.mapping_errors, 0);
        prop_assert_eq!(stats.periods, 120);
        prop_assert!(stats.violation_states <= stats.states);
        prop_assert!(stats.prediction_hits <= stats.prediction_checks);
        prop_assert!(ctl.beta() >= 0.01);
        // Violations observed by the controller equal those in the QoS log.
        prop_assert_eq!(stats.violations_observed, out.qos.violations);
    }

    /// Normalised measurement vectors stay in the unit cube for arbitrary
    /// metric subsets.
    #[test]
    fn controller_accepts_any_metric_subset(seed in 0u64..200, mask in 1u8..31) {
        let all = [
            ResourceKind::Cpu,
            ResourceKind::Memory,
            ResourceKind::MemBandwidth,
            ResourceKind::DiskIo,
            ResourceKind::Network,
        ];
        let metrics: Vec<ResourceKind> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &m)| m)
            .collect();
        let scenario = Scenario::vlc_with_twitter(seed);
        let mut h = scenario.build_harness().expect("harness");
        let config = ControllerConfig { metrics, ..ControllerConfig::default() };
        let mut ctl = Controller::for_host(config, h.host().spec()).expect("controller");
        h.run(&mut ctl, 60);
        prop_assert_eq!(ctl.stats().mapping_errors, 0);
    }

    /// Template export/import round-trips the state count for any run.
    #[test]
    fn template_roundtrip_preserves_counts(seed in 0u64..300) {
        let scenario = Scenario::vlc_with_cpubomb(seed);
        let mut h = scenario.build_harness().expect("harness");
        let mut ctl = Controller::for_host(ControllerConfig::default(), h.host().spec())
            .expect("controller");
        h.run(&mut ctl, 100);
        let t = ctl.export_template("vlc").expect("export");
        prop_assert_eq!(t.len(), ctl.repr_count());

        let mut fresh = Controller::for_host(ControllerConfig::default(), h.host().spec())
            .expect("controller");
        fresh.import_template(&t).expect("import");
        prop_assert_eq!(fresh.repr_count(), t.len());
        prop_assert_eq!(fresh.state_map().violation_count(), t.violation_count());
    }
}
