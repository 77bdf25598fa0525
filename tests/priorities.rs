//! Integration test of the §2.1 priority extension: several sensitive
//! applications co-scheduled, the controller protecting the top-priority
//! one by throttling the lower-priority one.

use stay_away::core::{Controller, ControllerConfig};
use stay_away::sim::apps::WebWorkload;
use stay_away::sim::scenario::{Scenario, SensitiveKind};
use stay_away::sim::workload::{DiurnalParams, Trace};
use stay_away::sim::{Action, AppClass};
use stay_away::telemetry::NullPolicy;

fn scenario(seed: u64) -> Scenario {
    Scenario::builder("vlc(0)+web-cpu(1)")
        .seed(seed)
        .sensitive(SensitiveKind::VlcStreaming {
            trace: Trace::diurnal(DiurnalParams::default(), seed.wrapping_add(1)),
        })
        .secondary_sensitive(
            SensitiveKind::Webservice {
                workload: WebWorkload::CpuIntensive,
                trace: Trace::diurnal(DiurnalParams::default(), seed.wrapping_add(2)),
            },
            1,
            20,
        )
        .build()
}

#[test]
fn top_priority_sensitive_is_protected_from_a_lower_priority_one() {
    let s = scenario(3);
    let ticks = 300;

    let mut h0 = s.build_harness().expect("harness");
    let base = h0.run(&mut NullPolicy::new(), ticks);
    assert!(
        base.qos.violations > 50,
        "the two sensitives should contend: {} violations",
        base.qos.violations
    );

    let mut h1 = s.build_harness().expect("harness");
    let mut ctl =
        Controller::for_host(ControllerConfig::default(), h1.host().spec()).expect("controller");
    let out = h1.run(&mut ctl, ticks);
    assert!(
        out.qos.violations * 5 <= base.qos.violations,
        "stay-away {} vs baseline {}",
        out.qos.violations,
        base.qos.violations
    );
    // The actions went to the lower-priority sensitive container, and none
    // were rejected by the host.
    assert!(ctl.stats().throttles > 0);
    assert_eq!(out.rejected_actions, 0);
}

#[test]
fn lower_priority_sensitive_still_runs_when_safe() {
    let s = scenario(4);
    let mut h = s.build_harness().expect("harness");
    let mut ctl =
        Controller::for_host(ControllerConfig::default(), h.host().spec()).expect("controller");
    h.run(&mut ctl, 300);
    // The demoted webservice made progress (it is throttled, not killed).
    let web_work: f64 = h
        .host()
        .containers()
        .filter(|c| c.class() == AppClass::Sensitive && c.priority() > 0)
        .map(|c| c.app().work_done())
        .sum();
    assert!(web_work > 10.0, "demoted sensitive starved: {web_work}");
}

#[test]
fn host_protects_only_the_top_priority() {
    let s = scenario(5);
    let mut h = s.build_harness().expect("harness");
    let ids: Vec<_> = h
        .host()
        .containers()
        .map(|c| (c.id(), c.priority()))
        .collect();
    for (id, priority) in ids {
        let rejected = h.apply(&[Action::Pause(id)]);
        if priority == 0 {
            assert_eq!(rejected, 1, "top priority must be protected");
        } else {
            assert_eq!(rejected, 0, "lower priority must be throttleable");
            assert_eq!(h.apply(&[Action::Resume(id)]), 0, "resume");
        }
    }
}
