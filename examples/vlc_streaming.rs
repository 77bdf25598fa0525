//! The paper's headline scenario in full: VLC streaming under a diurnal
//! client workload, co-located in turn with each batch application, under
//! four policies — no prevention, always-throttle (isolated-run bound),
//! reactive throttling, and Stay-Away.
//!
//! ```sh
//! cargo run --example vlc_streaming
//! ```

use stay_away::baselines::{AlwaysThrottle, ReactivePolicy};
use stay_away::core::{Controller, ControllerConfig};
use stay_away::sim::scenario::{BatchKind, Scenario, SensitiveKind};
use stay_away::sim::workload::{DiurnalParams, Trace};
use stay_away::sim::Policy;
use stay_away::telemetry::NullPolicy;

fn scenario_for(batch: BatchKind, seed: u64) -> Scenario {
    Scenario::builder(format!("vlc+{batch}"))
        .seed(seed)
        .sensitive(SensitiveKind::VlcStreaming {
            trace: Trace::diurnal(DiurnalParams::default(), seed),
        })
        .batch(batch, 20)
        .build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ticks = 384; // four simulated days
    println!(
        "{:<18} {:<16} {:>10} {:>13} {:>12}",
        "batch app", "policy", "violations", "satisfaction", "gained util"
    );

    for batch in BatchKind::ALL {
        let scenario = scenario_for(batch, 7);
        let cap = scenario.host_spec().cpu_cores;

        // Policy line-up. Stay-Away is run separately because it needs the
        // host spec at construction time.
        let mut policies: Vec<Box<dyn Policy>> = vec![
            Box::new(NullPolicy::new()),
            Box::new(AlwaysThrottle::new()),
            Box::new(ReactivePolicy::new(10)),
        ];
        for policy in policies.iter_mut() {
            let mut harness = scenario.build_harness()?;
            let out = harness.run(policy.as_mut(), ticks);
            println!(
                "{:<18} {:<16} {:>10} {:>12.1}% {:>11.1}%",
                batch.to_string(),
                out.policy,
                out.qos.violations,
                100.0 * out.qos.satisfaction(),
                100.0 * out.mean_gained_utilization(cap)
            );
        }

        let mut harness = scenario.build_harness()?;
        let mut stayaway =
            Controller::for_host(ControllerConfig::default(), harness.host().spec())?;
        let out = harness.run(&mut stayaway, ticks);
        println!(
            "{:<18} {:<16} {:>10} {:>12.1}% {:>11.1}%",
            batch.to_string(),
            out.policy,
            out.qos.violations,
            100.0 * out.qos.satisfaction(),
            100.0 * out.mean_gained_utilization(cap)
        );
        println!();
    }

    println!(
        "reading: Stay-Away approaches always-throttle QoS while retaining \
         a useful share of no-prevention's utilisation gain; the reactive \
         baseline keeps paying violations on every probe."
    );
    Ok(())
}
