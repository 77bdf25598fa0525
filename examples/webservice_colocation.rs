//! The Webservice evaluation (§7.2): CPU-, memory- and mixed-intensity
//! workloads co-located with Twitter-Analysis, showing that Stay-Away
//! throttles the batch application only during the phases that actually
//! contend (Twitter's memory phase vs the memory-intensive workload, its
//! CPU phase vs the CPU-intensive workload).
//!
//! ```sh
//! cargo run --example webservice_colocation
//! ```

use stay_away::core::{Controller, ControllerConfig};
use stay_away::sim::apps::WebWorkload;
use stay_away::sim::scenario::{BatchKind, Scenario};
use stay_away::telemetry::NullPolicy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ticks = 300;
    println!(
        "{:<10} {:>16} {:>14} {:>12} {:>14}",
        "workload", "violations none", "violations sa", "batch work", "throttled %"
    );

    for workload in [
        WebWorkload::CpuIntensive,
        WebWorkload::MemIntensive,
        WebWorkload::Mix,
    ] {
        let scenario = Scenario::webservice_with(workload, BatchKind::TwitterAnalysis, 11);

        let mut h0 = scenario.build_harness()?;
        let baseline = h0.run(&mut NullPolicy::new(), ticks);

        let mut h1 = scenario.build_harness()?;
        let mut controller = Controller::for_host(ControllerConfig::default(), h1.host().spec())?;
        let guarded = h1.run(&mut controller, ticks);

        let throttled = guarded
            .timeline
            .iter()
            .filter(|r| r.batch_paused > 0)
            .count();
        println!(
            "{:<10} {:>16} {:>14} {:>12.0} {:>13.0}%",
            workload.to_string(),
            baseline.qos.violations,
            guarded.qos.violations,
            guarded.batch_work,
            100.0 * throttled as f64 / ticks as f64
        );
    }

    println!(
        "\nreading: the memory workload forces throttling mainly during \
         Twitter-Analysis's memory-intensive phases (swap pressure), the \
         CPU workload during load peaks — Stay-Away discovers this from \
         the state map, with no prior profiling of either application."
    );
    Ok(())
}
