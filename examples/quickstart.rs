//! Quickstart: protect a latency-sensitive VLC streaming server from a
//! co-located CPU hog with Stay-Away.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use stay_away::core::{Controller, ControllerConfig};
use stay_away::sim::scenario::Scenario;
use stay_away::telemetry::NullPolicy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A reproducible experiment: VLC streaming (diurnal client workload)
    // shares a 4-core host with CPUBomb, which grabs every core it can.
    let scenario = Scenario::vlc_with_cpubomb(42);
    let ticks = 300;

    // First, co-location without any protection.
    let mut unprotected = scenario.build_harness()?;
    let baseline = unprotected.run(&mut NullPolicy::new(), ticks);

    // Now the same workload under Stay-Away.
    let mut protected = scenario.build_harness()?;
    let mut controller =
        Controller::for_host(ControllerConfig::default(), protected.host().spec())?;
    let guarded = protected.run(&mut controller, ticks);

    println!("scenario: {} ({ticks} ticks)\n", scenario.name());
    println!(
        "without Stay-Away: {:>3} QoS violations (satisfaction {:>5.1}%)",
        baseline.qos.violations,
        100.0 * baseline.qos.satisfaction()
    );
    println!(
        "with    Stay-Away: {:>3} QoS violations (satisfaction {:>5.1}%)",
        guarded.qos.violations,
        100.0 * guarded.qos.satisfaction()
    );

    let stats = controller.stats();
    println!(
        "\ncontroller: {} states mapped ({} violation-states), \
         {} proactive predictions, {} throttles, {} resumes, β = {:.3}",
        stats.states,
        stats.violation_states,
        stats.violations_predicted,
        stats.throttles,
        stats.resumes,
        controller.beta()
    );
    Ok(())
}
