//! §3.2.3 claim — "with 5 samples to model uncertainty, we are able to
//! achieve more than 90% accuracy on average for all the different
//! co-locations we experimented with".
//!
//! Accuracy is measured exactly as in the controller: each co-located
//! prediction's in-violation-range verdict is checked against the actually
//! reached next state.

use stayaway_bench::{prediction_accuracy_scenarios, run, stayaway, ExperimentSink, Table};
use stayaway_core::ControllerConfig;

fn main() {
    println!("=== Claim: ≥90% prediction accuracy with 5 samples (§3.2.3) ===\n");
    let ticks = 384;
    let scenarios = prediction_accuracy_scenarios();

    let mut table = Table::new(&["co-location", "checked predictions", "accuracy"]);
    let mut sum = 0.0;
    let mut json_rows = Vec::new();
    for scenario in &scenarios {
        let run = run(
            scenario,
            stayaway(scenario, ControllerConfig::default()),
            ticks,
        );
        let stats = run.stats();
        // Every co-location runs long enough to check predictions; a run
        // that somehow checked none scores 0, not a vacuous 100%.
        let acc = stats.prediction_accuracy().unwrap_or(0.0);
        sum += acc;
        table.row(&[
            scenario.name().to_string(),
            stats.prediction_checks.to_string(),
            format!("{:.1}%", 100.0 * acc),
        ]);
        json_rows.push(serde_json::json!({
            "scenario": scenario.name(),
            "checks": stats.prediction_checks,
            "accuracy": acc,
        }));
    }
    println!("{}", table.render());
    let mean = sum / scenarios.len() as f64;
    println!(
        "mean accuracy across co-locations: {:.1}%  (paper claims > 90%)",
        100.0 * mean
    );

    ExperimentSink::new("claim_prediction_accuracy").write(&serde_json::json!({
        "rows": json_rows,
        "mean_accuracy": mean,
        "paper_claim": 0.9,
    }));
}
