//! Shared figure generators: QoS-timeline and gained-utilisation
//! comparisons between no-prevention and Stay-Away runs.

use crate::report::{ascii_chart, sparkline};
use crate::runner::{outcome_json, run, stayaway, ExperimentSink, PolicyRun};
use stayaway_core::{Controller, ControllerConfig};
use stayaway_obs::{AttrValue, EventKind, FlightRecorder};
use stayaway_sim::apps::WebWorkload;
use stayaway_sim::scenario::{BatchKind, Scenario};
use stayaway_sim::{NullPolicy, RunOutcome};

/// The result of a paired (no-prevention vs Stay-Away) run.
#[derive(Debug)]
pub struct PairedRuns {
    /// The unprotected run.
    pub baseline: RunOutcome,
    /// The Stay-Away-protected run.
    pub stayaway: PolicyRun<Controller>,
}

/// Runs the same scenario with and without Stay-Away.
pub fn paired_runs(scenario: &Scenario, ticks: u64) -> PairedRuns {
    let baseline = run(scenario, NullPolicy::new(), ticks).outcome;
    let stayaway = run(
        scenario,
        stayaway(scenario, ControllerConfig::default()),
        ticks,
    );
    PairedRuns { baseline, stayaway }
}

/// The co-locations `claim_prediction_accuracy` scores — one definition for
/// the bench target and for the shape fence in `tests/figure_shapes.rs`.
pub fn prediction_accuracy_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::vlc_with_cpubomb(1),
        Scenario::vlc_with_twitter(2),
        Scenario::vlc_with_soplex(3),
        Scenario::webservice_with(WebWorkload::CpuIntensive, BatchKind::TwitterAnalysis, 4),
        Scenario::webservice_with(WebWorkload::MemIntensive, BatchKind::TwitterAnalysis, 5),
        Scenario::webservice_with(WebWorkload::Mix, BatchKind::Soplex, 6),
        Scenario::webservice_with(WebWorkload::Mix, BatchKind::MemoryBomb, 7),
    ]
}

/// The co-locations `claim_2d_stress` embeds at 1, 2 and 3 dimensions —
/// shared with the shape fence like [`prediction_accuracy_scenarios`].
pub fn stress_elbow_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::vlc_with_cpubomb(61),
        Scenario::vlc_with_twitter(62),
        Scenario::webservice_with(WebWorkload::Mix, BatchKind::TwitterAnalysis, 63),
        // Table 1 combos: several batch apps aggregated as one logical VM,
        // keeping the dimensionality (and therefore 2-D adequacy) intact.
        Scenario::webservice_with_combo(WebWorkload::Mix, &BatchKind::BATCH_1, 64),
        Scenario::webservice_with_combo(WebWorkload::Mix, &BatchKind::BATCH_2, 65),
    ]
}

/// `(proactive, reactive)` throttle counts of a recorded decision stream:
/// a proactive throttle came from a forecast or a known violation-state,
/// a reactive one answered an observed violation (fig07's split).
pub fn throttle_split(recorder: &FlightRecorder) -> (usize, usize) {
    let (mut proactive, mut reactive) = (0, 0);
    for e in recorder.events() {
        if e.kind != EventKind::Throttle {
            continue;
        }
        if e.attr("proactive") == Some(&AttrValue::Bool(true)) {
            proactive += 1;
        } else {
            reactive += 1;
        }
    }
    (proactive, reactive)
}

/// Prints a Figure-8/9/14/15/16-style normalised-QoS timeline comparison
/// and writes the JSON artifact.
pub fn qos_timeline_figure(id: &str, title: &str, scenario: &Scenario, ticks: u64) {
    println!("=== {title} ===\n");
    let runs = paired_runs(scenario, ticks);
    let threshold = scenario
        .build_harness()
        .expect("scenario builds")
        .qos_spec()
        .threshold();

    let base_series: Vec<f64> = runs.baseline.timeline.iter().map(|r| r.qos_value).collect();
    let sa_series: Vec<f64> = runs
        .stayaway
        .outcome
        .timeline
        .iter()
        .map(|r| r.qos_value)
        .collect();

    println!("normalised QoS without Stay-Away (threshold {threshold}):");
    println!("{}", ascii_chart(&base_series, 80, 8));
    println!("normalised QoS with Stay-Away:");
    println!("{}", ascii_chart(&sa_series, 80, 8));

    let b = &runs.baseline.qos;
    let s = &runs.stayaway.outcome.qos;
    println!(
        "without: {:>4} violations / {} active ticks (satisfaction {:.1}%, worst {:.3})",
        b.violations,
        b.active_ticks,
        100.0 * b.satisfaction(),
        b.worst
    );
    println!(
        "with:    {:>4} violations / {} active ticks (satisfaction {:.1}%, worst {:.3})",
        s.violations,
        s.active_ticks,
        100.0 * s.satisfaction(),
        s.worst
    );
    let early = runs
        .stayaway
        .outcome
        .timeline
        .iter()
        .filter(|r| r.violated && r.tick < 96)
        .count();
    println!(
        "Stay-Away violations in the first day (learning phase): {early} of {}",
        s.violations
    );

    let cap = scenario.host_spec().cpu_cores;
    ExperimentSink::new(id).write(&serde_json::json!({
        "threshold": threshold,
        "baseline": outcome_json(&runs.baseline, cap),
        "stayaway": outcome_json(&runs.stayaway.outcome, cap),
        "baseline_qos": base_series,
        "stayaway_qos": sa_series,
    }));
}

/// Prints a Figure-10/11-style gained-utilisation band comparison (upper
/// band = no prevention, lower band = Stay-Away) and writes the artifact.
pub fn gained_utilization_figure(id: &str, title: &str, scenario: &Scenario, ticks: u64) {
    println!("=== {title} ===\n");
    let runs = paired_runs(scenario, ticks);
    let cap = scenario.host_spec().cpu_cores;

    let upper = runs.baseline.gained_utilization_series(cap);
    let lower = runs.stayaway.outcome.gained_utilization_series(cap);

    println!("gained utilisation (fraction of machine) — upper band, no prevention:");
    println!("{}", ascii_chart(&upper, 80, 6));
    println!("gained utilisation — lower band, Stay-Away:");
    println!("{}", ascii_chart(&lower, 80, 6));
    println!("sparklines   upper {}", sparkline(&upper));
    println!("             lower {}", sparkline(&lower));

    let mean_upper = runs.baseline.mean_gained_utilization(cap);
    let mean_lower = runs.stayaway.outcome.mean_gained_utilization(cap);
    println!(
        "\nmean gained utilisation: {:.1}% without prevention, {:.1}% with Stay-Away",
        100.0 * mean_upper,
        100.0 * mean_lower
    );
    if mean_upper > 0.0 {
        println!(
            "fraction of the possible gain retained by Stay-Away: {:.0}%",
            100.0 * mean_lower / mean_upper
        );
    }
    println!(
        "QoS violations:          {} without, {} with",
        runs.baseline.qos.violations, runs.stayaway.outcome.qos.violations
    );

    ExperimentSink::new(id).write(&serde_json::json!({
        "upper_band": upper,
        "lower_band": lower,
        "mean_upper": mean_upper,
        "mean_lower": mean_lower,
        "baseline": outcome_json(&runs.baseline, cap),
        "stayaway": outcome_json(&runs.stayaway.outcome, cap),
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_runs_share_the_scenario() {
        let scenario = Scenario::vlc_with_cpubomb(3);
        let runs = paired_runs(&scenario, 60);
        assert_eq!(runs.baseline.timeline.len(), 60);
        assert_eq!(runs.stayaway.outcome.timeline.len(), 60);
        // Stay-Away never does worse on violations than no prevention over
        // a learning-scale horizon.
        assert!(runs.stayaway.outcome.qos.violations <= runs.baseline.qos.violations);
    }
}
