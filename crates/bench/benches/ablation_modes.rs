//! Ablation (§3.2.3) — one trajectory model per execution mode vs a single
//! pooled model for all transitions.
//!
//! The paper: "modelling all the different execution modes using a single
//! model fails to capture the inherent patterns". Two measurements:
//!
//! 1. **Open-loop prediction error** — on a recorded mode-switching
//!    trajectory, each model predicts 5 candidate next states every tick;
//!    the error is the distance from the candidate centroid to the actual
//!    next state. The pooled model mixes the large mode-transition steps
//!    into every distribution, inflating its error.
//! 2. **Closed-loop** — accuracy/violations/batch work when the controller
//!    uses each design.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stayaway_bench::{run, stayaway, ExperimentSink, Table};
use stayaway_core::ControllerConfig;
use stayaway_sim::apps::WebWorkload;
use stayaway_sim::scenario::{BatchKind, Scenario};
use stayaway_statespace::{ExecutionMode, Point2};
use stayaway_trajectory::{ModePredictor, Step};

/// Mean open-loop prediction error of a predictor over a trail.
fn open_loop_error(trail: &[(ExecutionMode, Point2)], per_mode: bool, seed: u64) -> (f64, u64) {
    let mut mode_p = ModePredictor::new();
    let mut single_p = ModePredictor::pooled();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut err_sum = 0.0;
    let mut checks = 0u64;
    for w in trail.windows(2) {
        let (mode, from) = w[0];
        let (next_mode, to) = w[1];
        // Predict before learning this transition.
        let prediction = if per_mode {
            mode_p.predict(next_mode, from, 5, &mut rng)
        } else {
            single_p.predict(next_mode, from, 5, &mut rng)
        };
        if let Some(p) = prediction {
            let (mut cx, mut cy) = (0.0, 0.0);
            for c in p.candidates() {
                cx += c.x;
                cy += c.y;
            }
            let centroid = Point2::new(cx / p.len() as f64, cy / p.len() as f64);
            err_sum += centroid.distance(to);
            checks += 1;
        }
        let step = Step::between(from, to);
        // Attribute the step to the mode being entered, as the controller
        // does.
        mode_p.observe(next_mode, step);
        single_p.observe(mode, step);
    }
    (
        if checks > 0 {
            err_sum / checks as f64
        } else {
            f64::NAN
        },
        checks,
    )
}

fn main() {
    println!("=== Ablation: per-mode trajectory models vs one pooled model ===\n");
    let ticks = 384;
    let scenarios = vec![
        Scenario::vlc_with_twitter(41),
        Scenario::vlc_with_cpubomb(42),
        Scenario::webservice_with(WebWorkload::Mix, BatchKind::TwitterAnalysis, 43),
    ];

    // 1. Open-loop prediction error on mode-switching trajectories.
    //
    // Each execution mode has a characteristic trajectory pattern
    // (Figure 5: VLC = short correlated bursts, soplex = linear drift,
    // co-located = oscillation with bigger steps). We synthesise a trail
    // that alternates between two such patterns every 25 ticks, exactly
    // the regime §3.2.3 argues a single pooled model cannot capture.
    println!("open-loop next-state prediction error on mode-switching trails:");
    let mut open_table = Table::new(&["trail", "per-mode error", "pooled error", "ratio"]);
    let mut json_open = Vec::new();
    for (label, heading_a, step_a, heading_b, step_b, seed) in [
        ("slow-east vs fast-north", 0.0, 0.03, 1.6, 0.12, 7u64),
        ("drift vs oscillation", 0.4, 0.02, -2.4, 0.09, 8),
        ("similar headings", 0.2, 0.05, 0.9, 0.06, 9),
    ] {
        let mut trail: Vec<(ExecutionMode, Point2)> = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pos = Point2::origin();
        for segment in 0..12 {
            let sensitive_only = segment % 2 == 0;
            let (mode, heading, step) = if sensitive_only {
                (ExecutionMode::SensitiveOnly, heading_a, step_a)
            } else {
                (ExecutionMode::CoLocated, heading_b, step_b)
            };
            let walk = stayaway_trajectory::generators::BiasedRandomWalk {
                heading,
                angular_sd: 0.25,
                min_len: step * 0.6,
                max_len: step * 1.4,
            };
            let pts = walk.generate(pos, 25, &mut rng);
            pos = *pts.last().expect("non-empty walk");
            trail.extend(pts.into_iter().map(|p| (mode, p)));
        }
        let (pm, checks) = open_loop_error(&trail, true, 1);
        let (pooled, _) = open_loop_error(&trail, false, 1);
        open_table.row(&[
            label.into(),
            format!("{pm:.4}"),
            format!("{pooled:.4}"),
            format!("{:.2}x", pooled / pm),
        ]);
        json_open.push(serde_json::json!({
            "trail": label,
            "per_mode_error": pm,
            "pooled_error": pooled,
            "checks": checks,
        }));
    }
    println!("{}", open_table.render());

    // 2. Closed-loop controller comparison.
    println!("closed-loop controller comparison:");
    let mut table = Table::new(&[
        "co-location",
        "model",
        "accuracy",
        "violations",
        "batch work",
    ]);
    let mut json_rows = Vec::new();
    for scenario in &scenarios {
        for per_mode in [true, false] {
            let config = ControllerConfig {
                per_mode_models: per_mode,
                ..ControllerConfig::default()
            };
            let run = run(scenario, stayaway(scenario, config), ticks);
            let stats = run.stats();
            table.row(&[
                scenario.name().to_string(),
                if per_mode { "per-mode" } else { "pooled" }.into(),
                format!("{:.1}%", 100.0 * stats.prediction_accuracy().unwrap_or(0.0)),
                run.outcome.qos.violations.to_string(),
                format!("{:.0}", run.outcome.batch_work),
            ]);
            json_rows.push(serde_json::json!({
                "scenario": scenario.name(),
                "per_mode": per_mode,
                "accuracy": stats.prediction_accuracy(),
                "violations": run.outcome.qos.violations,
                "batch_work": run.outcome.batch_work,
            }));
        }
    }
    println!("{}", table.render());
    println!(
        "the pooled model mixes the (large-step) mode-transition dynamics \
         into every mode's distributions, inflating its open-loop error; \
         the closed-loop impact is damped by the controller's other \
         safeguards (ranges, veto, β)."
    );

    ExperimentSink::new("ablation_modes").write(&serde_json::json!({
        "open_loop": json_open,
        "closed_loop": json_rows,
    }));
}
