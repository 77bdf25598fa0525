//! Ablation (§3.1) — VAR forecasting vs the paper's histogram sampling.
//!
//! "A natural technique for forecasting in high dimensions is Vector
//! Autoregressive Models (VAR). In high dimensional spaces, the number of
//! samples needed for a reliable estimation of parameters … increases
//! exponentially … A 2D representation of the trajectories gives
//! prediction models with two parameters, which can be estimated reliably
//! from a small sample."
//!
//! We compare a VAR(1) fitted on the 2-D trajectory against the paper's
//! per-mode inverse-transform sampler on three trajectory families,
//! measuring one-step prediction error as a function of the number of
//! observed transitions (small-sample reliability is the paper's concern).

use rand::rngs::StdRng;
use rand::SeedableRng;
use stayaway_bench::{ExperimentSink, Table};
use stayaway_statespace::{ExecutionMode, Point2};
use stayaway_trajectory::generators::{BiasedRandomWalk, BurstyWalk, LevyFlight};
use stayaway_trajectory::{ModePredictor, Step, VarModel};

fn one_step_errors(trail: &[Point2], warmup: usize) -> (f64, f64, u64) {
    let mut var = VarModel::new();
    let mut sampler = ModePredictor::new();
    let mut rng = StdRng::seed_from_u64(3);
    let mode = ExecutionMode::CoLocated;
    let (mut var_err, mut smp_err, mut checks) = (0.0, 0.0, 0u64);
    for (t, w) in trail.windows(2).enumerate() {
        let (from, to) = (w[0], w[1]);
        if t >= warmup {
            if let (Ok(vpred), Some(spred)) =
                (var.forecast(from), sampler.predict(mode, from, 5, &mut rng))
            {
                let (mut cx, mut cy) = (0.0, 0.0);
                for c in spred.candidates() {
                    cx += c.x;
                    cy += c.y;
                }
                let centroid = Point2::new(cx / spred.len() as f64, cy / spred.len() as f64);
                var_err += vpred.distance(to);
                smp_err += centroid.distance(to);
                checks += 1;
            }
        }
        var.observe(from, to);
        sampler.observe(mode, Step::between(from, to));
    }
    if checks == 0 {
        return (f64::NAN, f64::NAN, 0);
    }
    (var_err / checks as f64, smp_err / checks as f64, checks)
}

fn main() {
    println!("=== Ablation: VAR(1) forecasting vs histogram sampling (§3.1) ===\n");
    let mut rng = StdRng::seed_from_u64(9);

    let trails: Vec<(&str, Vec<Point2>)> = vec![
        (
            "biased random walk",
            BiasedRandomWalk {
                heading: 0.5,
                angular_sd: 0.3,
                min_len: 0.02,
                max_len: 0.08,
            }
            .generate(Point2::origin(), 400, &mut rng),
        ),
        (
            "levy flight",
            LevyFlight {
                mu: 2.0,
                scale: 0.01,
                max_len: 1.0,
            }
            .generate(Point2::origin(), 400, &mut rng),
        ),
        (
            "bursty (vlc-like)",
            BurstyWalk {
                burst_len: 6,
                pause_len: 6,
                burst_step: 0.1,
                pause_step: 0.005,
            }
            .generate(Point2::origin(), 400, &mut rng),
        ),
    ];

    let mut table = Table::new(&[
        "trajectory",
        "warmup",
        "VAR error",
        "sampler error",
        "VAR/sampler",
    ]);
    let mut json_rows = Vec::new();
    for (name, trail) in &trails {
        for warmup in [8usize, 32, 128] {
            let (var_err, smp_err, checks) = one_step_errors(trail, warmup);
            table.row(&[
                name.to_string(),
                warmup.to_string(),
                format!("{var_err:.4}"),
                format!("{smp_err:.4}"),
                format!("{:.2}x", var_err / smp_err),
            ]);
            json_rows.push(serde_json::json!({
                "trajectory": name,
                "warmup": warmup,
                "var_error": var_err,
                "sampler_error": smp_err,
                "checks": checks,
            }));
        }
    }
    println!("{}", table.render());
    println!(
        "in the 2-D mapped space both predictors are viable from a handful \
         of observations (VAR is marginally better on these families) — \
         which is precisely §3.1's point: the paper's objection to VAR \
         concerns the high-dimensional space, where its parameter count \
         explodes; the 2-D representation makes *any* two-parameter-class \
         model reliably estimable from small samples."
    );

    ExperimentSink::new("ablation_var").write(&serde_json::json!({ "rows": json_rows }));
}
