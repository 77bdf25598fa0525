//! Ablations of the design choices the paper argues for: per-mode models
//! (§3.2.3), violation-ranges (§3.2.1), the sample count (§3.2.3), MDS vs
//! PCA (§2.2), VAR vs histogram sampling (§3.1), IPC-inferred violations
//! (§3.1) and representative-sample deduplication (§4).

use crate::report::{percent, Table};
use crate::runner::{run, stayaway, ExperimentSink, PolicyRun};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stayaway_core::{Controller, ControllerConfig, ViolationDetection};
use stayaway_mds::dedup::ReprSet;
use stayaway_mds::distance::DistanceMatrix;
use stayaway_mds::pca::Pca;
use stayaway_mds::smacof::Smacof;
use stayaway_sim::apps::WebWorkload;
use stayaway_sim::scenario::{BatchKind, Scenario};
use stayaway_statespace::{ExecutionMode, Point2, StateKind};
use stayaway_trajectory::generators::{BiasedRandomWalk, BurstyWalk, LevyFlight};
use stayaway_trajectory::{ModePredictor, Step, VarModel};

/// Centroid of a prediction's candidate states.
fn centroid(candidates: &[Point2]) -> Point2 {
    let (mut cx, mut cy) = (0.0, 0.0);
    for c in candidates {
        cx += c.x;
        cy += c.y;
    }
    Point2::new(cx / candidates.len() as f64, cy / candidates.len() as f64)
}

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
            err_sum += centroid(p.candidates()).distance(to);
            checks += 1;
        }
        let step = Step::between(from, to);
        // Attribute the step to the mode being entered, as the controller
        // does.
        mode_p.observe(next_mode, step);
        single_p.observe(mode, step);
    }
    let error = if checks > 0 {
        err_sum / checks as f64
    } else {
        f64::NAN
    };
    (error, checks)
}

/// §3.2.3's per-mode trajectory models against one pooled model.
#[derive(Debug)]
pub struct ModeAblation {
    /// Per mode-switching trail: label, per-mode error, pooled error and
    /// the number of predictions checked.
    pub open_loop: Vec<(&'static str, f64, f64, u64)>,
    /// Per co-location: the controller with per-mode models (`true`) and
    /// with one pooled model.
    pub closed_loop: Vec<(String, bool, PolicyRun<Controller>)>,
}

/// Ablation (§3.2.3) — "modelling all the different execution modes using
/// a single model fails to capture the inherent patterns". Open loop, each
/// model predicts 5 candidate next states every tick of a mode-switching
/// trail and the error is the distance from the candidates' centroid to
/// the actual next state; closed loop, the controller runs each design.
pub fn ablation_modes() -> ModeAblation {
    // Each execution mode has a characteristic trajectory pattern (Figure
    // 5: VLC = short correlated bursts, soplex = linear drift, co-located
    // = oscillation with bigger steps). Each trail alternates between two
    // such patterns every 25 ticks, exactly the regime §3.2.3 argues a
    // single pooled model cannot capture.
    let trails = [
        ("slow-east vs fast-north", 0.0, 0.03, 1.6, 0.12, 7u64),
        ("drift vs oscillation", 0.4, 0.02, -2.4, 0.09, 8),
        ("similar headings", 0.2, 0.05, 0.9, 0.06, 9),
    ];
    let open_loop = trails.map(|(label, heading_a, step_a, heading_b, step_b, seed)| {
        let mut trail: Vec<(ExecutionMode, Point2)> = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pos = Point2::origin();
        for segment in 0..12 {
            let (mode, heading, step) = if segment % 2 == 0 {
                (ExecutionMode::SensitiveOnly, heading_a, step_a)
            } else {
                (ExecutionMode::CoLocated, heading_b, step_b)
            };
            let walk = BiasedRandomWalk {
                heading,
                angular_sd: 0.25,
                min_len: step * 0.6,
                max_len: step * 1.4,
            };
            let pts = walk.generate(pos, 25, &mut rng);
            pos = *pts.last().expect("non-empty walk");
            trail.extend(pts.into_iter().map(|p| (mode, p)));
        }
        let (per_mode, checks) = open_loop_error(&trail, true, 1);
        let (pooled, _) = open_loop_error(&trail, false, 1);
        (label, per_mode, pooled, checks)
    });

    let scenarios = [
        Scenario::vlc_with_twitter(41),
        Scenario::vlc_with_cpubomb(42),
        Scenario::webservice_with(WebWorkload::Mix, BatchKind::TwitterAnalysis, 43),
    ];
    let mut closed_loop = Vec::new();
    for scenario in &scenarios {
        for per_mode in [true, false] {
            let config = ControllerConfig {
                per_mode_models: per_mode,
                ..ControllerConfig::default()
            };
            let run = run(scenario, stayaway(scenario, config), 384);
            closed_loop.push((scenario.name().to_string(), per_mode, run));
        }
    }
    ModeAblation {
        open_loop: open_loop.into(),
        closed_loop,
    }
}

impl ModeAblation {
    /// Prints both comparisons and writes the JSON artifact.
    pub fn print(&self) {
        println!("=== Ablation: per-mode trajectory models vs one pooled model ===\n");
        println!("open-loop next-state prediction error on mode-switching trails:");
        let mut open_table = Table::new(&["trail", "per-mode error", "pooled error", "ratio"]);
        let mut json_open = Vec::new();
        for &(label, pm, pooled, checks) in &self.open_loop {
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

        println!("closed-loop controller comparison:");
        let mut table = Table::new(&[
            "co-location",
            "model",
            "accuracy",
            "violations",
            "batch work",
        ]);
        let mut json_rows = Vec::new();
        for (name, per_mode, run) in &self.closed_loop {
            let accuracy = run.stats().prediction_accuracy();
            table.row(&[
                name.clone(),
                if *per_mode { "per-mode" } else { "pooled" }.into(),
                percent(accuracy.unwrap_or(0.0)),
                run.outcome.qos.violations.to_string(),
                format!("{:.0}", run.outcome.batch_work),
            ]);
            json_rows.push(serde_json::json!({
                "scenario": name,
                "per_mode": per_mode,
                "accuracy": accuracy,
                "violations": run.outcome.qos.violations,
                "batch_work": run.outcome.batch_work,
            }));
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
}

/// §3.2.1's Rayleigh violation-ranges against exact-overlap matching.
#[derive(Debug)]
pub struct RangeAblation {
    /// Per co-location: the run with ranges (`true`) and without.
    pub rows: Vec<(String, bool, PolicyRun<Controller>)>,
}

/// Ablation (§3.2.1) — "if throttling … is done only based on exact
/// overlap of the estimated mapped-state with violation-state, it limits
/// the prediction to only seen states of violation": without ranges the
/// controller must re-experience each minor variation of a contention
/// before it can prevent it.
pub fn ablation_range() -> RangeAblation {
    let mut rows = Vec::new();
    for scenario in [
        Scenario::vlc_with_cpubomb(51),
        Scenario::vlc_with_twitter(52),
    ] {
        for enabled in [true, false] {
            let config = ControllerConfig {
                violation_range_enabled: enabled,
                ..ControllerConfig::default()
            };
            let run = run(&scenario, stayaway(&scenario, config), 384);
            rows.push((scenario.name().to_string(), enabled, run));
        }
    }
    RangeAblation { rows }
}

impl RangeAblation {
    /// Prints the comparison and writes the JSON artifact.
    pub fn print(&self) {
        println!("=== Ablation: Rayleigh violation-ranges vs exact-overlap ===\n");
        let mut table = Table::new(&[
            "co-location",
            "ranges",
            "violations",
            "violation-states learned",
            "batch work",
        ]);
        let mut json_rows = Vec::new();
        for (name, enabled, run) in &self.rows {
            let stats = run.stats();
            table.row(&[
                name.clone(),
                if *enabled {
                    "rayleigh"
                } else {
                    "exact-overlap"
                }
                .into(),
                run.outcome.qos.violations.to_string(),
                stats.violation_states.to_string(),
                format!("{:.0}", run.outcome.batch_work),
            ]);
            json_rows.push(serde_json::json!({
                "scenario": name,
                "ranges_enabled": enabled,
                "violations": run.outcome.qos.violations,
                "violation_states": stats.violation_states,
                "batch_work": run.outcome.batch_work,
            }));
        }
        println!("{}", table.render());
        println!(
            "exact-overlap matching needs more violations (each unseen minor \
             deviation must be experienced once) before reaching the same \
             protection."
        );
        ExperimentSink::new("ablation_range").write(&serde_json::json!({ "rows": json_rows }));
    }
}

/// §3.2.3's number of candidate future states per prediction.
#[derive(Debug)]
pub struct SampleAblation {
    /// Per sample count: the run on VLC streaming + Twitter-Analysis.
    pub rows: Vec<(usize, PolicyRun<Controller>)>,
}

/// Ablation (§3.2.3) — 1, 3, 5, 9 and 15 candidate future states per
/// prediction; the paper settles on 5.
pub fn ablation_samples() -> SampleAblation {
    let scenario = Scenario::vlc_with_twitter(61);
    let rows = [1usize, 3, 5, 9, 15].map(|samples| {
        let config = ControllerConfig {
            prediction_samples: samples,
            ..ControllerConfig::default()
        };
        (samples, run(&scenario, stayaway(&scenario, config), 384))
    });
    SampleAblation { rows: rows.into() }
}

impl SampleAblation {
    /// Prints the sweep and writes the JSON artifact.
    pub fn print(&self) {
        println!("=== Ablation: prediction sample count (paper uses 5) ===\n");
        let mut table = Table::new(&[
            "samples",
            "accuracy",
            "violations",
            "proactive predictions",
            "batch work",
        ]);
        let mut json_rows = Vec::new();
        for (samples, run) in &self.rows {
            let stats = run.stats();
            table.row(&[
                samples.to_string(),
                percent(stats.prediction_accuracy().unwrap_or(0.0)),
                run.outcome.qos.violations.to_string(),
                stats.violations_predicted.to_string(),
                format!("{:.0}", run.outcome.batch_work),
            ]);
            json_rows.push(serde_json::json!({
                "samples": samples,
                "accuracy": stats.prediction_accuracy(),
                "violations": run.outcome.qos.violations,
                "predicted": stats.violations_predicted,
                "batch_work": run.outcome.batch_work,
            }));
        }
        println!("{}", table.render());
        println!(
            "a single sample is noisy; a handful suffices because application \
             bias concentrates the step distributions (§3.2.3); larger counts \
             buy little."
        );
        ExperimentSink::new("ablation_samples").write(&serde_json::json!({ "rows": json_rows }));
    }
}

/// Mean inter-class distance divided by mean intra-class distance — larger
/// is better separated.
fn separation(points: &[(f64, f64)], violation: &[bool]) -> f64 {
    let mut intra = (0.0, 0u64);
    let mut inter = (0.0, 0u64);
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            let d =
                ((points[i].0 - points[j].0).powi(2) + (points[i].1 - points[j].1).powi(2)).sqrt();
            if violation[i] == violation[j] {
                intra.0 += d;
                intra.1 += 1;
            } else {
                inter.0 += d;
                inter.1 += 1;
            }
        }
    }
    if intra.1 == 0 || inter.1 == 0 || intra.0 == 0.0 {
        return 0.0;
    }
    (inter.0 / inter.1 as f64) / (intra.0 / intra.1 as f64)
}

/// §2.2's MDS embedding against a PCA projection of the same states.
#[derive(Debug)]
pub struct EmbeddingAblation {
    /// Learned states, violation-labelled states, and their dimension.
    pub states: (usize, usize, usize),
    /// Violation/safe separation (inter / intra) of MDS and of PCA.
    pub separation: (f64, f64),
    /// Kruskal stress-1 of MDS and of PCA.
    pub stress: (f64, f64),
    /// Variance each retained PCA component explains.
    pub pca_explained: Vec<f64>,
}

/// Ablation (§2.2) — the paper prefers MDS because a projection such as
/// PCA "gives superposition in the direction of projection": states that
/// differ only along discarded axes collapse together. Measured as how
/// well each embedding separates the violation states from the safe ones
/// learned on a co-located run.
pub fn ablation_pca() -> EmbeddingAblation {
    let scenario = Scenario::vlc_with_cpubomb(71);
    let sa = stayaway(&scenario, ControllerConfig::default());
    let ctl = run(&scenario, sa, 384).policy;
    let template = ctl.export_template("probe").expect("template");
    let vectors: Vec<Vec<f64>> = template.iter().map(|s| s.vector.clone()).collect();
    let n = ctl.repr_count();
    let labels: Vec<bool> = (0..n)
        .map(|rep| {
            let entry = ctl.state_map().entry(rep);
            entry
                .map(|e| e.kind() == StateKind::Violation)
                .unwrap_or(false)
        })
        .collect();

    let dissim = DistanceMatrix::from_vectors(&vectors).expect("distance matrix");
    let mds = Smacof::new(2).embed(&dissim).expect("mds embeds");
    let mds_points: Vec<(f64, f64)> = (0..n).map(|i| mds.xy(i)).collect();
    let pca = Pca::fit(&vectors, 2).expect("pca fits");
    let pca_emb = pca.project_all(&vectors).expect("pca projects");
    let pca_points: Vec<(f64, f64)> = (0..n).map(|i| pca_emb.xy(i)).collect();
    EmbeddingAblation {
        states: (
            n,
            labels.iter().filter(|&&v| v).count(),
            vectors.first().map(Vec::len).unwrap_or(0),
        ),
        separation: (
            separation(&mds_points, &labels),
            separation(&pca_points, &labels),
        ),
        stress: (
            mds.stress(&dissim).expect("stress"),
            pca_emb.stress(&dissim).expect("stress"),
        ),
        pca_explained: pca.explained_variance_ratio().to_vec(),
    }
}

impl EmbeddingAblation {
    /// Prints the comparison and writes the JSON artifact.
    pub fn print(&self) {
        println!("=== Ablation: MDS vs PCA embeddings (§2.2) ===\n");
        let (n, violations, dims) = self.states;
        println!("dataset: {n} states ({violations} violations) in {dims} dimensions\n");
        let ((mds_sep, pca_sep), (mds_stress, pca_stress)) = (self.separation, self.stress);
        let mut table = Table::new(&["method", "separation (inter/intra)", "stress-1"]);
        table.row(&[
            "MDS (SMACOF)".into(),
            format!("{mds_sep:.3}"),
            format!("{mds_stress:.4}"),
        ]);
        table.row(&[
            "PCA".into(),
            format!("{pca_sep:.3}"),
            format!("{pca_stress:.4}"),
        ]);
        println!("{}", table.render());
        println!(
            "MDS preserves relative distances (lower stress), keeping \
             violation and safe clusters distinguishable for range queries."
        );
        ExperimentSink::new("ablation_pca").write(&serde_json::json!({
            "states": n,
            "mds_separation": mds_sep,
            "pca_separation": pca_sep,
            "mds_stress": mds_stress,
            "pca_stress": pca_stress,
            "pca_explained": self.pca_explained,
        }));
    }
}

/// One-step error of a VAR(1) and of the histogram sampler after `warmup`
/// transitions: `(var, sampler, checks)`.
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
                var_err += vpred.distance(to);
                smp_err += centroid(spred.candidates()).distance(to);
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

/// §3.1's VAR forecaster against the paper's histogram sampling.
#[derive(Debug)]
pub struct VarAblation {
    /// Per trajectory family and warm-up: VAR error, sampler error and
    /// the number of forecasts checked.
    pub rows: Vec<(&'static str, usize, f64, f64, u64)>,
}

/// Ablation (§3.1) — "a natural technique for forecasting in high
/// dimensions is Vector Autoregressive Models (VAR) … A 2D representation
/// of the trajectories gives prediction models with two parameters, which
/// can be estimated reliably from a small sample." A VAR(1) on the 2-D
/// trajectory against the per-mode inverse-transform sampler, one-step
/// error by the number of transitions observed, on three trajectory
/// families.
pub fn ablation_var() -> VarAblation {
    let mut rng = StdRng::seed_from_u64(9);
    let biased = BiasedRandomWalk {
        heading: 0.5,
        angular_sd: 0.3,
        min_len: 0.02,
        max_len: 0.08,
    };
    let levy = LevyFlight {
        mu: 2.0,
        scale: 0.01,
        max_len: 1.0,
    };
    let bursty = BurstyWalk {
        burst_len: 6,
        pause_len: 6,
        burst_step: 0.1,
        pause_step: 0.005,
    };
    let trails = [
        (
            "biased random walk",
            biased.generate(Point2::origin(), 400, &mut rng),
        ),
        (
            "levy flight",
            levy.generate(Point2::origin(), 400, &mut rng),
        ),
        (
            "bursty (vlc-like)",
            bursty.generate(Point2::origin(), 400, &mut rng),
        ),
    ];
    let mut rows = Vec::new();
    for (name, trail) in &trails {
        for warmup in [8usize, 32, 128] {
            let (var_err, smp_err, checks) = one_step_errors(trail, warmup);
            rows.push((*name, warmup, var_err, smp_err, checks));
        }
    }
    VarAblation { rows }
}

impl VarAblation {
    /// Prints the error table and writes the JSON artifact.
    pub fn print(&self) {
        println!("=== Ablation: VAR(1) forecasting vs histogram sampling (§3.1) ===\n");
        let mut table = Table::new(&[
            "trajectory",
            "warmup",
            "VAR error",
            "sampler error",
            "VAR/sampler",
        ]);
        let mut json_rows = Vec::new();
        for &(name, warmup, var_err, smp_err, checks) in &self.rows {
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
}

/// §3.1's IPC-inferred violation detection against application reports.
#[derive(Debug)]
pub struct IpcAblation {
    /// Per co-location and detector (`app-reported` / `ipc-inferred`): the
    /// run.
    pub rows: Vec<(String, &'static str, PolicyRun<Controller>)>,
}

/// Ablation (§3.1) — the paper's prototype instruments the sensitive
/// application to report violations and notes that "using IPC to detect
/// QoS violation is explored in other works". The inferred detector learns
/// the sensitive VM's isolated-IPC baseline and flags co-located IPC drops:
/// no application cooperation, at the cost of a warm-up and sensitivity to
/// counter noise.
pub fn ablation_ipc() -> IpcAblation {
    let detectors = [
        ("app-reported", ViolationDetection::AppReported),
        (
            "ipc-inferred",
            ViolationDetection::IpcInferred { threshold: 0.95 },
        ),
    ];
    let mut rows = Vec::new();
    for scenario in [
        Scenario::vlc_with_cpubomb(91),
        Scenario::vlc_with_twitter(92),
    ] {
        for (label, detection) in detectors {
            let config = ControllerConfig {
                violation_detection: detection,
                ..ControllerConfig::default()
            };
            let run = run(&scenario, stayaway(&scenario, config), 384);
            rows.push((scenario.name().to_string(), label, run));
        }
    }
    IpcAblation { rows }
}

impl IpcAblation {
    /// Prints the comparison and writes the JSON artifact.
    pub fn print(&self) {
        println!("=== Ablation: app-reported vs IPC-inferred violation detection ===\n");
        let mut table = Table::new(&[
            "co-location",
            "detection",
            "actual violations",
            "detected by controller",
            "throttles",
            "batch work",
        ]);
        let mut json_rows = Vec::new();
        for (name, label, run) in &self.rows {
            let stats = run.stats();
            table.row(&[
                name.clone(),
                label.to_string(),
                run.outcome.qos.violations.to_string(),
                stats.violations_observed.to_string(),
                stats.throttles.to_string(),
                format!("{:.0}", run.outcome.batch_work),
            ]);
            json_rows.push(serde_json::json!({
                "scenario": name,
                "detection": label,
                "actual_violations": run.outcome.qos.violations,
                "detected": stats.violations_observed,
                "throttles": stats.throttles,
                "batch_work": run.outcome.batch_work,
            }));
        }
        println!("{}", table.render());
        println!(
            "the inferred detector protects QoS without instrumenting the \
             application; its detected count can differ from the ground truth \
             (counter noise, EWMA baseline) but the resulting protection is \
             comparable — the §3.1 alternative is viable."
        );
        ExperimentSink::new("ablation_ipc").write(&serde_json::json!({ "rows": json_rows }));
    }
}

/// §4's representative-sample deduplication on a noisy phase stream.
#[derive(Debug)]
pub struct DedupCompression {
    /// Per stream length: the representatives deduplication keeps.
    pub rows: Vec<(usize, usize)>,
}

/// §4 — "choosing one representative sample from the set of samples that
/// are very close to each other … significantly reduces the computation
/// time as it reduces the size of the observation matrix": the compression
/// deduplication achieves on a noisy resource-usage stream hovering around
/// four phases, at 120, 240 and 480 samples. SMACOF's cost is quadratic in
/// what is kept.
pub fn ablation_dedup() -> DedupCompression {
    let phases = [
        [0.2, 0.1, 0.1, 0.0, 0.1],
        [0.8, 0.2, 0.4, 0.0, 0.5],
        [0.9, 0.8, 0.9, 0.3, 0.5],
        [0.1, 0.7, 0.8, 0.1, 0.0],
    ];
    let rows = [120usize, 240, 480].map(|n| {
        let mut rng = StdRng::seed_from_u64(5);
        let mut set = ReprSet::new(0.05).expect("repr set");
        for i in 0..n {
            let phase = phases[(i / 40) % phases.len()];
            let sample = phase.map(|v: f64| (v + rng.gen_range(-0.02..0.02)).clamp(0.0, 1.0));
            set.insert(&sample).expect("insert");
        }
        (n, set.len())
    });
    DedupCompression { rows: rows.into() }
}

impl DedupCompression {
    /// Prints one line per stream length.
    pub fn print(&self) {
        for &(n, kept) in &self.rows {
            println!(
                "n={n}: dedup keeps {kept} representatives ({:.1}% of the stream)",
                100.0 * kept as f64 / n as f64
            );
        }
    }
}
