//! The motivating workload (Figure 1) and the mechanism figures: the
//! violation-range radius (Figure 4), execution modes in the map (Figure
//! 5) and instantaneous vs gradual transitions (Figures 6 and 7).

use super::{save_svg, state_table};
use crate::report::{ascii_chart, sparkline, Table};
use crate::runner::{run, stayaway, ExperimentSink, PolicyRun};
use stayaway_core::aggregate::measurement_vector;
use stayaway_core::stages::{MapStage, Sensed};
use stayaway_core::{Controller, ControllerConfig, MappingMetrics, Observability};
use stayaway_obs::{AttrValue, EventKind, FlightRecorder};
use stayaway_sim::apps::{soplex::soplex_with_work, vlc::vlc_transcode};
use stayaway_sim::scenario::Scenario;
use stayaway_sim::workload::{DiurnalParams, Trace};
use stayaway_sim::{Action, AppClass, Harness, Host, HostSpec, Observation, Policy};
use stayaway_statespace::viz::MapRenderer;
use stayaway_statespace::{rayleigh_peak, rayleigh_radius, ExecutionMode, Point2, StateKind};
use stayaway_trajectory::step::steps_between;
use stayaway_trajectory::Histogram;

/// Figure 1 — a Wikipedia-like diurnal read workload over four days.
#[derive(Debug)]
pub struct DiurnalTrace {
    /// The generator's parameters.
    pub params: DiurnalParams,
    /// The regenerated trace (the original AWS-hosted one is gone).
    pub trace: Trace,
    /// `(trough, peak, mean)` intensity of each day.
    pub days: Vec<(f64, f64, f64)>,
    /// Ticks below 0.4 intensity: the co-location opportunity.
    pub low_ticks: usize,
}

/// Figure 1 — "Total Workload variation of Wikipedia during 1/1/2011 to
/// 5/1/2011", regenerated from the synthetic diurnal generator: day/night
/// swing, four daily peaks, exploitable low-intensity valleys.
pub fn fig01_wikipedia_trace() -> DiurnalTrace {
    let params = DiurnalParams::default();
    let trace = Trace::diurnal(params, 42);
    let tpd = params.ticks_per_day;
    let days = (0..params.days)
        .map(|day| {
            let slice = &trace.samples()[day * tpd..(day + 1) * tpd];
            let min = slice.iter().copied().fold(1.0, f64::min);
            let max = slice.iter().copied().fold(0.0, f64::max);
            (min, max, slice.iter().sum::<f64>() / slice.len() as f64)
        })
        .collect();
    let low_ticks = trace.samples().iter().filter(|&&v| v < 0.4).count();
    DiurnalTrace {
        params,
        trace,
        days,
        low_ticks,
    }
}

impl DiurnalTrace {
    /// Prints the trace and its per-day rows; writes the JSON artifact.
    pub fn print(&self) {
        println!("=== Figure 1: Wikipedia-like diurnal workload (4 days) ===\n");
        println!("{}", ascii_chart(self.trace.samples(), 96, 12));
        println!("day  trough   peak    mean");
        for (day, (min, max, mean)) in self.days.iter().enumerate() {
            println!("{day:>3}  {min:>6.3}  {max:>6.3}  {mean:>6.3}");
        }
        let (low, len) = (self.low_ticks, self.trace.len());
        println!(
            "\nlow-intensity ticks (<0.4): {} / {} ({:.0}%) — the co-location \
             opportunity Stay-Away exploits",
            low,
            len,
            100.0 * low as f64 / len as f64
        );
        ExperimentSink::new("fig01_wikipedia_trace").write(&serde_json::json!({
            "ticks_per_day": self.params.ticks_per_day,
            "days": self.params.days,
            "samples": self.trace.samples(),
            "low_intensity_fraction": low as f64 / len as f64,
        }));
    }
}

/// Figure 4 — the Rayleigh-scaled violation-range radius
/// `R(d) = d·exp(−d²/2c²)` against the distance `d` to the nearest
/// safe-state.
#[derive(Debug)]
pub struct RadiusCurves {
    /// The scale parameters plotted.
    pub c: [f64; 3],
    /// The distance grid, `[0, 2]` in 100 steps.
    pub d: Vec<f64>,
    /// `R(d)` over the grid, one curve per `c`.
    pub radius: Vec<Vec<f64>>,
}

/// Figure 4 — near-linear growth for small `d`, a peak at `d = c`, and a
/// fading tail (the exploration range widening as safe states recede).
pub fn fig04_violation_radius() -> RadiusCurves {
    let c = [0.25, 0.5, 1.0];
    let d: Vec<f64> = (0..=100).map(|i| i as f64 * 2.0 / 100.0).collect();
    let radius = c
        .iter()
        .map(|&c| d.iter().map(|&d| rayleigh_radius(d, c)).collect())
        .collect();
    RadiusCurves { c, d, radius }
}

impl RadiusCurves {
    /// Prints each curve and the tabulated radii; writes the JSON artifact.
    pub fn print(&self) {
        println!("=== Figure 4: violation-range radius R(d) = d·exp(-d²/2c²) ===\n");
        for (&c, series) in self.c.iter().zip(&self.radius) {
            let (peak_d, peak_r) = rayleigh_peak(c);
            println!("c = {c} (peak at d = {peak_d:.2}, R = {peak_r:.3}):");
            println!("{}", ascii_chart(series, 60, 8));
        }
        let mut table = Table::new(&["d", "R (c=0.25)", "R (c=0.5)", "R (c=1.0)", "R/d (c=0.5)"]);
        for d in (0..=20).map(|i| i as f64 * 0.1) {
            let ratio = if d > 0.0 {
                rayleigh_radius(d, 0.5) / d
            } else {
                1.0
            };
            table.row(&[
                format!("{d:.1}"),
                format!("{:.4}", rayleigh_radius(d, 0.25)),
                format!("{:.4}", rayleigh_radius(d, 0.5)),
                format!("{:.4}", rayleigh_radius(d, 1.0)),
                format!("{ratio:.4}"),
            ]);
        }
        println!("{}", table.render());
        println!(
            "invariant: R < d everywhere (the nearest safe-state is never \
             swallowed); exploration range = d - R grows as d → 0 or d → ∞"
        );
        let curves = self.c.iter().zip(&self.radius);
        let curves = curves.map(|(c, radius)| serde_json::json!({ "c": c, "radius": radius }));
        ExperimentSink::new("fig04_violation_radius").write(&serde_json::json!({
            "d": self.d,
            "curves": curves.collect::<Vec<_>>(),
        }));
    }
}

/// Observe-only policy that maps every tick and records the trajectory.
struct Recorder {
    map: MapStage,
    metrics: Vec<stayaway_sim::ResourceKind>,
    trail: Vec<(u64, ExecutionMode, Point2)>,
}

impl Policy for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }

    fn decide(&mut self, obs: &Observation) -> Vec<Action> {
        let mode = ExecutionMode::from_activity(obs.sensitive_active(), obs.batch_active());
        let sensed = Sensed {
            tick: obs.tick,
            mode,
            violated: false,
            raw: measurement_vector(obs, &self.metrics),
            rejected: 0,
        };
        if let Ok(mapped) = self.map.ingest(&sensed) {
            self.trail.push((obs.tick, mode, mapped.point));
        }
        Vec::new()
    }
}

/// Figure 5 — the mapped trajectory of a VLC + soplex lifecycle.
#[derive(Debug)]
pub struct ExecutionModes {
    /// Tick, execution mode and mapped point of every mapped period.
    pub trail: Vec<(u64, ExecutionMode, Point2)>,
}

/// Figure 5 — the four execution modes of a VLC + soplex lifecycle form
/// separate clusters in the mapped space, each with a distinct trajectory
/// pattern. The lifecycle mirrors the paper's: nothing running → VLC alone
/// → both co-located → VLC finishes → soplex alone.
pub fn fig05_execution_modes() -> ExecutionModes {
    let spec = HostSpec::default();
    let mut host = Host::new(spec).expect("valid host");
    // VLC transcoding (the QoS-reporting application of the illustration)
    // runs ticks 5..~105; soplex joins at 20 and continues alone after.
    host.add_container(AppClass::Sensitive, Box::new(vlc_transcode(80.0)), 5);
    host.add_container(AppClass::Batch, Box::new(soplex_with_work(160.0)), 20);
    // Higher monitoring noise + finer dedup make the within-mode
    // micro-structure visible (the paper's real metrics fluctuate).
    let mut harness = Harness::new(host, 0.03, 9).expect("valid harness");
    let config = ControllerConfig {
        dedup_epsilon: 0.01,
        smacof_iterations: 20,
        max_states: 400,
        ..ControllerConfig::default()
    };
    let mut recorder = Recorder {
        map: MapStage::new(&config, &spec, MappingMetrics::default()).expect("valid map stage"),
        metrics: config.metrics,
        trail: Vec::new(),
    };
    harness.run(&mut recorder, 350);
    ExecutionModes {
        trail: recorder.trail,
    }
}

impl ExecutionModes {
    /// The mapped points of one mode, in tick order.
    pub fn points(&self, mode: ExecutionMode) -> Vec<Point2> {
        let of_mode = self.trail.iter().filter(|(_, m, _)| *m == mode);
        of_mode.map(|(_, _, p)| *p).collect()
    }

    /// `(ticks, centroid, mean distance to the centroid)` of one mode's
    /// cluster; `None` when the mode never occurred.
    pub fn cluster(&self, mode: ExecutionMode) -> Option<(usize, Point2, f64)> {
        let pts = self.points(mode);
        if pts.is_empty() {
            return None;
        }
        let cx = pts.iter().map(|p| p.x).sum::<f64>() / pts.len() as f64;
        let cy = pts.iter().map(|p| p.y).sum::<f64>() / pts.len() as f64;
        let centroid = Point2::new(cx, cy);
        let spread = pts.iter().map(|p| p.distance(centroid)).sum::<f64>() / pts.len() as f64;
        Some((pts.len(), centroid, spread))
    }

    /// Step-length and absolute-angle histograms of one mode's trajectory
    /// (the pdf insets of Figure 5); `None` under four steps.
    pub fn step_histograms(&self, mode: ExecutionMode) -> Option<(usize, Histogram, Histogram)> {
        let steps = steps_between(&self.points(mode));
        if steps.len() < 4 {
            return None;
        }
        let lengths: Vec<f64> = steps.iter().map(|s| s.length).collect();
        let angles: Vec<f64> = steps.iter().map(|s| s.angle).collect();
        let lh = Histogram::auto_range(&lengths, 16).expect("length histogram");
        let ah = Histogram::auto_range(&angles, 16).expect("angle histogram");
        Some((steps.len(), lh, ah))
    }

    /// Prints the clusters and per-mode distributions; writes the SVG and
    /// JSON artifacts.
    pub fn print(&self) {
        println!("=== Figure 5: execution modes in the mapped state space ===\n");
        let mut table = Table::new(&["mode", "ticks", "centroid", "mean spread"]);
        let mut centroids = Vec::new();
        for mode in ExecutionMode::ALL {
            let Some((ticks, c, spread)) = self.cluster(mode) else {
                table.row(&[mode.to_string(), "0".into(), "-".into(), "-".into()]);
                continue;
            };
            table.row(&[
                mode.to_string(),
                ticks.to_string(),
                format!("({:.3}, {:.3})", c.x, c.y),
                format!("{spread:.3}"),
            ]);
            centroids.push((mode, c));
        }
        println!("{}", table.render());
        println!("inter-centroid distances (clusters must separate):");
        for (i, &(ma, ca)) in centroids.iter().enumerate() {
            for &(mb, cb) in &centroids[i + 1..] {
                println!("  {ma} <-> {mb}: {:.3}", ca.distance(cb));
            }
        }

        println!("\nper-mode trajectory distributions:");
        let mut json_modes = Vec::new();
        for mode in ExecutionMode::ALL {
            let Some((steps, lh, ah)) = self.step_histograms(mode) else {
                continue;
            };
            let lmass: Vec<f64> = (0..lh.bins()).map(|i| lh.mass(i)).collect();
            let amass: Vec<f64> = (0..ah.bins()).map(|i| ah.mass(i)).collect();
            println!("  {mode}:");
            let (lskew, askew) = (lh.skewness(), ah.skewness());
            println!(
                "    step length pdf  {}  (skew {lskew:+.2})",
                sparkline(&lmass)
            );
            println!(
                "    angle pdf        {}  (skew {askew:+.2})",
                sparkline(&amass)
            );
            json_modes.push(serde_json::json!({
                "mode": mode.to_string(),
                "steps": steps,
                "length_pdf": lmass,
                "angle_pdf": amass,
                "length_skew": lskew,
            }));
        }
        println!(
            "\nskewed (biased) distributions confirm §3.2.3: trajectories are \
             not uniform random walks, so inverse-transform sampling is \
             informative."
        );

        // One coloured trail per execution mode over an empty map.
        let empty = stayaway_statespace::StateMap::new();
        let mut renderer = MapRenderer::new(&empty, 640, 480)
            .title("Figure 5: execution modes (VLC-transcode + soplex lifecycle)");
        for mode in ExecutionMode::ALL {
            let pts = self.points(mode);
            if pts.len() >= 2 {
                renderer = renderer.trail(mode.to_string(), pts);
            }
        }
        save_svg("fig05_execution_modes", renderer);

        let trail = self.trail.iter().map(
            |(t, m, p)| serde_json::json!({"tick": t, "mode": m.to_string(), "x": p.x, "y": p.y}),
        );
        ExperimentSink::new("fig05_execution_modes").write(&serde_json::json!({
            "trail": trail.collect::<Vec<_>>(),
            "modes": json_modes,
        }));
    }
}

/// Figure 6 — VLC transcoding beside CPUBomb with Stay-Away observing but
/// not acting ("Action status: False").
#[derive(Debug)]
pub struct InstantaneousTransitions {
    /// The observe-only run; CPUBomb arrives at tick 30.
    pub run: PolicyRun<Controller>,
}

/// Figure 6 — CPUBomb's arrival moves the mapped state in one large jump:
/// CPU spikes leave "almost no time for the system to react", in contrast
/// to the gradual drift of Figure 7.
pub fn fig06_instantaneous_transitions() -> InstantaneousTransitions {
    let scenario = Scenario::vlc_transcode_with_cpubomb(21);
    let config = ControllerConfig {
        actions_enabled: false, // Action status: False
        ..ControllerConfig::default()
    };
    InstantaneousTransitions {
        run: run(&scenario, stayaway(&scenario, config), 200),
    }
}

impl InstantaneousTransitions {
    /// Prints the snapshot and the QoS around the onset; writes the SVG and
    /// JSON artifacts.
    pub fn print(&self) {
        println!("=== Figure 6: instantaneous transitions (VLC-transcode + CPUBomb) ===\n");
        let ctl = &self.run.policy;
        // The A..G annotations of the paper's snapshot are these states.
        println!("{}", state_table(ctl, true));
        let stats = self.run.stats();
        println!("violations observed: {}", stats.violations_observed);
        println!("violation-states:    {}", stats.violation_states);
        println!("total states:        {}", stats.states);

        println!("\nQoS around the CPUBomb onset (tick 30):");
        for r in self
            .run
            .outcome
            .timeline
            .iter()
            .filter(|r| (25..40).contains(&r.tick))
        {
            let flag = if r.violated { " VIOLATION" } else { "" };
            println!("  t={} qos={:.3}{flag}", r.tick, r.qos_value);
        }
        println!(
            "\nthe violation appears within one control period of the onset — \
             an instantaneous transition (compare Figure 7)."
        );
        save_svg(
            "fig06_instantaneous_transitions",
            MapRenderer::new(ctl.state_map(), 640, 480)
                .title("Figure 6: VLC-transcode + CPUBomb (actions disabled)"),
        );
        let states = (0..ctl.repr_count()).map(|rep| {
            let e = ctl.state_map().entry(rep).expect("entry");
            serde_json::json!({
                "rep": rep,
                "x": e.point().x,
                "y": e.point().y,
                "violation": e.kind() == StateKind::Violation,
                "visits": e.visits(),
                "first_mode": e.first_mode().to_string(),
            })
        });
        ExperimentSink::new("fig06_instantaneous_transitions").write(&serde_json::json!({
            "states": states.collect::<Vec<_>>(),
            "violations_observed": stats.violations_observed,
        }));
    }
}

/// Figure 7 — VLC streaming beside Twitter-Analysis with Stay-Away
/// throttling ("Action status: True").
#[derive(Debug)]
pub struct GradualTransitions {
    /// The protected run.
    pub run: PolicyRun<Controller>,
    /// Throttles that came from a forecast or a known violation-state.
    pub proactive: usize,
    /// Throttles that answered an observed violation.
    pub reactive: usize,
}

/// Figure 7 — Twitter-Analysis's memory phase ramps its working set up
/// over many ticks, so consecutive mapped states drift in small steps and
/// the predictor has time to act before the violation-range is entered.
pub fn fig07_gradual_transitions() -> GradualTransitions {
    let scenario = Scenario::vlc_with_twitter(21);
    // The throttle split is read from the decision stream, so this
    // controller carries a flight recorder.
    let recorder = FlightRecorder::for_scope(0, "fig07");
    let controller = Controller::for_host_observed(
        ControllerConfig::default(),
        scenario.host_spec(),
        Observability::disabled().with_recorder(recorder.clone()),
    )
    .expect("valid controller config");
    let run = run(&scenario, controller, 300);
    let (mut proactive, mut reactive) = (0, 0);
    for e in recorder
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Throttle)
    {
        if e.attr("proactive") == Some(&AttrValue::Bool(true)) {
            proactive += 1;
        } else {
            reactive += 1;
        }
    }
    GradualTransitions {
        run,
        proactive,
        reactive,
    }
}

impl GradualTransitions {
    /// Prints the snapshot and the throttle split; writes the SVG and JSON
    /// artifacts.
    pub fn print(&self) {
        println!("=== Figure 7: gradual transitions (VLC streaming + Twitter-Analysis) ===\n");
        let (ctl, outcome) = (&self.run.policy, &self.run.outcome);
        println!("{}", state_table(ctl, false));
        // "Action status: True": ticks with batch paused by the controller.
        let throttled_ticks = outcome
            .timeline
            .iter()
            .filter(|r| r.batch_paused > 0)
            .count();
        println!(
            "throttled ticks: {} / {} (action status TRUE during the snapshot)",
            throttled_ticks,
            outcome.timeline.len()
        );
        let (proactive, reactive) = (self.proactive, self.reactive);
        println!("throttle actions: {proactive} proactive, {reactive} reactive");
        println!(
            "violations: {} (baseline comparison in fig09)",
            outcome.qos.violations
        );
        save_svg(
            "fig07_gradual_transitions",
            MapRenderer::new(ctl.state_map(), 640, 480)
                .title("Figure 7: VLC streaming + Twitter-Analysis (Stay-Away active)"),
        );
        let states = (0..ctl.repr_count()).map(|rep| {
            let e = ctl.state_map().entry(rep).expect("entry");
            serde_json::json!({
                "rep": rep, "x": e.point().x, "y": e.point().y,
                "violation": e.kind() == StateKind::Violation,
                "visits": e.visits(),
            })
        });
        ExperimentSink::new("fig07_gradual_transitions").write(&serde_json::json!({
            "states": states.collect::<Vec<_>>(),
            "throttled_ticks": throttled_ticks,
            "proactive_throttles": proactive,
            "reactive_throttles": reactive,
        }));
    }
}
