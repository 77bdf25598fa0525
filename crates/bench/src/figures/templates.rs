//! The state map as a template (§6, §7.3): captured beside CPUBomb
//! (Figure 17) and checked beside other co-runners (Figure 18).

use super::{save_svg, state_table};
use crate::runner::{experiments_dir, run, stayaway, ExperimentSink, PolicyRun};
use stayaway_core::{Controller, ControllerConfig};
use stayaway_sim::scenario::Scenario;
use stayaway_sim::{Action, Observation, Policy};
use stayaway_statespace::viz::MapRenderer;
use stayaway_statespace::{Point2, Template};

/// Figure 17 — the state map captured while VLC streaming runs beside
/// CPUBomb.
#[derive(Debug)]
pub struct TemplateCapture {
    /// The capturing run.
    pub run: PolicyRun<Controller>,
    /// The exported template, `vlc-streaming`.
    pub template: Template,
}

/// Figure 17 — the map captured beside CPUBomb becomes the *template* for
/// future executions of the same sensitive application (§6, §7.3).
pub fn fig17_template_capture() -> TemplateCapture {
    let scenario = Scenario::vlc_with_cpubomb(17);
    let run = run(
        &scenario,
        stayaway(&scenario, ControllerConfig::default()),
        384,
    );
    let template = run
        .policy
        .export_template("vlc-streaming")
        .expect("template export");
    TemplateCapture { run, template }
}

impl TemplateCapture {
    /// Prints the map; writes the template, the SVG and the JSON artifact.
    pub fn print(&self) {
        println!("=== Figure 17: template capture (VLC streaming + CPUBomb) ===\n");
        let ctl = &self.run.policy;
        println!("{}", state_table(ctl, false));
        let template = &self.template;
        println!(
            "captured template: {} states, {} violation-labelled",
            template.len(),
            template.violation_count()
        );
        let dir = experiments_dir();
        std::fs::create_dir_all(&dir).expect("create experiments dir");
        let path = dir.join("fig17_vlc_template.json");
        template.save_to_path(&path).expect("template save");
        println!("[artifact] {}", path.display());
        save_svg(
            "fig17_template_capture",
            MapRenderer::new(ctl.state_map(), 640, 480)
                .title("Figure 17: template capture (VLC streaming + CPUBomb)"),
        );
        ExperimentSink::new("fig17_template_capture").write(&serde_json::json!({
            "states": template.len(),
            "violation_states": template.violation_count(),
            "violations_during_capture": self.run.outcome.qos.violations,
        }));
    }
}

/// Wraps an observe-only controller and logs, per tick, the mapped state
/// and whether the tick was a violation.
struct Spy {
    inner: Controller,
    log: Vec<(usize, Point2, bool, bool)>, // (rep, point, co_located, violated)
}

impl Policy for Spy {
    fn name(&self) -> &str {
        "template-spy"
    }

    fn decide(&mut self, obs: &Observation) -> Vec<Action> {
        let actions = self.inner.decide(obs);
        if let Some(rep) = self.inner.current_state() {
            if let Some(point) = self.inner.state_point(rep) {
                let co_located = obs.sensitive_active() && obs.batch_active();
                self.log.push((rep, point, co_located, obs.qos_violation));
            }
        }
        actions
    }
}

/// How a template's violation region holds up beside one new co-runner,
/// actions disabled (one block of Figure 18).
#[derive(Debug)]
pub struct RegionCheck {
    scenario: String,
    /// Co-located ticks mapped on or inside a template violation-state or
    /// its violation-range.
    pub in_region: usize,
    /// Of those, the ticks that actually violated.
    pub in_region_violations: usize,
    /// `in_region_violations / in_region`; 1 when the region was never
    /// entered.
    pub precision: f64,
    /// Mean distance from a violating co-located tick to the nearest
    /// template violation-state.
    pub mean_violation_distance: f64,
    /// The same for the safe co-located ticks.
    pub mean_safe_distance: f64,
}

impl RegionCheck {
    fn measure(template: &Template, scenario: &Scenario) -> Self {
        let config = ControllerConfig {
            actions_enabled: false, // observe violations, take no action
            ..ControllerConfig::default()
        };
        let mut inner = stayaway(scenario, config);
        inner.import_template(template).expect("template import");
        let tlen = template.len();
        let tviol: Vec<bool> = template.iter().map(|s| s.violation).collect();
        let spy = Spy {
            inner,
            log: Vec::new(),
        };
        let spy = run(scenario, spy, 384).policy;
        let map = spy.inner.state_map();
        let co_located = spy.log.iter().filter(|entry| entry.2);

        // Precision of the template violation region, over co-located ticks.
        let (mut in_region, mut in_region_violations) = (0usize, 0usize);
        for &(rep, point, _, violated) in co_located.clone() {
            let on_template_violation = rep < tlen && tviol[rep];
            let in_template_range = (0..tlen).any(|r| {
                tviol[r]
                    && map
                        .violation_range(r)
                        .map(|range| range.contains(point))
                        .unwrap_or(false)
            });
            if on_template_violation || in_template_range {
                in_region += 1;
                in_region_violations += usize::from(violated);
            }
        }
        let precision = if in_region > 0 {
            in_region_violations as f64 / in_region as f64
        } else {
            1.0
        };

        // Area correspondence: distance to the nearest template violation
        // state, for new violation ticks vs new safe co-located ticks.
        let tpoints: Vec<Point2> = (0..tlen)
            .filter(|&r| tviol[r])
            .filter_map(|r| map.entry(r).ok().map(|e| e.point()))
            .collect();
        let nearest = |p: Point2| {
            let distances = tpoints.iter().map(|t| t.distance(p));
            distances.fold(f64::INFINITY, f64::min)
        };
        let (mut dv, mut nv, mut ds, mut ns) = (0.0, 0u64, 0.0, 0u64);
        for &(_, point, _, violated) in co_located {
            if violated {
                dv += nearest(point);
                nv += 1;
            } else {
                ds += nearest(point);
                ns += 1;
            }
        }
        RegionCheck {
            scenario: scenario.name().to_string(),
            in_region,
            in_region_violations,
            precision,
            mean_violation_distance: if nv > 0 { dv / nv as f64 } else { f64::NAN },
            mean_safe_distance: if ns > 0 { ds / ns as f64 } else { f64::NAN },
        }
    }

    fn print(&self) -> serde_json::Value {
        println!("--- {} (actions disabled) ---", self.scenario);
        println!(
            "  co-located ticks inside the template violation region: {}, \
             of which actual violations: {} (precision {:.0}%)",
            self.in_region,
            self.in_region_violations,
            100.0 * self.precision
        );
        println!(
            "  mean distance to nearest template violation-state: {:.3} for \
             violation ticks vs {:.3} for safe ticks",
            self.mean_violation_distance, self.mean_safe_distance
        );
        println!();
        serde_json::json!({
            "scenario": self.scenario,
            "in_region_ticks": self.in_region,
            "in_region_violations": self.in_region_violations,
            "precision": self.precision,
            "mean_violation_distance": self.mean_violation_distance,
            "mean_safe_distance": self.mean_safe_distance,
        })
    }
}

/// Figure 18 — Figure 17's template beside three other co-runners.
#[derive(Debug)]
pub struct TemplateValidation {
    /// Figure 17's template.
    pub template: Template,
    /// Beside soplex.
    pub soplex: RegionCheck,
    /// Beside Twitter-Analysis.
    pub twitter: RegionCheck,
    /// Beside VLC transcoding, a CPU-bound co-runner.
    pub vlc_transcode: RegionCheck,
}

/// Figure 18 — template validation (§7.3): the violation-states captured
/// beside CPUBomb "continue to correspond to violation" beside *different*
/// batch applications. The §6 claim is one of validity, not completeness —
/// "the batch application may never map a state in that violation-state,
/// but if the co-located execution were to map a state, it will be a
/// violation-state" — so this measures the template region's precision,
/// plus the looser area correspondence.
pub fn fig18_template_validation() -> TemplateValidation {
    let template = fig17_template_capture().template;
    let soplex = RegionCheck::measure(&template, &Scenario::vlc_with_soplex(18));
    let twitter = RegionCheck::measure(&template, &Scenario::vlc_with_twitter(18));
    // A CPU-bound co-runner, CPUBomb's contention channel.
    let transcode = Scenario::parse("vlc+vlc-transcode", 18).expect("known scenario");
    let vlc_transcode = RegionCheck::measure(&template, &transcode);
    TemplateValidation {
        template,
        soplex,
        twitter,
        vlc_transcode,
    }
}

impl TemplateValidation {
    /// Prints each co-runner's region check and writes the JSON artifact.
    pub fn print(&self) {
        println!("=== Figure 18: template validation across batch co-runners ===\n");
        println!(
            "template from Figure 17: {} states ({} violation-labelled)\n",
            self.template.len(),
            self.template.violation_count()
        );
        let soplex = self.soplex.print();
        let twitter = self.twitter.print();
        let transcode = self.vlc_transcode.print();
        println!(
            "states mapping into the Figure-17 violation region remain \
             violations with high precision under new co-runners (§6's \
             validity claim). Co-runners with a different contention channel \
             may never revisit the region — exactly the paper's \"B_B may \
             never map a state in that violation-state\" caveat."
        );
        ExperimentSink::new("fig18_template_validation").write(&serde_json::json!({
            "template_states": self.template.len(),
            "template_violations": self.template.violation_count(),
            "soplex": soplex,
            "twitter": twitter,
            "vlc_transcode": transcode,
        }));
    }
}
