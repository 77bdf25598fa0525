//! The paper's results, one function each.
//!
//! `figures::<id>()` runs one experiment of `DESIGN.md` §4 — a figure, the
//! table, an in-text claim, an ablation or an extension — and returns what
//! it measured as a typed value. That value's `print` writes the rows and
//! charts the paper plots, and the `target/experiments/<id>.*` artifacts.
//! The `paper` bench target prints the entries of [`ALL`]; the predicates
//! of `tests/figure_shapes.rs` assert the shape of the same values, so each
//! experiment's scenario, seed and horizon are written down once, here.

mod ablations;
mod claims;
mod evaluation;
mod extensions;
mod mechanism;
mod templates;

pub use ablations::*;
pub use claims::*;
pub use evaluation::*;
pub use extensions::*;
pub use mechanism::*;
pub use templates::*;

use crate::report::Table;
use crate::runner::{experiments_dir, run, stayaway, PolicyRun};
use stayaway_core::{Controller, ControllerConfig};
use stayaway_sim::scenario::Scenario;
use stayaway_sim::{NullPolicy, RunOutcome};
use stayaway_statespace::viz::MapRenderer;
use stayaway_statespace::StateKind;

/// `[(id, print)]` with each id the name of the function it calls, so the
/// two cannot drift apart. Entries are written as the calls they make.
macro_rules! results {
    ($($id:ident()),+ $(,)?) => {
        [$((stringify!($id), (|| $id().print()) as fn())),+]
    };
}

/// Every result by id — the ids `cargo bench -p stayaway-bench --bench
/// paper -- <id>…` selects — with the function that measures and prints it.
pub const ALL: [(&str, fn()); 29] = results![
    fig01_wikipedia_trace(),
    fig04_violation_radius(),
    fig05_execution_modes(),
    fig06_instantaneous_transitions(),
    fig07_gradual_transitions(),
    fig08_vlc_cpubomb_qos(),
    fig09_vlc_twitter_qos(),
    fig10_util_cpubomb(),
    fig11_util_twitter(),
    fig12_util_webservice(),
    fig13_timeline_webservice(),
    fig14_qos_web_mix(),
    fig15_qos_web_cpu(),
    fig16_qos_web_mem(),
    fig17_template_capture(),
    fig18_template_validation(),
    table1_batch_combinations(),
    claim_prediction_accuracy(),
    claim_utilization_range(),
    claim_2d_stress(),
    ablation_modes(),
    ablation_range(),
    ablation_samples(),
    ablation_pca(),
    ablation_var(),
    ablation_ipc(),
    ablation_dedup(),
    ext_priorities(),
    ext_template_sharing(),
];

/// The result of a paired (no-prevention vs Stay-Away) run.
#[derive(Debug)]
pub struct PairedRuns {
    /// The unprotected run.
    pub baseline: RunOutcome,
    /// The Stay-Away-protected run.
    pub stayaway: PolicyRun<Controller>,
    /// The host's CPU cores, the unit gained utilisation is counted in.
    pub cpu_cores: f64,
}

impl PairedRuns {
    /// Mean gained utilisation `(without, with)` Stay-Away, as a fraction
    /// of the machine.
    pub fn gains(&self) -> (f64, f64) {
        (
            self.baseline.mean_gained_utilization(self.cpu_cores),
            self.stayaway
                .outcome
                .mean_gained_utilization(self.cpu_cores),
        )
    }

    /// The fraction of the possible gain Stay-Away keeps; 0 when there was
    /// none to keep.
    pub fn retained(&self) -> f64 {
        let (upper, lower) = self.gains();
        if upper > 0.0 {
            lower / upper
        } else {
            0.0
        }
    }
}

/// Runs the same scenario with and without Stay-Away.
fn paired_runs(scenario: &Scenario, ticks: u64) -> PairedRuns {
    let baseline = run(scenario, NullPolicy::new(), ticks).outcome;
    let stayaway = run(
        scenario,
        stayaway(scenario, ControllerConfig::default()),
        ticks,
    );
    let cpu_cores = scenario.host_spec().cpu_cores;
    PairedRuns {
        baseline,
        stayaway,
        cpu_cores,
    }
}

/// The mapped states of `ctl` as the snapshot tables of Figures 6, 7 and
/// 17 list them; Figure 6 adds the execution mode each state was first
/// seen in.
fn state_table(ctl: &Controller, first_mode: bool) -> String {
    let mut header = vec!["state", "position", "kind", "visits"];
    if first_mode {
        header.push("first mode");
    }
    let mut table = Table::new(&header);
    for rep in 0..ctl.repr_count() {
        let e = ctl.state_map().entry(rep).expect("entry exists");
        let kind = match e.kind() {
            StateKind::Violation => "VIOLATION",
            StateKind::Safe => "safe",
        };
        let mut row = vec![
            format!("S{rep}"),
            e.point().to_string(),
            kind.to_string(),
            e.visits().to_string(),
        ];
        if first_mode {
            row.push(e.first_mode().to_string());
        }
        table.row(&row);
    }
    table.render()
}

/// Writes `target/experiments/<id>.svg`, the paper's scatter-plot view of
/// a state map.
fn save_svg(id: &str, renderer: MapRenderer<'_>) {
    let path = experiments_dir().join(format!("{id}.svg"));
    std::fs::create_dir_all(path.parent().expect("parent")).expect("dir");
    renderer.save(&path).expect("svg save");
    println!("[artifact] {}", path.display());
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
