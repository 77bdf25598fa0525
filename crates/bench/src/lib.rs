//! Experiment harness for the Stay-Away reproduction.
//!
//! One bench target per table/figure of the paper (see `DESIGN.md` §4 for
//! the full index); `cargo bench -p stayaway-bench` regenerates all of
//! them, printing the series the paper plots and writing JSON artifacts
//! under `target/experiments/`. `EXPERIMENTS.md` records paper-vs-measured
//! for each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod report;
pub mod runner;

pub use figures::{
    gained_utilization_figure, paired_runs, prediction_accuracy_scenarios, qos_timeline_figure,
    stress_elbow_scenarios, throttle_split, PairedRuns,
};
pub use report::{ascii_chart, sparkline, Table};
pub use runner::{experiments_dir, outcome_json, run, stayaway, ExperimentSink, PolicyRun};
