//! Experiment harness for the Stay-Away reproduction.
//!
//! Every paper result — fig01 and fig04–fig18, Table 1, the in-text
//! claims, the ablations and the extensions; `DESIGN.md` §4 is the index —
//! is one function in [`figures`] that returns what it measured as a typed
//! value. `cargo bench -p stayaway-bench --bench paper [-- <id>…]` prints
//! them: the series and rows the paper plots, plus JSON (and, for the
//! state-map snapshots, SVG) artifacts under `target/experiments/`.
//! `tests/figure_shapes.rs` asserts each result's shape through the same
//! functions, and `EXPERIMENTS.md` records paper-vs-measured. Timing is
//! not here but in the perf ledger under `benchmarks/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
mod report;
mod runner;

pub use runner::PolicyRun;
