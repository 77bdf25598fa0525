//! The fleet runtime: a sharded multi-host control plane.
//!
//! The paper's controller protects one sensitive application on one host.
//! At production scale the same mechanism runs on *many* hosts at once:
//! each **cell** is one independent co-location experiment — a
//! [`stayaway_sim::Harness`] closed loop driven by its own
//! [`stayaway_core::ControlPolicy`] (the staged Stay-Away controller or
//! any baseline, selected per cell via [`PolicySpec`]) — and the fleet
//! runtime executes N cells concurrently over a fixed worker pool. A fleet
//! crosses its source, predictor, policy and scenario lists into one cell
//! matrix ([`FleetConfig`]), so a Stay-Away cohort and its control group
//! run the same co-locations in one experiment; the rollup reports
//! per-policy and per-predictor aggregates alongside the fleet totals.
//! Predictors are plain [`stayaway_core::PredictorKind`]s, parsed from the
//! CLI's comma list by [`predictor::parse_list`].
//!
//! Three properties define the design:
//!
//! * **Determinism regardless of worker count.** Every cell derives its
//!   seed from `(fleet_seed, cell_idx)` via a splitmix64 mix
//!   ([`derive_cell_seed`]), cells never share mutable state while running,
//!   and aggregation folds cell results in cell-index order — so
//!   `workers = 1` and `workers = 8` produce bit-identical
//!   [`FleetOutcome`]s.
//! * **Cross-host template transfer.** The paper's §6 observation —
//!   specialized knowledge captured on one deployment warm-starts a fresh
//!   one — pays off at fleet scale: pioneer cells publish their learned
//!   [`stayaway_statespace::Template`]s into a shared [`TemplateRegistry`]
//!   and every later cell of the same sensitive workload imports the best
//!   match before its first tick, throttling proactively on first contact.
//!   Sharing is phased (pioneers → barrier → followers) precisely so the
//!   registry contents a cell observes do not depend on thread scheduling.
//! * **Constant-memory cells.** A controller retains decisions only in
//!   the bounded [`stayaway_obs::FlightRecorder`] a cell attaches when
//!   [`FleetConfig::collect_events`] is set, so week-long fleet runs do
//!   not grow without limit; evictions are surfaced in the fleet rollup.
//!
//! ```
//! use stayaway_fleet::{Fleet, FleetConfig};
//!
//! # fn main() -> Result<(), stayaway_fleet::FleetError> {
//! let mut config = FleetConfig::new(8, 2, 7);
//! config.ticks = 120;
//! config.share_templates = true;
//! let outcome = Fleet::new(config)?.run()?;
//! assert_eq!(outcome.per_cell.len(), 8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
pub mod cell;
pub mod cluster;
mod config;
mod policy;
pub mod predictor;
mod registry;
pub mod report;
mod runner;
mod seed;
mod source;
mod tournament;

mod error;
mod pool;

pub use aggregate::{CellSummary, FleetOutcome, PredictorRollup};
pub use cell::{CellOutcome, CellPlan};
pub use cluster::{
    cluster_by_name, cluster_library, derive_job_seed, Cluster, ClusterConfig, ClusterOutcome,
    ClusterPolicySpec, ClusterScenario, HostRollup, HostSnapshot, JobRollup, JobSpec, JobView,
};
pub use config::FleetConfig;
pub use error::FleetError;
pub use policy::PolicySpec;
pub use registry::{RegistryEntry, TemplateRegistry};
pub use runner::Fleet;
pub use seed::derive_cell_seed;
pub use source::SourceSpec;
pub use tournament::{
    run_tournament, MeanCi, ScenarioScore, Standing, TournamentConfig, TournamentOutcome,
};

/// The `--policy` / `--source` / `--predictor` list grammar: comma-split,
/// blanks skipped, each token `parse`d, an empty list rejected.
fn parse_comma_list<T>(
    tokens: &str,
    what: &str,
    parse: impl Fn(&str) -> Result<T, FleetError>,
) -> Result<Vec<T>, FleetError> {
    let items: Vec<T> = tokens
        .split(',')
        .filter(|t| !t.trim().is_empty())
        .map(parse)
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err(FleetError::InvalidConfig {
            reason: format!("{what} list must not be empty"),
        });
    }
    Ok(items)
}
