//! `fleet-cold`: hundreds of short cold-start cells through `Fleet::run`.
//! Every cell grows its state map from nothing, so the map stage and the
//! `mds` growth path (append + SMACOF re-embed) dominate — the mirror
//! image of `host-steady`.

use super::{sub_seed, PassOutcome, Probe, Size, Trace, Workload};
use crate::clock::Laps;
use crate::layers::Layers;
use crate::spec::WORKERS;
use stay_away::fleet::cell::run_cell;
use stay_away::fleet::{CellOutcome, CellPlan, Fleet, FleetConfig, FleetOutcome};
use std::time::Instant;

/// Cells per fleet: three of each scenario of the mix, and one
/// `Fleet::run` — one work segment — is about 90 ms.
const CELLS: u64 = 12;

pub struct FleetCold {
    seed: u64,
    /// Fleets per pass, each under its own fleet seed.
    fleets: usize,
    cells: usize,
    ticks: u64,
}

impl FleetCold {
    pub fn new(seed: u64, size: Size) -> Self {
        FleetCold {
            seed,
            fleets: size.pick(24, 8, 1) as usize,
            cells: size.pick(CELLS, CELLS, 4) as usize,
            ticks: size.pick(384, 384, 96),
        }
    }

    /// `FleetConfig::new` is the standard 4-scenario mix, stay-away/KDE,
    /// sim source, 384 ticks per cell, no template sharing.
    fn config(&self, index: usize, workers: usize) -> FleetConfig {
        let mut config = FleetConfig::new(self.cells, workers, sub_seed(self.seed, index));
        config.ticks = self.ticks;
        config
    }

    fn run(
        &self,
        workers: usize,
        laps: &mut Laps,
        mut trace: Option<Trace<'_>>,
    ) -> Result<PassOutcome, String> {
        let mut out = PassOutcome::default();
        for index in 0..self.fleets {
            let fleet = laps
                .setup(|| Fleet::new(self.config(index, workers)))
                .map_err(|e| e.to_string())?;
            let outcome = laps.work(|| fleet.run()).map_err(|e| e.to_string())?;
            let before = out.digest;
            self.absorb(&mut out, &outcome);
            if let Some((tracer, layers)) = trace.as_mut() {
                // `Fleet::run` is sealed, so the breakdown comes from
                // replaying the same plans cell by cell, outside the laps.
                let cells = self.replay(fleet.config(), tracer, layers, &mut out)?;
                let clock = Instant::now();
                let replayed = FleetOutcome::aggregate(fleet.config(), &cells);
                layers.add("fleet.aggregate_s", clock.elapsed().as_secs_f64());
                let mut twin = PassOutcome {
                    digest: before,
                    ..PassOutcome::default()
                };
                self.absorb(&mut twin, &replayed);
                if twin.digest != out.digest {
                    out.fail(format!(
                        "fleet {index}: serial run_cell replay does not reproduce Fleet::run"
                    ));
                }
            }
        }
        Ok(out)
    }

    fn absorb(&self, out: &mut PassOutcome, fleet: &FleetOutcome) {
        out.requested += self.cells as u64 * self.ticks;
        out.completed += fleet.per_cell.len() as u64 * fleet.ticks_per_cell;
        out.pool_qos(&fleet.qos);
        out.batch_work += fleet.total_batch_work;
        let d = &mut out.digest;
        d.float(fleet.total_batch_work);
        d.float(fleet.mean_utilization);
        d.float(fleet.mean_gained_utilization);
        for word in [
            fleet.throttles,
            fleet.resumes,
            fleet.violations_predicted,
            fleet.prediction_checks,
            fleet.prediction_hits,
            fleet.events_dropped,
            fleet.samples_rejected,
            fleet.proactive_first_throttles as u64,
        ] {
            d.word(word);
        }
        for cell in &fleet.per_cell {
            for word in [
                cell.seed,
                cell.active_ticks,
                cell.violations,
                cell.throttles,
                cell.resumes,
                cell.states as u64,
            ] {
                d.word(word);
            }
            d.float(cell.batch_work);
        }
        out.count("cells", self.cells as f64);
        if fleet.cells_imported != 0 {
            out.fail(format!(
                "{} cells imported a template — the run is not a cold start",
                fleet.cells_imported
            ));
        }
    }

    /// Runs the plans `Fleet::run` builds for `config` — cell `i` runs
    /// scenario `i % mix` under the derived cell seed — one after the
    /// other, each a `fleet.cell` span, and folds their controllers into
    /// the per-layer table.
    fn replay(
        &self,
        config: &FleetConfig,
        tracer: &crate::trace::Tracer,
        layers: &mut Layers,
        out: &mut PassOutcome,
    ) -> Result<Vec<CellOutcome>, String> {
        let mut cells = Vec::with_capacity(config.cells);
        for idx in 0..config.cells {
            let plan = CellPlan::new(
                idx,
                config.fleet_seed,
                config.scenarios[idx % config.scenarios.len()].clone(),
                config.policies[0].clone(),
            )
            .with_metrics_collection(true);
            let cell = tracer
                .span("fleet.cell", || {
                    run_cell(&plan, &config.controller, None, config.ticks)
                })
                .map_err(|e| e.to_string())?;
            let periods = cell.run.timeline.len() as u64;
            if periods != config.ticks || cell.stats.periods != periods {
                out.fail(format!(
                    "cell {idx}: {periods} of {} periods completed",
                    config.ticks
                ));
            }
            out.faults += cell.run.rejected_actions + cell.stats.mapping_errors;
            if let Some(metrics) = &cell.metrics {
                layers.absorb_controller(&cell.stats, metrics);
            }
            cells.push(cell);
        }
        Ok(cells)
    }
}

impl Workload for FleetCold {
    /// Timed at one worker: see [`WORKERS`].
    fn pass(&self, laps: &mut Laps, trace: Option<Trace<'_>>) -> Result<PassOutcome, String> {
        self.run(1, laps, trace)
    }

    fn probes(&self) -> &'static [Probe] {
        &["two-workers"]
    }

    fn probe(&self, _: usize, laps: &mut Laps) -> Result<PassOutcome, String> {
        self.run(WORKERS, laps, None)
    }

    fn relate(&self, one_worker_s: f64, probes_s: &[f64], layers: &mut Layers) {
        layers.set("fleet.w1_over_w2", one_worker_s / probes_s[0]);
    }
}
