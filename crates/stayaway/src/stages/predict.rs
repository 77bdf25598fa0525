//! Stage 3 — Predict: the verdict ledger around one prediction plane.
//!
//! A plane ([`crate::predictors::Predictor`]) only observes and
//! forecasts. Everything about *when* a forecast is checked is the same
//! for every plane and lives here, once per controller, in the stage's
//! `VerdictLedger`:
//!
//! * the **cursor** — the representative and mode of the most recent
//!   observation — advances only after the plane accepted that
//!   observation, and is handed to the plane as its previous state;
//! * a forecast becomes the **pending verdict** only when the plane gave
//!   one (`None` while it warms up records nothing);
//! * the pending verdict is resolved against the state actually reached
//!   at the start of the next period, or dropped by
//!   [`cancel_verdict`](PredictStage::cancel_verdict) when a throttle
//!   consumed it.
//!
//! The plane itself is the one [`crate::ControllerConfig::predictor`]
//! selects (`kde`, `xapp`, `denoise`, `last-tick`).

use super::map::MapStage;
use super::sense::Sensed;
use crate::config::ControllerConfig;
use crate::predictors::{Predictor, PredictorKind, PredictorStats};
use crate::CoreError;
use rand::rngs::StdRng;
use stayaway_statespace::{ExecutionMode, Point2};

pub use crate::predictors::Forecast;

/// The previous-state cursor driving step attribution, and the pending
/// verdict measured against the actually reached next state.
#[derive(Debug, Default)]
struct VerdictLedger {
    cursor: Option<(usize, ExecutionMode)>,
    pending: Option<bool>,
}

/// The prediction stage: the configured [`Predictor`] and its ledger.
pub struct PredictStage {
    predictor: Box<dyn Predictor>,
    ledger: VerdictLedger,
}

impl std::fmt::Debug for PredictStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictStage")
            .field("predictor", &self.predictor.kind().name())
            .field("ledger", &self.ledger)
            .finish()
    }
}

impl PredictStage {
    /// Creates the stage with the predictor the configuration selects
    /// ([`ControllerConfig::predictor`], tuned by `per_mode_models` and
    /// `prediction_samples` where the plane consults them).
    pub fn new(config: &ControllerConfig) -> Self {
        PredictStage {
            predictor: config.predictor.build(config),
            ledger: VerdictLedger::default(),
        }
    }

    /// Which prediction plane this stage runs.
    pub fn kind(&self) -> PredictorKind {
        self.predictor.kind()
    }

    /// Checks the previous period's forecast against the state actually
    /// reached. Returns `Some(hit)` when a verdict was pending.
    pub fn verify(&mut self, map: &MapStage, rep: usize, point: Point2) -> Option<bool> {
        let predicted_in_range = self.ledger.pending.take()?;
        let actually_in_range =
            map.is_violation_state(rep) || map.state_map().in_violation_range(point);
        Some(predicted_in_range == actually_in_range)
    }

    /// Feeds this period's mapped observation into the predictor's model,
    /// then advances the previous-state cursor to it.
    ///
    /// # Errors
    ///
    /// Propagates the predictor's position lookups; the cursor stays
    /// where it was.
    pub fn track(
        &mut self,
        map: &MapStage,
        rep: usize,
        point: Point2,
        sensed: &Sensed,
    ) -> Result<(), CoreError> {
        self.predictor
            .observe(map, self.ledger.cursor, rep, point, sensed)?;
        self.ledger.cursor = Some((rep, sensed.mode));
        Ok(())
    }

    /// Forecasts the next co-located state's violation verdict and keeps
    /// it for next period's accuracy check. `None` while the predictor is
    /// still warming up.
    pub fn forecast(
        &mut self,
        map: &MapStage,
        sensed: &Sensed,
        point: Point2,
        rng: &mut StdRng,
    ) -> Option<Forecast> {
        let forecast = self
            .predictor
            .forecast(map, self.current_state(), sensed, point, rng)?;
        self.ledger.pending = Some(forecast.predicted_violation);
        Some(forecast)
    }

    /// Drops the pending verdict: a throttle consumed the prediction, so
    /// its next state will not be observed under co-location.
    pub fn cancel_verdict(&mut self) {
        self.ledger.pending = None;
    }

    /// The representative the most recent observation mapped to.
    pub fn current_state(&self) -> Option<usize> {
        self.ledger.cursor.map(|(rep, _)| rep)
    }

    /// The predictor's self-reported counters.
    pub fn predictor_stats(&self) -> PredictorStats {
        self.predictor.stats()
    }

    /// Notifies the predictor that the map warm-started from a template.
    pub fn on_template_imported(&mut self, map: &MapStage) {
        self.predictor.on_template_imported(map);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::MappingMetrics;
    use rand::SeedableRng;
    use stayaway_telemetry::{HostSpec, ResourceKind};

    /// A one-metric map with one ingested state, that state's `Sensed`
    /// and mapping, and the stage of plane `kind` over it.
    fn stage_over_one_state(
        kind: PredictorKind,
    ) -> (PredictStage, MapStage, Sensed, usize, Point2) {
        let config = ControllerConfig {
            metrics: vec![ResourceKind::Cpu],
            predictor: kind,
            ..ControllerConfig::default()
        };
        let mut map =
            MapStage::new(&config, &HostSpec::default(), MappingMetrics::default()).unwrap();
        let sensed = Sensed {
            tick: 0,
            mode: ExecutionMode::CoLocated,
            violated: false,
            raw: vec![1.0, 2.0],
            rejected: 0,
        };
        let mapped = map.ingest(&sensed).unwrap();
        (
            PredictStage::new(&config),
            map,
            sensed,
            mapped.rep,
            mapped.point,
        )
    }

    #[test]
    fn a_none_forecast_records_no_verdict() {
        // The KDE's model has seen no step yet: it is still warming up.
        let (mut stage, map, sensed, rep, point) = stage_over_one_state(PredictorKind::Kde);
        let mut rng = StdRng::seed_from_u64(1);
        stage.track(&map, rep, point, &sensed).unwrap();
        assert!(stage.forecast(&map, &sensed, point, &mut rng).is_none());
        assert_eq!(stage.verify(&map, rep, point), None);
    }

    #[test]
    fn a_failing_observe_leaves_the_cursor_where_it_was() {
        let (mut stage, map, sensed, rep, point) = stage_over_one_state(PredictorKind::Kde);
        // No previous state, so nothing is looked up: a representative the
        // map does not hold is accepted and becomes the cursor...
        let missing = map.repr_count() + 5;
        stage.track(&map, missing, point, &sensed).unwrap();
        assert_eq!(stage.current_state(), Some(missing));
        // ...and the next observation fails on its position, without
        // moving the cursor to the state that was not learned from.
        assert!(stage.track(&map, rep, point, &sensed).is_err());
        assert_eq!(stage.current_state(), Some(missing));
    }

    #[test]
    fn cancel_verdict_drops_exactly_the_pending_verdict() {
        let (mut stage, map, sensed, rep, point) = stage_over_one_state(PredictorKind::LastTick);
        let mut rng = StdRng::seed_from_u64(1);
        stage.track(&map, rep, point, &sensed).unwrap();
        // A kept verdict is resolved once, by the next verify.
        assert!(stage.forecast(&map, &sensed, point, &mut rng).is_some());
        assert_eq!(stage.verify(&map, rep, point), Some(true));
        assert_eq!(stage.verify(&map, rep, point), None);
        // A cancelled one is never resolved; the cursor is untouched.
        assert!(stage.forecast(&map, &sensed, point, &mut rng).is_some());
        stage.cancel_verdict();
        assert_eq!(stage.verify(&map, rep, point), None);
        assert_eq!(stage.current_state(), Some(rep));
    }
}
