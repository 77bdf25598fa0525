//! Trivial oracle baseline: the next tick repeats the last tick.

use super::{Forecast, Predictor, PredictorKind};
use crate::stages::map::MapStage;
use crate::stages::sense::Sensed;
use crate::CoreError;
use rand::rngs::StdRng;
use stayaway_statespace::{ExecutionMode, Point2};

/// The `last-tick` baseline every learned predictor must beat: it
/// predicts a violation for the next co-located state exactly when the
/// *current* one violates — observed violation, a violation-labelled
/// representative, or a position inside a violation-range. No model, no
/// learning, no RNG; purely the persistence forecast.
#[derive(Debug, Default)]
pub(crate) struct LastTickPredictor;

impl LastTickPredictor {
    /// Creates the baseline.
    pub(crate) fn new() -> Self {
        LastTickPredictor
    }
}

impl Predictor for LastTickPredictor {
    fn kind(&self) -> PredictorKind {
        PredictorKind::LastTick
    }

    fn observe(
        &mut self,
        _map: &MapStage,
        _prev: Option<(usize, ExecutionMode)>,
        _rep: usize,
        _point: Point2,
        _sensed: &Sensed,
    ) -> Result<(), CoreError> {
        Ok(())
    }

    fn forecast(
        &mut self,
        map: &MapStage,
        rep: Option<usize>,
        sensed: &Sensed,
        point: Point2,
        _rng: &mut StdRng,
    ) -> Option<Forecast> {
        let current_violates = sensed.violated
            || map.state_map().in_violation_range(point)
            || rep.is_some_and(|rep| map.is_violation_state(rep));
        Some(Forecast {
            predicted_violation: current_violates,
            votes: usize::from(current_violates),
            samples: 1,
        })
    }
}
