//! The paper's predictor: per-mode trajectory models sampled by
//! inverse-transform from windowed step histograms.

use super::{Forecast, Predictor, PredictorKind};
use crate::stages::map::MapStage;
use crate::stages::sense::Sensed;
use crate::CoreError;
use rand::rngs::StdRng;
use stayaway_statespace::{ExecutionMode, Point2};
use stayaway_trajectory::{ModePredictor, Step};

/// The reference prediction plane — the paper's §3.2.3 design.
///
/// Each observed transition becomes a [`Step`] attributed to the sensed
/// execution mode's trajectory model (one per mode, or one pooled model
/// when [`crate::ControllerConfig::per_mode_models`] is off); a forecast
/// draws `prediction_samples` candidate future states and votes them
/// against the map's violation-ranges. A candidate is drawn by inverting
/// the CDF of the windowed step-length and angle *histograms* with linear
/// interpolation inside a bin — the name `kde` is the paper's; no kernel
/// density estimate smooths the histograms on this path (ROADMAP `[judge]`
/// records the gap). Pinned bit-for-bit to the golden fixture.
#[derive(Debug)]
pub(crate) struct KdePredictor {
    model: ModePredictor,
    samples: usize,
}

impl KdePredictor {
    /// Creates the predictor: one model per execution mode (the paper's
    /// design) or a single pooled model (ablation), drawing `samples`
    /// candidates per forecast.
    pub(crate) fn new(per_mode_models: bool, samples: usize) -> Self {
        let model = if per_mode_models {
            ModePredictor::new()
        } else {
            ModePredictor::pooled()
        };
        KdePredictor { model, samples }
    }
}

impl Predictor for KdePredictor {
    fn kind(&self) -> PredictorKind {
        PredictorKind::Kde
    }

    fn observe(
        &mut self,
        map: &MapStage,
        prev: Option<(usize, ExecutionMode)>,
        _rep: usize,
        point: Point2,
        sensed: &Sensed,
    ) -> Result<(), CoreError> {
        if let Some((prev_rep, _)) = prev {
            let step = Step::between(map.point_of(prev_rep)?, point);
            self.model.observe(sensed.mode, step);
        }
        Ok(())
    }

    fn forecast(
        &mut self,
        map: &MapStage,
        _rep: Option<usize>,
        sensed: &Sensed,
        point: Point2,
        rng: &mut StdRng,
    ) -> Option<Forecast> {
        let votes = self
            .model
            .vote(sensed.mode, point, self.samples, rng, |c| {
                map.state_map().in_violation_range(c)
            })?;
        Some(Forecast {
            predicted_violation: 2 * votes > self.samples,
            votes,
            samples: self.samples,
        })
    }
}
