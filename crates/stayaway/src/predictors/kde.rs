//! The paper's predictor: per-mode trajectory models with KDE sampling.

use super::{Forecast, Predictor, PredictorKind, VerdictLedger};
use crate::stages::map::MapStage;
use crate::stages::sense::Sensed;
use crate::CoreError;
use rand::rngs::StdRng;
use stayaway_statespace::{ExecutionMode, Point2};
use stayaway_trajectory::{
    ModePredictor, Predictor as TrajectorySampler, SingleModelPredictor, Step,
};

/// Either of the two trajectory-model designs, selected by
/// [`crate::ControllerConfig::per_mode_models`].
// One long-lived instance per controller: the size difference between the
// variants is irrelevant, so no boxing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum AnyModel {
    PerMode(ModePredictor),
    Single(SingleModelPredictor),
}

impl AnyModel {
    fn observe(&mut self, mode: ExecutionMode, step: Step) {
        match self {
            AnyModel::PerMode(p) => p.observe(mode, step),
            AnyModel::Single(p) => p.observe(mode, step),
        }
    }

    fn vote(
        &self,
        mode: ExecutionMode,
        current: Point2,
        n: usize,
        rng: &mut StdRng,
        inside: &mut dyn FnMut(Point2) -> bool,
    ) -> Option<usize> {
        match self {
            AnyModel::PerMode(p) => p.vote(mode, current, n, rng, inside),
            AnyModel::Single(p) => p.vote(mode, current, n, rng, inside),
        }
    }
}

/// The reference prediction plane — the paper's §3.2.3 design.
///
/// Each observed transition becomes a [`Step`] attributed to the sensed
/// execution mode's trajectory model; a forecast draws
/// `prediction_samples` candidate future states by KDE inverse-transform
/// sampling and votes them against the map's violation-ranges. Pinned
/// bit-for-bit to the pre-refactor golden fixture: this file is the old
/// `PredictStage` body routed through the [`Predictor`] trait unchanged.
#[derive(Debug)]
pub struct KdePredictor {
    model: AnyModel,
    samples: usize,
    ledger: VerdictLedger,
}

impl KdePredictor {
    /// Creates the predictor: one model per execution mode (the paper's
    /// design) or a single pooled model (ablation), drawing `samples`
    /// candidates per forecast.
    pub fn new(per_mode_models: bool, samples: usize) -> Self {
        let model = if per_mode_models {
            AnyModel::PerMode(ModePredictor::new())
        } else {
            AnyModel::Single(SingleModelPredictor::new())
        };
        KdePredictor {
            model,
            samples,
            ledger: VerdictLedger::default(),
        }
    }
}

impl Predictor for KdePredictor {
    fn kind(&self) -> PredictorKind {
        PredictorKind::Kde
    }

    fn verify(&mut self, map: &MapStage, rep: usize, point: Point2) -> Option<bool> {
        self.ledger.verify(map, rep, point)
    }

    fn observe(
        &mut self,
        map: &MapStage,
        rep: usize,
        point: Point2,
        sensed: &Sensed,
    ) -> Result<(), CoreError> {
        if let Some((prev_rep, _)) = self.ledger.prev() {
            let step = Step::between(map.point_of(prev_rep)?, point);
            self.model.observe(sensed.mode, step);
        }
        self.ledger.advance(rep, sensed.mode);
        Ok(())
    }

    fn forecast(
        &mut self,
        map: &MapStage,
        sensed: &Sensed,
        point: Point2,
        rng: &mut StdRng,
    ) -> Option<Forecast> {
        let votes = self
            .model
            .vote(sensed.mode, point, self.samples, rng, &mut |c| {
                map.in_violation_range(c)
            })?;
        let predicted_violation = 2 * votes > self.samples;
        self.ledger.record(predicted_violation);
        Some(Forecast {
            predicted_violation,
            votes,
            samples: self.samples,
        })
    }

    fn cancel_verdict(&mut self) {
        self.ledger.cancel();
    }

    fn current_state(&self) -> Option<usize> {
        self.ledger.current_state()
    }
}
