//! Per-execution-mode trajectory models and future-state prediction.
//!
//! §3.2.3: "no single prediction model can accurately model all the state
//! transitions" — each of the four execution modes keeps its own empirical
//! model of step length and absolute angle. The predictor draws a small set
//! of candidate future states (5 in the paper, ≥ 90 % accuracy) by
//! inverse-transform sampling from the current mode's distributions; a
//! majority of candidates inside a violation-range constitutes a predicted
//! violation.
//!
//! [`ModePredictor::pooled`] routes all modes to one model and exists for
//! the `ablation_modes` experiment.

use crate::dist::EmpiricalDistribution;
use crate::step::{wrap_angle, Step};
use crate::TrajectoryError;
use rand::Rng;
use stayaway_statespace::{ExecutionMode, Point2};

/// Minimum observations before a model is considered usable.
pub(crate) const DEFAULT_MIN_OBSERVATIONS: usize = 4;

/// Empirical model of one execution mode's trajectory.
#[derive(Debug, Clone, Default)]
pub struct TrajectoryModel {
    lengths: EmpiricalDistribution,
    angles: EmpiricalDistribution,
}

impl TrajectoryModel {
    /// Records one observed step.
    pub fn observe(&mut self, step: Step) {
        if !step.is_finite() {
            return;
        }
        self.lengths.observe(step.length);
        self.angles.observe(wrap_angle(step.angle));
    }

    /// True when enough steps have been seen to predict from.
    pub(crate) fn is_ready(&self) -> bool {
        self.lengths.len() >= DEFAULT_MIN_OBSERVATIONS
    }

    /// Draws one candidate step.
    ///
    /// # Errors
    ///
    /// Returns [`TrajectoryError::InsufficientData`] when no step has been
    /// observed yet.
    pub(crate) fn sample_step<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<Step, TrajectoryError> {
        let length = self.lengths.sample(rng)?.max(0.0);
        let angle = wrap_angle(self.angles.sample(rng)?);
        Ok(Step { length, angle })
    }

    /// Draws `n` candidate future positions starting from `current`,
    /// handing each to `visit` as it is drawn.
    fn for_each_candidate<R: Rng + ?Sized>(
        &self,
        current: Point2,
        n: usize,
        rng: &mut R,
        mut visit: impl FnMut(Point2),
    ) -> Result<(), TrajectoryError> {
        if !self.is_ready() {
            return Err(TrajectoryError::InsufficientData {
                required: DEFAULT_MIN_OBSERVATIONS,
                available: self.lengths.len(),
            });
        }
        for _ in 0..n {
            visit(self.sample_step(rng)?.apply(current));
        }
        Ok(())
    }

    /// Draws `n` candidate future positions starting from `current`.
    ///
    /// # Errors
    ///
    /// Returns [`TrajectoryError::InsufficientData`] when the model is not
    /// ready.
    pub fn predict_from<R: Rng + ?Sized>(
        &self,
        current: Point2,
        n: usize,
        rng: &mut R,
    ) -> Result<Prediction, TrajectoryError> {
        let mut candidates = Vec::with_capacity(n);
        self.for_each_candidate(current, n, rng, |c| candidates.push(c))?;
        Ok(Prediction { candidates })
    }

    /// Draws the `n` candidates [`predict_from`](Self::predict_from) would
    /// and counts those satisfying `inside`, without storing them.
    fn vote_from<R: Rng + ?Sized>(
        &self,
        current: Point2,
        n: usize,
        rng: &mut R,
        mut inside: impl FnMut(Point2) -> bool,
    ) -> Result<usize, TrajectoryError> {
        let mut votes = 0;
        self.for_each_candidate(current, n, rng, |c| votes += usize::from(inside(c)))?;
        Ok(votes)
    }
}

/// A set of candidate future states modelling the uncertainty of the next
/// mapped state.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    candidates: Vec<Point2>,
}

impl Prediction {
    /// The candidate future states.
    pub fn candidates(&self) -> &[Point2] {
        &self.candidates
    }
}

/// The trajectory models behind a forecast: one [`TrajectoryModel`] per
/// execution mode — the paper's design — or, from
/// [`pooled`](ModePredictor::pooled), one model every mode shares (the
/// ablation baseline §3.2.3 argues against).
#[derive(Debug, Clone)]
pub struct ModePredictor {
    models: [TrajectoryModel; 4],
    per_mode: bool,
}

impl Default for ModePredictor {
    fn default() -> Self {
        ModePredictor::new()
    }
}

impl ModePredictor {
    /// Creates a predictor with empty per-mode models.
    pub fn new() -> Self {
        ModePredictor {
            models: Default::default(),
            per_mode: true,
        }
    }

    /// Creates a predictor whose modes all share one empty model.
    pub fn pooled() -> Self {
        ModePredictor {
            per_mode: false,
            ..ModePredictor::new()
        }
    }

    /// The slot `mode` observes into and predicts from.
    fn slot(&self, mode: ExecutionMode) -> usize {
        if self.per_mode {
            mode.index()
        } else {
            0
        }
    }

    /// Borrow the model of `mode` (the shared one when pooled).
    pub(crate) fn model(&self, mode: ExecutionMode) -> &TrajectoryModel {
        &self.models[self.slot(mode)]
    }

    /// Records an observed transition in `mode`.
    pub fn observe(&mut self, mode: ExecutionMode, step: Step) {
        self.models[self.slot(mode)].observe(step);
    }

    /// Predicts `n` candidate future states from `current` under `mode`.
    /// Returns `None` while the relevant model is still warming up.
    pub fn predict<R: Rng + ?Sized>(
        &self,
        mode: ExecutionMode,
        current: Point2,
        n: usize,
        rng: &mut R,
    ) -> Option<Prediction> {
        self.model(mode).predict_from(current, n, rng).ok()
    }

    /// Draws the same `n` candidates as [`predict`](Self::predict) and
    /// counts those satisfying `inside`, without storing them — the
    /// per-period voting path.
    pub fn vote<R: Rng + ?Sized>(
        &self,
        mode: ExecutionMode,
        current: Point2,
        n: usize,
        rng: &mut R,
        inside: impl FnMut(Point2) -> bool,
    ) -> Option<usize> {
        self.model(mode).vote_from(current, n, rng, inside).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn feed_eastward(model: &mut TrajectoryModel, n: usize) {
        for i in 0..n {
            model.observe(Step {
                length: 0.1 + 0.01 * (i % 3) as f64,
                angle: 0.05 * ((i % 5) as f64 - 2.0),
            });
        }
    }

    #[test]
    fn model_warms_up() {
        let mut m = TrajectoryModel::default();
        assert!(!m.is_ready());
        feed_eastward(&mut m, DEFAULT_MIN_OBSERVATIONS);
        assert!(m.is_ready());
        assert_eq!(m.lengths.len(), DEFAULT_MIN_OBSERVATIONS);
    }

    #[test]
    fn prediction_moves_in_learned_direction() {
        let mut m = TrajectoryModel::default();
        feed_eastward(&mut m, 100);
        let mut rng = StdRng::seed_from_u64(5);
        let p = m.predict_from(Point2::origin(), 50, &mut rng).unwrap();
        // Eastward steps: mean predicted x must be positive, |y| small.
        let mean_x: f64 =
            p.candidates().iter().map(|c| c.x).sum::<f64>() / p.candidates().len() as f64;
        let mean_y: f64 =
            p.candidates().iter().map(|c| c.y).sum::<f64>() / p.candidates().len() as f64;
        assert!(mean_x > 0.05, "mean_x = {mean_x}");
        assert!(mean_y.abs() < 0.05, "mean_y = {mean_y}");
    }

    #[test]
    fn unready_model_refuses_to_predict() {
        let m = TrajectoryModel::default();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            m.predict_from(Point2::origin(), 5, &mut rng),
            Err(TrajectoryError::InsufficientData { .. })
        ));
    }

    #[test]
    fn non_finite_steps_are_ignored() {
        let mut m = TrajectoryModel::default();
        m.observe(Step {
            length: f64::NAN,
            angle: 0.0,
        });
        assert_eq!(m.lengths.len(), 0);
    }

    #[test]
    fn sampled_lengths_are_non_negative() {
        let mut m = TrajectoryModel::default();
        for _ in 0..20 {
            m.observe(Step {
                length: 0.001,
                angle: 0.0,
            });
        }
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            assert!(m.sample_step(&mut rng).unwrap().length >= 0.0);
        }
    }

    #[test]
    fn mode_predictor_keeps_modes_separate() {
        let mut p = ModePredictor::new();
        // CoLocated gets eastward steps, SensitiveOnly gets northward.
        for _ in 0..50 {
            p.observe(
                ExecutionMode::CoLocated,
                Step {
                    length: 0.2,
                    angle: 0.0,
                },
            );
            p.observe(
                ExecutionMode::SensitiveOnly,
                Step {
                    length: 0.2,
                    angle: std::f64::consts::FRAC_PI_2,
                },
            );
        }
        let mut rng = StdRng::seed_from_u64(9);
        let co = p
            .predict(ExecutionMode::CoLocated, Point2::origin(), 20, &mut rng)
            .unwrap();
        let sens = p
            .predict(ExecutionMode::SensitiveOnly, Point2::origin(), 20, &mut rng)
            .unwrap();
        let co_x: f64 = co.candidates().iter().map(|c| c.x).sum::<f64>() / 20.0;
        let sens_y: f64 = sens.candidates().iter().map(|c| c.y).sum::<f64>() / 20.0;
        assert!(co_x > 0.1);
        assert!(sens_y > 0.1);
        // Idle has no data.
        assert!(p
            .predict(ExecutionMode::Idle, Point2::origin(), 5, &mut rng)
            .is_none());
    }

    #[test]
    fn pooled_predictor_pools_everything() {
        let mut p = ModePredictor::pooled();
        for _ in 0..10 {
            p.observe(
                ExecutionMode::CoLocated,
                Step {
                    length: 0.1,
                    angle: 0.0,
                },
            );
        }
        let mut rng = StdRng::seed_from_u64(4);
        // Any mode predicts, because the pool is shared.
        assert!(p
            .predict(ExecutionMode::Idle, Point2::origin(), 5, &mut rng)
            .is_some());
        assert_eq!(p.model(ExecutionMode::Idle).lengths.len(), 10);
    }
}
