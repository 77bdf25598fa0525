//! The swappable prediction plane.
//!
//! Stay-Away's core contribution is the *prediction* step — forecasting
//! whether the next co-located state lands in a violation region of the
//! embedded state map. This module makes that step a first-class,
//! swappable layer: the object-safe [`Predictor`] trait — `observe` and
//! `forecast` — is the contract every forecaster implements, and the
//! controller's [`crate::stages::PredictStage`] holds one boxed
//! implementation selected by [`crate::ControllerConfig::predictor`]
//! together with the verdict ledger every plane shares (cursor, pending
//! verdict, verify, cancel-on-throttle).
//!
//! Four predictors ship behind the trait:
//!
//! * [`KdePredictor`] — the paper's design (§3.2.3): per-mode trajectory
//!   models, inverse-transform sampling from their windowed step
//!   histograms and majority voting. This is the *reference
//!   implementation*: routed through the trait it is pinned
//!   **bit-for-bit** to the golden fixture.
//! * [`XAppPredictor`] — a quantitative cross-application interference
//!   scorer in the spirit of Alves & Drummond: per-resource contention
//!   features feed an online-learned scalar slowdown estimate, and a
//!   threshold on that estimate is the verdict.
//! * [`DenoisePredictor`] — an Alioth-style learned interference
//!   monitor: the observation vector is median-filtered and EMA-smoothed
//!   *before* consulting the map, and a violation threshold is learned
//!   from the recent pressure history.
//! * [`LastTickPredictor`] — the trivial `last-tick` oracle baseline:
//!   tomorrow looks like today.
//!
//! # Determinism contract
//!
//! Implementations must be deterministic functions of their observation
//! history and the *borrowed* RNG handed into [`Predictor::forecast`]
//! (the controller's single seeded stream). They must not own interior
//! randomness, read clocks, or keep state keyed on addresses — two
//! predictors fed the same observations and RNG stream must produce
//! identical verdicts. Non-finite inputs must be sanitised (and counted
//! in [`PredictorStats::rejected`]), never propagated: every verdict is
//! finite and NaN-free by construction.

use crate::config::ControllerConfig;
use crate::stages::map::MapStage;
use crate::stages::sense::Sensed;
use crate::CoreError;
use rand::rngs::StdRng;
use stayaway_statespace::{ExecutionMode, Point2};

mod denoise;
mod kde;
mod last_tick;
mod xapp;

pub(crate) use denoise::DenoisePredictor;
pub(crate) use kde::KdePredictor;
pub(crate) use last_tick::LastTickPredictor;
pub(crate) use xapp::XAppPredictor;

/// One period's violation forecast — the verdict every predictor returns.
#[derive(Debug, Clone, Copy)]
pub struct Forecast {
    /// The predictor's verdict: the next co-located state violates.
    pub(crate) predicted_violation: bool,
    /// Evidence in favour (sampled candidates in a violation-range for
    /// the KDE; satisfied criteria for the analytic predictors).
    pub votes: usize,
    /// Evidence total (candidates drawn / criteria evaluated).
    pub samples: usize,
}

/// Which prediction plane a controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictorKind {
    /// The paper's per-mode trajectory models with KDE sampling (§3.2.3).
    #[default]
    Kde,
    /// Quantitative cross-application interference scorer
    /// (Alves & Drummond style).
    XApp,
    /// Alioth-style denoising monitor with a learned threshold.
    Denoise,
    /// Trivial oracle baseline: next tick repeats the last tick.
    LastTick,
}

impl PredictorKind {
    /// Every selectable predictor, in canonical (tournament) order.
    pub const ALL: [PredictorKind; 4] = [
        PredictorKind::Kde,
        PredictorKind::XApp,
        PredictorKind::Denoise,
        PredictorKind::LastTick,
    ];

    /// The canonical CLI token.
    pub fn name(self) -> &'static str {
        match self {
            PredictorKind::Kde => "kde",
            PredictorKind::XApp => "xapp",
            PredictorKind::Denoise => "denoise",
            PredictorKind::LastTick => "last-tick",
        }
    }

    /// Parses a CLI predictor token. Accepted (with aliases):
    /// `kde`/`trajectory`, `xapp`/`cross-interference`,
    /// `denoise`/`alioth`, `last-tick`/`lasttick`/`oracle-last-tick`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unknown token.
    pub fn parse(token: &str) -> Result<Self, CoreError> {
        match token.trim().to_ascii_lowercase().as_str() {
            "kde" | "trajectory" => Ok(PredictorKind::Kde),
            "xapp" | "cross-interference" => Ok(PredictorKind::XApp),
            "denoise" | "alioth" => Ok(PredictorKind::Denoise),
            "last-tick" | "lasttick" | "oracle-last-tick" => Ok(PredictorKind::LastTick),
            other => Err(CoreError::InvalidConfig {
                reason: format!(
                    "unknown predictor '{other}' (expected kde|xapp|denoise|last-tick)"
                ),
            }),
        }
    }

    /// Builds the predictor this kind names, tuned from `config`.
    pub(crate) fn build(self, config: &ControllerConfig) -> Box<dyn Predictor> {
        match self {
            PredictorKind::Kde => Box::new(KdePredictor::new(
                config.per_mode_models,
                config.prediction_samples,
            )),
            PredictorKind::XApp => Box::new(XAppPredictor::new()),
            PredictorKind::Denoise => Box::new(DenoisePredictor::new()),
            PredictorKind::LastTick => Box::new(LastTickPredictor::new()),
        }
    }
}

/// Counters a predictor reports about itself (all defaulted to zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Observation features rejected (non-finite inputs sanitised to
    /// zero) before they could poison the predictor's internal state.
    pub rejected: u64,
}

/// The object-safe contract of one prediction plane: two verbs.
///
/// Each period [`crate::stages::PredictStage`] calls
/// [`observe`](Predictor::observe) with the mapped observation, then —
/// only while co-located and not throttling —
/// [`forecast`](Predictor::forecast). The stage owns the bookkeeping
/// around those calls (the previous-state cursor it hands in, recording a
/// verdict, checking it next period, dropping it on a throttle); a plane
/// keeps only its model.
///
/// Implementations must be deterministic functions of their observation
/// history and the borrowed RNG, and must sanitise non-finite inputs
/// (DESIGN.md §15); the trait is
/// `Send` (never `Sync`) because fleet cells move their controllers onto
/// worker threads but each predictor is owned by exactly one controller.
pub trait Predictor: Send {
    /// Which plane this is (stable name for specs, rollups, metrics).
    fn kind(&self) -> PredictorKind;

    /// Feeds this period's mapped observation into the predictor's model.
    /// `prev` is the representative and mode of the last observation the
    /// plane accepted (`None` on the first).
    ///
    /// # Errors
    ///
    /// Propagates position lookups into the map.
    fn observe(
        &mut self,
        map: &MapStage,
        prev: Option<(usize, ExecutionMode)>,
        rep: usize,
        point: Point2,
        sensed: &Sensed,
    ) -> Result<(), CoreError>;

    /// Forecasts the next co-located state's violation verdict from the
    /// state just observed (`rep`, at `point`). `None` while the model is
    /// still warming up. `rng` is the controller's seeded stream; only
    /// the KDE draws from it.
    fn forecast(
        &mut self,
        map: &MapStage,
        rep: Option<usize>,
        sensed: &Sensed,
        point: Point2,
        rng: &mut StdRng,
    ) -> Option<Forecast>;

    /// Self-reported counters (defaulted hook; all-zero by default).
    fn stats(&self) -> PredictorStats {
        PredictorStats::default()
    }

    /// Notification that the map warm-started from an imported template
    /// (defaulted hook; predictors with learned history may reset it).
    fn on_template_imported(&mut self, _map: &MapStage) {}
}

/// Normalises a sensed measurement vector through the map's scaler,
/// sanitising non-finite features to zero. Returns the clean vector and
/// how many *raw* features were non-finite (the scaler itself maps NaN
/// to zero and clamps ±∞, so corruption must be counted at the input).
///
/// The sense stage already sanitises raw telemetry, so in the composed
/// pipeline this rejects nothing — but predictors are also driven
/// directly (proptests, future substrates), and the plane's contract is
/// that no non-finite value survives past this point uncounted.
pub(crate) fn clean_features(map: &MapStage, sensed: &Sensed) -> (Vec<f64>, u64) {
    let rejected = sensed.raw.iter().filter(|v| !v.is_finite()).count() as u64;
    let mut features = map
        .normalize(&sensed.raw)
        .unwrap_or_else(|_| sensed.raw.clone());
    for v in features.iter_mut() {
        if !v.is_finite() {
            *v = 0.0;
        }
    }
    (features, rejected)
}

/// Splits a normalised `⟨sensitive, total⟩` feature vector into
/// per-resource `(sensitive, contention)` pairs, where contention is the
/// non-negative share the batch tenants add on top of the sensitive
/// application (`total − sensitive`, clamped at zero).
pub(crate) fn contention_pairs(features: &[f64]) -> Vec<(f64, f64)> {
    let m = features.len() / 2;
    (0..m)
        .map(|i| {
            let sensitive = features[i];
            let total = features[m + i];
            (sensitive, (total - sensitive).max(0.0))
        })
        .collect()
}
