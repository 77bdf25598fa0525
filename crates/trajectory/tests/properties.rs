//! Property-based tests for the trajectory-modelling invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stayaway_statespace::{ExecutionMode, Point2};
use stayaway_trajectory::step::{steps_between, wrap_angle};
use stayaway_trajectory::{
    EmpiricalDistribution, Histogram, Kde, ModePredictor, Step, TrajectoryModel, VarModel,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Histogram masses form a probability distribution.
    #[test]
    fn histogram_masses_sum_to_one(
        samples in prop::collection::vec(-5.0f64..5.0, 1..100),
        bins in 1usize..30,
    ) {
        let h = Histogram::auto_range(&samples, bins).unwrap();
        let total: f64 = (0..h.bins()).map(|i| h.mass(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    /// KDE density is non-negative everywhere we probe.
    #[test]
    fn kde_density_is_non_negative(
        samples in prop::collection::vec(-10.0f64..10.0, 1..60),
        x in -20.0f64..20.0,
    ) {
        let kde = Kde::fit(&samples).unwrap();
        prop_assert!(kde.density(x) >= 0.0);
        prop_assert!(kde.density(x).is_finite());
    }

    /// wrap_angle lands in (-π, π] and is idempotent.
    #[test]
    fn wrap_angle_is_idempotent(theta in -100.0f64..100.0) {
        let w = wrap_angle(theta);
        prop_assert!(w > -std::f64::consts::PI - 1e-12);
        prop_assert!(w <= std::f64::consts::PI + 1e-12);
        prop_assert!((wrap_angle(w) - w).abs() < 1e-12);
        // Same direction: sin/cos agree with the original angle.
        prop_assert!((w.sin() - theta.sin()).abs() < 1e-6);
        prop_assert!((w.cos() - theta.cos()).abs() < 1e-6);
    }

    /// Steps reconstruct the path: applying each extracted step reproduces
    /// the next point.
    #[test]
    fn steps_reconstruct_the_path(
        coords in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 2..30),
    ) {
        let points: Vec<Point2> = coords.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let steps = steps_between(&points);
        prop_assert_eq!(steps.len(), points.len() - 1);
        for (i, s) in steps.iter().enumerate() {
            let reached = s.apply(points[i]);
            prop_assert!(reached.distance(points[i + 1]) < 1e-9);
        }
    }

    /// The empirical distribution samples within the observed hull.
    #[test]
    fn empirical_samples_stay_in_support(
        values in prop::collection::vec(0.0f64..1.0, 2..100),
        seed in 0u64..1000,
    ) {
        let mut d = EmpiricalDistribution::new();
        for &v in &values {
            d.observe(v);
        }
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let s = d.sample(&mut rng).unwrap();
            prop_assert!(s >= lo - 1e-6 && s <= hi + 1e-6,
                "sample {s} outside [{lo}, {hi}]");
        }
    }

    /// Predictions are always finite points and respect the candidate
    /// count; `vote` counts the very candidates `predict` would return.
    #[test]
    fn predictions_are_finite(
        lengths in prop::collection::vec(0.0f64..2.0, 8..40),
        n in 1usize..12,
        seed in 0u64..500,
    ) {
        let mut p = ModePredictor::new();
        for (i, &len) in lengths.iter().enumerate() {
            p.observe(ExecutionMode::CoLocated, Step {
                length: len,
                angle: (i as f64 * 0.7) % 3.0 - 1.5,
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vote_rng = rng.clone();
        let pred = p
            .predict(ExecutionMode::CoLocated, Point2::new(0.3, -0.2), n, &mut rng)
            .unwrap();
        prop_assert_eq!(pred.candidates().len(), n);
        for c in pred.candidates() {
            prop_assert!(c.is_finite());
        }
        let votes = p
            .vote(ExecutionMode::CoLocated, Point2::new(0.3, -0.2), n, &mut vote_rng, |c| c.x > 0.3)
            .unwrap();
        let inside = pred.candidates().iter().filter(|c| c.x > 0.3).count();
        prop_assert_eq!(votes, inside);
        prop_assert_eq!(rng, vote_rng);
    }

    /// `ModePredictor` only routes: fed steps under random modes, the
    /// pooled one votes exactly like one bare `TrajectoryModel` fed every
    /// step, and the per-mode one like four bare models routed by
    /// `mode.index()` — same seeded RNG in, equal counts and equal RNG
    /// state out, warm-up refusals included.
    #[test]
    fn mode_predictor_votes_like_the_bare_models_it_routes_to(
        steps in prop::collection::vec((0usize..4, 0.0f64..2.0, -3.0f64..3.0), 1..60),
        n in 1usize..12,
        seed in 0u64..500,
    ) {
        let mut pooled = ModePredictor::pooled();
        let mut per_mode = ModePredictor::new();
        let mut one = TrajectoryModel::default();
        let mut four: [TrajectoryModel; 4] = Default::default();
        for &(m, length, angle) in &steps {
            let (mode, step) = (ExecutionMode::ALL[m], Step { length, angle });
            pooled.observe(mode, step);
            per_mode.observe(mode, step);
            one.observe(step);
            four[mode.index()].observe(step);
        }
        let from = Point2::new(0.3, -0.2);
        let inside = |c: Point2| c.x > 0.3;
        for mode in ExecutionMode::ALL {
            for (routed, bare) in [(&pooled, &one), (&per_mode, &four[mode.index()])] {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut bare_rng = rng.clone();
                let votes = routed.vote(mode, from, n, &mut rng, inside);
                let bare_votes = bare
                    .predict_from(from, n, &mut bare_rng)
                    .ok()
                    .map(|p| p.candidates().iter().filter(|&&c| inside(c)).count());
                prop_assert_eq!(votes, bare_votes);
                prop_assert_eq!(rng, bare_rng);
            }
        }
    }

    /// The VAR model either refuses (too little data) or produces a finite
    /// forecast for arbitrary windows.
    #[test]
    fn var_forecasts_are_finite_or_refused(
        coords in prop::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 2..40),
    ) {
        let points: Vec<Point2> = coords.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let mut model = VarModel::new();
        for w in points.windows(2) {
            model.observe(w[0], w[1]);
        }
        // Refusal (too little data or a singular system) is acceptable;
        // any produced forecast must be finite.
        if let Ok(p) = model.forecast(points[points.len() - 1]) {
            prop_assert!(p.is_finite());
        }
    }
}
