//! The mapping step: normalise → deduplicate → embed → align.

use crate::obs::MappingMetrics;
use crate::CoreError;
use stayaway_mds::dedup::ReprSet;
use stayaway_mds::distance::DistanceMatrix;
use stayaway_mds::normalize::{MetricBounds, Normalizer};
use stayaway_mds::procrustes::align_to_previous;
use stayaway_mds::smacof::{warm_start_with_new_points, Smacof};
use stayaway_mds::Embedding;
use stayaway_statespace::Point2;
use stayaway_telemetry::{HostSpec, ResourceKind};

/// Largest normalised column stress (`stayaway_mds::smacof::Smacof::place_last`) at
/// which a newly placed point is accepted into the map as it stands; above
/// it the whole map is re-solved. Not a setting: the budget is the stress
/// class the map is held to. Exact solves of the paper's co-locations sit
/// at stress-1 0.003–0.03; at 0.05 the gated map stays within 0.01 of them
/// after 3 000 periods, while 0.10 let the soplex map drift to 0.07 against
/// 0.02 (DESIGN.md §6 has the measurements and the gates that did not
/// work).
pub const COLUMN_STRESS_BUDGET: f64 = 0.05;

/// Below this many points every insert re-solves the map: a column of one
/// or two dissimilarities can always be met exactly, so it says nothing
/// about the map.
pub const MIN_GATED_POINTS: usize = 4;

/// Result of mapping one measurement vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappedSample {
    /// Representative-state index this sample belongs to.
    pub rep: usize,
    /// True when a new representative (and embedded point) was created.
    pub is_new: bool,
    /// True when creating it re-laid the map, so every representative's
    /// position may have changed; false when only the new point was placed
    /// and all others kept their coordinates bit for bit.
    pub relaid: bool,
    /// The sample's current position in the 2-D map.
    pub point: Point2,
}

/// The per-period mapping pipeline of §3.1/§4.
#[derive(Debug)]
pub struct MappingEngine {
    normalizer: Normalizer,
    /// The period's normalised vector, kept across periods so a sample
    /// that merges into a representative allocates nothing.
    normalized: Vec<f64>,
    repr: ReprSet,
    /// All-pairs distance matrix over `repr`'s vectors, grown in place by
    /// column appends as representatives are created. Valid because
    /// representative vectors never mutate after creation — merges only
    /// bump hit counts — so cached entries can never go stale.
    dissim: Option<DistanceMatrix>,
    smacof: Smacof,
    embedding: Option<Embedding>,
    max_states: usize,
    soft_capped: u64,
    /// Total samples mapped (the dedup-ratio denominator).
    samples_seen: u64,
    metrics: Option<MappingMetrics>,
}

impl MappingEngine {
    /// Creates the pipeline for measurement vectors of layout
    /// `⟨sensitive[metrics..], batch[metrics..]⟩` against the host's
    /// capacities.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty metric set and
    /// propagates invalid capacities.
    pub fn new(
        metrics: &[ResourceKind],
        spec: &HostSpec,
        dedup_epsilon: f64,
        smacof_iterations: usize,
        max_states: usize,
    ) -> Result<Self, CoreError> {
        if metrics.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "metrics must not be empty".into(),
            });
        }
        let mut bounds = Vec::with_capacity(metrics.len() * 2);
        for _vm in 0..2 {
            for &m in metrics {
                bounds.push(MetricBounds::zero_to(spec.capacity(m))?);
            }
        }
        Ok(MappingEngine {
            normalizer: Normalizer::new(bounds)?,
            normalized: Vec::new(),
            // The grid index keeps insert/nearest exact (identical indices
            // and distances) while pruning far candidates.
            repr: ReprSet::new(dedup_epsilon)?.grid_indexed(),
            dissim: None,
            smacof: Smacof::new(2).max_iterations(smacof_iterations),
            embedding: None,
            max_states,
            soft_capped: 0,
            samples_seen: 0,
            metrics: None,
        })
    }

    /// Attaches observability instruments (builder-style; default none).
    /// Recording is decision-inert: identical mapping decisions with or
    /// without instruments.
    pub fn with_metrics(mut self, metrics: MappingMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Number of representative states.
    pub fn repr_count(&self) -> usize {
        self.repr.len()
    }

    /// Number of samples absorbed by the soft state cap.
    pub fn soft_capped(&self) -> u64 {
        self.soft_capped
    }

    /// The normalised vector of representative `rep`.
    ///
    /// # Panics
    ///
    /// Panics if `rep` is out of bounds.
    pub fn normalized_vector(&self, rep: usize) -> &[f64] {
        self.repr.representative(rep)
    }

    /// The current embedding, if any sample has been observed.
    pub fn embedding(&self) -> Option<&Embedding> {
        self.embedding.as_ref()
    }

    /// Current position of representative `rep`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoEmbedding`] when no embedding has been built
    /// yet or `rep` lies outside it — the controller's decide loop counts
    /// this instead of crashing.
    pub fn point_of(&self, rep: usize) -> Result<Point2, CoreError> {
        let e = self
            .embedding
            .as_ref()
            .filter(|e| rep < e.len())
            .ok_or(CoreError::NoEmbedding { rep })?;
        let (x, y) = e.xy(rep);
        Ok(Point2::new(x, y))
    }

    /// Median coordinate range of the current map — the Rayleigh `c`.
    pub fn median_range(&self) -> f64 {
        self.embedding
            .as_ref()
            .map(Embedding::median_coordinate_range)
            .unwrap_or(0.0)
    }

    /// Normalises a raw measurement vector without inserting it.
    ///
    /// # Errors
    ///
    /// Returns a dimension-mismatch error for wrong-length input.
    pub fn normalize(&self, raw: &[f64]) -> Result<Vec<f64>, CoreError> {
        let mut out = Vec::with_capacity(raw.len());
        self.normalize_into(raw, &mut out)?;
        Ok(out)
    }

    /// [`MappingEngine::normalize`] into `out` (overwritten).
    ///
    /// # Errors
    ///
    /// Returns a dimension-mismatch error for wrong-length input.
    pub fn normalize_into(&self, raw: &[f64], out: &mut Vec<f64>) -> Result<(), CoreError> {
        Ok(self.normalizer.normalize_into(raw, out)?)
    }

    /// Nearest representative to a normalised vector: `(rep, distance)`.
    pub fn nearest(&self, normalized: &[f64]) -> Option<(usize, f64)> {
        self.repr.nearest(normalized)
    }

    /// Out-of-sample placement: approximates where a normalised vector
    /// *would* map without inserting it, as the inverse-distance-weighted
    /// average of its three nearest representatives' positions. Returns the
    /// approximate point and the distance to the nearest representative
    /// (a confidence measure — large distances mean unexplored territory).
    pub fn approximate_point(&self, normalized: &[f64]) -> Option<(Point2, f64)> {
        let embedding = self.embedding.as_ref()?;
        if self.repr.is_empty() {
            return None;
        }
        // Allocation-free top-3 selection, ascending by (distance, index).
        // A candidate provably farther than the current third-best is
        // abandoned mid-distance by the pruned metric; ties rank after the
        // incumbent (lower index wins), matching a stable sort of the full
        // distance list.
        let metric = stayaway_mds::distance::Metric::Euclidean;
        let mut top: [(usize, f64); 3] = [(usize::MAX, f64::INFINITY); 3];
        let mut filled = 0usize;
        for (i, rep) in self.repr.representatives().iter().enumerate() {
            let Some(d) = metric.distance_pruned(rep, normalized, top[2].1) else {
                continue;
            };
            if d >= top[2].1 {
                continue;
            }
            filled = (filled + 1).min(3);
            if d < top[1].1 {
                top[2] = top[1];
                if d < top[0].1 {
                    top[1] = top[0];
                    top[0] = (i, d);
                } else {
                    top[1] = (i, d);
                }
            } else {
                top[2] = (i, d);
            }
        }
        let nearest_dist = top[0].1;
        let k = filled; // == min(repr count, 3)
        let mut x = 0.0;
        let mut y = 0.0;
        let mut wsum = 0.0;
        for &(i, d) in top.iter().take(k) {
            let w = 1.0 / (d + 1e-9);
            let (px, py) = embedding.xy(i);
            x += w * px;
            y += w * py;
            wsum += w;
        }
        Some((Point2::new(x / wsum, y / wsum), nearest_dist))
    }

    /// Maps one raw measurement vector: normalises it, merges it into the
    /// representative set (or creates a new representative and re-embeds),
    /// and returns its position.
    ///
    /// # Errors
    ///
    /// Propagates normalisation/embedding failures.
    pub fn observe(&mut self, raw: &[f64]) -> Result<MappedSample, CoreError> {
        // The buffer is taken out for the call so `insert` can borrow the
        // engine whole; it is put back on every path.
        let mut normalized = std::mem::take(&mut self.normalized);
        let mapped = self.normalize_into(raw, &mut normalized).and_then(|()| {
            self.samples_seen += 1;
            self.insert(&normalized)
        });
        self.normalized = normalized;
        let mapped = mapped?;
        if let Some(m) = &self.metrics {
            m.on_sample(self.repr.len(), self.samples_seen);
        }
        Ok(mapped)
    }

    /// Maps one pre-normalised vector of a template (§6) exactly as
    /// [`MappingEngine::observe`] maps a measured one — merged into a
    /// representative within dedup range, embedded as a new one, or past
    /// `max_states` absorbed by its nearest representative — except that it
    /// is no sample: the dedup ratio does not see it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Template`] on a dimension mismatch and
    /// propagates embedding failures.
    pub fn import_state(&mut self, normalized: &[f64]) -> Result<MappedSample, CoreError> {
        if normalized.len() != self.normalizer.dim() {
            return Err(CoreError::Template {
                reason: format!(
                    "template vector dimension {} != expected {}",
                    normalized.len(),
                    self.normalizer.dim()
                ),
            });
        }
        self.insert(normalized)
    }

    /// Dedups a normalised vector into the representative set, embedding
    /// it when it founds a new representative.
    fn insert(&mut self, normalized: &[f64]) -> Result<MappedSample, CoreError> {
        // Soft cap: past `max_states`, absorb into the nearest existing
        // representative instead of growing the observation matrix.
        if self.repr.len() >= self.max_states {
            if let Some((rep, _)) = self.repr.nearest(normalized) {
                self.soft_capped += 1;
                if let Some(m) = &self.metrics {
                    m.on_soft_capped();
                }
                return Ok(MappedSample {
                    rep,
                    is_new: false,
                    relaid: false,
                    point: self.point_of(rep)?,
                });
            }
        }
        let outcome = self.repr.insert(normalized)?;
        let rep = outcome.index();
        let relaid = outcome.is_new() && self.re_embed()?;
        Ok(MappedSample {
            rep,
            is_new: outcome.is_new(),
            relaid,
            point: self.point_of(rep)?,
        })
    }

    /// Brings the cached distance matrix up to date with the representative
    /// set by appending one column per new representative — O(growth·n·dim)
    /// instead of the O(n²·dim) full rebuild — and hands it back. A full
    /// rebuild happens only when no cache exists yet (a failed append
    /// leaves none, so the next call rebuilds); an empty representative
    /// set is [`MdsError::Empty`](stayaway_mds::MdsError).
    ///
    /// Borrows only the fields it maintains, so callers keep the rest of
    /// the engine usable beside the returned matrix.
    fn refresh_dissim<'a>(
        cache: &'a mut Option<DistanceMatrix>,
        reps: &[Vec<f64>],
        metrics: Option<&MappingMetrics>,
    ) -> Result<&'a DistanceMatrix, CoreError> {
        let n = reps.len();
        // `len() > n` cannot happen (the set never shrinks), but a rebuild
        // is the safe response if it ever does.
        let Some(mut d) = cache.take().filter(|d| d.len() <= n) else {
            return Ok(cache.insert(DistanceMatrix::from_vectors(reps)?));
        };
        if d.len() < n {
            let start = metrics.map(|_| std::time::Instant::now());
            for m in d.len()..n {
                d.append_point(&reps[..m], &reps[m])?;
            }
            if let (Some(metrics), Some(t0)) = (metrics, start) {
                metrics.on_append_timed(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
        }
        Ok(cache.insert(d))
    }

    /// Place, then decide. The new point starts beside its nearest
    /// neighbour and is fitted to the map as it stands — every other point
    /// fixed, O(n) per round. If its column of the stress stays within
    /// [`COLUMN_STRESS_BUDGET`] the map is kept: no old coordinate moves and
    /// there is nothing to align. Otherwise the point says the map is wrong
    /// around it, and the whole configuration is re-solved from that start
    /// and Procrustes-aligned back to the previous frame. True when the map
    /// was re-laid rather than the one point placed.
    fn re_embed(&mut self) -> Result<bool, CoreError> {
        let dissim = Self::refresh_dissim(
            &mut self.dissim,
            self.repr.representatives(),
            self.metrics.as_ref(),
        )?;
        let prev = self.embedding.get_or_insert_with(|| Embedding::zeros(0, 2));
        let mut grown = warm_start_with_new_points(prev, dissim)?;
        let column_stress = self.smacof.place_last(dissim, &mut grown)?;
        let fits = grown.len() >= MIN_GATED_POINTS && column_stress <= COLUMN_STRESS_BUDGET;
        if let Some(m) = &self.metrics {
            m.on_placement(column_stress, fits);
        }
        if fits {
            *prev = grown;
            return Ok(false);
        }
        let start = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let (refined, sweeps) = self.smacof.embed_warm_traced(dissim, grown)?;
        let aligned = align_to_previous(refined, prev)?;
        if let (Some(m), Some(t0)) = (&self.metrics, start) {
            m.on_embed_timed(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            m.on_smacof(sweeps);
            m.on_stress(|| aligned.stress(dissim).ok());
        }
        *prev = aligned;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> MappingEngine {
        MappingEngine::new(
            &[ResourceKind::Cpu, ResourceKind::Memory],
            &HostSpec::default(),
            0.05,
            30,
            100,
        )
        .unwrap()
    }

    /// Raw vector: (sens_cpu, sens_mem, batch_cpu, batch_mem).
    fn raw(sc: f64, sm: f64, bc: f64, bm: f64) -> Vec<f64> {
        vec![sc, sm, bc, bm]
    }

    #[test]
    fn first_sample_creates_state_at_some_point() {
        let mut e = engine();
        let s = e.observe(&raw(1.0, 1000.0, 0.0, 0.0)).unwrap();
        assert_eq!(s.rep, 0);
        assert!(s.is_new);
        assert!(s.point.is_finite());
        assert_eq!(e.repr_count(), 1);
    }

    #[test]
    fn similar_samples_merge() {
        let mut e = engine();
        e.observe(&raw(1.0, 1000.0, 0.0, 0.0)).unwrap();
        let s = e.observe(&raw(1.02, 1010.0, 0.0, 0.0)).unwrap();
        assert_eq!(s.rep, 0);
        assert!(!s.is_new);
        assert_eq!(e.repr_count(), 1);
    }

    #[test]
    fn dissimilar_usage_maps_far_apart() {
        let mut e = engine();
        let a = e.observe(&raw(0.4, 500.0, 0.0, 0.0)).unwrap();
        let b = e.observe(&raw(0.5, 520.0, 0.0, 0.0)).unwrap();
        let c = e.observe(&raw(3.8, 7000.0, 3.9, 6000.0)).unwrap();
        let near = a.point.distance(b.point);
        let far = a.point.distance(c.point);
        assert!(
            far > 3.0 * near,
            "contended state not separated: near={near} far={far}"
        );
    }

    #[test]
    fn map_stays_stable_as_points_arrive() {
        let mut e = engine();
        // Two clusters.
        let mut low_points = Vec::new();
        for i in 0..8 {
            let s = e
                .observe(&raw(0.5 + 0.2 * i as f64, 600.0, 0.1, 100.0))
                .unwrap();
            low_points.push((s.rep, s.point));
        }
        let before = e.point_of(0).unwrap();
        // New far-away samples must not teleport the old cluster.
        for i in 0..8 {
            e.observe(&raw(3.9, 7500.0, 3.9, 400.0 + 100.0 * i as f64))
                .unwrap();
        }
        let after = e.point_of(0).unwrap();
        let drift = before.distance(after);
        let spread = e.median_range();
        assert!(
            drift < 0.5 * spread.max(0.1),
            "old state drifted {drift} (spread {spread})"
        );
    }

    #[test]
    fn approximate_point_matches_naive_sorted_reference() {
        let mut e = engine();
        for i in 0..12 {
            let t = i as f64;
            e.observe(&raw(0.3 * t, 500.0 + 400.0 * t, 0.1 * t, 50.0 * t))
                .unwrap();
        }
        // Reference: the allocate-sort-all formulation the pruned top-3
        // selection replaced.
        let naive = |q: &[f64]| -> (Point2, f64) {
            let embedding = e.embedding().unwrap();
            let mut dists: Vec<(usize, f64)> = (0..e.repr_count())
                .map(|i| {
                    let d = stayaway_mds::distance::Metric::Euclidean
                        .distance(e.normalized_vector(i), q);
                    (i, d)
                })
                .collect();
            dists.sort_by(|a, b| a.1.total_cmp(&b.1));
            let (mut x, mut y, mut wsum) = (0.0, 0.0, 0.0);
            for &(i, d) in dists.iter().take(3) {
                let w = 1.0 / (d + 1e-9);
                let (px, py) = embedding.xy(i);
                x += w * px;
                y += w * py;
                wsum += w;
            }
            (Point2::new(x / wsum, y / wsum), dists[0].1)
        };
        for probe in [
            raw(0.1, 600.0, 0.0, 10.0),
            raw(2.0, 3000.0, 0.7, 300.0),
            raw(3.9, 8000.0, 1.2, 600.0),
            raw(0.0, 0.0, 0.0, 0.0),
        ] {
            let q = e.normalize(&probe).unwrap();
            let fast = e.approximate_point(&q).unwrap();
            assert_eq!(fast, naive(&q), "probe {probe:?} diverged");
        }
    }

    #[test]
    fn point_of_before_any_embedding_is_an_error_not_a_panic() {
        let mut e = engine();
        assert!(matches!(
            e.point_of(0),
            Err(CoreError::NoEmbedding { rep: 0 })
        ));
        e.observe(&raw(0.4, 800.0, 0.0, 0.0)).unwrap();
        assert!(e.point_of(0).is_ok());
        // Out-of-embedding index also fails soft.
        assert!(matches!(
            e.point_of(7),
            Err(CoreError::NoEmbedding { rep: 7 })
        ));
    }

    /// Up to 25 distinct raw vectors whose normalised images lie in one
    /// plane (only the sensitive application's two metrics vary, over a
    /// 5 × 5 grid walked out of order): a 2-D map holds them exactly, so
    /// each fits the map its predecessors made.
    fn planar_stream(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let cell = i * 7 % 25;
                let (col, row) = ((cell % 5) as f64, (cell / 5) as f64);
                raw(0.4 + 0.8 * col, 800.0 + 1600.0 * row, 0.0, 0.0)
            })
            .collect()
    }

    /// A vector far off that plane: no planar position reproduces its
    /// distances to a spread of in-plane states.
    fn misfit() -> Vec<f64> {
        raw(2.0, 4000.0, 3.6, 7400.0)
    }

    #[test]
    fn states_that_fit_are_placed_and_a_misfit_re_solves_once() {
        let mut e = engine();
        let mut relaid = Vec::new();
        for r in planar_stream(24).iter().chain([&misfit()]) {
            let before = e.embedding().cloned();
            let s = e.observe(r).unwrap();
            assert!(s.is_new, "the stream repeats no state");
            if let (Some(before), false) = (before, s.relaid) {
                // A placed state moves nothing but itself, to the bit.
                let after = e.embedding().unwrap();
                assert_eq!(after.len(), before.len() + 1);
                for i in 0..before.len() {
                    assert_eq!(after.point(i), before.point(i), "placing moved state {i}");
                }
            }
            relaid.push(s.relaid);
        }
        // Below MIN_GATED_POINTS every insert solves; from there on no
        // planar state does, and the one misfit does exactly once.
        let solves: Vec<usize> = (0..relaid.len()).filter(|&i| relaid[i]).collect();
        assert_eq!(solves, [0, 1, 2, 24]);
    }

    #[test]
    fn instruments_leave_the_embedding_bits_alone_and_account_for_every_state() {
        let stream: Vec<Vec<f64>> = planar_stream(16)
            .into_iter()
            .chain([misfit()])
            .chain(planar_stream(20).split_off(16))
            .collect();
        let run = |registry: Option<&stayaway_obs::MetricsRegistry>| {
            let mut e = engine();
            if let Some(r) = registry {
                e = e.with_metrics(MappingMetrics::register(r, true));
            }
            for r in &stream {
                e.observe(r).unwrap();
            }
            e.embedding().unwrap().clone()
        };
        let registry = stayaway_obs::MetricsRegistry::new();
        let bare = run(None);
        assert_eq!(bare, run(Some(&registry)), "instruments changed the map");
        // The instrumented run went down both arms of the gate, and every
        // state is accounted for by exactly one of them.
        let snapshot = registry.snapshot();
        let counter = |name: &str| {
            let c = snapshot.counters.iter().find(|c| c.name == name);
            c.unwrap_or_else(|| panic!("{name} registered")).value
        };
        let placed = counter("stayaway_mapping_placements_total");
        let solved = counter("stayaway_mapping_smacof_runs_total");
        assert!(placed > 0 && solved > 3, "placed {placed}, solved {solved}");
        assert_eq!(placed + solved, bare.len() as u64);
    }

    #[test]
    fn soft_cap_stops_growth() {
        let mut e = MappingEngine::new(
            &[ResourceKind::Cpu],
            &HostSpec::default(),
            0.0, // exact-duplicate merging only
            10,
            5,
        )
        .unwrap();
        for i in 0..20 {
            e.observe(&[0.2 * i as f64, 0.1 * i as f64]).unwrap();
        }
        assert_eq!(e.repr_count(), 5);
        assert_eq!(e.soft_capped(), 15);
    }

    #[test]
    fn imported_states_are_embedded_as_they_arrive() {
        let mut e = engine();
        let a = e.import_state(&[0.1, 0.1, 0.0, 0.0]).unwrap();
        let b = e.import_state(&[0.9, 0.9, 0.9, 0.9]).unwrap();
        assert!(a.is_new && b.is_new);
        assert_eq!(e.repr_count(), 2);
        let d = e.point_of(0).unwrap().distance(e.point_of(1).unwrap());
        assert!(d > 0.5, "imported states not separated: {d}");
        // A state within dedup range of an imported one merges into it.
        let again = e.import_state(&[0.1, 0.1, 0.0, 0.01]).unwrap();
        assert_eq!((again.rep, again.is_new), (0, false));
    }

    #[test]
    fn import_state_rejects_wrong_dimension() {
        let mut e = engine();
        assert!(matches!(
            e.import_state(&[0.1, 0.2]),
            Err(CoreError::Template { .. })
        ));
    }

    #[test]
    fn empty_metric_list_rejected() {
        assert!(MappingEngine::new(&[], &HostSpec::default(), 0.05, 10, 10).is_err());
    }

    #[test]
    fn median_range_grows_with_spread() {
        let mut e = engine();
        e.observe(&raw(0.1, 100.0, 0.0, 0.0)).unwrap();
        assert!(e.median_range() < 0.01);
        e.observe(&raw(3.9, 8000.0, 3.9, 8000.0)).unwrap();
        assert!(e.median_range() > 0.3);
    }
}
