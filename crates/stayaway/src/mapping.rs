//! The mapping step: normalise → deduplicate → embed → align.

use crate::obs::MappingMetrics;
use crate::CoreError;
use stayaway_mds::dedup::ReprSet;
use stayaway_mds::distance::{DistanceMatrix, Metric};
use stayaway_mds::landmark::LandmarkMds;
use stayaway_mds::normalize::{MetricBounds, Normalizer};
use stayaway_mds::procrustes::align_to_previous;
use stayaway_mds::smacof::{warm_start_with_new_points, Smacof};
use stayaway_mds::Embedding;
use stayaway_statespace::Point2;
use stayaway_telemetry::{HostSpec, ResourceKind};

/// How the 2-D embedding is maintained as representatives accumulate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EmbeddingStrategy {
    /// Warm-started SMACOF re-embedding on every new representative, with
    /// Procrustes alignment — the faithful §2.2 pipeline (default).
    #[default]
    Smacof,
    /// Landmark MDS (§4's cited incremental alternative): new
    /// representatives are placed out-of-sample by distance triangulation
    /// in O(landmarks); the landmark basis is refitted only when the
    /// representative set has grown by `refit_growth`×.
    Landmark {
        /// Number of landmarks to fit (≥ 3).
        landmarks: usize,
        /// Growth factor of the representative count that triggers a
        /// refit (e.g. 1.5).
        refit_growth: f64,
    },
}

/// Result of mapping one measurement vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappedSample {
    /// Representative-state index this sample belongs to.
    pub rep: usize,
    /// True when a new representative (and embedded point) was created.
    pub is_new: bool,
    /// The sample's current position in the 2-D map.
    pub point: Point2,
}

/// The per-period mapping pipeline of §3.1/§4.
#[derive(Debug)]
pub struct MappingEngine {
    normalizer: Normalizer,
    repr: ReprSet,
    /// All-pairs distance matrix over `repr`'s vectors, grown in place by
    /// column appends as representatives are created. Valid because
    /// representative vectors never mutate after creation — merges only
    /// bump hit counts — so cached entries can never go stale.
    dissim: Option<DistanceMatrix>,
    smacof: Smacof,
    /// Worker-thread budget of the distance-matrix maintenance (the
    /// SMACOF sweep is serial). Results are bit-for-bit identical for any
    /// value (chunk boundaries never depend on it).
    workers: usize,
    strategy: EmbeddingStrategy,
    landmark: Option<LandmarkMds>,
    fitted_at: usize,
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
            // The grid index keeps insert/nearest exact (identical indices
            // and distances) while pruning far candidates.
            repr: ReprSet::new(dedup_epsilon)?.grid_indexed(),
            dissim: None,
            smacof: Smacof::new(2).max_iterations(smacof_iterations),
            workers: 1,
            strategy: EmbeddingStrategy::Smacof,
            landmark: None,
            fitted_at: 0,
            embedding: None,
            max_states,
            soft_capped: 0,
            samples_seen: 0,
            metrics: None,
        })
    }

    /// Selects the embedding strategy (builder-style; default SMACOF).
    pub fn with_strategy(mut self, strategy: EmbeddingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the worker-thread budget of the distance-matrix build and
    /// column appends (builder-style; clamped to ≥ 1, default 1); the
    /// SMACOF sweep itself is serial. The embedding and every mapping
    /// decision are **bit-for-bit identical for any worker count**; the
    /// budget only bounds how many fixed chunks run concurrently.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        if let Some(m) = &self.metrics {
            m.set_workers(self.workers);
        }
        self
    }

    /// Attaches observability instruments (builder-style; default none).
    /// Recording is decision-inert: identical mapping decisions with or
    /// without instruments.
    pub fn with_metrics(mut self, metrics: MappingMetrics) -> Self {
        metrics.set_workers(self.workers);
        self.metrics = Some(metrics);
        self
    }

    /// The worker-thread budget of the mapping kernels.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The embedding strategy in use.
    pub fn strategy(&self) -> EmbeddingStrategy {
        self.strategy
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
    /// yet or `rep` lies outside it (e.g. representatives imported from a
    /// template without a subsequent [`MappingEngine::rebuild`]) — the
    /// controller's decide loop counts this instead of crashing.
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
        Ok(self.normalizer.normalize(raw)?)
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
        let normalized = self.normalizer.normalize(raw)?;
        self.samples_seen += 1;

        // Soft cap: past `max_states`, absorb into the nearest existing
        // representative instead of growing the observation matrix.
        if self.repr.len() >= self.max_states {
            if let Some((rep, _)) = self.repr.nearest(&normalized) {
                self.soft_capped += 1;
                if let Some(m) = &self.metrics {
                    m.on_soft_capped();
                    m.on_sample(self.repr.len(), self.samples_seen);
                }
                return Ok(MappedSample {
                    rep,
                    is_new: false,
                    point: self.point_of(rep)?,
                });
            }
        }

        let outcome = self.repr.insert(&normalized)?;
        let rep = outcome.index();
        if outcome.is_new() {
            self.re_embed()?;
        }
        if let Some(m) = &self.metrics {
            m.on_sample(self.repr.len(), self.samples_seen);
        }
        Ok(MappedSample {
            rep,
            is_new: outcome.is_new(),
            point: self.point_of(rep)?,
        })
    }

    /// Inserts a pre-normalised vector directly (template import). The
    /// embedding is *not* refreshed — call [`MappingEngine::rebuild`] after
    /// a batch of imports.
    ///
    /// # Errors
    ///
    /// Propagates dedup failures (dimension mismatch etc.).
    pub fn insert_normalized(&mut self, normalized: &[f64]) -> Result<(usize, bool), CoreError> {
        if normalized.len() != self.normalizer.dim() {
            return Err(CoreError::Template {
                reason: format!(
                    "template vector dimension {} != expected {}",
                    normalized.len(),
                    self.normalizer.dim()
                ),
            });
        }
        let outcome = self.repr.insert(normalized)?;
        Ok((outcome.index(), outcome.is_new()))
    }

    /// Rebuilds the embedding from scratch (classical seed + SMACOF).
    ///
    /// # Errors
    ///
    /// Propagates embedding failures.
    pub fn rebuild(&mut self) -> Result<(), CoreError> {
        if self.repr.is_empty() {
            self.embedding = None;
            self.dissim = None;
            return Ok(());
        }
        let dissim = Self::refresh_dissim(
            &mut self.dissim,
            self.repr.representatives(),
            self.workers,
            self.metrics.as_ref(),
        )?;
        let start = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let (embedding, sweeps) = self.smacof.embed_traced(dissim)?;
        self.record_embed_time(start);
        self.embedding = Some(embedding);
        self.record_embedding(sweeps);
        Ok(())
    }

    /// Records the wall time of one SMACOF solve when instruments are
    /// attached (`start` is `Some` exactly then). Decision-inert: reads
    /// the clock, writes an atomic.
    fn record_embed_time(&self, start: Option<std::time::Instant>) {
        if let (Some(metrics), Some(t0)) = (&self.metrics, start) {
            metrics.on_embed_timed(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Publishes one re-embedding to the instruments: sweep count plus —
    /// in deep mode only — the O(n²) final stress.
    fn record_embedding(&self, sweeps: u64) {
        if let Some(m) = &self.metrics {
            m.on_smacof(sweeps);
            m.on_stress(|| {
                let e = self.embedding.as_ref()?;
                let d = self.dissim.as_ref().filter(|d| d.len() == e.len())?;
                e.stress(d).ok()
            });
        }
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
        workers: usize,
        metrics: Option<&MappingMetrics>,
    ) -> Result<&'a DistanceMatrix, CoreError> {
        let n = reps.len();
        // `len() > n` cannot happen (the set never shrinks), but a rebuild
        // is the safe response if it ever does.
        let Some(mut d) = cache.take().filter(|d| d.len() <= n) else {
            let built =
                DistanceMatrix::from_vectors_with_workers(reps, Metric::Euclidean, workers)?;
            return Ok(cache.insert(built));
        };
        if d.len() < n {
            let start = metrics.map(|_| std::time::Instant::now());
            for m in d.len()..n {
                d.append_point_with_workers(&reps[..m], &reps[m], Metric::Euclidean, workers)?;
            }
            if let (Some(metrics), Some(t0)) = (metrics, start) {
                metrics.on_append_timed(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
        }
        Ok(cache.insert(d))
    }

    /// Incremental re-embedding after a new representative was added.
    fn re_embed(&mut self) -> Result<(), CoreError> {
        match self.strategy {
            EmbeddingStrategy::Smacof => self.re_embed_smacof(),
            EmbeddingStrategy::Landmark {
                landmarks,
                refit_growth,
            } => self.re_embed_landmark(landmarks, refit_growth),
        }
    }

    /// Warm-start from the previous layout with the new point placed near
    /// its nearest neighbour, run a few majorization sweeps, and
    /// Procrustes-align back to the previous frame.
    fn re_embed_smacof(&mut self) -> Result<(), CoreError> {
        let dissim = Self::refresh_dissim(
            &mut self.dissim,
            self.repr.representatives(),
            self.workers,
            self.metrics.as_ref(),
        )?;
        let start = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let (new_embedding, sweeps) = match &self.embedding {
            None => self.smacof.embed_traced(dissim)?,
            Some(prev) => {
                let init = warm_start_with_new_points(prev, dissim)?;
                let (refined, sweeps) = self.smacof.embed_warm_traced(dissim, init)?;
                (align_to_previous(refined, prev)?, sweeps)
            }
        };
        self.record_embed_time(start);
        self.embedding = Some(new_embedding);
        self.record_embedding(sweeps);
        Ok(())
    }

    /// Landmark path: place the new representative out-of-sample (O(k));
    /// refit the landmark basis only when the set grew substantially, and
    /// Procrustes-align the refitted layout to the previous frame.
    fn re_embed_landmark(&mut self, landmarks: usize, refit_growth: f64) -> Result<(), CoreError> {
        let n = self.repr.len();
        let k = landmarks.max(3);
        // Too few points for a landmark basis: keep the exact pipeline.
        if n < k + 1 {
            self.landmark = None;
            return self.re_embed_smacof();
        }
        if let (Some(model), Some(embedding)) = (&self.landmark, &mut self.embedding) {
            if (n as f64) < (self.fitted_at as f64) * refit_growth.max(1.01) {
                // Cheap path: triangulate only the newest representative.
                let pos = model.place(self.repr.representative(n - 1))?;
                embedding.push(&pos);
                return Ok(());
            }
        }
        // No basis yet, or the set outgrew it: refit. The refit reads all
        // its pairwise distances out of the cached matrix instead of
        // recomputing O(n·k·dim) of them.
        let dissim = Self::refresh_dissim(
            &mut self.dissim,
            self.repr.representatives(),
            self.workers,
            self.metrics.as_ref(),
        )?;
        let model = LandmarkMds::fit_with_dissim(self.repr.representatives(), dissim, k, 2)?;
        let placed = model.place_all(self.repr.representatives())?;
        let aligned = match &self.embedding {
            Some(prev) if prev.len() > 1 => align_to_previous(placed, prev)?,
            _ => placed,
        };
        self.embedding = Some(aligned);
        self.landmark = Some(model);
        self.fitted_at = n;
        Ok(())
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
        e.insert_normalized(&[0.1, 0.1, 0.0, 0.0]).unwrap();
        // No rebuild yet: position queries must fail soft.
        assert!(matches!(
            e.point_of(0),
            Err(CoreError::NoEmbedding { rep: 0 })
        ));
        e.rebuild().unwrap();
        assert!(e.point_of(0).is_ok());
        // Out-of-embedding index also fails soft.
        assert!(matches!(
            e.point_of(7),
            Err(CoreError::NoEmbedding { rep: 7 })
        ));
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
    fn insert_normalized_and_rebuild() {
        let mut e = engine();
        e.insert_normalized(&[0.1, 0.1, 0.0, 0.0]).unwrap();
        e.insert_normalized(&[0.9, 0.9, 0.9, 0.9]).unwrap();
        e.rebuild().unwrap();
        assert_eq!(e.repr_count(), 2);
        let d = e.point_of(0).unwrap().distance(e.point_of(1).unwrap());
        assert!(d > 0.5, "states not separated after rebuild: {d}");
    }

    #[test]
    fn insert_normalized_rejects_wrong_dimension() {
        let mut e = engine();
        assert!(matches!(
            e.insert_normalized(&[0.1, 0.2]),
            Err(CoreError::Template { .. })
        ));
    }

    #[test]
    fn empty_metric_list_rejected() {
        assert!(MappingEngine::new(&[], &HostSpec::default(), 0.05, 10, 10).is_err());
    }

    #[test]
    fn landmark_strategy_tracks_smacof_geometry() {
        let spec = HostSpec::default();
        let metrics = [ResourceKind::Cpu, ResourceKind::Memory];
        let mut smacof = MappingEngine::new(&metrics, &spec, 0.0, 30, 400).unwrap();
        let mut landmark = MappingEngine::new(&metrics, &spec, 0.0, 30, 400)
            .unwrap()
            .with_strategy(EmbeddingStrategy::Landmark {
                landmarks: 8,
                refit_growth: 1.5,
            });
        assert_eq!(smacof.strategy(), EmbeddingStrategy::Smacof);

        // A stream sweeping through three regimes.
        let raws: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                let t = i as f64 / 29.0;
                vec![4.0 * t, 8000.0 * t, 4.0 * (1.0 - t), 2000.0]
            })
            .collect();
        for r in &raws {
            smacof.observe(r).unwrap();
            landmark.observe(r).unwrap();
        }
        assert_eq!(smacof.repr_count(), landmark.repr_count());

        // Both embeddings must be low-stress representations of the same
        // dissimilarities.
        let vectors: Vec<Vec<f64>> = (0..landmark.repr_count())
            .map(|i| landmark.normalized_vector(i).to_vec())
            .collect();
        let d = DistanceMatrix::from_vectors(&vectors).unwrap();
        let s_stress = smacof.embedding().unwrap().stress(&d).unwrap();
        let l_stress = landmark.embedding().unwrap().stress(&d).unwrap();
        assert!(s_stress < 0.05, "smacof stress {s_stress}");
        assert!(l_stress < 0.1, "landmark stress {l_stress}");
    }

    #[test]
    fn landmark_strategy_small_sets_fall_back_to_smacof() {
        let spec = HostSpec::default();
        let mut e = MappingEngine::new(&[ResourceKind::Cpu], &spec, 0.0, 20, 100)
            .unwrap()
            .with_strategy(EmbeddingStrategy::Landmark {
                landmarks: 6,
                refit_growth: 2.0,
            });
        // Only three points: below the landmark minimum, but mapping must
        // still work.
        for i in 0..3 {
            let s = e.observe(&[i as f64, i as f64 * 100.0]).unwrap();
            assert!(s.point.is_finite());
        }
        assert_eq!(e.repr_count(), 3);
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
