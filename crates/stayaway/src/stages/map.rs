//! Stage 2 — Map: raw vectors become labelled 2-D states (§3.1, §3.2.1, §4).
//!
//! The stage normalises each measurement vector into `[0, 1]` per metric,
//! deduplicates it into a representative sample set, places a new
//! representative into the 2-D map (re-solving the whole map only when it
//! does not fit and recent solves have paid) and keeps the labelled
//! [`StateMap`] in step with that embedding. Later stages consult it
//! read-only: prediction tests candidate points against violation-ranges,
//! action estimates whether a resume would land in one.

use super::sense::Sensed;
use crate::config::ControllerConfig;
use crate::obs::MappingMetrics;
use crate::CoreError;
use stayaway_mds::dedup::ReprSet;
use stayaway_mds::distance::DistanceMatrix;
use stayaway_mds::normalize::{MetricBounds, Normalizer};
use stayaway_mds::procrustes::align_to_previous;
use stayaway_mds::smacof::{warm_start_with_new_points, Smacof};
use stayaway_mds::Embedding;
use stayaway_statespace::{ExecutionMode, Point2, StateKind, StateMap, Template};
use stayaway_telemetry::HostSpec;
use std::time::Instant;

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

/// Smallest share of its start's raw stress a global solve must remove to
/// count as useful (`stayaway_mds::smacof::SolveTrace::relative_gain`).
/// A solve that removes less was futile: the map already sat at the floor
/// no planar layout of these states gets below, and the misfit that asked
/// for it says only that the states are not planar. Not a setting, for the
/// reason [`COLUMN_STRESS_BUDGET`] is not (DESIGN.md §6).
pub const MIN_SOLVE_GAIN: f64 = 0.01;

/// Most misfits placed without a solve after one futile solve: the first
/// futile solve excuses the next misfit, each consecutive one doubles the
/// run (1, 2, 4 … this cap), and the first useful solve ends it.
pub const MAX_SKIPPED_SOLVES: usize = 64;

/// Where one observation landed in the state map.
#[derive(Debug, Clone, Copy)]
pub struct MappedState {
    /// Representative state index.
    pub rep: usize,
    /// The representative's (post-refresh) 2-D position.
    pub point: Point2,
    /// True when this observation created a new representative.
    pub is_new: bool,
}

/// What inserting one normalised vector did to the representative set.
#[derive(Debug, Clone, Copy)]
enum Insert {
    /// Merged into an existing representative (past `max_states`, absorbed
    /// by the nearest one).
    Merged(usize),
    /// A new representative, placed into the map as it stands — it fit, or
    /// the outcome gate excused its misfit: every other position kept its
    /// bits.
    Placed(usize),
    /// A new representative that did not fit, so the whole map was
    /// re-solved and every position may have moved.
    Relaid(usize),
}

impl Insert {
    fn rep(self) -> usize {
        match self {
            Insert::Merged(rep) | Insert::Placed(rep) | Insert::Relaid(rep) => rep,
        }
    }
}

/// The outcome gate on global solves: after a futile solve (one that
/// removed less than [`MIN_SOLVE_GAIN`] of the stress) the next misfits are
/// placed instead of solved, a run that doubles with every consecutive
/// futile solve up to [`MAX_SKIPPED_SOLVES`]; a useful solve resets it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SolveBackoff {
    /// Length of the current run of excused misfits; 0 after a useful
    /// solve (or none yet).
    run: usize,
    /// Misfits of the current run still to be placed without a solve.
    left: usize,
}

impl SolveBackoff {
    /// True (and one excuse spent) when this misfit is to be placed
    /// instead of solved.
    fn skip(&mut self) -> bool {
        let skip = self.left > 0;
        self.left -= usize::from(skip);
        skip
    }

    /// Folds in the outcome of a global solve that removed `gain` of its
    /// start's stress.
    fn record(&mut self, gain: f64) {
        *self = if gain < MIN_SOLVE_GAIN {
            let run = (2 * self.run).clamp(1, MAX_SKIPPED_SOLVES);
            SolveBackoff { run, left: run }
        } else {
            SolveBackoff::default()
        };
    }
}

/// The mapping stage: normalise → dedup → embed, plus state-map upkeep.
#[derive(Debug)]
pub struct MapStage {
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
    backoff: SolveBackoff,
    embedding: Option<Embedding>,
    map: StateMap,
    max_states: usize,
    violation_range_enabled: bool,
    /// Total samples mapped (the dedup-ratio denominator).
    samples_seen: u64,
    metrics: MappingMetrics,
}

impl MapStage {
    /// Creates the stage for measurement vectors of layout
    /// `⟨sensitive[metrics..], batch[metrics..]⟩` against the host's
    /// capacities. Reads `metrics`, `dedup_epsilon`, `smacof_iterations`,
    /// `max_states` and `violation_range_enabled` from `config`, and
    /// records into `metrics` (decision-inert: the same mapping decisions
    /// whichever instruments are passed).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty metric set and
    /// propagates invalid capacities or dedup radii.
    pub fn new(
        config: &ControllerConfig,
        spec: &HostSpec,
        metrics: MappingMetrics,
    ) -> Result<Self, CoreError> {
        if config.metrics.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "metrics must not be empty".into(),
            });
        }
        let mut bounds = Vec::with_capacity(config.metrics.len() * 2);
        for _vm in 0..2 {
            for &m in &config.metrics {
                bounds.push(MetricBounds::zero_to(spec.capacity(m))?);
            }
        }
        Ok(MapStage {
            normalizer: Normalizer::new(bounds)?,
            normalized: Vec::new(),
            // The grid index keeps insert/nearest exact (identical indices
            // and distances) while pruning far candidates.
            repr: ReprSet::new(config.dedup_epsilon)?.grid_indexed(),
            dissim: None,
            smacof: Smacof::new(2).max_iterations(config.smacof_iterations),
            backoff: SolveBackoff::default(),
            embedding: None,
            map: StateMap::new(),
            max_states: config.max_states,
            violation_range_enabled: config.violation_range_enabled,
            samples_seen: 0,
            metrics,
        })
    }

    /// Maps one sensed period: normalises the raw measurement vector,
    /// merges it into the representative set (or embeds it as a new
    /// representative) and records the visit at the representative's
    /// position. A new representative that re-laid the embedding refreshes
    /// every position; one that was placed into the map as it stands
    /// changes only the coordinate scale; either way the violation-ranges
    /// are derived again here.
    ///
    /// # Errors
    ///
    /// Propagates normalisation and embedding failures.
    pub fn ingest(&mut self, sensed: &Sensed) -> Result<MappedState, CoreError> {
        // The buffer is taken out for the call so `insert` can borrow the
        // stage whole; it is put back on every path.
        let mut normalized = std::mem::take(&mut self.normalized);
        let inserted = self
            .normalize_into(&sensed.raw, &mut normalized)
            .and_then(|()| {
                self.samples_seen += 1;
                self.insert(&normalized)
            });
        self.normalized = normalized;
        let inserted = inserted?;
        let rep = inserted.rep();
        let point = self.point_of(rep)?;
        self.metrics.on_sample(self.repr.len(), self.samples_seen);
        self.map.visit(rep, point, sensed.mode, sensed.tick)?;
        match inserted {
            Insert::Relaid(_) => self.refresh_positions()?,
            Insert::Placed(_) => self.refresh_scale()?,
            Insert::Merged(_) => {}
        }
        self.map.derive_ranges();
        Ok(MappedState {
            rep,
            point,
            is_new: !matches!(inserted, Insert::Merged(_)),
        })
    }

    /// Seeds the stage with a template captured in a previous run (§6).
    /// Each state is inserted exactly as [`MapStage::ingest`] inserts a
    /// measured one — merged into a representative within dedup range,
    /// embedded as a new one, or past `max_states` absorbed by its nearest
    /// representative — except that it is no sample: the dedup ratio does
    /// not see it. Violation labels land on the representative that took
    /// the state.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Template`] on dimension mismatch and propagates
    /// embedding failures.
    pub fn import_template(&mut self, template: &Template) -> Result<(), CoreError> {
        let dim = self.normalizer.dim();
        for state in template.iter() {
            if state.vector.len() != dim {
                return Err(CoreError::Template {
                    reason: format!(
                        "template vector dimension {} != expected {dim}",
                        state.vector.len()
                    ),
                });
            }
            let rep = self.insert(&state.vector)?.rep();
            let point = self.point_of(rep)?;
            // Ensure a map entry exists for the representative.
            if rep >= self.map.len() {
                self.map.visit(rep, point, ExecutionMode::CoLocated, 0)?;
            }
            if state.violation {
                self.map.mark_violation(rep)?;
            }
        }
        // Any of the inserts may have re-laid the map; one sweep over the
        // positions at the end covers them all.
        self.refresh_positions()
    }

    /// Exports the learned states as a reusable template (§6).
    ///
    /// # Errors
    ///
    /// Propagates template-construction failures.
    pub fn export_template(&self, sensitive_app: &str) -> Result<Template, CoreError> {
        let mut t = Template::new(sensitive_app, self.normalizer.dim())?;
        for rep in 0..self.repr.len() {
            t.push(
                self.normalized_vector(rep).to_vec(),
                self.is_violation_state(rep),
            )?;
        }
        Ok(t)
    }

    /// Labels representative `rep` a violation-state (and derives the
    /// violation-ranges again).
    ///
    /// # Errors
    ///
    /// Propagates out-of-range indices.
    pub fn mark_violation(&mut self, rep: usize) -> Result<(), CoreError> {
        self.map.mark_violation(rep)?;
        self.map.derive_ranges();
        Ok(())
    }

    /// True when representative `rep` is a known violation-state.
    pub fn is_violation_state(&self, rep: usize) -> bool {
        self.map
            .entry(rep)
            .map(|e| e.kind() == StateKind::Violation)
            .unwrap_or(false)
    }

    /// The learned state map.
    pub fn state_map(&self) -> &StateMap {
        &self.map
    }

    /// The current embedding, if any state has been embedded.
    pub fn embedding(&self) -> Option<&Embedding> {
        self.embedding.as_ref()
    }

    /// Number of representative states.
    pub fn repr_count(&self) -> usize {
        self.repr.len()
    }

    /// The normalised vector of representative `rep`.
    ///
    /// # Panics
    ///
    /// Panics if `rep` is out of bounds.
    pub fn normalized_vector(&self, rep: usize) -> &[f64] {
        self.repr.representative(rep)
    }

    /// The 2-D position of representative `rep`.
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

    /// Normalises a raw measurement vector into `[0, 1]` per metric,
    /// without inserting it.
    ///
    /// # Errors
    ///
    /// Returns a dimension-mismatch error for wrong-length input.
    pub fn normalize(&self, raw: &[f64]) -> Result<Vec<f64>, CoreError> {
        let mut out = Vec::with_capacity(raw.len());
        self.normalize_into(raw, &mut out)?;
        Ok(out)
    }

    /// [`MapStage::normalize`] into `out` (overwritten).
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

    /// Dedups a normalised vector into the representative set, embedding
    /// it when it founds a new representative.
    fn insert(&mut self, normalized: &[f64]) -> Result<Insert, CoreError> {
        // Soft cap: past `max_states`, absorb into the nearest existing
        // representative instead of growing the observation matrix.
        if self.repr.len() >= self.max_states {
            if let Some((rep, _)) = self.repr.nearest(normalized) {
                self.metrics.on_soft_capped();
                return Ok(Insert::Merged(rep));
            }
        }
        let outcome = self.repr.insert(normalized)?;
        let rep = outcome.index();
        Ok(if !outcome.is_new() {
            Insert::Merged(rep)
        } else if self.re_embed()? {
            Insert::Relaid(rep)
        } else {
            Insert::Placed(rep)
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
    /// the stage usable beside the returned matrix.
    fn refresh_dissim<'a>(
        cache: &'a mut Option<DistanceMatrix>,
        reps: &[Vec<f64>],
        metrics: &MappingMetrics,
    ) -> Result<&'a DistanceMatrix, CoreError> {
        let n = reps.len();
        // `len() > n` cannot happen (the set never shrinks), but a rebuild
        // is the safe response if it ever does.
        let Some(mut d) = cache.take().filter(|d| d.len() <= n) else {
            return Ok(cache.insert(DistanceMatrix::from_vectors(reps)?));
        };
        if d.len() < n {
            let start = Instant::now();
            for m in d.len()..n {
                d.append_point(&reps[..m], &reps[m])?;
            }
            metrics.on_append_timed(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        Ok(cache.insert(d))
    }

    /// Place, then decide. The new point starts beside its nearest
    /// neighbour and is fitted to the map as it stands — every other point
    /// fixed, O(n) per round. If its column of the stress stays within
    /// [`COLUMN_STRESS_BUDGET`] the map is kept: no old coordinate moves and
    /// there is nothing to align. Otherwise the point says the map is wrong
    /// around it, and the whole configuration is re-solved from that start
    /// and Procrustes-aligned back to the previous frame — unless the
    /// solves before it were futile ([`SolveBackoff`]), in which case the
    /// misfit is kept where it was placed, as a fitting point is. True
    /// when the map was re-laid rather than the one point placed.
    fn re_embed(&mut self) -> Result<bool, CoreError> {
        let dissim =
            Self::refresh_dissim(&mut self.dissim, self.repr.representatives(), &self.metrics)?;
        let prev = self.embedding.get_or_insert_with(|| Embedding::zeros(0, 2));
        let mut grown = warm_start_with_new_points(prev, dissim)?;
        let column_stress = self.smacof.place_last(dissim, &mut grown)?;
        let gated = grown.len() >= MIN_GATED_POINTS;
        let fits = gated && column_stress <= COLUMN_STRESS_BUDGET;
        let skipped = gated && !fits && self.backoff.skip();
        self.metrics.on_placement(column_stress, fits, skipped);
        if fits || skipped {
            *prev = grown;
            return Ok(false);
        }
        let start = Instant::now();
        let (refined, trace) = self.smacof.embed_warm_traced(dissim, grown)?;
        if gated {
            // A forced solve of a small map says nothing about its floor.
            self.backoff.record(trace.relative_gain());
        }
        let aligned = align_to_previous(refined, prev)?;
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.metrics
            .on_solve(nanos, trace.sweeps, || aligned.stress(dissim).ok());
        *prev = aligned;
        Ok(true)
    }

    /// Synchronises the state map's positions and violation-range scale
    /// with the current embedding.
    fn refresh_positions(&mut self) -> Result<(), CoreError> {
        for rep in 0..self.repr.len().min(self.map.len()) {
            self.map.set_position(rep, self.point_of(rep)?)?;
        }
        self.refresh_scale()
    }

    /// Synchronises the violation-range scale — the Rayleigh `c`, the
    /// embedding's median coordinate range — with the current embedding.
    fn refresh_scale(&mut self) -> Result<(), CoreError> {
        // With violation-ranges disabled (ablation), a zero coordinate
        // scale collapses every range to exact-overlap matching.
        let scale = match &self.embedding {
            Some(e) if self.violation_range_enabled => e.median_coordinate_range(),
            _ => 0.0,
        };
        self.map.set_coordinate_scale(scale)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stayaway_obs::MetricsRegistry;
    use stayaway_telemetry::ResourceKind;

    fn config() -> ControllerConfig {
        ControllerConfig {
            metrics: vec![ResourceKind::Cpu, ResourceKind::Memory],
            dedup_epsilon: 0.05,
            smacof_iterations: 30,
            max_states: 100,
            ..ControllerConfig::default()
        }
    }

    fn stage() -> MapStage {
        MapStage::new(&config(), &HostSpec::default(), MappingMetrics::default()).unwrap()
    }

    /// A map stage built from `config` recording into `registry`.
    fn stage_into(config: &ControllerConfig, registry: &MetricsRegistry, deep: bool) -> MapStage {
        let metrics = MappingMetrics::register(registry, deep);
        MapStage::new(config, &HostSpec::default(), metrics).unwrap()
    }

    /// Raw vector: (sens_cpu, sens_mem, batch_cpu, batch_mem).
    fn raw(sc: f64, sm: f64, bc: f64, bm: f64) -> Vec<f64> {
        vec![sc, sm, bc, bm]
    }

    /// Ingests one co-located period carrying `raw`.
    fn ingest(stage: &mut MapStage, raw: &[f64]) -> MappedState {
        let sensed = Sensed {
            tick: 0,
            mode: ExecutionMode::CoLocated,
            violated: false,
            raw: raw.to_vec(),
            rejected: 0,
        };
        stage.ingest(&sensed).unwrap()
    }

    fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
        let snapshot = registry.snapshot();
        let c = snapshot.counters.iter().find(|c| c.name == name);
        c.unwrap_or_else(|| panic!("{name} registered")).value
    }

    #[test]
    fn first_sample_creates_state_at_some_point() {
        let mut s = stage();
        let m = ingest(&mut s, &raw(1.0, 1000.0, 0.0, 0.0));
        assert_eq!(m.rep, 0);
        assert!(m.is_new);
        assert!(m.point.is_finite());
        assert_eq!(s.repr_count(), 1);
        assert_eq!(s.state_map().len(), 1);
    }

    #[test]
    fn similar_samples_merge() {
        let mut s = stage();
        ingest(&mut s, &raw(1.0, 1000.0, 0.0, 0.0));
        let m = ingest(&mut s, &raw(1.02, 1010.0, 0.0, 0.0));
        assert_eq!(m.rep, 0);
        assert!(!m.is_new);
        assert_eq!(s.repr_count(), 1);
    }

    #[test]
    fn dissimilar_usage_maps_far_apart() {
        let mut s = stage();
        let a = ingest(&mut s, &raw(0.4, 500.0, 0.0, 0.0));
        let b = ingest(&mut s, &raw(0.5, 520.0, 0.0, 0.0));
        let c = ingest(&mut s, &raw(3.8, 7000.0, 3.9, 6000.0));
        let near = a.point.distance(b.point);
        let far = a.point.distance(c.point);
        assert!(
            far > 3.0 * near,
            "contended state not separated: near={near} far={far}"
        );
    }

    #[test]
    fn map_stays_stable_as_points_arrive() {
        let mut s = stage();
        // Two clusters.
        for i in 0..8 {
            ingest(&mut s, &raw(0.5 + 0.2 * i as f64, 600.0, 0.1, 100.0));
        }
        let before = s.point_of(0).unwrap();
        // New far-away samples must not teleport the old cluster.
        for i in 0..8 {
            ingest(&mut s, &raw(3.9, 7500.0, 3.9, 400.0 + 100.0 * i as f64));
        }
        let after = s.point_of(0).unwrap();
        let drift = before.distance(after);
        let last = s.repr_count() - 1;
        s.mark_violation(last).unwrap();
        let spread = map_scale(&s, last);
        assert!(
            drift < 0.5 * spread.max(0.1),
            "old state drifted {drift} (spread {spread})"
        );
        // The state map follows the embedding.
        assert_eq!(s.state_map().entry(0).unwrap().point(), after);
    }

    #[test]
    fn approximate_point_matches_naive_sorted_reference() {
        let mut s = stage();
        for i in 0..12 {
            let t = i as f64;
            ingest(&mut s, &raw(0.3 * t, 500.0 + 400.0 * t, 0.1 * t, 50.0 * t));
        }
        // Reference: the allocate-sort-all formulation the pruned top-3
        // selection replaced.
        let naive = |q: &[f64]| -> (Point2, f64) {
            let embedding = s.embedding().unwrap();
            let mut dists: Vec<(usize, f64)> = (0..s.repr_count())
                .map(|i| {
                    let d = stayaway_mds::distance::Metric::Euclidean
                        .distance(s.normalized_vector(i), q);
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
            let q = s.normalize(&probe).unwrap();
            let fast = s.approximate_point(&q).unwrap();
            assert_eq!(fast, naive(&q), "probe {probe:?} diverged");
        }
    }

    #[test]
    fn point_of_before_any_embedding_is_an_error_not_a_panic() {
        let mut s = stage();
        assert!(matches!(
            s.point_of(0),
            Err(CoreError::NoEmbedding { rep: 0 })
        ));
        ingest(&mut s, &raw(0.4, 800.0, 0.0, 0.0));
        assert!(s.point_of(0).is_ok());
        // Out-of-embedding index also fails soft.
        assert!(matches!(
            s.point_of(7),
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

    /// Eight vectors off the plane of [`planar_stream`], each farther out
    /// along one tilted line than the last: every one is a misfit, and
    /// each solve finds a map that fits the new tilt markedly better than
    /// the placement did.
    fn tilt_stream() -> Vec<Vec<f64>> {
        (1..=8)
            .map(|k| {
                let t = f64::from(k) / 8.0;
                raw(
                    0.4 + 3.2 * t,
                    800.0 + 6400.0 * (1.0 - t),
                    3.9 * t,
                    7900.0 * t,
                )
            })
            .collect()
    }

    /// A sweep back across the tilt from the far corner: misfits whose
    /// solves cannot lower the stress of the map the tilt left.
    fn sweep_back() -> Vec<Vec<f64>> {
        (0..8)
            .map(|k| {
                let t = f64::from(k) / 8.0;
                raw(3.9 * t, 8000.0 * t, 3.9 * (1.0 - t), 7900.0 * (1.0 - t))
            })
            .collect()
    }

    /// Inserts `r` (a new state, not a merge) and reports what it did.
    fn insert_new(s: &mut MapStage, r: &[f64]) -> Insert {
        let inserted = s.insert(&s.normalize(r).unwrap()).unwrap();
        assert!(
            !matches!(inserted, Insert::Merged(_)),
            "the stream repeats no state"
        );
        inserted
    }

    #[test]
    fn states_that_fit_are_placed_and_a_misfit_re_solves_once() {
        let mut s = stage();
        let mut relaid = Vec::new();
        for r in planar_stream(24).iter().chain([&misfit()]) {
            let before = s.embedding().cloned();
            let is_relaid = matches!(insert_new(&mut s, r), Insert::Relaid(_));
            if let (Some(before), false) = (before, is_relaid) {
                // A placed state moves nothing but itself, to the bit.
                let after = s.embedding().unwrap();
                assert_eq!(after.len(), before.len() + 1);
                for i in 0..before.len() {
                    assert_eq!(after.point(i), before.point(i), "placing moved state {i}");
                }
            }
            relaid.push(is_relaid);
        }
        // Below MIN_GATED_POINTS every insert solves; from there on no
        // planar state does, and the one misfit does exactly once — a
        // useful solve, so the outcome gate stays open.
        let solves: Vec<usize> = (0..relaid.len()).filter(|&i| relaid[i]).collect();
        assert_eq!(solves, [0, 1, 2, 24]);
        assert_eq!(s.backoff, SolveBackoff::default());
    }

    #[test]
    fn solve_backoff_doubles_per_futile_solve_up_to_its_cap() {
        let mut b = SolveBackoff::default();
        assert!(!b.skip(), "no solve yet, nothing to excuse");
        let mut runs = Vec::new();
        for _ in 0..9 {
            b.record(MIN_SOLVE_GAIN / 2.0);
            let mut run = 0;
            while b.skip() {
                run += 1;
            }
            runs.push(run);
        }
        assert_eq!(runs, [1, 2, 4, 8, 16, 32, 64, 64, 64]);
        // A gain of exactly the threshold is useful: the run ends.
        b.record(MIN_SOLVE_GAIN);
        assert_eq!(b, SolveBackoff::default());
        b.record(0.0);
        assert_eq!(b, SolveBackoff { run: 1, left: 1 });
    }

    #[test]
    fn a_futile_solve_arms_the_backoff() {
        let mut s = stage();
        for r in planar_stream(25).iter().chain(&tilt_stream()) {
            insert_new(&mut s, r);
        }
        assert_eq!(s.backoff, SolveBackoff::default());
        // The sweep's first three misfits solve, the third to no effect;
        // the next misfit is placed where it landed, every old coordinate
        // kept.
        let back = sweep_back();
        for r in &back[..3] {
            assert!(matches!(insert_new(&mut s, r), Insert::Relaid(_)));
        }
        assert_eq!(s.backoff, SolveBackoff { run: 1, left: 1 });
        let before = s.embedding().unwrap().clone();
        assert!(matches!(insert_new(&mut s, &back[3]), Insert::Placed(_)));
        assert_eq!(s.backoff, SolveBackoff { run: 1, left: 0 });
        for i in 0..before.len() {
            assert_eq!(s.embedding().unwrap().point(i), before.point(i));
        }
    }

    #[test]
    fn a_useful_solve_resets_the_backoff() {
        let mut s = stage();
        for r in &planar_stream(24) {
            insert_new(&mut s, r);
        }
        // As after a run of futile solves whose excuses are spent.
        s.backoff = SolveBackoff { run: 16, left: 0 };
        assert!(matches!(insert_new(&mut s, &misfit()), Insert::Relaid(_)));
        assert_eq!(s.backoff, SolveBackoff::default());
    }

    #[test]
    fn a_map_whose_solves_keep_lowering_stress_never_skips() {
        let registry = MetricsRegistry::new();
        let mut s = stage_into(&config(), &registry, false);
        for r in &planar_stream(25) {
            ingest(&mut s, r);
        }
        for r in &tilt_stream() {
            assert!(matches!(insert_new(&mut s, r), Insert::Relaid(_)));
            assert_eq!(s.backoff, SolveBackoff::default());
        }
        assert_eq!(
            counter(&registry, "stayaway_mapping_solves_skipped_total"),
            0
        );
    }

    #[test]
    fn instruments_leave_the_embedding_bits_alone_and_account_for_every_state() {
        let stream: Vec<Vec<f64>> = planar_stream(16)
            .into_iter()
            .chain([misfit()])
            .chain(planar_stream(25).split_off(16))
            .chain(tilt_stream())
            .chain(sweep_back())
            .collect();
        let run = |registry: &MetricsRegistry, deep: bool| {
            let mut s = stage_into(&config(), registry, deep);
            for r in &stream {
                ingest(&mut s, r);
            }
            s.embedding().unwrap().clone()
        };
        let registry = MetricsRegistry::new();
        let shallow = run(&MetricsRegistry::new(), false);
        assert_eq!(
            shallow,
            run(&registry, true),
            "deep instruments changed the map"
        );
        // The deep run went down all three ways a new state
        // takes — fits and placed, misfit and solved, misfit excused by a
        // futile solve and placed — and every state is accounted for by
        // exactly one of them.
        let placed = counter(&registry, "stayaway_mapping_placements_total");
        let solved = counter(&registry, "stayaway_mapping_smacof_runs_total");
        let skipped = counter(&registry, "stayaway_mapping_solves_skipped_total");
        assert!(
            placed > 0 && solved > 3 && skipped > 0,
            "placed {placed}, solved {solved}, skipped {skipped}"
        );
        assert_eq!(placed + solved + skipped, shallow.len() as u64);
    }

    #[test]
    fn soft_cap_stops_growth() {
        let config = ControllerConfig {
            metrics: vec![ResourceKind::Cpu],
            dedup_epsilon: 0.0, // exact-duplicate merging only
            smacof_iterations: 10,
            max_states: 5,
            ..ControllerConfig::default()
        };
        let registry = MetricsRegistry::new();
        let mut s = stage_into(&config, &registry, false);
        for i in 0..20 {
            ingest(&mut s, &[0.2 * i as f64, 0.1 * i as f64]);
        }
        assert_eq!(s.repr_count(), 5);
        assert_eq!(s.state_map().len(), 5);
        assert_eq!(counter(&registry, "stayaway_mapping_soft_capped_total"), 15);
    }

    #[test]
    fn template_import_honours_the_soft_state_cap() {
        let config = ControllerConfig {
            metrics: vec![ResourceKind::Cpu],
            dedup_epsilon: 0.0, // exact-duplicate merging only
            max_states: 10,
            ..ControllerConfig::default()
        };
        let registry = MetricsRegistry::new();
        let mut s = stage_into(&config, &registry, false);
        // 30 distinct states; only the last — past the cap — violated.
        let mut template = Template::new("svc", 2).unwrap();
        for i in 0..30 {
            let t = i as f64 / 30.0;
            template.push(vec![t, 1.0 - t * t], i == 29).unwrap();
        }
        s.import_template(&template).unwrap();

        assert_eq!(s.repr_count(), config.max_states);
        assert_eq!(s.state_map().len(), config.max_states);
        assert_eq!(counter(&registry, "stayaway_mapping_soft_capped_total"), 20);
        // The absorbed state's violation label landed on the
        // representative that absorbed it.
        let last = template.iter().last().unwrap();
        let (rep, _) = s.nearest(&last.vector).unwrap();
        assert!(s.is_violation_state(rep));
    }

    #[test]
    fn imported_states_are_embedded_as_they_arrive() {
        let mut s = stage();
        let mut template = Template::new("svc", 4).unwrap();
        template.push(vec![0.1, 0.1, 0.0, 0.0], false).unwrap();
        template.push(vec![0.9, 0.9, 0.9, 0.9], false).unwrap();
        // Within dedup range of the first state: merges into it, and its
        // label lands there.
        template.push(vec![0.1, 0.1, 0.0, 0.01], true).unwrap();
        s.import_template(&template).unwrap();
        assert_eq!(s.repr_count(), 2);
        assert_eq!(s.state_map().len(), 2);
        let d = s.point_of(0).unwrap().distance(s.point_of(1).unwrap());
        assert!(d > 0.5, "imported states not separated: {d}");
        assert!(s.is_violation_state(0) && !s.is_violation_state(1));
        assert_eq!(s.export_template("svc").unwrap().len(), 2);
    }

    #[test]
    fn import_rejects_wrong_dimension() {
        let mut s = stage();
        let mut template = Template::new("svc", 2).unwrap();
        template.push(vec![0.1, 0.2], false).unwrap();
        assert!(matches!(
            s.import_template(&template),
            Err(CoreError::Template { .. })
        ));
        assert_eq!(s.repr_count(), 0);
    }

    #[test]
    fn empty_metric_list_rejected() {
        let config = ControllerConfig {
            metrics: vec![],
            ..config()
        };
        assert!(MapStage::new(&config, &HostSpec::default(), MappingMetrics::default()).is_err());
    }

    /// The Rayleigh `c` the state map sizes its violation-ranges with, read
    /// back through the range around violation-state `v`: its radius must
    /// be `rayleigh_radius(d, c)` for `d` the distance to the nearest
    /// safe-state and `c` the embedding's median coordinate range.
    fn map_scale(s: &MapStage, v: usize) -> f64 {
        let c = s.embedding().unwrap().median_coordinate_range();
        let map = s.state_map();
        let (_, d) = map.nearest_safe(map.entry(v).unwrap().point()).unwrap();
        assert!(d > 0.0, "violation-state {v} sits on a safe-state");
        let radius = map.violation_range(v).unwrap().radius();
        assert_eq!(radius, stayaway_statespace::rayleigh_radius(d, c));
        c
    }

    #[test]
    fn coordinate_scale_grows_with_spread() {
        let mut s = stage();
        let grid = planar_stream(8);
        ingest(&mut s, &grid[0]);
        ingest(&mut s, &grid[1]);
        s.mark_violation(0).unwrap();
        let mut scales = vec![map_scale(&s, 0)];
        // From the fourth state on, each fits the map and is placed rather
        // than re-solved; the map's scale follows the embedding all the same.
        for r in &grid[2..] {
            ingest(&mut s, r);
            scales.push(map_scale(&s, 0));
        }
        assert!(
            scales[2..].windows(2).any(|w| w[1] > w[0]),
            "no placed state widened the map: {scales:?}"
        );
        ingest(&mut s, &raw(7.8, 16000.0, 3.9, 8000.0));
        assert!(map_scale(&s, 0) > 2.0 * scales[0], "{scales:?}");
    }
}
