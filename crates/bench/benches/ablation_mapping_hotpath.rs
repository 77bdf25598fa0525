//! Ablation — the incremental mapping hot path vs a full-rebuild baseline.
//!
//! `MapStage::ingest` answers dedup/nearest queries through a pruned grid
//! index and maintains its all-pairs distance matrix by column appends
//! (O(n·dim) per new representative). The baseline replicates the
//! same mathematical pipeline with the naive plumbing it replaced: linear
//! scans for every dedup/nearest query and a from-scratch
//! `DistanceMatrix::from_vectors` on every new representative.
//!
//! Two timed groups:
//!
//! * `observe_stream_500reps` — the steady-state hot path: a map of 500
//!   learned representatives processing a merge-heavy observe stream (the
//!   shape of a long Stay-Away run, where most periods revisit known
//!   states). Incremental vs baseline differ in query plumbing, plus the
//!   stage's one state-map visit per period, so the speedup is the pruned
//!   grid index's.
//! * `distance_matrix_maintenance` — growing the 500-point matrix one
//!   representative at a time: column appends vs from-scratch rebuilds.
//!
//! Both arms run the identical place → gate → solve embedding step during
//! map growth, so the embeddings — and therefore the final stress — agree
//! bit-for-bit;
//! the equivalence (rep counts and |Δstress| < 1e-6) is printed once
//! before the timing runs.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stayaway_core::stages::map::{
    COLUMN_STRESS_BUDGET, MAX_SKIPPED_SOLVES, MIN_GATED_POINTS, MIN_SOLVE_GAIN,
};
use stayaway_core::stages::{MapStage, Sensed};
use stayaway_core::{ControllerConfig, MappingMetrics};
use stayaway_mds::dedup::ReprSet;
use stayaway_mds::distance::DistanceMatrix;
use stayaway_mds::normalize::{MetricBounds, Normalizer};
use stayaway_mds::procrustes::align_to_previous;
use stayaway_mds::smacof::{warm_start_with_new_points, Smacof};
use stayaway_mds::Embedding;
use stayaway_sim::{HostSpec, ResourceKind};
use stayaway_statespace::ExecutionMode;

const METRICS: [ResourceKind; 5] = [
    ResourceKind::Cpu,
    ResourceKind::Memory,
    ResourceKind::MemBandwidth,
    ResourceKind::DiskIo,
    ResourceKind::Network,
];
const EPSILON: f64 = 0.05;
/// One majorization sweep (and one placement round): the solver is
/// identical work in both arms and not what this ablation measures.
const SMACOF_SWEEPS: usize = 1;
const REPS: usize = 500;
/// Merge-heavy tail: revisits of already-learned states (the steady-state
/// shape of a Stay-Away run).
const REVISITS: usize = 2000;

/// Naive-plumbing replica of the observe loop: identical normalise → dedup
/// → place → gate → (warm-start SMACOF → Procrustes, outcome backoff)
/// pipeline, but every new representative rebuilds the distance matrix
/// from scratch and every dedup/nearest query is a linear scan over all
/// representatives.
struct FullRebuildBaseline {
    normalizer: Normalizer,
    repr: ReprSet,
    smacof: Smacof,
    embedding: Option<Embedding>,
    max_states: usize,
    /// The map stage's outcome backoff: the current run of misfits
    /// excused by futile solves, and how many of it are left.
    backoff_run: usize,
    backoff_left: usize,
}

impl FullRebuildBaseline {
    fn new(spec: &HostSpec, max_states: usize) -> Self {
        let mut bounds = Vec::new();
        for _vm in 0..2 {
            for &m in &METRICS {
                bounds.push(MetricBounds::zero_to(spec.capacity(m)).expect("bounds"));
            }
        }
        FullRebuildBaseline {
            normalizer: Normalizer::new(bounds).expect("normalizer"),
            repr: ReprSet::new(EPSILON).expect("repr set"),
            smacof: Smacof::new(2).max_iterations(SMACOF_SWEEPS),
            embedding: None,
            max_states,
            backoff_run: 0,
            backoff_left: 0,
        }
    }

    /// Returns the representative the sample merged into (linear scans).
    fn observe(&mut self, raw: &[f64]) -> usize {
        let normalized = self.normalizer.normalize(raw).expect("normalize");
        if self.repr.len() >= self.max_states {
            if let Some((rep, _)) = self.repr.nearest(&normalized) {
                return rep;
            }
        }
        let outcome = self.repr.insert(&normalized).expect("insert");
        if !outcome.is_new() {
            return outcome.index();
        }
        // Full rebuild: all n(n-1)/2 distances from scratch.
        let dissim = DistanceMatrix::from_vectors(self.repr.representatives()).expect("matrix");
        let prev = self.embedding.get_or_insert_with(|| Embedding::zeros(0, 2));
        let mut grown = warm_start_with_new_points(prev, &dissim).expect("warm start");
        let column_stress = self.smacof.place_last(&dissim, &mut grown).expect("place");
        let gated = grown.len() >= MIN_GATED_POINTS;
        let fits = gated && column_stress <= COLUMN_STRESS_BUDGET;
        if gated && !fits && self.backoff_left > 0 {
            self.backoff_left -= 1;
        } else if !fits {
            let (refined, trace) = self
                .smacof
                .embed_warm_traced(&dissim, grown)
                .expect("embed warm");
            if gated {
                let futile = trace.relative_gain() < MIN_SOLVE_GAIN;
                self.backoff_run = if futile {
                    (2 * self.backoff_run).clamp(1, MAX_SKIPPED_SOLVES)
                } else {
                    0
                };
                self.backoff_left = self.backoff_run;
            }
            grown = align_to_previous(refined, prev).expect("align");
        }
        *prev = grown;
        outcome.index()
    }
}

fn map_stage(spec: &HostSpec, max_states: usize) -> MapStage {
    let config = ControllerConfig {
        metrics: METRICS.to_vec(),
        dedup_epsilon: EPSILON,
        smacof_iterations: SMACOF_SWEEPS,
        max_states,
        ..ControllerConfig::default()
    };
    MapStage::new(&config, spec, MappingMetrics::default()).expect("map stage")
}

/// One co-located period carrying `raw`.
fn period(raw: Vec<f64>) -> Sensed {
    Sensed {
        tick: 0,
        mode: ExecutionMode::CoLocated,
        violated: false,
        raw,
        rejected: 0,
    }
}

/// `REPS` mutually distant raw vectors followed by `REVISITS`
/// near-duplicates of them.
fn observe_stream(spec: &HostSpec) -> (Vec<Sensed>, Vec<Sensed>) {
    let caps: Vec<f64> = (0..2)
        .flat_map(|_| METRICS.iter().map(|&m| spec.capacity(m)))
        .collect();
    let mut rng = StdRng::seed_from_u64(0x5747_4d41);
    let growth: Vec<Sensed> = (0..REPS)
        .map(|_| {
            period(
                caps.iter()
                    .map(|c| rng.gen_range(0.0f64..1.0) * c)
                    .collect(),
            )
        })
        .collect();
    let revisits: Vec<Sensed> = (0..REVISITS)
        .map(|i| {
            period(
                growth[i % REPS]
                    .raw
                    .iter()
                    .zip(&caps)
                    .map(|(v, c)| (v + rng.gen_range(-0.002f64..0.002) * c).clamp(0.0, *c))
                    .collect(),
            )
        })
        .collect();
    (growth, revisits)
}

fn bench_mapping_hotpath(c: &mut Criterion) {
    let spec = HostSpec::default();
    let (growth, revisits) = observe_stream(&spec);

    // Grow both maps to 500 representatives, checking equivalence: both
    // arms must land on the same representative set and — because the
    // embedding math is untouched — a bit-identical embedding.
    let mut inc = map_stage(&spec, REPS);
    let mut base = FullRebuildBaseline::new(&spec, REPS);
    for sensed in growth.iter().chain(&revisits) {
        let a = inc.ingest(sensed).expect("ingest").rep;
        let b = base.observe(&sensed.raw);
        assert_eq!(a, b, "rep assignment diverged");
    }
    assert_eq!(inc.repr_count(), base.repr.len(), "rep sets diverged");
    let vectors: Vec<Vec<f64>> = (0..inc.repr_count())
        .map(|i| inc.normalized_vector(i).to_vec())
        .collect();
    let d = DistanceMatrix::from_vectors(&vectors).expect("matrix");
    let s_inc = inc
        .embedding()
        .expect("embedding")
        .stress(&d)
        .expect("stress");
    let s_base = base
        .embedding
        .as_ref()
        .expect("embedding")
        .stress(&d)
        .expect("stress");
    let delta = (s_inc - s_base).abs();
    println!(
        "equivalence: {} reps, stress incremental {s_inc:.6} vs full-rebuild {s_base:.6} \
         (|Δ| = {delta:.2e})",
        inc.repr_count()
    );
    assert!(delta < 1e-6, "embeddings diverged: |Δstress| = {delta}");

    // Steady-state observe stream over the learned 500-representative map.
    // Revisit observes merge (or soft-cap) — no re-embeds — so the two
    // arms differ exactly in the nearest/dedup query plumbing.
    let mut group = c.benchmark_group("observe_stream_500reps");
    group.sample_size(10);
    group.bench_function("full_rebuild_baseline", |b| {
        b.iter(|| {
            let mut last = 0;
            for sensed in std::hint::black_box(&revisits) {
                last = base.observe(&sensed.raw);
            }
            last
        });
    });
    group.bench_function("incremental_stage", |b| {
        b.iter(|| {
            let mut last = 0;
            for sensed in std::hint::black_box(&revisits) {
                last = inc.ingest(sensed).expect("ingest").rep;
            }
            last
        });
    });
    group.finish();

    // Growing the distance matrix to 500 points: per-representative column
    // appends vs from-scratch rebuilds.
    let mut group = c.benchmark_group("distance_matrix_maintenance");
    group.sample_size(10);
    group.bench_function("full_rebuild_baseline", |b| {
        b.iter(|| {
            let mut last = 0.0;
            for m in 2..=vectors.len() {
                let d = DistanceMatrix::from_vectors(std::hint::black_box(&vectors[..m]))
                    .expect("matrix");
                last = d.get(0, m - 1);
            }
            last
        });
    });
    group.bench_function("incremental_append", |b| {
        b.iter(|| {
            let mut d =
                DistanceMatrix::from_vectors(std::hint::black_box(&vectors[..2])).expect("matrix");
            for m in 2..vectors.len() {
                d.append_point(&vectors[..m], &vectors[m]).expect("append");
            }
            d.get(0, vectors.len() - 1)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_mapping_hotpath);
criterion_main!(benches);
