//! Representative-sample deduplication (§4 of the paper).
//!
//! The SMACOF cost is quadratic in the number of samples, so the paper keeps
//! one *representative* per group of near-identical measurement vectors and
//! discards the rest. [`ReprSet`] implements that policy: a new vector
//! within `epsilon` (Euclidean) of an existing representative is *merged*
//! into it (a hit count is kept), otherwise it becomes a new representative.
//!
//! The controller maps each raw time-series sample to a representative index
//! so that trajectories (which are defined over raw samples) can still be
//! traced through the deduplicated embedding.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::distance::Metric;
use crate::MdsError;

/// Multiply-rotate hash of the grid's integer cell keys (the FxHash
/// round). The keys are small cell coordinates the map itself derives,
/// not input an adversary picks to collide, so SipHash's resistance to
/// hash flooding buys nothing here, and its cost showed on every insert's
/// nine cell lookups.
#[derive(Debug, Clone, Copy, Default)]
struct CellHasher(u64);

impl CellHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for CellHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_i64(&mut self, word: i64) {
        self.add(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Uniform-grid bucket index over the first two coordinates of the
/// (normalized, `[0, 1]`-ish) measurement space.
///
/// Buckets hold representative indices keyed by the cell of their 2-D
/// projection. Because the Euclidean metric dominates the per-coordinate
/// difference (L∞ ≤ L2), a vector within `epsilon` of a representative
/// differs by at most `epsilon` in each projected coordinate, so with a
/// cell side ≥ `epsilon` the 3×3 neighbourhood of the query cell covers
/// every merge candidate. Likewise, any representative whose projected
/// cell is `r` cells away (Chebyshev) is at full distance > `(r-1)·side`,
/// which drives the expanding-ring nearest search. The index only ever
/// *prunes* — surviving candidates are compared by their exact distance —
/// so results are identical to the linear scan.
#[derive(Debug, Clone)]
struct GridIndex {
    side: f64,
    buckets: HashMap<(i64, i64), Vec<usize>, BuildHasherDefault<CellHasher>>,
    /// Occupied-cell bounding box, `None` while empty.
    bounds: Option<((i64, i64), (i64, i64))>,
}

impl GridIndex {
    fn new(epsilon: f64) -> Self {
        GridIndex {
            // The cell side must be ≥ epsilon for the 3×3 insert
            // neighbourhood to be sound; for tiny/zero epsilon a coarser
            // side keeps the bucket count bounded instead.
            side: epsilon.max(0.05),
            buckets: HashMap::default(),
            bounds: None,
        }
    }

    /// The cell of `vector`'s first two coordinates, each index clamped to
    /// ±2^40 so `center ± r` cannot overflow. The clamp is monotone and
    /// brings no two indices further apart, so the 3×3 insert
    /// neighbourhood and the ring pruning stay sound.
    fn cell_of(&self, vector: &[f64]) -> (i64, i64) {
        const MAX: f64 = (1u64 << 40) as f64;
        let index = |v: f64| (v / self.side).floor().clamp(-MAX, MAX) as i64;
        let x = vector.first().copied().unwrap_or(0.0);
        let y = vector.get(1).copied().unwrap_or(0.0);
        (index(x), index(y))
    }

    fn add(&mut self, index: usize, vector: &[f64]) {
        let cell = self.cell_of(vector);
        self.buckets.entry(cell).or_default().push(index);
        self.bounds = Some(match self.bounds {
            None => (cell, cell),
            Some((lo, hi)) => (
                (lo.0.min(cell.0), lo.1.min(cell.1)),
                (hi.0.max(cell.0), hi.1.max(cell.1)),
            ),
        });
    }

    /// Visits the bucket of each cell in the ring at Chebyshev offset
    /// `r` around `center`, clipped to the occupied bounding box.
    fn visit_ring<F: FnMut(&[usize])>(&self, center: (i64, i64), r: i64, mut visit: F) {
        let Some((lo, hi)) = self.bounds else {
            return;
        };
        let mut call = |x: i64, y: i64| {
            if x >= lo.0 && x <= hi.0 && y >= lo.1 && y <= hi.1 {
                if let Some(bucket) = self.buckets.get(&(x, y)) {
                    visit(bucket);
                }
            }
        };
        if r == 0 {
            call(center.0, center.1);
            return;
        }
        for x in (center.0 - r)..=(center.0 + r) {
            call(x, center.1 - r);
            call(x, center.1 + r);
        }
        for y in (center.1 - r + 1)..=(center.1 + r - 1) {
            call(center.0 - r, y);
            call(center.0 + r, y);
        }
    }

    /// True when the box at Chebyshev radius `r` around `center` covers
    /// every occupied cell — nothing remains beyond ring `r`.
    fn ring_exhausts(&self, center: (i64, i64), r: i64) -> bool {
        match self.bounds {
            None => true,
            Some((lo, hi)) => {
                center.0 - r <= lo.0
                    && center.1 - r <= lo.1
                    && center.0 + r >= hi.0
                    && center.1 + r >= hi.1
            }
        }
    }
}

/// Outcome of inserting a vector into a [`ReprSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupOutcome {
    /// The vector became a new representative with this index.
    New(usize),
    /// The vector merged into the existing representative with this index.
    Merged(usize),
}

impl DedupOutcome {
    /// Index of the representative this vector now maps to.
    pub fn index(&self) -> usize {
        match *self {
            DedupOutcome::New(i) | DedupOutcome::Merged(i) => i,
        }
    }

    /// True when a new representative was created.
    pub fn is_new(&self) -> bool {
        matches!(self, DedupOutcome::New(_))
    }
}

/// A growing set of representative measurement vectors.
#[derive(Debug, Clone)]
pub struct ReprSet {
    epsilon: f64,
    dim: Option<usize>,
    representatives: Vec<Vec<f64>>,
    grid: Option<GridIndex>,
}

impl ReprSet {
    /// Creates an empty set that merges vectors within `epsilon` of an
    /// existing representative.
    ///
    /// The threshold is **closed** — see `ReprSet::merges`. In
    /// particular `ReprSet::new(0.0)` is a valid exact-duplicate
    /// deduplicator: bit-equal vectors (distance 0) merge, any
    /// perturbation however small (e.g. 1e-7 in one coordinate) starts a
    /// new representative. This holds identically on the grid-indexed
    /// path.
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::NonFinite`] if `epsilon` is negative or not
    /// finite.
    pub fn new(epsilon: f64) -> Result<Self, MdsError> {
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(MdsError::NonFinite {
                context: "dedup epsilon",
            });
        }
        Ok(ReprSet {
            epsilon,
            dim: None,
            representatives: Vec::new(),
            grid: None,
        })
    }

    /// Enables the uniform-grid bucket index, pruning [`ReprSet::insert`]
    /// and [`ReprSet::nearest`] scans to nearby candidates. Results are
    /// identical to the unindexed scans; only the work done changes. Any
    /// representatives already held are indexed.
    pub fn grid_indexed(mut self) -> Self {
        let mut grid = GridIndex::new(self.epsilon);
        for (i, rep) in self.representatives.iter().enumerate() {
            grid.add(i, rep);
        }
        self.grid = Some(grid);
        self
    }

    /// The merge predicate: a vector at `distance` from a representative
    /// merges into it exactly when `distance <= epsilon` (**closed**
    /// threshold, both ends). Consequences, enforced by regression tests:
    ///
    /// * a distance of exactly `epsilon` merges (not a new
    ///   representative);
    /// * with `epsilon == 0.0` only exact duplicates merge — `-0.0`
    ///   coordinates count as duplicates of `0.0` because their distance
    ///   is zero;
    /// * any `distance > epsilon`, however slightly, starts a new
    ///   representative.
    pub(crate) fn merges(&self, distance: f64) -> bool {
        distance <= self.epsilon
    }

    /// Number of representatives currently held.
    pub fn len(&self) -> usize {
        self.representatives.len()
    }

    /// True when no representative has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.representatives.is_empty()
    }

    /// Borrow the representative vectors.
    pub fn representatives(&self) -> &[Vec<f64>] {
        &self.representatives
    }

    /// Borrow the representative with index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn representative(&self, i: usize) -> &[f64] {
        &self.representatives[i]
    }

    /// Inserts a vector, merging it into the nearest representative when one
    /// lies within `epsilon`.
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::DimensionMismatch`] for wrong-length input and
    /// [`MdsError::NonFinite`] for vectors with NaN/inf coordinates.
    pub fn insert(&mut self, vector: &[f64]) -> Result<DedupOutcome, MdsError> {
        if let Some(dim) = self.dim {
            if vector.len() != dim {
                return Err(MdsError::DimensionMismatch {
                    expected: dim,
                    found: vector.len(),
                });
            }
        } else if vector.is_empty() {
            return Err(MdsError::Empty);
        }
        if vector.iter().any(|v| !v.is_finite()) {
            return Err(MdsError::NonFinite {
                context: "dedup input vector",
            });
        }
        self.dim = Some(vector.len());

        // Nearest representative within epsilon, if any. The scan prunes
        // with squared-distance early exit (and the grid neighbourhood when
        // indexed) but every accepted candidate is judged by its exact
        // distance, so the outcome matches the plain linear scan.
        let mut best: Option<(usize, f64)> = None;
        let consider = |i: usize, rep: &[f64], best: &mut Option<(usize, f64)>| {
            let bound = best.map_or(self.epsilon, |(_, bd)| bd);
            if let Some(d) = Metric::Euclidean.distance_pruned(rep, vector, bound) {
                if self.merges(d) && best.is_none_or(|(bi, bd)| d < bd || (d == bd && i < bi)) {
                    *best = Some((i, d));
                }
            }
        };
        if let Some(grid) = &self.grid {
            // Cell side ≥ epsilon: all merge candidates live in rings 0-1.
            let center = grid.cell_of(vector);
            for r in 0..=1 {
                grid.visit_ring(center, r, |bucket| {
                    for &i in bucket {
                        consider(i, &self.representatives[i], &mut best);
                    }
                });
            }
        } else {
            for (i, rep) in self.representatives.iter().enumerate() {
                consider(i, rep, &mut best);
            }
        }
        match best {
            Some((i, _)) => Ok(DedupOutcome::Merged(i)),
            None => {
                self.representatives.push(vector.to_vec());
                let index = self.representatives.len() - 1;
                if let Some(grid) = &mut self.grid {
                    grid.add(index, &self.representatives[index]);
                }
                Ok(DedupOutcome::New(index))
            }
        }
    }

    /// Index of the representative nearest to `vector` and its distance, or
    /// `None` when the set is empty.
    ///
    /// Ties go to the lowest index. With the grid index enabled the search
    /// expands cell rings outward until no unvisited cell can hold a closer
    /// representative, or until scanning every one is cheaper; the result
    /// is identical to the linear scan.
    pub fn nearest(&self, vector: &[f64]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        if let Some(grid) = &self.grid {
            let center = grid.cell_of(vector);
            // Ring by ring, until the box out to ring r holds more cells
            // than there are representatives: the scan below is then the
            // cheaper way to the same answer, so no query walks the rings
            // between far-flung points.
            let mut r = 0i64;
            while (2 * r + 1).pow(2) as usize <= self.representatives.len() {
                grid.visit_ring(center, r, |bucket| {
                    for &i in bucket {
                        self.consider_nearest(i, vector, &mut best);
                    }
                });
                // A representative in ring r+1 or beyond is farther than
                // r·side: past the best, no closer candidate (nor an
                // equal-distance one with a lower index) can remain.
                if grid.ring_exhausts(center, r)
                    || best.is_some_and(|(_, bd)| r as f64 * grid.side > bd)
                {
                    return best;
                }
                r += 1;
            }
        }
        for i in 0..self.representatives.len() {
            self.consider_nearest(i, vector, &mut best);
        }
        best
    }

    fn consider_nearest(&self, i: usize, vector: &[f64], best: &mut Option<(usize, f64)>) {
        let bound = best.map_or(f64::INFINITY, |(_, bd)| bd);
        let rep = &self.representatives[i];
        if let Some(d) = Metric::Euclidean.distance_pruned(rep, vector, bound) {
            if best.is_none_or(|(bi, bd)| d < bd || (d == bd && i < bi)) {
                *best = Some((i, d));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_insert_is_new() {
        let mut set = ReprSet::new(0.1).unwrap();
        let out = set.insert(&[0.5, 0.5]).unwrap();
        assert_eq!(out, DedupOutcome::New(0));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn nearby_vectors_merge() {
        let mut set = ReprSet::new(0.1).unwrap();
        set.insert(&[0.5, 0.5]).unwrap();
        let out = set.insert(&[0.55, 0.5]).unwrap();
        assert_eq!(out, DedupOutcome::Merged(0));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn distant_vectors_become_new_representatives() {
        let mut set = ReprSet::new(0.1).unwrap();
        set.insert(&[0.0, 0.0]).unwrap();
        let out = set.insert(&[1.0, 1.0]).unwrap();
        assert_eq!(out, DedupOutcome::New(1));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn merges_into_nearest_of_several() {
        let mut set = ReprSet::new(0.5).unwrap();
        set.insert(&[0.0]).unwrap();
        set.insert(&[1.0]).unwrap();
        let out = set.insert(&[0.9]).unwrap();
        assert_eq!(out, DedupOutcome::Merged(1));
    }

    #[test]
    fn zero_epsilon_only_merges_exact_duplicates() {
        let mut set = ReprSet::new(0.0).unwrap();
        set.insert(&[0.3, 0.3]).unwrap();
        assert!(set.insert(&[0.3, 0.3]).unwrap().index() == 0);
        assert!(set.insert(&[0.3, 0.3000001]).unwrap().is_new());
    }

    #[test]
    fn threshold_is_closed_at_epsilon() {
        // d == epsilon exactly: merges, on both the linear and grid paths.
        for indexed in [false, true] {
            let mut set = ReprSet::new(0.5).unwrap();
            if indexed {
                set = set.grid_indexed();
            }
            set.insert(&[0.0, 0.0]).unwrap();
            assert_eq!(
                set.insert(&[0.5, 0.0]).unwrap(),
                DedupOutcome::Merged(0),
                "exactly-at-epsilon must merge (indexed = {indexed})"
            );
            // The next representable distance above epsilon is new.
            let just_over = 0.5f64.next_up();
            assert!(
                set.insert(&[just_over, 0.0]).unwrap().is_new(),
                "just over epsilon must be new (indexed = {indexed})"
            );
        }
    }

    #[test]
    fn zero_epsilon_treats_negative_zero_as_duplicate() {
        for indexed in [false, true] {
            let mut set = ReprSet::new(0.0).unwrap();
            if indexed {
                set = set.grid_indexed();
            }
            set.insert(&[0.0, 0.3]).unwrap();
            // -0.0 == 0.0, so the distance is exactly zero: a duplicate.
            assert_eq!(
                set.insert(&[-0.0, 0.3]).unwrap(),
                DedupOutcome::Merged(0),
                "-0.0 must dedup against 0.0 (indexed = {indexed})"
            );
            // A 1e-7 perturbation is a genuinely new representative.
            assert!(set.insert(&[0.0, 0.3 + 1e-7]).unwrap().is_new());
            assert_eq!(set.len(), 2);
        }
    }

    #[test]
    fn merges_predicate_matches_documented_semantics() {
        let set = ReprSet::new(0.25).unwrap();
        assert!(set.merges(0.0));
        assert!(set.merges(0.25));
        assert!(!set.merges(0.25f64.next_up()));
        let exact = ReprSet::new(0.0).unwrap();
        assert!(exact.merges(0.0));
        assert!(!exact.merges(f64::MIN_POSITIVE));
    }

    #[test]
    fn rejects_dimension_changes() {
        let mut set = ReprSet::new(0.1).unwrap();
        set.insert(&[0.0, 0.0]).unwrap();
        assert!(matches!(
            set.insert(&[0.0]),
            Err(MdsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_nan_and_negative_epsilon() {
        assert!(ReprSet::new(-1.0).is_err());
        assert!(ReprSet::new(f64::NAN).is_err());
        let mut set = ReprSet::new(0.1).unwrap();
        assert!(set.insert(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn nearest_reports_distance() {
        let mut set = ReprSet::new(0.01).unwrap();
        assert!(set.nearest(&[0.0]).is_none());
        set.insert(&[0.0]).unwrap();
        set.insert(&[2.0]).unwrap();
        let (i, d) = set.nearest(&[1.8]).unwrap();
        assert_eq!(i, 1);
        assert!((d - 0.2).abs() < 1e-12);
    }

    #[test]
    fn grid_index_matches_linear_scan_on_deterministic_stream() {
        let mut plain = ReprSet::new(0.07).unwrap();
        let mut indexed = ReprSet::new(0.07).unwrap().grid_indexed();
        let stream: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let t = i as f64;
                vec![
                    (t * 0.61).sin().abs(),
                    (t * 0.37).cos().abs(),
                    (t * 0.23).sin().abs(),
                    (t * 0.11).cos().abs(),
                ]
            })
            .collect();
        for v in &stream {
            assert_eq!(plain.insert(v).unwrap(), indexed.insert(v).unwrap());
        }
        assert_eq!(plain.len(), indexed.len());
        for v in &stream {
            assert_eq!(plain.nearest(v), indexed.nearest(v));
        }
        // Probes far outside the occupied region exercise ring expansion.
        for probe in [
            vec![5.0, 5.0, 0.0, 0.0],
            vec![-3.0, 0.5, 0.2, 0.9],
            vec![0.5, -4.0, 1.0, 1.0],
        ] {
            assert_eq!(plain.nearest(&probe), indexed.nearest(&probe));
        }
    }

    #[test]
    fn grid_index_matches_linear_scan_at_extreme_coordinates() {
        // Cells past ±2^40 clamp: no ring arithmetic overflows (a panic in
        // debug, a wrap in release), and a query never walks the rings
        // between points ~1e300 apart.
        let far = [1e300, -1e300, f64::MAX, -f64::MAX, f64::MIN_POSITIVE];
        let mut stream: Vec<Vec<f64>> = Vec::new();
        for &x in &far {
            for &y in &far {
                stream.push(vec![x, y, 0.5]);
            }
            stream.push(vec![x, 0.3, 0.1]);
            stream.push(vec![0.3, x, 0.1]);
        }
        stream.extend((0..20).map(|i| vec![0.05 * f64::from(i), 0.4, 0.2]));
        let mut plain = ReprSet::new(0.07).unwrap();
        let mut indexed = ReprSet::new(0.07).unwrap().grid_indexed();
        for v in &stream {
            assert_eq!(
                plain.insert(v).unwrap(),
                indexed.insert(v).unwrap(),
                "{v:?}"
            );
        }
        assert_eq!(plain.len(), indexed.len());
        let probes = stream.iter().cloned().chain([
            vec![0.0, 0.0, 0.0],
            vec![5e299, -5e299, 1.0],
            vec![f64::MAX, 0.0, -f64::MAX],
        ]);
        for probe in probes {
            assert_eq!(plain.nearest(&probe), indexed.nearest(&probe), "{probe:?}");
        }
    }

    #[test]
    fn grid_indexed_after_growth_indexes_existing_representatives() {
        let mut set = ReprSet::new(0.1).unwrap();
        set.insert(&[0.1, 0.1]).unwrap();
        set.insert(&[0.9, 0.9]).unwrap();
        let mut set = set.grid_indexed();
        // Pre-existing representatives are found through the grid.
        assert_eq!(set.insert(&[0.12, 0.1]).unwrap(), DedupOutcome::Merged(0));
        assert_eq!(set.nearest(&[0.85, 0.92]).unwrap().0, 1);
    }

    #[test]
    fn zero_epsilon_grid_still_merges_exact_duplicates() {
        let mut set = ReprSet::new(0.0).unwrap().grid_indexed();
        set.insert(&[0.3, 0.3]).unwrap();
        assert!(set.insert(&[0.3, 0.3]).unwrap().index() == 0);
        assert!(set.insert(&[0.3, 0.3000001]).unwrap().is_new());
    }

    #[test]
    fn coverage_property_every_insert_within_epsilon_of_its_representative() {
        let mut set = ReprSet::new(0.25).unwrap();
        let inputs: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i as f64 * 0.61).sin().abs(), (i as f64 * 0.37).cos().abs()])
            .collect();
        for v in &inputs {
            let out = set.insert(v).unwrap();
            let rep = set.representative(out.index());
            let d = Metric::Euclidean.distance(rep, v);
            assert!(d <= 0.25 + 1e-12, "vector not covered: d = {d}");
        }
        assert!(set.len() < inputs.len(), "dedup should compress the stream");
    }
}
