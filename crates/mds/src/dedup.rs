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

use std::cell::Cell;

use crate::distance::{euclidean_pruned, pruning_limit};
use crate::MdsError;

/// Uniform-grid bucket index over two coordinates of the (normalized,
/// `[0, 1]`-ish) measurement space: the two whose range over the
/// representatives is widest.
///
/// Buckets hold representative indices keyed by the cell of their 2-D
/// projection. Because the Euclidean metric dominates the per-coordinate
/// difference (L∞ ≤ L2), a vector within `epsilon` of a representative
/// differs by at most `epsilon` in each projected coordinate, so with a
/// cell side ≥ `epsilon` the 3×3 neighbourhood of the query cell covers
/// every merge candidate. Likewise, any representative whose projected
/// cell is `r` cells away (Chebyshev) is at full distance > `(r-1)·side`,
/// which drives the expanding-ring searches. The index only ever
/// *prunes* — surviving candidates are compared by their exact distance —
/// so results are identical to the linear scan, whichever two coordinates
/// it projects on and whatever its cell side.
///
/// Which two pays, though: a coordinate that barely moves (the sensitive
/// VM's memory on the vlc maps spans 0.01) puts every representative in
/// one row of cells, and each query then compares a third of the set.
///
/// The buckets are one dense array over the occupied box of cells, filed
/// again whenever a representative is added: a query then reads a cell,
/// empty or not, at the cost of an index computation. The side grows with
/// the spread ([`GridIndex::SPREAD_CELLS`]), so the box stays at most 32
/// cells wide.
#[derive(Debug, Clone)]
struct GridIndex {
    /// The smallest cell side: `epsilon`, or 0.05 when that is coarser.
    min_side: f64,
    side: f64,
    /// The two projected coordinates, lower first. A coordinate past the
    /// vector's end projects to 0 (one-dimensional sets).
    axes: (usize, usize),
    /// Per-coordinate minimum and maximum over the representatives, empty
    /// while there are none.
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Each representative's projection on the axes, and its cell, by
    /// index.
    projections: Vec<[f64; 2]>,
    cells: Vec<(i64, i64)>,
    /// The occupied box: its lowest cell and its width and height in
    /// cells, zero while empty.
    origin: (i64, i64),
    width: i64,
    height: i64,
    /// The representatives of the box's cell `s` (column-major) are
    /// `entries[starts[s]..starts[s + 1]]`.
    starts: Vec<usize>,
    entries: Vec<usize>,
}

impl GridIndex {
    /// The side is at least the wider axis's spread over this many cells,
    /// which bounds the box at 32 cells a side (floors add at most two). At
    /// the 0.05 floor a `[0, 1]` map spans 21 cells and never coarsens.
    const SPREAD_CELLS: f64 = 30.0;

    fn new(epsilon: f64) -> Self {
        // The cell side must be ≥ epsilon for the 3×3 insert neighbourhood
        // to be sound; for tiny/zero epsilon a coarser side keeps the
        // bucket count bounded instead.
        let min_side = epsilon.max(0.05);
        GridIndex {
            min_side,
            side: min_side,
            axes: (0, 1),
            lo: Vec::new(),
            hi: Vec::new(),
            projections: Vec::new(),
            cells: Vec::new(),
            origin: (0, 0),
            width: 0,
            height: 0,
            starts: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// `vector`'s coordinates on the two axes.
    fn project(&self, vector: &[f64]) -> [f64; 2] {
        let at = |axis: usize| vector.get(axis).copied().unwrap_or(0.0);
        [at(self.axes.0), at(self.axes.1)]
    }

    /// The cell of a projection, each index clamped to ±2^40 so
    /// `center ± r` cannot overflow. The clamp is monotone and brings no
    /// two indices further apart, so the 3×3 insert neighbourhood and the
    /// ring pruning stay sound.
    fn cell_of(&self, [x, y]: [f64; 2]) -> (i64, i64) {
        const MAX: f64 = (1u64 << 40) as f64;
        let index = |v: f64| (v / self.side).floor().clamp(-MAX, MAX) as i64;
        (index(x), index(y))
    }

    /// Indexes `reps[index]`, the newest representative, and files every
    /// representative again: O(n + cells). When it widens a coordinate's
    /// range far enough to change the widest pair, every projection is
    /// taken again under the new pair, once per change of pair, where the
    /// ranges only grow.
    fn add(&mut self, reps: &[Vec<f64>], index: usize) {
        let vector = &reps[index];
        if self.widen(vector) {
            let axes = self.widest_pair();
            if axes != self.axes {
                self.axes = axes;
                self.projections.clear();
                for rep in &reps[..index] {
                    self.projections.push(self.project(rep));
                }
            }
        }
        self.projections.push(self.project(vector));
        self.file();
    }

    /// Grows the per-coordinate ranges to cover `vector`; true when one
    /// grew.
    fn widen(&mut self, vector: &[f64]) -> bool {
        if self.lo.is_empty() {
            self.lo = vector.to_vec();
            self.hi = vector.to_vec();
            return true;
        }
        let mut widened = false;
        for ((lo, hi), &v) in self.lo.iter_mut().zip(&mut self.hi).zip(vector) {
            if v < *lo {
                *lo = v;
                widened = true;
            }
            if v > *hi {
                *hi = v;
                widened = true;
            }
        }
        widened
    }

    /// The range of coordinate `c`, 0 past the vector's end.
    fn range(&self, c: usize) -> f64 {
        self.hi
            .get(c)
            .zip(self.lo.get(c))
            .map_or(0.0, |(hi, lo)| hi - lo)
    }

    /// The two coordinates of widest range, lower first; of equal ranges
    /// the lower coordinate wins.
    fn widest_pair(&self) -> (usize, usize) {
        let (mut first, mut second) = (0, 1);
        if self.range(1) > self.range(0) {
            (first, second) = (1, 0);
        }
        for c in 2..self.lo.len() {
            if self.range(c) > self.range(first) {
                (first, second) = (c, first);
            } else if self.range(c) > self.range(second) {
                second = c;
            }
        }
        (first.min(second), first.max(second))
    }

    /// Sizes the cells to the spread and rebuilds the dense buckets from
    /// the projections.
    fn file(&mut self) {
        let spread = self.range(self.axes.0).max(self.range(self.axes.1));
        self.side = (spread / Self::SPREAD_CELLS).clamp(self.min_side, f64::MAX);
        self.cells.clear();
        for &projection in &self.projections {
            self.cells.push(self.cell_of(projection));
        }
        let (mut low, mut high) = ((i64::MAX, i64::MAX), (i64::MIN, i64::MIN));
        for &(x, y) in &self.cells {
            low = (low.0.min(x), low.1.min(y));
            high = (high.0.max(x), high.1.max(y));
        }
        self.origin = low;
        self.width = high.0 - low.0 + 1;
        self.height = high.1 - low.1 + 1;
        // Counting sort by cell: count, prefix-sum to each cell's end,
        // then fill backwards so each cell lists its indices ascending.
        self.starts.clear();
        self.starts
            .resize((self.width * self.height) as usize + 1, 0);
        for i in 0..self.cells.len() {
            let slot = self.slot(self.cells[i]);
            self.starts[slot + 1] += 1;
        }
        for s in 1..self.starts.len() {
            self.starts[s] += self.starts[s - 1];
        }
        self.entries.clear();
        self.entries.resize(self.cells.len(), 0);
        for i in (0..self.cells.len()).rev() {
            let slot = self.slot(self.cells[i]);
            self.starts[slot + 1] -= 1;
            self.entries[self.starts[slot + 1]] = i;
        }
        // Each cell's cursor now sits at its own start; shift them back
        // into place.
        self.starts.remove(0);
        self.starts.push(self.cells.len());
    }

    /// The position of an occupied-box cell in `starts`.
    fn slot(&self, (x, y): (i64, i64)) -> usize {
        ((x - self.origin.0) * self.height + (y - self.origin.1)) as usize
    }

    /// The representatives filed under cell `(x, y)`; none outside the
    /// box.
    fn bucket(&self, x: i64, y: i64) -> &[usize] {
        let (dx, dy) = (x - self.origin.0, y - self.origin.1);
        if dx < 0 || dy < 0 || dx >= self.width || dy >= self.height {
            return &[];
        }
        let slot = (dx * self.height + dy) as usize;
        &self.entries[self.starts[slot]..self.starts[slot + 1]]
    }

    /// Visits the bucket of each cell in the ring at Chebyshev offset
    /// `r` around `center`, clipped to the occupied box.
    fn visit_ring<F: FnMut(&[usize])>(&self, center: (i64, i64), r: i64, mut visit: F) {
        let (cx, cy) = center;
        if r == 0 {
            visit(self.bucket(cx, cy));
            return;
        }
        let (x0, y0) = self.origin;
        let (x1, y1) = (x0 + self.width - 1, y0 + self.height - 1);
        for y in [cy - r, cy + r] {
            if (y0..=y1).contains(&y) {
                for x in (cx - r).max(x0)..=(cx + r).min(x1) {
                    visit(self.bucket(x, y));
                }
            }
        }
        for x in [cx - r, cx + r] {
            if (x0..=x1).contains(&x) {
                for y in (cy - r + 1).max(y0)..=(cy + r - 1).min(y1) {
                    visit(self.bucket(x, y));
                }
            }
        }
    }

    /// True when the box at Chebyshev radius `r` around `center` covers
    /// every occupied cell — nothing remains beyond ring `r`.
    fn ring_exhausts(&self, center: (i64, i64), r: i64) -> bool {
        let (x0, y0) = self.origin;
        self.width == 0
            || (center.0 - r <= x0
                && center.1 - r <= y0
                && center.0 + r >= x0 + self.width - 1
                && center.1 + r >= y0 + self.height - 1)
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
    grid: GridIndex,
    /// Candidate distances evaluated by queries since the last
    /// [`ReprSet::take_candidates`]; a `Cell` so the `&self` queries can
    /// count. Decision-inert.
    candidates: Cell<u64>,
}

impl ReprSet {
    /// Creates an empty set that merges vectors within `epsilon` of an
    /// existing representative. Its uniform-grid bucket index prunes the
    /// [`ReprSet::insert`], [`ReprSet::nearest`] and
    /// [`ReprSet::nearest_three`] scans to nearby candidates; the answers
    /// are the linear scans' (the test-local oracles of
    /// `tests/properties.rs` hold them to it), only the work done differs.
    ///
    /// The threshold is **closed** — see `ReprSet::merges`. In
    /// particular `ReprSet::new(0.0)` is a valid exact-duplicate
    /// deduplicator: bit-equal vectors (distance 0) merge, any
    /// perturbation however small (e.g. 1e-7 in one coordinate) starts a
    /// new representative.
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
            grid: GridIndex::new(epsilon),
            candidates: Cell::new(0),
        })
    }

    /// The candidate distances queries have evaluated since the last call
    /// (or since creation), resetting the tally: the work the grid index
    /// saves, counted.
    pub fn take_candidates(&self) -> u64 {
        self.candidates.take()
    }

    /// The distance from representative `i` to `vector`, or `None` once it
    /// provably exceeds `bound`: [`euclidean_pruned`]'s answer, and
    /// the one place a query evaluates a candidate. `at` (`vector`'s
    /// projection on the grid's axes) settles most far candidates first: the
    /// squared differences on the two axes are two of the distance's
    /// non-negative terms, and a float sum of such terms is no less than
    /// any two of them summed, so when those two alone pass the pruning
    /// limit the full sum does too.
    fn distance_within(&self, i: usize, vector: &[f64], at: [f64; 2], bound: f64) -> Option<f64> {
        let [x, y] = self.grid.projections[i];
        let (dx, dy) = (x - at[0], y - at[1]);
        if dx * dx + dy * dy > pruning_limit(bound) {
            return None;
        }
        self.candidates.set(self.candidates.get() + 1);
        euclidean_pruned(&self.representatives[i], vector, bound)
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
        // with the grid neighbourhood and a squared-distance early exit,
        // but every accepted candidate is judged by its exact distance, so
        // the outcome matches the plain linear scan.
        let at = self.grid.project(vector);
        let mut best: Option<(usize, f64)> = None;
        let mut consider = |i: usize| {
            let bound = best.map_or(self.epsilon, |(_, bd)| bd);
            if let Some(d) = self.distance_within(i, vector, at, bound) {
                if self.merges(d) && best.is_none_or(|(bi, bd)| d < bd || (d == bd && i < bi)) {
                    best = Some((i, d));
                }
            }
        };
        // Cell side ≥ epsilon: all merge candidates live in rings 0-1.
        let center = self.grid.cell_of(at);
        for r in 0..=1 {
            self.grid
                .visit_ring(center, r, |bucket| bucket.iter().for_each(|&i| consider(i)));
        }
        match best {
            Some((i, _)) => Ok(DedupOutcome::Merged(i)),
            None => {
                self.representatives.push(vector.to_vec());
                let index = self.representatives.len() - 1;
                self.grid.add(&self.representatives, index);
                Ok(DedupOutcome::New(index))
            }
        }
    }

    /// Index of the representative nearest to `vector` and its distance, or
    /// `None` when the set is empty.
    ///
    /// Ties go to the lowest index. The search expands cell rings outward
    /// until no unvisited cell can hold a closer representative, or until
    /// scanning every one is cheaper; the result is identical to the
    /// linear scan.
    pub fn nearest(&self, vector: &[f64]) -> Option<(usize, f64)> {
        let at = self.grid.project(vector);
        let mut best: Option<(usize, f64)> = None;
        self.search(
            at,
            &mut best,
            |best, i| {
                let bound = best.map_or(f64::INFINITY, |(_, bd)| bd);
                if let Some(d) = self.distance_within(i, vector, at, bound) {
                    if best.is_none_or(|(bi, bd)| d < bd || (d == bd && i < bi)) {
                        *best = Some((i, d));
                    }
                }
            },
            // No closer candidate (nor an equal-distance one with a lower
            // index) lies beyond a reach past the best.
            |best, reach| best.is_some_and(|(_, bd)| reach > bd),
        );
        best
    }

    /// The (up to) three representatives nearest to `vector`, ascending by
    /// `(distance, index)`. A representative at infinite distance never
    /// ranks, so fewer than three come back only when fewer than three lie
    /// at a finite distance. The rings expand as in [`ReprSet::nearest`];
    /// the result is identical to the linear scan.
    pub fn nearest_three(&self, vector: &[f64]) -> NearestThree {
        let at = self.grid.project(vector);
        let mut top = NearestThree::default();
        self.search(
            at,
            &mut top,
            |top, i| {
                if let Some(d) = self.distance_within(i, vector, at, top.bound()) {
                    top.offer(i, d);
                }
            },
            |top, reach| reach > top.bound(),
        );
        top
    }

    /// Offers each representative once to `offer`, nearest cells first:
    /// ring by ring around the cell of the query's projection `at` until
    /// `settled(state, reach)` says that no representative farther than
    /// `reach` can change the answer, or the rings have covered every
    /// occupied cell. Once the box out to the next ring would hold more
    /// cells than there are representatives, the rest are scanned in index
    /// order instead, so no query walks the rings between far-flung points
    /// (the projected test in [`ReprSet::distance_within`] then settles
    /// most of them).
    fn search<S>(
        &self,
        at: [f64; 2],
        state: &mut S,
        offer: impl Fn(&mut S, usize),
        settled: impl Fn(&S, f64) -> bool,
    ) {
        let grid = &self.grid;
        let center = grid.cell_of(at);
        let mut r = 0i64;
        while (2 * r + 1).pow(2) as usize <= self.representatives.len() {
            grid.visit_ring(center, r, |bucket| {
                bucket.iter().for_each(|&i| offer(state, i));
            });
            // A representative in ring r+1 or beyond is farther than r·side.
            if grid.ring_exhausts(center, r) || settled(state, r as f64 * grid.side) {
                return;
            }
            r += 1;
        }
        // Rings 0..r are done.
        for (i, cell) in grid.cells.iter().enumerate() {
            if (cell.0 - center.0).abs().max((cell.1 - center.1).abs()) >= r {
                offer(state, i);
            }
        }
    }
}

/// The up to three representatives nearest a query, ascending by
/// `(distance, index)`: what [`ReprSet::nearest_three`] returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NearestThree {
    slots: [(usize, f64); 3],
    len: usize,
}

impl Default for NearestThree {
    fn default() -> Self {
        NearestThree {
            slots: [(usize::MAX, f64::INFINITY); 3],
            len: 0,
        }
    }
}

impl NearestThree {
    /// The `(index, distance)` pairs, nearest first.
    pub fn as_slice(&self) -> &[(usize, f64)] {
        &self.slots[..self.len]
    }

    /// The distance a candidate must not exceed to rank: the third-best's
    /// once three are held.
    fn bound(&self) -> f64 {
        self.slots[2].1
    }

    /// Ranks representative `i` at distance `d`, in any order of offers.
    /// Empty slots hold `(usize::MAX, ∞)`, which every finite distance
    /// outranks.
    fn offer(&mut self, i: usize, d: f64) {
        let outranks = |(j, e): (usize, f64)| d < e || (d == e && i < j);
        if d == f64::INFINITY || !outranks(self.slots[2]) {
            return;
        }
        self.len = (self.len + 1).min(3);
        if outranks(self.slots[1]) {
            self.slots[2] = self.slots[1];
            if outranks(self.slots[0]) {
                self.slots[1] = self.slots[0];
                self.slots[0] = (i, d);
            } else {
                self.slots[1] = (i, d);
            }
        } else {
            self.slots[2] = (i, d);
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
        // d == epsilon exactly: merges.
        let mut set = ReprSet::new(0.5).unwrap();
        set.insert(&[0.0, 0.0]).unwrap();
        assert_eq!(
            set.insert(&[0.5, 0.0]).unwrap(),
            DedupOutcome::Merged(0),
            "exactly-at-epsilon must merge"
        );
        // The next representable distance above epsilon is new.
        let just_over = 0.5f64.next_up();
        assert!(
            set.insert(&[just_over, 0.0]).unwrap().is_new(),
            "just over epsilon must be new"
        );
    }

    #[test]
    fn zero_epsilon_treats_negative_zero_as_duplicate() {
        let mut set = ReprSet::new(0.0).unwrap();
        set.insert(&[0.0, 0.3]).unwrap();
        // -0.0 == 0.0, so the distance is exactly zero: a duplicate.
        assert_eq!(
            set.insert(&[-0.0, 0.3]).unwrap(),
            DedupOutcome::Merged(0),
            "-0.0 must dedup against 0.0"
        );
        // A 1e-7 perturbation is a genuinely new representative.
        assert!(set.insert(&[0.0, 0.3 + 1e-7]).unwrap().is_new());
        assert_eq!(set.len(), 2);
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
    fn coverage_property_every_insert_within_epsilon_of_its_representative() {
        let mut set = ReprSet::new(0.25).unwrap();
        let inputs: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i as f64 * 0.61).sin().abs(), (i as f64 * 0.37).cos().abs()])
            .collect();
        for v in &inputs {
            let out = set.insert(v).unwrap();
            let rep = set.representative(out.index());
            let d = crate::distance::euclidean(rep, v);
            assert!(d <= 0.25 + 1e-12, "vector not covered: d = {d}");
        }
        assert!(set.len() < inputs.len(), "dedup should compress the stream");
    }

    fn axes(set: &ReprSet) -> (usize, usize) {
        set.grid.axes
    }

    /// Every representative filed exactly once, in the bucket of its cell
    /// under the current axes and side.
    fn assert_filed(set: &ReprSet) {
        let grid = &set.grid;
        let mut filed = grid.entries.clone();
        filed.sort_unstable();
        assert_eq!(filed, (0..set.len()).collect::<Vec<_>>());
        for (i, rep) in set.representatives().iter().enumerate() {
            let cell = grid.cell_of(grid.project(rep));
            assert_eq!(grid.cells[i], cell);
            assert!(grid.bucket(cell.0, cell.1).contains(&i));
        }
    }

    #[test]
    fn axes_follow_the_widest_ranges_and_refile_on_a_switch() {
        let mut set = ReprSet::new(0.05).unwrap();
        set.insert(&[0.5, 0.4, 0.5, 0.5]).unwrap();
        // All ranges zero: ties go to the lower coordinates.
        assert_eq!(axes(&set), (0, 1));
        // Coordinate 1 never moves, as on the vlc maps.
        set.insert(&[0.9, 0.4, 0.2, 0.5]).unwrap();
        assert_eq!(axes(&set), (0, 2));
        set.insert(&[0.1, 0.4, 0.6, 0.5]).unwrap();
        assert_eq!(axes(&set), (0, 2));
        assert_filed(&set);
        // Coordinate 3 outgrows both: the pair changes and every
        // representative is filed again under it.
        set.insert(&[0.5, 0.4, 0.5, 2.0]).unwrap();
        assert_eq!(axes(&set), (0, 3));
        assert_filed(&set);
        // Equal ranges: the lower coordinate keeps its place.
        let mut tied = ReprSet::new(0.05).unwrap();
        tied.insert(&[0.0, 0.0, 0.0]).unwrap();
        tied.insert(&[0.0, 0.7, 0.7]).unwrap();
        assert_eq!(axes(&tied), (1, 2));
        tied.insert(&[0.7, 0.0, 0.0]).unwrap();
        assert_eq!(axes(&tied), (0, 1));
    }

    #[test]
    fn a_wide_spread_coarsens_the_cells_instead_of_growing_the_box() {
        let mut set = ReprSet::new(0.05).unwrap();
        for i in 0..21 {
            set.insert(&[0.05 * f64::from(i), 0.5]).unwrap();
        }
        // A unit map keeps the smallest side.
        assert_eq!(set.grid.side, 0.05);
        for v in [
            [1e300, 0.5],
            [-1e300, 0.5],
            [f64::MAX, -f64::MAX],
            [3.0, 1e12],
        ] {
            set.insert(&v).unwrap();
            let grid = &set.grid;
            assert!(grid.width <= 32 && grid.height <= 32, "{v:?}: {grid:?}");
            assert_filed(&set);
        }
        assert_eq!(set.grid.side, f64::MAX);
    }

    #[test]
    fn nearest_three_ranks_ties_by_index_in_any_order_of_offers() {
        let mut top = NearestThree::default();
        for (i, d) in [
            (4, 0.5),
            (2, 0.5),
            (9, 0.1),
            (1, f64::INFINITY),
            (3, 0.5),
            (0, 0.7),
        ] {
            top.offer(i, d);
        }
        assert_eq!(top.as_slice(), &[(9, 0.1), (2, 0.5), (3, 0.5)]);
        let mut two = NearestThree::default();
        two.offer(5, 0.3);
        two.offer(6, f64::INFINITY);
        two.offer(1, 0.3);
        assert_eq!(two.as_slice(), &[(1, 0.3), (5, 0.3)]);
    }
}
