//! The mutable state map maintained by the controller.
//!
//! Entries are keyed by the dense *representative index* assigned by the
//! deduplication stage (`stayaway_mds::dedup::ReprSet`): representative `i`
//! owns entry `i`. Every control period the embedding is refreshed, so the
//! 2-D positions of all entries are rewritten; labels (safe/violation) and
//! visit statistics persist across refreshes.
//!
//! The violation-range radii are *derived state*: computed once from the
//! entries and the coordinate scale, kept until a mutation that can move a
//! range (a new entry, a position or scale that actually changed, a new
//! violation label) invalidates them, and computed again by the next range
//! query. A burst of mutations — a re-embedding rewrites every position —
//! therefore costs one recompute, and a query on an unchanged map costs one
//! distance per violation-state.

use crate::mode::ExecutionMode;
use crate::point::Point2;
use crate::range::{rayleigh_radius, ViolationRange};
use crate::StateSpaceError;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Whether a mapped state has been associated with a QoS violation.
///
/// A state labelled [`StateKind::Violation`] stays a violation-state for the
/// rest of the execution (and beyond, via templates): the paper never
/// un-learns a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StateKind {
    /// A mapped state never observed during a QoS violation.
    Safe,
    /// A mapped state observed during at least one QoS violation.
    Violation,
}

/// One entry of the state map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateEntry {
    point: Point2,
    kind: StateKind,
    visits: u64,
    last_tick: u64,
    first_mode: ExecutionMode,
}

impl StateEntry {
    /// Current 2-D position.
    pub fn point(&self) -> Point2 {
        self.point
    }

    /// Safe or violation.
    pub fn kind(&self) -> StateKind {
        self.kind
    }

    /// Number of raw samples that mapped to this state.
    pub fn visits(&self) -> u64 {
        self.visits
    }

    /// Execution mode at first observation.
    pub fn first_mode(&self) -> ExecutionMode {
        self.first_mode
    }
}

/// The 2-D state map: positions, labels and violation-range queries.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StateMap {
    entries: Vec<StateEntry>,
    /// Median coordinate range of the mapped space — the `c` of §3.2.2.
    coordinate_scale: f64,
    /// `(violation-state index, range radius)` in entry order, derived from
    /// the two fields above; unset while stale. Never serialised. Writers
    /// hold `&mut self`, so readers only ever pay an atomic load here.
    #[serde(skip)]
    ranges: OnceLock<Vec<(usize, f64)>>,
}

impl StateMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        StateMap::default()
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds no states.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over entries in representative order.
    pub fn iter(&self) -> impl Iterator<Item = &StateEntry> + '_ {
        self.entries.iter()
    }

    /// Borrows entry `index`.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::UnknownState`] for an out-of-range index.
    pub fn entry(&self, index: usize) -> Result<&StateEntry, StateSpaceError> {
        self.entries
            .get(index)
            .ok_or(StateSpaceError::UnknownState {
                index,
                len: self.entries.len(),
            })
    }

    /// Updates `c`, the Rayleigh radius's constant (the median coordinate
    /// range of the current embedding).
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::InvalidParameter`] for a negative or
    /// non-finite scale.
    pub fn set_coordinate_scale(&mut self, c: f64) -> Result<(), StateSpaceError> {
        if !c.is_finite() || c < 0.0 {
            return Err(StateSpaceError::InvalidParameter {
                name: "coordinate_scale",
            });
        }
        if self.coordinate_scale != c {
            self.coordinate_scale = c;
            self.ranges.take();
        }
        Ok(())
    }

    /// Records a visit to representative `index` at `point` during `mode`.
    ///
    /// Representative indices are dense: visiting index `n` when the map
    /// holds `n` entries appends a new entry; visiting a smaller index
    /// updates position and statistics of the existing entry.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::UnknownState`] when `index` would leave a
    /// gap (i.e. `index > self.len()`).
    pub fn visit(
        &mut self,
        index: usize,
        point: Point2,
        mode: ExecutionMode,
        tick: u64,
    ) -> Result<(), StateSpaceError> {
        use std::cmp::Ordering;
        match index.cmp(&self.entries.len()) {
            Ordering::Less => {
                self.set_position(index, point)?;
                let e = &mut self.entries[index];
                e.visits += 1;
                e.last_tick = tick;
                Ok(())
            }
            Ordering::Equal => {
                self.ranges.take();
                self.entries.push(StateEntry {
                    point,
                    kind: StateKind::Safe,
                    visits: 1,
                    last_tick: tick,
                    first_mode: mode,
                });
                Ok(())
            }
            Ordering::Greater => Err(StateSpaceError::UnknownState {
                index,
                len: self.entries.len(),
            }),
        }
    }

    /// Rewrites the position of entry `index` (used after re-embedding).
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::UnknownState`] for an out-of-range index.
    pub fn set_position(&mut self, index: usize, point: Point2) -> Result<(), StateSpaceError> {
        let len = self.entries.len();
        let e = self
            .entries
            .get_mut(index)
            .ok_or(StateSpaceError::UnknownState { index, len })?;
        // The controller rewrites the current state's position every
        // period, almost always with the value it already has.
        if e.point != point {
            self.ranges.take();
        }
        e.point = point;
        Ok(())
    }

    /// Labels entry `index` as a violation-state. Idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::UnknownState`] for an out-of-range index.
    pub fn mark_violation(&mut self, index: usize) -> Result<(), StateSpaceError> {
        let len = self.entries.len();
        let e = self
            .entries
            .get_mut(index)
            .ok_or(StateSpaceError::UnknownState { index, len })?;
        if e.kind != StateKind::Violation {
            e.kind = StateKind::Violation;
            self.ranges.take();
        }
        Ok(())
    }

    /// Number of violation-states.
    pub fn violation_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.kind == StateKind::Violation)
            .count()
    }

    /// Nearest safe-state to `point`: `(index, distance)`.
    pub fn nearest_safe(&self, point: Point2) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if e.kind != StateKind::Safe {
                continue;
            }
            let d = e.point.distance(point);
            // total_cmp: a NaN distance (degenerate query point) must not
            // capture and then forever hold the "nearest" slot.
            if best.is_none_or(|(_, bd)| d.total_cmp(&bd).is_lt()) {
                best = Some((i, d));
            }
        }
        best
    }

    /// The derived range set: every violation-state's index and Rayleigh
    /// radius against its nearest safe-state (zero when there is none).
    fn ranges(&self) -> &[(usize, f64)] {
        self.ranges.get_or_init(|| {
            self.entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.kind == StateKind::Violation)
                .map(|(i, e)| {
                    let d = self.nearest_safe(e.point).map_or(0.0, |(_, d)| d);
                    (i, rayleigh_radius(d, self.coordinate_scale))
                })
                .collect()
        })
    }

    /// Derives stale violation-ranges now, so the caller that changed the
    /// map pays for them rather than the next query.
    pub fn derive_ranges(&self) {
        self.ranges();
    }

    /// The violation-range around violation-state `index`, using the
    /// Rayleigh radius against the nearest safe-state. When no safe-state
    /// exists the radius collapses to zero (exact-overlap matching).
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::UnknownState`] for an out-of-range index
    /// and [`StateSpaceError::InvalidParameter`] when the entry is not a
    /// violation-state.
    pub fn violation_range(&self, index: usize) -> Result<ViolationRange, StateSpaceError> {
        let e = self.entry(index)?;
        let ranges = self.ranges();
        let at = ranges
            .binary_search_by_key(&index, |&(i, _)| i)
            .map_err(|_| StateSpaceError::InvalidParameter {
                name: "index (not a violation-state)",
            })?;
        Ok(ViolationRange::new(e.point, ranges[at].1))
    }

    /// All violation-ranges.
    pub fn violation_ranges(&self) -> Vec<ViolationRange> {
        self.ranges()
            .iter()
            .map(|&(i, r)| ViolationRange::new(self.entries[i].point, r))
            .collect()
    }

    /// True when `point` falls inside any violation-range.
    pub fn in_violation_range(&self, point: Point2) -> bool {
        self.violation_range_containing(point).is_some()
    }

    /// The index of a violation-state whose range contains `point`, if any
    /// (the nearest-centred one when several overlap).
    pub fn violation_range_containing(&self, point: Point2) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for &(i, radius) in self.ranges() {
            let d = self.entries[i].point.distance(point);
            if d <= radius && best.is_none_or(|(_, bd)| d.total_cmp(&bd).is_lt()) {
                best = Some((i, d));
            }
        }
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_map() -> StateMap {
        let mut m = StateMap::new();
        m.set_coordinate_scale(1.0).unwrap();
        m.visit(0, Point2::new(0.0, 0.0), ExecutionMode::SensitiveOnly, 1)
            .unwrap();
        m.visit(1, Point2::new(1.0, 0.0), ExecutionMode::CoLocated, 2)
            .unwrap();
        m.visit(2, Point2::new(0.0, 1.0), ExecutionMode::CoLocated, 3)
            .unwrap();
        m
    }

    #[test]
    fn visit_appends_then_updates() {
        let mut m = mk_map();
        assert_eq!(m.len(), 3);
        m.visit(1, Point2::new(1.1, 0.1), ExecutionMode::CoLocated, 9)
            .unwrap();
        assert_eq!(m.len(), 3);
        let e = m.entry(1).unwrap();
        assert_eq!(e.visits(), 2);
        assert_eq!(e.last_tick, 9);
        assert_eq!(e.point(), Point2::new(1.1, 0.1));
        assert_eq!(e.first_mode(), ExecutionMode::CoLocated);
    }

    #[test]
    fn visit_rejects_gaps() {
        let mut m = StateMap::new();
        assert!(m
            .visit(2, Point2::origin(), ExecutionMode::Idle, 0)
            .is_err());
    }

    #[test]
    fn mark_violation_is_sticky_and_idempotent() {
        let mut m = mk_map();
        m.mark_violation(1).unwrap();
        m.mark_violation(1).unwrap();
        assert_eq!(m.entry(1).unwrap().kind(), StateKind::Violation);
        assert_eq!(m.violation_count(), 1);
    }

    #[test]
    fn nearest_queries_respect_kind() {
        let mut m = mk_map();
        m.mark_violation(1).unwrap();
        let p = Point2::new(0.9, 0.0);
        let (si, _) = m.nearest_safe(p).unwrap();
        assert_eq!(si, 0);
    }

    #[test]
    fn nearest_queries_survive_nan_coordinates() {
        // A degenerate embedding can leave an entry at NaN; it must not
        // capture the "nearest" slot ahead of finite entries.
        let mut m = StateMap::new();
        m.set_coordinate_scale(1.0).unwrap();
        m.visit(0, Point2::new(f64::NAN, 0.0), ExecutionMode::CoLocated, 0)
            .unwrap();
        m.visit(1, Point2::new(1.0, 0.0), ExecutionMode::CoLocated, 1)
            .unwrap();
        let (i, d) = m.nearest_safe(Point2::origin()).unwrap();
        assert_eq!(i, 1);
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn violation_range_uses_rayleigh_radius() {
        let mut m = mk_map();
        m.mark_violation(1).unwrap();
        // Nearest safe to (1,0) is (0,0): d = 1, c = 1 → R = e^{-1/2}.
        let r = m.violation_range(1).unwrap();
        assert!((r.radius() - (-0.5f64).exp()).abs() < 1e-12);
        assert_eq!(r.center(), Point2::new(1.0, 0.0));
    }

    #[test]
    fn violation_range_without_safe_states_collapses() {
        let mut m = StateMap::new();
        m.set_coordinate_scale(1.0).unwrap();
        m.visit(0, Point2::origin(), ExecutionMode::CoLocated, 0)
            .unwrap();
        m.mark_violation(0).unwrap();
        assert_eq!(m.violation_range(0).unwrap().radius(), 0.0);
    }

    #[test]
    fn violation_range_rejects_safe_entry() {
        let m = mk_map();
        assert!(m.violation_range(0).is_err());
    }

    #[test]
    fn in_violation_range_detects_membership() {
        let mut m = mk_map();
        m.mark_violation(1).unwrap();
        // R ≈ 0.6065 around (1,0).
        assert!(m.in_violation_range(Point2::new(1.2, 0.0)));
        assert!(!m.in_violation_range(Point2::new(0.2, 0.0)));
        assert_eq!(m.violation_range_containing(Point2::new(1.2, 0.0)), Some(1));
    }

    #[test]
    fn set_position_moves_entries() {
        let mut m = mk_map();
        m.set_position(0, Point2::new(5.0, 5.0)).unwrap();
        assert_eq!(m.entry(0).unwrap().point(), Point2::new(5.0, 5.0));
        assert!(m.set_position(9, Point2::origin()).is_err());
    }

    #[test]
    fn coordinate_scale_validation() {
        let mut m = StateMap::new();
        assert!(m.set_coordinate_scale(-1.0).is_err());
        assert!(m.set_coordinate_scale(f64::NAN).is_err());
        assert!(m.set_coordinate_scale(0.5).is_ok());
        assert_eq!(m.coordinate_scale, 0.5);
    }

    #[test]
    fn violation_ranges_lists_all() {
        let mut m = mk_map();
        m.mark_violation(1).unwrap();
        m.mark_violation(2).unwrap();
        assert_eq!(m.violation_ranges().len(), 2);
    }

    #[test]
    fn serde_round_trip() {
        let mut m = mk_map();
        m.mark_violation(2).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let m2: StateMap = serde_json::from_str(&json).unwrap();
        assert_eq!(m2.len(), 3);
        assert_eq!(m2.violation_count(), 1);
        assert_eq!(m2.coordinate_scale, 1.0);
    }

    #[test]
    fn derived_ranges_are_rebuilt_not_serialised() {
        let mut m = mk_map();
        m.visit(3, Point2::new(1.5, 0.2), ExecutionMode::CoLocated, 4)
            .unwrap();
        m.mark_violation(1).unwrap();
        m.mark_violation(3).unwrap();
        // Queried (ranges derived) before serialising: the JSON still holds
        // the two stored fields and nothing else.
        assert!(m.in_violation_range(Point2::new(1.2, 0.0)));
        let json = serde_json::to_string(&m).unwrap();
        assert!(json.starts_with("{\"entries\":[") && json.contains("],\"coordinate_scale\":1.0}"));
        assert!(!json.contains("ranges"));

        let back: StateMap = serde_json::from_str(&json).unwrap();
        assert_eq!(back.violation_ranges(), m.violation_ranges());
        for rep in 0..m.len() {
            assert_eq!(back.violation_range(rep).ok(), m.violation_range(rep).ok());
        }
        for k in 0..400 {
            let probe = Point2::new(-0.5 + 0.05 * (k % 50) as f64, -0.5 + 0.25 * (k / 50) as f64);
            assert_eq!(
                back.violation_range_containing(probe),
                m.violation_range_containing(probe),
                "probe {probe}"
            );
        }
    }
}
