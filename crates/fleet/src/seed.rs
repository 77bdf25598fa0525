//! Deterministic per-cell seed derivation.
//!
//! Every cell's randomness — the harness's monitoring noise and the
//! controller's prediction sampling / optimistic resumes — must be (a)
//! decorrelated across cells, and (b) a pure function of
//! `(fleet_seed, cell_idx)` so results are bit-identical no matter which
//! worker runs which cell, or in what order.

use stayaway_telemetry::splitmix64;

/// Derives the seed of cell `cell_idx` from the fleet seed.
///
/// Two mixing rounds with the index folded in between keep nearby fleet
/// seeds and nearby cell indices statistically unrelated: cell 0 of fleet 1
/// shares nothing with cell 1 of fleet 0.
pub fn derive_cell_seed(fleet_seed: u64, cell_idx: u64) -> u64 {
    splitmix64(splitmix64(fleet_seed) ^ cell_idx.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn derivation_is_a_pure_function() {
        assert_eq!(derive_cell_seed(7, 3), derive_cell_seed(7, 3));
        assert_ne!(derive_cell_seed(7, 3), derive_cell_seed(7, 4));
        assert_ne!(derive_cell_seed(7, 3), derive_cell_seed(8, 3));
    }

    #[test]
    fn seeds_are_distinct_across_a_large_fleet() {
        let seeds: BTreeSet<u64> = (0..4096).map(|i| derive_cell_seed(42, i)).collect();
        assert_eq!(seeds.len(), 4096);
    }

    #[test]
    fn diagonal_collisions_are_avoided() {
        // (fleet_seed + 1, cell_idx) must not collide with
        // (fleet_seed, cell_idx + 1) — the classic additive-derivation bug.
        let a: BTreeSet<u64> = (0..512).map(|i| derive_cell_seed(1, i)).collect();
        let b: BTreeSet<u64> = (0..512).map(|i| derive_cell_seed(0, i + 1)).collect();
        assert!(a.intersection(&b).next().is_none());
    }
}
