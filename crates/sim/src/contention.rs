//! The interference physics: how co-located demands turn into grants and
//! per-application performance.
//!
//! Three mechanisms, mirroring the contention channels the paper's
//! applications exercise:
//!
//! 1. **Rate resources** (CPU, memory bandwidth, disk, network) are
//!    allocated **max-min fairly** (progressive filling), the behaviour of
//!    the Linux CFS / blkio / network schedulers the LXC testbed sits on:
//!    light consumers get their full demand, heavy consumers split the
//!    residual capacity evenly.
//! 2. **RAM occupancy**: when Σ working sets exceed physical memory the
//!    host swaps. Applications are slowed in proportion to the over-commit
//!    ratio and to how hard they touch memory (their bandwidth demand), and
//!    swapping induces extra disk traffic — this is the §7.2 mechanism
//!    where Twitter-Analysis forces the OS to swap the Webservice's pages.
//! 3. **LLC footprint**: when Σ cache footprints exceed the shared cache,
//!    cache-hungry applications lose CPU efficiency (higher miss rates).
//!
//! The per-application performance for a tick is the *bottleneck law*:
//! the minimum grant/demand ratio over the rate resources, multiplied by
//! the swap and cache efficiency factors.

use crate::host::HostSpec;
use crate::resources::{ResourceKind, ResourceVector};

/// Tunable constants of the contention model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionParams {
    /// Slowdown per unit of RAM over-commit for a full-intensity memory
    /// toucher (`perf /= 1 + swap_slowdown · overcommit · touch`).
    pub swap_slowdown: f64,
    /// Disk traffic (MB/s) induced per MB of over-committed working set
    /// per tick, charged to memory touchers.
    pub swap_disk_per_mb: f64,
    /// Maximum CPU-efficiency loss from LLC overflow.
    pub cache_penalty_max: f64,
}

impl Default for ContentionParams {
    fn default() -> Self {
        ContentionParams {
            swap_slowdown: 12.0,
            swap_disk_per_mb: 0.02,
            cache_penalty_max: 0.2,
        }
    }
}

/// The outcome of one tick's allocation for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Resources actually granted/occupied this tick.
    pub granted: ResourceVector,
    /// Progress fraction in `[0, 1]` (1.0 = full nominal speed).
    pub perf: f64,
    /// Multiplicative slowdown factor from swapping (1.0 = none).
    pub swap_factor: f64,
    /// Multiplicative slowdown factor from cache pollution (1.0 = none).
    pub cache_factor: f64,
}

/// The working vectors of [`allocate_into`], kept by the caller so a
/// steady tick allocates nothing. Their contents between calls are
/// meaningless; only their capacity is reused.
#[derive(Debug, Clone, Default)]
pub struct ContentionScratch {
    /// One rate resource's demands, per application.
    demand: Vec<f64>,
    /// That resource's max-min fair grants, per application.
    grant: Vec<f64>,
    /// The progressive filling's unsatisfied consumers.
    unsatisfied: Vec<usize>,
}

/// Max-min fair allocation (progressive filling) of one scalar resource.
///
/// Returns per-consumer grants: consumers demanding less than the fair
/// share receive their demand; the remainder is split recursively among the
/// rest. Total grants never exceed `capacity`, and no consumer receives
/// more than it demanded.
pub fn max_min_fair(demands: &[f64], capacity: f64) -> Vec<f64> {
    let mut grants = Vec::with_capacity(demands.len());
    max_min_fair_into(demands, capacity, &mut grants, &mut Vec::new());
    grants
}

/// [`max_min_fair`] into `grants` (overwritten), with `unsatisfied` as
/// the caller's reusable working list.
pub fn max_min_fair_into(
    demands: &[f64],
    capacity: f64,
    grants: &mut Vec<f64>,
    unsatisfied: &mut Vec<usize>,
) {
    let n = demands.len();
    grants.clear();
    grants.resize(n, 0.0);
    if n == 0 || capacity <= 0.0 {
        return;
    }
    let mut remaining = capacity;
    unsatisfied.clear();
    unsatisfied.extend((0..n).filter(|&i| demands[i] > 0.0));
    // Progressive filling: repeatedly give every unsatisfied consumer up to
    // the current fair share of what remains. `retain` visits the list in
    // order, so the grants accumulate in the same order as ever.
    while !unsatisfied.is_empty() && remaining > 1e-12 {
        let share = remaining / unsatisfied.len() as f64;
        let before = unsatisfied.len();
        let mut consumed = 0.0;
        unsatisfied.retain(|&i| {
            let want = demands[i] - grants[i];
            if want <= share {
                grants[i] += want;
                consumed += want;
                false
            } else {
                grants[i] += share;
                consumed += share;
                true
            }
        });
        remaining -= consumed;
        if unsatisfied.len() == before {
            // Everyone took a full share: capacity exhausted.
            break;
        }
    }
}

/// Allocates one tick for a set of co-located demand vectors.
///
/// `demands[i]` is application `i`'s nominal demand; the returned
/// `Allocation` mirrors the same index. Applications with an all-zero
/// demand (paused/idle) receive a zero grant and `perf = 0.0`.
pub fn allocate(
    demands: &[ResourceVector],
    spec: &HostSpec,
    params: &ContentionParams,
) -> Vec<Allocation> {
    let mut out = Vec::with_capacity(demands.len());
    allocate_into(
        demands,
        spec,
        params,
        &mut ContentionScratch::default(),
        &mut out,
    );
    out
}

/// [`allocate`] into `out` (overwritten), with the working vectors in
/// `scratch`.
pub fn allocate_into(
    demands: &[ResourceVector],
    spec: &HostSpec,
    params: &ContentionParams,
    scratch: &mut ContentionScratch,
    out: &mut Vec<Allocation>,
) {
    let n = demands.len();
    out.clear();
    out.resize(
        n,
        Allocation {
            granted: ResourceVector::zero(),
            perf: 0.0,
            swap_factor: 1.0,
            cache_factor: 1.0,
        },
    );

    // 1. Rate resources: max-min fair per resource.
    for kind in ResourceKind::SHARED_RATES {
        scratch.demand.clear();
        scratch.demand.extend(demands.iter().map(|v| v.get(kind)));
        max_min_fair_into(
            &scratch.demand,
            spec.capacity(kind),
            &mut scratch.grant,
            &mut scratch.unsatisfied,
        );
        for (a, &g) in out.iter_mut().zip(&scratch.grant) {
            a.granted.set(kind, g);
        }
    }

    // 2. RAM occupancy & swap model.
    let total_mem: f64 = demands.iter().map(|v| v.get(ResourceKind::Memory)).sum();
    let ram = spec.capacity(ResourceKind::Memory);
    let overcommit = ((total_mem - ram) / ram).max(0.0);
    // Normalised touch intensity: how hard each app drives the memory bus.
    let membw_cap = spec.capacity(ResourceKind::MemBandwidth);
    for (a, demand) in out.iter_mut().zip(demands) {
        let mem = demand.get(ResourceKind::Memory);
        // Resident set: under over-commit each app keeps a proportional
        // slice of RAM; the rest is swapped out.
        let resident = if total_mem > ram && total_mem > 0.0 {
            mem * ram / total_mem
        } else {
            mem
        };
        a.granted.set(ResourceKind::Memory, resident);
        if overcommit > 0.0 && mem > 0.0 {
            let touch = (demand.get(ResourceKind::MemBandwidth) / membw_cap).clamp(0.0, 1.0);
            a.swap_factor = 1.0 / (1.0 + params.swap_slowdown * overcommit * touch);
            // Swapping shows up as disk traffic on the victim.
            let induced = (mem - resident) * params.swap_disk_per_mb;
            let disk = a.granted.get(ResourceKind::DiskIo) + induced;
            a.granted.set(ResourceKind::DiskIo, disk);
        }
    }
    // Swap traffic competes with regular I/O for the same device: rescale
    // disk grants proportionally when the induced total oversubscribes it.
    let total_disk: f64 = out
        .iter()
        .map(|a| a.granted.get(ResourceKind::DiskIo))
        .sum();
    let disk_cap = spec.capacity(ResourceKind::DiskIo);
    if total_disk > disk_cap && total_disk > 0.0 {
        let scale = disk_cap / total_disk;
        for a in out.iter_mut() {
            let d = a.granted.get(ResourceKind::DiskIo);
            a.granted.set(ResourceKind::DiskIo, d * scale);
        }
    }

    // 3. LLC footprint model.
    let total_cache: f64 = demands.iter().map(|v| v.get(ResourceKind::Cache)).sum();
    let llc = spec.capacity(ResourceKind::Cache);
    let cache_overflow = ((total_cache - llc) / llc).clamp(0.0, 1.0);
    for (a, demand) in out.iter_mut().zip(demands) {
        let footprint = demand.get(ResourceKind::Cache);
        // Effective occupancy shrinks proportionally under overflow.
        let occupied = if total_cache > llc && total_cache > 0.0 {
            footprint * llc / total_cache
        } else {
            footprint
        };
        a.granted.set(ResourceKind::Cache, occupied);
        if cache_overflow > 0.0 && footprint > 0.0 {
            let sensitivity = (footprint / llc).clamp(0.0, 1.0);
            a.cache_factor = 1.0 - params.cache_penalty_max * cache_overflow * sensitivity;
        }
    }

    // 4. Bottleneck-law performance.
    for (a, demand) in out.iter_mut().zip(demands) {
        let mut ratio: f64 = 1.0;
        let mut any_demand = false;
        for kind in ResourceKind::SHARED_RATES {
            let d = demand.get(kind);
            if d > 1e-12 {
                any_demand = true;
                ratio = ratio.min(a.granted.get(kind) / d);
            }
        }
        if demand.get(ResourceKind::Memory) > 1e-12 {
            any_demand = true;
        }
        if any_demand {
            a.perf = (ratio * a.swap_factor * a.cache_factor).clamp(0.0, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> HostSpec {
        HostSpec::default()
    }

    #[test]
    fn max_min_fair_uncontended() {
        let g = max_min_fair(&[1.0, 2.0], 4.0);
        assert_eq!(g, vec![1.0, 2.0]);
    }

    #[test]
    fn max_min_fair_contended_splits_evenly() {
        let g = max_min_fair(&[4.0, 4.0], 4.0);
        assert!((g[0] - 2.0).abs() < 1e-12);
        assert!((g[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn max_min_fair_protects_light_consumers() {
        // Light consumer below fair share gets everything it asked for.
        let g = max_min_fair(&[0.5, 10.0], 4.0);
        assert!((g[0] - 0.5).abs() < 1e-12);
        assert!((g[1] - 3.5).abs() < 1e-12);
    }

    #[test]
    fn max_min_fair_three_way() {
        let g = max_min_fair(&[1.0, 2.0, 10.0], 6.0);
        // Fair share 2: first takes 1, leftover 5 split: second takes 2,
        // third gets 3.
        assert!((g[0] - 1.0).abs() < 1e-12);
        assert!((g[1] - 2.0).abs() < 1e-12);
        assert!((g[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn max_min_fair_conserves_capacity() {
        let demands = [3.0, 2.0, 5.0, 0.0, 1.0];
        let g = max_min_fair(&demands, 4.0);
        let total: f64 = g.iter().sum();
        assert!(total <= 4.0 + 1e-9);
        for (gi, di) in g.iter().zip(&demands) {
            assert!(gi <= di, "granted more than demanded");
            assert!(*gi >= 0.0);
        }
    }

    #[test]
    fn max_min_fair_edge_cases() {
        assert!(max_min_fair(&[], 4.0).is_empty());
        assert_eq!(max_min_fair(&[1.0], 0.0), vec![0.0]);
        assert_eq!(max_min_fair(&[0.0, 0.0], 4.0), vec![0.0, 0.0]);
    }

    #[test]
    fn allocate_uncontended_full_performance() {
        let demands = vec![
            ResourceVector::new(1.0, 1000.0, 1000.0, 10.0, 50.0, 1.0),
            ResourceVector::new(1.0, 1000.0, 1000.0, 10.0, 50.0, 1.0),
        ];
        let allocs = allocate(&demands, &spec(), &ContentionParams::default());
        for a in &allocs {
            assert!((a.perf - 1.0).abs() < 1e-9, "perf = {}", a.perf);
            assert_eq!(a.swap_factor, 1.0);
            assert_eq!(a.cache_factor, 1.0);
        }
    }

    #[test]
    fn allocate_cpu_contention_degrades_heavy_consumers() {
        // Both want 3 cores of 4: each gets 2 → perf 2/3.
        let demands = vec![
            ResourceVector::zero().with(ResourceKind::Cpu, 3.0),
            ResourceVector::zero().with(ResourceKind::Cpu, 3.0),
        ];
        let allocs = allocate(&demands, &spec(), &ContentionParams::default());
        for a in &allocs {
            assert!((a.perf - 2.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn allocate_swap_penalises_memory_touchers() {
        let s = spec();
        let ram = s.capacity(ResourceKind::Memory);
        // Two apps whose working sets sum to 1.5 × RAM; one touches hard,
        // one barely.
        let demands = vec![
            ResourceVector::zero()
                .with(ResourceKind::Memory, ram * 0.75)
                .with(ResourceKind::MemBandwidth, 8000.0)
                .with(ResourceKind::Cpu, 0.5),
            ResourceVector::zero()
                .with(ResourceKind::Memory, ram * 0.75)
                .with(ResourceKind::MemBandwidth, 100.0)
                .with(ResourceKind::Cpu, 0.5),
        ];
        let allocs = allocate(&demands, &s, &ContentionParams::default());
        assert!(allocs[0].swap_factor < 0.5, "hard toucher barely slowed");
        assert!(allocs[1].swap_factor > allocs[0].swap_factor);
        assert!(allocs[0].perf < allocs[1].perf);
        // Residency is proportional and fits in RAM.
        let resident: f64 = allocs
            .iter()
            .map(|a| a.granted.get(ResourceKind::Memory))
            .sum();
        assert!(resident <= ram + 1e-6);
        // Swap shows up as disk traffic.
        assert!(allocs[0].granted.get(ResourceKind::DiskIo) > 0.0);
    }

    #[test]
    fn allocate_cache_overflow_hits_cache_hungry_apps() {
        let s = spec();
        let llc = s.capacity(ResourceKind::Cache);
        let demands = vec![
            ResourceVector::zero()
                .with(ResourceKind::Cpu, 1.0)
                .with(ResourceKind::Cache, llc * 0.9),
            ResourceVector::zero()
                .with(ResourceKind::Cpu, 1.0)
                .with(ResourceKind::Cache, llc * 0.9),
        ];
        let allocs = allocate(&demands, &s, &ContentionParams::default());
        for a in &allocs {
            assert!(a.cache_factor < 1.0);
            assert!(a.perf < 1.0);
        }
    }

    #[test]
    fn allocate_idle_app_has_zero_perf_and_grant() {
        let demands = vec![
            ResourceVector::zero(),
            ResourceVector::zero().with(ResourceKind::Cpu, 1.0),
        ];
        let allocs = allocate(&demands, &spec(), &ContentionParams::default());
        assert_eq!(allocs[0].perf, 0.0);
        assert_eq!(allocs[0].granted, ResourceVector::zero());
        assert!((allocs[1].perf - 1.0).abs() < 1e-9);
    }

    #[test]
    fn allocate_never_exceeds_capacity() {
        let s = spec();
        let demands = vec![
            ResourceVector::new(4.0, 6000.0, 9000.0, 300.0, 900.0, 3.0),
            ResourceVector::new(4.0, 6000.0, 9000.0, 300.0, 900.0, 3.0),
            ResourceVector::new(2.0, 3000.0, 5000.0, 100.0, 400.0, 2.0),
        ];
        let allocs = allocate(&demands, &s, &ContentionParams::default());
        for kind in ResourceKind::ALL {
            let total: f64 = allocs.iter().map(|a| a.granted.get(kind)).sum();
            assert!(
                total <= s.capacity(kind) + 1e-6,
                "{kind} over capacity: {total}"
            );
        }
    }
}
