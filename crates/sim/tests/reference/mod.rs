//! The contention physics as they were before the simulator kept its
//! working buffers (PR 25's parent, verbatim): the oracle the buffered
//! `allocate_into` / `max_min_fair_into` are held to bit for bit. Included
//! by `#[path]` from `properties.rs`; test-only, never linked into the
//! library.

use stayaway_sim::contention::Allocation;
use stayaway_telemetry::{HostSpec, ResourceKind, ResourceVector};

/// The contention model's three constants, at the values the physics
/// above was written against.
const SWAP_SLOWDOWN: f64 = 12.0;
const SWAP_DISK_PER_MB: f64 = 0.02;
const CACHE_PENALTY_MAX: f64 = 0.2;

/// Max-min fair allocation (progressive filling) of one scalar resource.
///
/// Returns per-consumer grants: consumers demanding less than the fair
/// share receive their demand; the remainder is split recursively among the
/// rest. Total grants never exceed `capacity`, and no consumer receives
/// more than it demanded.
pub fn max_min_fair(demands: &[f64], capacity: f64) -> Vec<f64> {
    let n = demands.len();
    let mut grants = vec![0.0; n];
    if n == 0 || capacity <= 0.0 {
        return grants;
    }
    let mut remaining = capacity;
    let mut unsatisfied: Vec<usize> = (0..n).filter(|&i| demands[i] > 0.0).collect();
    // Progressive filling: repeatedly give every unsatisfied consumer up to
    // the current fair share of what remains.
    while !unsatisfied.is_empty() && remaining > 1e-12 {
        let share = remaining / unsatisfied.len() as f64;
        let mut still = Vec::with_capacity(unsatisfied.len());
        let mut consumed = 0.0;
        for &i in &unsatisfied {
            let want = demands[i] - grants[i];
            if want <= share {
                grants[i] += want;
                consumed += want;
            } else {
                grants[i] += share;
                consumed += share;
                still.push(i);
            }
        }
        remaining -= consumed;
        if still.len() == unsatisfied.len() {
            // Everyone took a full share: capacity exhausted.
            break;
        }
        unsatisfied = still;
    }
    grants
}

/// Allocates one tick for a set of co-located demand vectors.
///
/// `demands[i]` is application `i`'s nominal demand; the returned
/// `Allocation` mirrors the same index. Applications with an all-zero
/// demand (paused/idle) receive a zero grant and `perf = 0.0`.
pub fn allocate(demands: &[ResourceVector], spec: &HostSpec) -> Vec<Allocation> {
    let n = demands.len();
    let mut grants = vec![ResourceVector::zero(); n];

    // 1. Rate resources: max-min fair per resource.
    for kind in ResourceKind::SHARED_RATES {
        let d: Vec<f64> = demands.iter().map(|v| v.get(kind)).collect();
        let g = max_min_fair(&d, spec.capacity(kind));
        for i in 0..n {
            grants[i].set(kind, g[i]);
        }
    }

    // 2. RAM occupancy & swap model.
    let total_mem: f64 = demands.iter().map(|v| v.get(ResourceKind::Memory)).sum();
    let ram = spec.capacity(ResourceKind::Memory);
    let overcommit = ((total_mem - ram) / ram).max(0.0);
    // Normalised touch intensity: how hard each app drives the memory bus.
    let membw_cap = spec.capacity(ResourceKind::MemBandwidth);
    let mut swap_factors = vec![1.0; n];
    for i in 0..n {
        let mem = demands[i].get(ResourceKind::Memory);
        // Resident set: under over-commit each app keeps a proportional
        // slice of RAM; the rest is swapped out.
        let resident = if total_mem > ram && total_mem > 0.0 {
            mem * ram / total_mem
        } else {
            mem
        };
        grants[i].set(ResourceKind::Memory, resident);
        if overcommit > 0.0 && mem > 0.0 {
            let touch = (demands[i].get(ResourceKind::MemBandwidth) / membw_cap).clamp(0.0, 1.0);
            swap_factors[i] = 1.0 / (1.0 + SWAP_SLOWDOWN * overcommit * touch);
            // Swapping shows up as disk traffic on the victim.
            let induced = (mem - resident) * SWAP_DISK_PER_MB;
            let disk = grants[i].get(ResourceKind::DiskIo) + induced;
            grants[i].set(ResourceKind::DiskIo, disk);
        }
    }
    // Swap traffic competes with regular I/O for the same device: rescale
    // disk grants proportionally when the induced total oversubscribes it.
    let total_disk: f64 = grants.iter().map(|g| g.get(ResourceKind::DiskIo)).sum();
    let disk_cap = spec.capacity(ResourceKind::DiskIo);
    if total_disk > disk_cap && total_disk > 0.0 {
        let scale = disk_cap / total_disk;
        for g in &mut grants {
            let d = g.get(ResourceKind::DiskIo);
            g.set(ResourceKind::DiskIo, d * scale);
        }
    }

    // 3. LLC footprint model.
    let total_cache: f64 = demands.iter().map(|v| v.get(ResourceKind::Cache)).sum();
    let llc = spec.capacity(ResourceKind::Cache);
    let cache_overflow = ((total_cache - llc) / llc).clamp(0.0, 1.0);
    let mut cache_factors = vec![1.0; n];
    for i in 0..n {
        let footprint = demands[i].get(ResourceKind::Cache);
        // Effective occupancy shrinks proportionally under overflow.
        let occupied = if total_cache > llc && total_cache > 0.0 {
            footprint * llc / total_cache
        } else {
            footprint
        };
        grants[i].set(ResourceKind::Cache, occupied);
        if cache_overflow > 0.0 && footprint > 0.0 {
            let sensitivity = (footprint / llc).clamp(0.0, 1.0);
            cache_factors[i] = 1.0 - CACHE_PENALTY_MAX * cache_overflow * sensitivity;
        }
    }

    // 4. Bottleneck-law performance.
    (0..n)
        .map(|i| {
            let mut ratio: f64 = 1.0;
            let mut any_demand = false;
            for kind in ResourceKind::SHARED_RATES {
                let d = demands[i].get(kind);
                if d > 1e-12 {
                    any_demand = true;
                    ratio = ratio.min(grants[i].get(kind) / d);
                }
            }
            if demands[i].get(ResourceKind::Memory) > 1e-12 {
                any_demand = true;
            }
            let perf = if any_demand {
                (ratio * swap_factors[i] * cache_factors[i]).clamp(0.0, 1.0)
            } else {
                0.0
            };
            Allocation {
                granted: grants[i],
                perf,
                swap_factor: swap_factors[i],
                cache_factor: cache_factors[i],
            }
        })
        .collect()
}
