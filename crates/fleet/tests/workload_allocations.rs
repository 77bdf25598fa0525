//! A fence on what a request-driven host's control tick allocates, counted
//! rather than clocked: each of the four `storm-cluster` hosts, driven
//! through `telemetry::step` so its observation is recycled, averages at
//! most 0.2 heap allocations per tick. What is left is the event engine's
//! own growth (queue buckets, request deques) — the observation, its
//! container list and the per-tenant names are refilled in place.
//!
//! One `#[test]` only: the counting allocator is process-wide, and a
//! second test running beside this one would be counted too.

use stayaway_fleet::cluster::scenario::cluster_by_name;
use stayaway_telemetry::{step, NullPolicy};
use stayaway_workload::WorkloadHost;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_recycled_storm_cluster_host_tick_allocates_next_to_nothing() {
    /// Ticks before counting starts: the flash crowd has come and gone
    /// once and every queue has reached its working size.
    const WARM_UP: u64 = 400;
    const TICKS: u64 = 800;
    const BUDGET: f64 = 0.2;

    let cluster = cluster_by_name("storm-cluster").unwrap();
    assert_eq!(cluster.hosts.len(), 4);
    for (i, scenario) in cluster.hosts.into_iter().enumerate() {
        let name = scenario.name.clone();
        let mut source = WorkloadHost::new(scenario, 7 + i as u64).unwrap();
        let mut policy = NullPolicy::new();
        for _ in 0..WARM_UP {
            step(&mut source, &mut policy).unwrap();
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..TICKS {
            step(&mut source, &mut policy)
                .unwrap()
                .expect("the engine never runs dry");
        }
        let per_tick = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / TICKS as f64;
        println!("{name}: {per_tick:.3} allocations per tick over {TICKS} ticks");
        assert!(
            per_tick <= BUDGET,
            "{name}: {per_tick:.3} allocations per tick, budget {BUDGET}"
        );
    }
}
