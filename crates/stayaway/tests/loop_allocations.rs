//! A fence on what a whole control period allocates, counted rather than
//! clocked: `telemetry::step` over the simulator `Harness` — host physics, the noisy
//! observation, `decide`, actuation and the tick's record — allocates
//! nothing once the map has formed. The only periods let off are those
//! that found a new representative state, label a violation (the map's
//! violation bookkeeping) or issue actions (the returned `Vec<Action>`).
//! Both violation sources are fenced: application-reported, and inferred
//! from the sensitive VM's IPC, whose detector runs every period.
//!
//! One `#[test]` only: the counting allocator is process-wide, and a
//! second test running beside this one would be counted too.

use stayaway_core::{Controller, ControllerConfig, ViolationDetection};
use stayaway_sim::scenario::Scenario;
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

/// Why a period was let off the fence, counted per run.
#[derive(Debug, Default)]
struct Excused {
    new_state: u64,
    violation: u64,
    actions: u64,
}

#[test]
fn a_steady_closed_loop_period_allocates_nothing() {
    // CPUBomb is held throttled between optimistic and vetoed resumes,
    // soplex and the Twitter analysis move through phases while
    // co-located: between them every branch of a period runs.
    for detection in [
        ViolationDetection::AppReported,
        ViolationDetection::IpcInferred { threshold: 0.95 },
    ] {
        for scenario in [
            Scenario::vlc_with_cpubomb(7),
            Scenario::vlc_with_soplex(7),
            Scenario::vlc_with_twitter(7),
        ] {
            fence(&scenario, detection);
        }
    }
}

fn fence(scenario: &Scenario, detection: ViolationDetection) {
    /// Periods before the fence applies: the map has formed and every
    /// buffer of the loop has reached its working size.
    const WARM_UP: u64 = 3_000;
    const TICKS: u64 = 6_000;

    let mut source = scenario.build_harness().unwrap();
    let spec = *source.host().spec();
    let config = ControllerConfig {
        violation_detection: detection,
        ..ControllerConfig::default()
    };
    let mut ctl = Controller::for_host(config, &spec).unwrap();
    let name = format!("{} ({detection:?})", scenario.name());

    let (mut fenced, mut excused) = (0u64, Excused::default());
    for tick in 0..TICKS {
        let (states, violations) = (ctl.repr_count(), ctl.stats().violations_observed);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let (record, _) = stayaway_telemetry::step(&mut source, &mut ctl)
            .unwrap()
            .expect("the simulator never runs dry");
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        if tick < WARM_UP {
            continue;
        }
        if ctl.repr_count() > states {
            excused.new_state += 1;
        } else if ctl.stats().violations_observed > violations {
            excused.violation += 1;
        } else if record.actions > 0 {
            excused.actions += 1;
        } else {
            fenced += 1;
            assert_eq!(
                allocations, 0,
                "{name}, tick {tick}: a steady period allocated"
            );
        }
    }
    println!(
        "{name}: {fenced} periods fenced; excused {} new-state, {} violation, {} action",
        excused.new_state, excused.violation, excused.actions
    );
    assert!(fenced >= 1_000, "{name}: only {fenced} periods were fenced");
}
