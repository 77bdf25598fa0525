//! A fence on what watching costs that does not read a clock: with the
//! whole introspection plane on — registry, span ring, flight recorder and
//! `/state` cell — a steady-state control period performs exactly the heap
//! allocations of the same period with observability disabled. The only
//! periods let off are those that write a flight-recorder event, whose
//! attribute list is the event's own payload.
//!
//! One `#[test]` only: the counting allocator is process-wide, and a
//! second test running beside this one would be counted too.

use stayaway_core::{Controller, ControllerConfig, Observability};
use stayaway_obs::{FlightRecorder, MetricsRegistry, SpanSink, StateCell};
use stayaway_sim::scenario::Scenario;
use stayaway_telemetry::{Action, Observation, ObservationSource, Policy};
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

/// One control period: its heap allocations and its decisions.
fn allocations_of(ctl: &mut Controller, obs: &Observation) -> (u64, Vec<Action>) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let actions = ctl.decide(obs);
    (ALLOCATIONS.load(Ordering::Relaxed) - before, actions)
}

#[test]
fn a_watched_period_allocates_no_more_than_a_bare_one() {
    // CPUBomb never ends and is held throttled between optimistic resumes;
    // the Twitter analysis moves through phases, so its host keeps
    // forecasting while co-located. Between them the run visits every
    // branch of a period.
    for scenario in [Scenario::vlc_with_cpubomb(7), Scenario::vlc_with_twitter(7)] {
        compare_periods(&scenario);
    }
}

fn compare_periods(scenario: &Scenario) {
    /// Periods before the comparison starts: the map has formed, the span
    /// ring has wrapped (4 096 slots, four spans a period) and every
    /// lazily registered instrument exists.
    const WARM_UP: u64 = 1_500;
    const TICKS: u64 = 4_000;

    let mut bare_host = scenario.build_harness().unwrap();
    let mut watched_host = scenario.build_harness().unwrap();
    let spec = *bare_host.host().spec();

    let mut bare = Controller::for_host(ControllerConfig::default(), &spec).unwrap();
    let recorder = FlightRecorder::for_scope(0, "fence");
    let sink = SpanSink::bounded(4096);
    let cell = StateCell::new();
    let obs = Observability::enabled(MetricsRegistry::new())
        .with_sink(sink.clone())
        .with_recorder(recorder.clone())
        .with_state(cell.clone());
    let mut watched =
        Controller::for_host_observed(ControllerConfig::default(), &spec, obs).unwrap();

    let (mut compared, mut excused) = (0u64, 0u64);
    for tick in 0..TICKS {
        let bare_obs = bare_host.next_observation().unwrap().unwrap();
        let watched_obs = watched_host.next_observation().unwrap().unwrap();
        assert_eq!(
            bare_obs, watched_obs,
            "the two hosts diverged at tick {tick}"
        );

        let events_before = recorder.len() as u64 + recorder.dropped();
        let (bare_allocs, bare_actions) = allocations_of(&mut bare, &bare_obs);
        let (watched_allocs, watched_actions) = allocations_of(&mut watched, &watched_obs);
        let recorded = recorder.len() as u64 + recorder.dropped() - events_before;
        assert_eq!(
            bare_actions, watched_actions,
            "decisions diverged at tick {tick}"
        );
        bare_host.apply(&bare_actions);
        watched_host.apply(&watched_actions);

        if tick < WARM_UP {
            continue;
        }
        if recorded > 0 {
            excused += 1;
            continue;
        }
        compared += 1;
        assert_eq!(
            watched_allocs,
            bare_allocs,
            "{}, tick {tick}: the introspection plane allocated on a period that recorded no event",
            scenario.name()
        );
    }
    assert!(sink.dropped() > 0, "the span ring never wrapped");
    assert!(cell.get().get("tick").is_some());
    // Both kinds of period must occur, or the comparison proved little.
    assert!(
        compared >= 1_000 && excused > 0,
        "{}: {compared} periods compared, {excused} excused",
        scenario.name()
    );
}
