//! Observation recycling is invisible: every source that refills a
//! recycled observation in place — the simulator, the workload engine
//! (tenants attached and detached mid-run), the trace tee, trace replay
//! and the fault wrapper blanking observations in place — yields, tick for tick, observations equal to a fresh run's,
//! whatever the recycled buffer held. Each recycled run hands back its own
//! observation on most ticks and, on others, a stranger with more or fewer
//! containers and long names, so a source that kept a stale value, a stale
//! name byte or a stale container would be caught.

use stay_away::sim::scenario::Scenario;
use stay_away::sim::Harness;
use stay_away::telemetry::{
    drive, Action, AppClass, ContainerId, ContainerObs, FaultySource, NullPolicy, Observation,
    ObservationSource, RecordingSource, ResourceVector, TraceSource,
};
use stay_away::workload::{by_name, WorkloadHost};

/// An observation no source would produce, with `containers` entries.
fn stranger(containers: usize) -> Observation {
    Observation {
        tick: 999_999,
        containers: (0..containers)
            .map(|i| ContainerObs {
                id: ContainerId::from_raw(1000 + i),
                name: format!("a-stranger-with-a-long-name-{i}"),
                class: AppClass::Sensitive,
                active: true,
                paused: true,
                finished: true,
                usage: ResourceVector::new(9.0, 9.0, 9.0, 9.0, 9.0, 9.0),
                ipc: 9.0,
                priority: 9,
            })
            .collect(),
        qos_violation: true,
        qos_value: 0.125,
    }
}

/// What the recycled run hands back after `tick`: its own observation, or
/// a stranger larger or smaller than any real one.
fn recycled_after(tick: u64, own: Observation) -> Observation {
    match tick % 7 {
        2 => stranger(12),
        4 => stranger(1),
        6 => Observation::default(),
        _ => own,
    }
}

/// Pulls from `fresh` (never recycled) and `recycled` side by side until
/// `ticks` or exhaustion, asserting equal observations and records, and
/// calls `between` on both after every tick. Returns the ticks compared.
fn recycled_equals_fresh<S: ObservationSource>(
    mut fresh: S,
    mut recycled: S,
    ticks: u64,
    mut between: impl FnMut(u64, &mut S),
) -> (S, S, u64) {
    let mut compared = 0;
    for tick in 0..ticks {
        let want = fresh.next_observation().unwrap();
        let got = recycled.next_observation().unwrap();
        assert_eq!(got, want, "tick {tick}");
        let Some(got) = got else { break };
        let want = want.unwrap();
        assert_eq!(
            recycled.record_for(&got, &[]),
            fresh.record_for(&want, &[]),
            "record, tick {tick}"
        );
        recycled.recycle(recycled_after(tick, got));
        between(tick, &mut fresh);
        between(tick, &mut recycled);
        compared += 1;
    }
    (fresh, recycled, compared)
}

/// Pauses the batch container for a stretch, so paused / inactive
/// containers come and go.
fn throttle_now_and_then<S: ObservationSource>(tick: u64, source: &mut S) {
    let batch = ContainerId::from_raw(1);
    match tick % 50 {
        20 => assert_eq!(source.apply(&[Action::Pause(batch)]).unwrap(), 0),
        35 => assert_eq!(source.apply(&[Action::Resume(batch)]).unwrap(), 0),
        _ => {}
    }
}

fn sim(scenario: &Scenario) -> Harness {
    scenario.build_harness().expect("scenario builds")
}

#[test]
fn a_recycled_simulator_observes_what_a_fresh_one_does() {
    let scenario = Scenario::vlc_with_twitter(7);
    let (_, _, compared) =
        recycled_equals_fresh(sim(&scenario), sim(&scenario), 300, throttle_now_and_then);
    assert_eq!(compared, 300);
}

#[test]
fn a_recycled_faulty_simulator_observes_what_a_fresh_one_does() {
    let scenario = Scenario::vlc_with_cpubomb(9);
    let faulty = || FaultySource::new(sim(&scenario), 0.2, 0.5, 13).unwrap();
    let (fresh, recycled, compared) =
        recycled_equals_fresh(faulty(), faulty(), 300, throttle_now_and_then);
    assert_eq!(compared, 300);
    let faults = |s: &FaultySource<Harness>| (s.dropped_observations(), s.dropped_actions());
    assert_eq!(faults(&recycled), faults(&fresh));
    let (dropped, swallowed) = faults(&recycled);
    assert!(dropped > 0 && swallowed > 0, "{dropped} / {swallowed}");
}

#[test]
fn a_recycled_workload_host_follows_attach_and_detach() {
    let build = || WorkloadHost::new(by_name("multi-tenant-storm").unwrap(), 11).unwrap();
    let movable = by_name("cpu-bomb")
        .unwrap()
        .tenants
        .into_iter()
        .find(|t| t.class == AppClass::Batch)
        .expect("cpu-bomb has a batch tenant");
    let resident_batch = build()
        .scenario()
        .tenants
        .iter()
        .position(|t| t.class == AppClass::Batch)
        .expect("the storm has batch tenants");
    let mut attached = None;
    let (fresh, recycled, compared) = recycled_equals_fresh(
        build(),
        build(),
        90,
        |tick, host: &mut WorkloadHost| match tick {
            10 => attached = Some(host.attach_tenant(movable.clone()).unwrap()),
            30 => drop(host.detach_tenant(attached.unwrap()).unwrap()),
            50 => drop(host.detach_tenant(resident_batch).unwrap()),
            60 => drop(host.attach_tenant(movable.clone()).unwrap()),
            _ => {}
        },
    );
    assert_eq!(compared, 90);
    // Both tombstones stay in the observation, two tenants were added.
    let tenants = build().tenant_count() + 2;
    assert_eq!(recycled.tenant_count(), tenants);
    assert_eq!(recycled.timeline_digest(), fresh.timeline_digest());
}

#[test]
fn a_recycled_tee_records_the_bytes_a_fresh_one_does() {
    let scenario = Scenario::vlc_with_cpubomb(5);
    let tee = || RecordingSource::new(sim(&scenario), Vec::new()).unwrap();
    let (fresh, recycled, compared) =
        recycled_equals_fresh(tee(), tee(), 200, throttle_now_and_then);
    assert_eq!(compared, 200);
    let (_, fresh_bytes) = fresh.finish().unwrap();
    let (_, recycled_bytes) = recycled.finish().unwrap();
    assert_eq!(recycled_bytes, fresh_bytes);
}

#[test]
fn a_recycled_replay_decodes_what_a_fresh_one_does() {
    let scenario = Scenario::vlc_with_soplex(3);
    let mut tee = RecordingSource::new(sim(&scenario), Vec::new()).unwrap();
    drive(&mut tee, &mut NullPolicy::new(), 150).unwrap();
    let (_, mut bytes) = tee.finish().unwrap();
    // A trailing blank line is skipped by both.
    bytes.extend_from_slice(b"\n");
    let replay = || TraceSource::new(bytes.as_slice()).unwrap();
    let (_, _, compared) = recycled_equals_fresh(replay(), replay(), 1_000, |_, _| {});
    assert_eq!(compared, 150);
}
