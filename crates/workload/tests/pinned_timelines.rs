//! Engine timelines pinned across commits.
//!
//! `determinism.rs` compares each run with a second run of the same
//! binary, which a reordering bug common to both passes. The literals
//! below were recorded at the commit *before* the engine's event queue
//! was rebuilt (PR 22's parent) and must never be edited by a change
//! that claims bit-identity: every library scenario, bare and under a
//! fixed pause/resume script, plus one attach → inject → detach →
//! re-attach sequence. Each line pins the event-timeline digest, the
//! whole-run totals, the latency-histogram count, the batch-work bits and
//! an FNV-1a fold of every emitted observation's JSON (the per-tick rate
//! means, so the resource-time integrals are pinned to the bit too).
//!
//! After an *intended* timeline change, run with `-- --nocapture`, review
//! the printed table and paste it over `PINNED`.

use stayaway_telemetry::{Action, AppClass, ContainerId, ObservationSource};
use stayaway_workload::{
    by_name, library, ArrivalProcess, DemandProfile, KeepalivePolicy, TenantSpec, WorkloadHost,
};

const SEED: u64 = 7;
const TICKS: u64 = 60;

/// FNV-1a over the JSON bytes of every observation.
struct ObsFold(u64);

impl ObsFold {
    fn new() -> Self {
        ObsFold(0xcbf2_9ce4_8422_2325)
    }

    fn tick(&mut self, host: &mut WorkloadHost) {
        let obs = host.next_observation().unwrap().unwrap();
        let json = serde_json::to_string(&obs).expect("observation encodes");
        for byte in json.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn render(label: &str, host: &WorkloadHost, obs: &ObsFold) -> String {
    let t = host.totals();
    format!(
        "{label} digest={:#018x} arrivals={} completed={} s_completed={} s_met={} s_dropped={} \
         dropped={} cold={} evict={} latency_n={} batch_work={:#018x} obs={:#018x}",
        host.timeline_digest(),
        t.arrivals,
        t.completed,
        t.sensitive_completed,
        t.sensitive_met,
        t.sensitive_dropped,
        t.dropped,
        t.cold_starts,
        t.evictions,
        host.latency().count(),
        host.batch_work().to_bits(),
        obs.0,
    )
}

/// One library scenario for `TICKS` ticks. Scripted runs pause every
/// batch tenant at ticks 4, 20, 36, 52 and resume them six ticks later —
/// freezes landing on warm, cold and mid-flight pools alike.
fn library_run(name: &str, scripted: bool) -> String {
    let scenario = by_name(name).unwrap();
    let batch: Vec<ContainerId> = scenario
        .tenants
        .iter()
        .enumerate()
        .filter(|(_, t)| t.class == AppClass::Batch)
        .map(|(i, _)| ContainerId::from_raw(i))
        .collect();
    let mut host = WorkloadHost::new(scenario, SEED).unwrap();
    let mut obs = ObsFold::new();
    for tick in 0..TICKS {
        obs.tick(&mut host);
        if scripted {
            let actions: Vec<Action> = match tick % 16 {
                4 => batch.iter().map(|id| Action::Pause(*id)).collect(),
                10 => batch.iter().map(|id| Action::Resume(*id)).collect(),
                _ => Vec::new(),
            };
            assert_eq!(host.apply(&actions), 0, "{name} tick {tick}");
        }
    }
    let label = format!("{name}/{}", if scripted { "scripted" } else { "bare" });
    render(&label, &host, &obs)
}

fn movable_job(name: &str) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        class: AppClass::Batch,
        arrival: ArrivalProcess::Poisson { rps: 5.0 },
        demand: DemandProfile {
            service_ms: 200.0,
            service_jitter: 0.1,
            cpu_per_invocation: 1.0,
            membw_per_invocation: 100.0,
            disk_per_invocation: 0.0,
            net_per_invocation: 0.0,
            container_mb: 256.0,
            cache_mb: 0.5,
            concurrency: 2,
            max_containers: 2,
            cold_start_ms: 300.0,
            queue_cap: 64,
        },
        keepalive: KeepalivePolicy::Fixed { idle_secs: 10.0 },
    }
}

/// The cluster plane's verbs on one host: attach a job, feed it, detach
/// it with work pending, re-attach it under a new slot with the carried
/// work injected between ticks, freeze and resume it, and feed a request
/// to a tenant that has since left.
fn attach_cycle() -> String {
    let mut host = WorkloadHost::new(by_name("multi-tenant-storm").unwrap(), 31).unwrap();
    let mut obs = ObsFold::new();
    let period = host.scenario().tick_period_ns();
    // Ticks completed so far.
    let mut ticks = 0u64;
    for _ in 0..3 {
        obs.tick(&mut host);
        ticks += 1;
    }
    let first = host.attach_tenant(movable_job("mover")).unwrap();
    for k in 0..8u64 {
        host.inject_arrival(first, ticks * period + k * period / 8, 200_000_000)
            .unwrap();
    }
    for _ in 0..5 {
        obs.tick(&mut host);
        ticks += 1;
    }
    for k in 0..32u64 {
        host.inject_arrival(first, ticks * period + k * period / 32, 400_000_000)
            .unwrap();
    }
    // One request due well past the detach: it is processed against the
    // tombstone and counted as dropped.
    host.inject_arrival(first, (ticks + 4) * period, 100_000_000)
        .unwrap();
    obs.tick(&mut host);
    let carried = host.detach_tenant(first).unwrap();
    assert!(!carried.is_empty());
    for _ in 0..2 {
        obs.tick(&mut host);
    }
    let second = host.attach_tenant(movable_job("mover-again")).unwrap();
    for (arrival_ns, nominal_ns) in &carried {
        // Carried arrival stamps lie in the past: the engine clamps them
        // forward to the open tick boundary.
        host.inject_arrival(second, *arrival_ns, *nominal_ns)
            .unwrap();
    }
    for _ in 0..3 {
        obs.tick(&mut host);
    }
    let id = ContainerId::from_raw(second);
    assert_eq!(host.apply(&[Action::Pause(id)]), 0);
    for _ in 0..4 {
        obs.tick(&mut host);
    }
    assert_eq!(host.apply(&[Action::Resume(id)]), 0);
    for _ in 0..30 {
        obs.tick(&mut host);
    }
    render("attach-cycle", &host, &obs)
}

/// Recorded at PR 22's parent (`1d814af`). Do not edit in a change that
/// claims bit-identity.
const PINNED: &str = "\
    memcached-like/bare digest=0xc1aec305cd7b5782 arrivals=48381 completed=48380 s_completed=48145 s_met=48145 s_dropped=0 dropped=0 cold=3 evict=0 latency_n=48145 batch_work=0x40578539d1d98d2f obs=0x78d12baca184c299
    memcached-like/scripted digest=0x1d4ff45440621977 arrivals=48381 completed=48357 s_completed=48145 s_met=48145 s_dropped=0 dropped=0 cold=3 evict=0 latency_n=48145 batch_work=0x40553b5c983c216a obs=0x42bd449bb4ea65aa
    video-transcode-like/bare digest=0x751d2647e8845647 arrivals=18168 completed=18153 s_completed=18057 s_met=18057 s_dropped=0 dropped=0 cold=4 evict=0 latency_n=18057 batch_work=0x4061d70ac638f8b2 obs=0x6cf003208fb39420
    video-transcode-like/scripted digest=0x02eb6ecf12e9c354 arrivals=18168 completed=18116 s_completed=18057 s_met=18057 s_dropped=0 dropped=14 cold=4 evict=0 latency_n=18057 batch_work=0x405648fb0b06a1e1 obs=0x9a7c9cb0511fb208
    cpu-bomb/bare digest=0x273bb3ec6d701416 arrivals=37426 completed=36390 s_completed=36208 s_met=472 s_dropped=0 dropped=951 cold=8 evict=0 latency_n=36208 batch_work=0x405b574b1da249b8 obs=0x3e0112654cc57a0e
    cpu-bomb/scripted digest=0x98c31ebc0e882ef0 arrivals=37426 completed=36318 s_completed=36208 s_met=14736 s_dropped=0 dropped=1023 cold=8 evict=0 latency_n=36208 batch_work=0x40506d52954f4347 obs=0x354ca43c1458cd36
    memory-bomb/bare digest=0xe4acf849f6325132 arrivals=36574 completed=36260 s_completed=36211 s_met=12054 s_dropped=0 dropped=244 cold=3 evict=0 latency_n=36211 batch_work=0x4031b5321ecac13a obs=0xd7c17ec84e5c2e27
    memory-bomb/scripted digest=0x1c66381b2202f662 arrivals=36574 completed=36240 s_completed=36211 s_met=21766 s_dropped=0 dropped=264 cold=3 evict=0 latency_n=36211 batch_work=0x4024fe42d5afcdcd obs=0xec4a21fcc72618f0
    phase-shift-batch/bare digest=0x3874a3c0f42932ea arrivals=24639 completed=24553 s_completed=24169 s_met=4956 s_dropped=0 dropped=86 cold=6 evict=6 latency_n=24169 batch_work=0x406801d4f1d6bee2 obs=0x95995e1bd539f95f
    phase-shift-batch/scripted digest=0x9474058df3046977 arrivals=24639 completed=24434 s_completed=24169 s_met=10986 s_dropped=0 dropped=205 cold=6 evict=0 latency_n=24169 batch_work=0x40608c077f27fe4a obs=0x9f0d2e4502b2efa9
    flash-crowd/bare digest=0x8384fd381fbfc4fd arrivals=34797 completed=34795 s_completed=34612 s_met=33938 s_dropped=0 dropped=0 cold=11 evict=7 latency_n=34612 batch_work=0x40600fdb02e392c1 obs=0x58baa05a8f604be8
    flash-crowd/scripted digest=0x75c05e31e8f840d3 arrivals=34797 completed=34743 s_completed=34612 s_met=33938 s_dropped=0 dropped=0 cold=11 evict=7 latency_n=34612 batch_work=0x4056e8178fa1a6b8 obs=0xac657641e13851e4
    multi-tenant-storm/bare digest=0x22bc2b1668eef985 arrivals=43573 completed=43454 s_completed=42948 s_met=32957 s_dropped=0 dropped=46 cold=8 evict=0 latency_n=42948 batch_work=0x4060c6aa698e2629 obs=0x9bf56d81e6854dbb
    multi-tenant-storm/scripted digest=0xc4880d84361ab129 arrivals=43573 completed=43300 s_completed=42947 s_met=33253 s_dropped=0 dropped=151 cold=8 evict=0 latency_n=42947 batch_work=0x4053bcdb3947f6ec obs=0x5333bb80f3df17e9
    attach-cycle digest=0xb4f1be0828b31adf arrivals=33823 completed=33571 s_completed=33225 s_met=24785 s_dropped=0 dropped=99 cold=12 evict=4 latency_n=33225 batch_work=0x4056c9237dc0510c obs=0xe839f74d86fde099";

#[test]
fn timelines_match_the_literals_recorded_at_the_parent_commit() {
    let mut lines = Vec::new();
    for name in library().into_iter().map(|s| s.name) {
        lines.push(library_run(&name, false));
        lines.push(library_run(&name, true));
    }
    lines.push(attach_cycle());
    let actual = lines.join("\n");
    println!("{actual}");
    let pinned: Vec<&str> = PINNED.lines().map(str::trim).collect();
    assert_eq!(pinned.len(), 15, "seven scenarios x 2 + the attach cycle");
    for (got, want) in lines.iter().zip(&pinned) {
        assert_eq!(got, want);
    }
}
