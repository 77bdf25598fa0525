//! The cluster planner's demand math as it was before it counted in
//! `ResourceVector`, over its own six-field `HostLoad` — verbatim but for
//! the four rate fields, which lost their `_rate` suffix: the oracle
//! `JobView::estimate`, `ScorePolicy::score` and `ScorePolicy::intrinsic`
//! are held to bit for bit. Included by `#[path]` from the unit tests of
//! `src/cluster/policy.rs`, because the functions it checks are private;
//! test-only, never linked into the library.

use crate::cluster::job::JobSpec;
use stayaway_telemetry::{HostSpec, QosSummary, ResourceKind, ResourceVector};

/// The six-field load the planner used to carry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HostLoad {
    /// CPU cores demanded by running, unfrozen invocations.
    pub cpu: f64,
    /// Memory bandwidth demanded, MB/s.
    pub membw: f64,
    /// Disk bandwidth demanded, MB/s.
    pub disk: f64,
    /// Network bandwidth demanded, MB/s.
    pub net: f64,
    /// RAM occupied by alive containers (frozen included), MB.
    pub mem_mb: f64,
    /// LLC footprint of alive containers, MB.
    pub cache_mb: f64,
}

impl HostLoad {
    /// The same six quantities read out of a resource vector.
    pub fn of(v: &ResourceVector) -> Self {
        HostLoad {
            cpu: v[ResourceKind::Cpu],
            membw: v[ResourceKind::MemBandwidth],
            disk: v[ResourceKind::DiskIo],
            net: v[ResourceKind::Network],
            mem_mb: v[ResourceKind::Memory],
            cache_mb: v[ResourceKind::Cache],
        }
    }

    /// Every field's bit pattern, in declaration order.
    pub fn bits(&self) -> [u64; 6] {
        [
            self.cpu,
            self.membw,
            self.disk,
            self.net,
            self.mem_mb,
            self.cache_mb,
        ]
        .map(f64::to_bits)
    }
}

/// The fields of a host snapshot that scoring reads, over [`HostLoad`].
pub struct HostSnapshot {
    pub spec: HostSpec,
    pub load: HostLoad,
    pub mean_cpu: f64,
    pub epoch_qos: QosSummary,
    pub frozen_jobs: usize,
    pub template_violations: Option<u64>,
}

impl HostSnapshot {
    /// The reference view of a live snapshot.
    pub fn of(h: &crate::cluster::HostSnapshot) -> Self {
        HostSnapshot {
            spec: h.spec,
            load: HostLoad::of(&h.load),
            mean_cpu: h.mean_cpu,
            epoch_qos: h.epoch_qos,
            frozen_jobs: h.frozen_jobs,
            template_violations: h.template_violations,
        }
    }

    fn epoch_violation_fraction(&self) -> f64 {
        1.0 - self.epoch_qos.satisfaction()
    }
}

pub fn estimate(spec: &JobSpec) -> HostLoad {
    let d = &spec.tenant.demand;
    let service_secs = d.service_ns() as f64 / 1e9;
    let slots = (d.concurrency as u64 * d.max_containers as u64) as f64;
    let concurrent = (spec.tenant.arrival.mean_rps() * service_secs).min(slots);
    let containers = (concurrent / d.concurrency as f64)
        .ceil()
        .clamp(1.0, d.max_containers as f64);
    HostLoad {
        cpu: concurrent * d.cpu_per_invocation,
        membw: concurrent * d.membw_per_invocation,
        disk: concurrent * d.disk_per_invocation,
        net: concurrent * d.net_per_invocation,
        mem_mb: containers * d.container_mb,
        cache_mb: containers * d.cache_mb,
    }
}

pub fn score(h: &HostSnapshot, extra: &HostLoad, add: &HostLoad) -> f64 {
    let over = |used: f64, pending: f64, more: f64, cap: f64| {
        ((used + pending + more) / cap.max(f64::MIN_POSITIVE) - 1.0).max(0.0)
    };
    // The epoch-mean CPU rate sees through momentary freezes at the
    // boundary; occupancy resources use the instantaneous snapshot.
    let cpu_used = h.load.cpu.max(h.mean_cpu);
    let overflow = over(cpu_used, extra.cpu, add.cpu, h.spec.cpu_cores)
        + over(h.load.membw, extra.membw, add.membw, h.spec.membw_mbps)
        + over(h.load.disk, extra.disk, add.disk, h.spec.disk_mbps)
        + over(h.load.net, extra.net, add.net, h.spec.net_mbps)
        + over(h.load.cache_mb, extra.cache_mb, add.cache_mb, h.spec.llc_mb)
        + over(h.load.mem_mb, extra.mem_mb, add.mem_mb, h.spec.ram_mb);
    let risk = risk(h);
    let cpu_util = (cpu_used + extra.cpu + add.cpu) / h.spec.cpu_cores.max(f64::MIN_POSITIVE);
    overflow * (1.0 + risk) + 0.5 * risk + 0.2 * cpu_util
}

fn risk(h: &HostSnapshot) -> f64 {
    h.epoch_violation_fraction()
        + (1.0 - h.epoch_qos.mean_qos())
        + 0.3 * h.frozen_jobs as f64
        + 0.05 * (h.template_violations.unwrap_or(0) as f64).ln_1p()
}

pub fn intrinsic(h: &HostSnapshot, add: &HostLoad) -> f64 {
    let over = |x: f64, cap: f64| (x / cap.max(f64::MIN_POSITIVE) - 1.0).max(0.0);
    over(add.cpu, h.spec.cpu_cores)
        + over(add.membw, h.spec.membw_mbps)
        + over(add.disk, h.spec.disk_mbps)
        + over(add.net, h.spec.net_mbps)
        + over(add.cache_mb, h.spec.llc_mb)
        + over(add.mem_mb, h.spec.ram_mb)
}
