//! Best-effort live sampling of Linux `/proc` and cgroup-v2 files.
//!
//! [`ProcfsSource`] turns the kernel's textual accounting into per-tick
//! [`Observation`]s: host CPU occupancy from `/proc/stat`, the watched
//! cgroup's CPU time and resident memory from cgroup-v2 `cpu.stat` /
//! `memory.current`. Everything is *capability probed*: the module
//! compiles on every platform, [`ProcfsSource::probe`] returns `None`
//! where `/proc/stat` does not exist, and each optional file simply drops
//! its metric from the advertised set when absent.
//!
//! The line parsers are pure functions over text so they can be fuzzed
//! against malformed `/proc`-style input without a kernel; decode failures
//! carry the 1-based line number of the offending line.

use crate::observation::{Action, AppClass, ContainerId, ContainerObs, Observation};
use crate::run::{derive_record, TickRecord};
use crate::source::{ObservationSource, SourceKind, SourceMeta};
use crate::{ResourceKind, ResourceVector, TelemetryError};
use stayaway_obs::{Counter, MetricsRegistry};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Aggregate CPU accounting from `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTimes {
    /// Jiffies spent busy (user + nice + system + irq + softirq + steal).
    pub busy_jiffies: u64,
    /// Jiffies spent idle (idle + iowait).
    pub idle_jiffies: u64,
    /// Number of `cpuN` lines — the core count.
    pub cores: usize,
}

/// Parses `/proc/stat` text.
///
/// # Errors
///
/// Returns [`TelemetryError::Codec`] with the offending 1-based line
/// number when the aggregate `cpu` line is missing or malformed.
pub fn parse_proc_stat(text: &str) -> Result<CpuTimes, TelemetryError> {
    let mut aggregate: Option<(u64, u64)> = None;
    let mut cores = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx as u64 + 1;
        let mut fields = line.split_whitespace();
        let Some(label) = fields.next() else {
            continue;
        };
        if label == "cpu" {
            let mut jiffies = [0u64; 8];
            for (slot, field) in jiffies.iter_mut().zip(fields) {
                *slot = field.parse().map_err(|_| TelemetryError::Codec {
                    line: line_no,
                    reason: format!("non-numeric jiffy count {field:?}"),
                })?;
            }
            let [user, nice, system, idle, iowait, irq, softirq, steal] = jiffies;
            aggregate = Some((user + nice + system + irq + softirq + steal, idle + iowait));
        } else if label.starts_with("cpu") && label[3..].chars().all(|c| c.is_ascii_digit()) {
            cores += 1;
        }
    }
    let (busy_jiffies, idle_jiffies) = aggregate.ok_or_else(|| TelemetryError::Codec {
        line: 1,
        reason: "no aggregate \"cpu\" line".into(),
    })?;
    Ok(CpuTimes {
        busy_jiffies,
        idle_jiffies,
        cores: cores.max(1),
    })
}

/// Parses cgroup-v2 `cpu.stat` text into the `usage_usec` counter.
///
/// # Errors
///
/// Returns [`TelemetryError::Codec`] with the offending 1-based line
/// number when `usage_usec` is missing or malformed.
pub fn parse_cpu_stat(text: &str) -> Result<u64, TelemetryError> {
    for (idx, line) in text.lines().enumerate() {
        let mut fields = line.split_whitespace();
        if fields.next() == Some("usage_usec") {
            let value = fields.next().unwrap_or("");
            return value.parse().map_err(|_| TelemetryError::Codec {
                line: idx as u64 + 1,
                reason: format!("non-numeric usage_usec {value:?}"),
            });
        }
    }
    Err(TelemetryError::Codec {
        line: 1,
        reason: "no usage_usec line".into(),
    })
}

/// Parses cgroup-v2 `memory.current` text (one integer, in bytes).
///
/// # Errors
///
/// Returns [`TelemetryError::Codec`] when the file is not a single
/// integer.
pub fn parse_memory_current(text: &str) -> Result<u64, TelemetryError> {
    text.trim().parse().map_err(|_| TelemetryError::Codec {
        line: 1,
        reason: format!("non-numeric memory.current {:?}", text.trim()),
    })
}

/// One point-in-time reading of all watched files.
#[derive(Debug, Clone)]
struct Snapshot {
    at: Instant,
    cpu: CpuTimes,
    cgroup_cpu_usec: Option<u64>,
    memory_bytes: Option<u64>,
}

/// Live best-effort sampler over `/proc` and cgroup-v2 files.
///
/// The source is open loop — it observes, it cannot pause anything — and
/// reports a single synthetic container representing the watched scope
/// (the whole host, or the configured cgroup). Rates are derived from
/// deltas between consecutive samples; the first tick reports occupancy
/// only. The caller paces the sampling loop at
/// [`SourceMeta::tick_period_secs`].
#[derive(Debug)]
pub struct ProcfsSource {
    proc_root: PathBuf,
    cgroup_root: Option<PathBuf>,
    tick_period_secs: f64,
    tick: u64,
    prev: Option<Snapshot>,
    /// Counts failed sampling probes (DESIGN.md §11); probing still
    /// fails hard — the counter only makes the failure visible in
    /// exported metrics.
    probe_failures: Option<Counter>,
}

impl ProcfsSource {
    /// Capability probe against the real system paths: `Some` only when
    /// `/proc/stat` is readable (i.e. on Linux), watching the root cgroup
    /// at `/sys/fs/cgroup` when that hierarchy exists.
    pub fn probe() -> Option<Self> {
        let cgroup = Path::new("/sys/fs/cgroup");
        let cgroup_root = cgroup
            .join("cpu.stat")
            .is_file()
            .then(|| cgroup.to_path_buf());
        ProcfsSource::with_roots("/proc", cgroup_root, 1.0).ok()
    }

    /// Builds a sampler over explicit roots (tests point this at fixture
    /// trees). `cgroup_root` is the cgroup-v2 directory to watch, if any.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::Unsupported`] when `<proc_root>/stat`
    /// does not exist, [`TelemetryError::InvalidConfig`] for a
    /// non-positive tick period.
    pub(crate) fn with_roots(
        proc_root: impl Into<PathBuf>,
        cgroup_root: Option<PathBuf>,
        tick_period_secs: f64,
    ) -> Result<Self, TelemetryError> {
        if !tick_period_secs.is_finite() || tick_period_secs <= 0.0 {
            return Err(TelemetryError::InvalidConfig {
                reason: format!("tick period must be positive, got {tick_period_secs}"),
            });
        }
        let proc_root = proc_root.into();
        if !proc_root.join("stat").is_file() {
            return Err(TelemetryError::Unsupported {
                reason: format!("{} is not readable", proc_root.join("stat").display()),
            });
        }
        Ok(ProcfsSource {
            proc_root,
            cgroup_root,
            tick_period_secs,
            tick: 0,
            prev: None,
            probe_failures: None,
        })
    }

    /// Registers this source's instruments into `registry`
    /// (builder-style, decision-inert): sampling probes that fail to
    /// read or parse increment
    /// `stayaway_telemetry_procfs_probe_failures_total`.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.probe_failures = Some(registry.counter(
            "stayaway_telemetry_procfs_probe_failures_total",
            "Procfs/cgroup sampling probes that failed to read or parse",
        ));
        self
    }

    fn snapshot(&self) -> Result<Snapshot, TelemetryError> {
        let stat = std::fs::read_to_string(self.proc_root.join("stat"))?;
        let cpu = parse_proc_stat(&stat)?;
        // Optional files degrade silently when absent; present-but-garbled
        // files are hard errors (the capability exists, the data is bad).
        let read_opt = |path: PathBuf| -> Result<Option<String>, TelemetryError> {
            if path.is_file() {
                Ok(Some(std::fs::read_to_string(path)?))
            } else {
                Ok(None)
            }
        };
        let cgroup_cpu_usec = match &self.cgroup_root {
            Some(root) => read_opt(root.join("cpu.stat"))?
                .map(|text| parse_cpu_stat(&text))
                .transpose()?,
            None => None,
        };
        let memory_bytes = match &self.cgroup_root {
            Some(root) => read_opt(root.join("memory.current"))?
                .map(|text| parse_memory_current(&text))
                .transpose()?,
            None => None,
        };
        Ok(Snapshot {
            at: Instant::now(),
            cpu,
            cgroup_cpu_usec,
            memory_bytes,
        })
    }

    fn usage_between(prev: &Snapshot, now: &Snapshot) -> ResourceVector {
        let mut usage = ResourceVector::zero();
        // CPU cores busy: prefer the watched cgroup's time slice when
        // available, else the host-wide jiffy ratio.
        let elapsed = now.at.duration_since(prev.at).as_secs_f64().max(1e-9);
        let cores = match (prev.cgroup_cpu_usec, now.cgroup_cpu_usec) {
            (Some(a), Some(b)) => (b.saturating_sub(a)) as f64 / 1e6 / elapsed,
            _ => {
                let busy = now.cpu.busy_jiffies.saturating_sub(prev.cpu.busy_jiffies) as f64;
                let idle = now.cpu.idle_jiffies.saturating_sub(prev.cpu.idle_jiffies) as f64;
                let total = busy + idle;
                if total > 0.0 {
                    busy / total * now.cpu.cores as f64
                } else {
                    0.0
                }
            }
        };
        usage.set(ResourceKind::Cpu, cores.max(0.0));
        if let Some(bytes) = now.memory_bytes {
            usage.set(ResourceKind::Memory, bytes as f64 / (1024.0 * 1024.0));
        }
        usage
    }

    fn observation(&self, usage: ResourceVector, memory_bytes: Option<u64>) -> Observation {
        let mut usage = usage;
        if let Some(bytes) = memory_bytes {
            usage.set(ResourceKind::Memory, bytes as f64 / (1024.0 * 1024.0));
        }
        let scope = if self.cgroup_root.is_some() {
            "cgroup"
        } else {
            "host"
        };
        Observation {
            tick: self.tick,
            containers: vec![ContainerObs {
                id: ContainerId::from_raw(0),
                name: scope.to_string(),
                class: AppClass::Sensitive,
                active: true,
                paused: false,
                finished: false,
                usage,
                ipc: 1.0,
                priority: 0,
            }],
            qos_violation: false,
            qos_value: 1.0,
        }
    }
}

impl ObservationSource for ProcfsSource {
    fn meta(&self) -> SourceMeta {
        let mut metrics = vec![ResourceKind::Cpu];
        if self.cgroup_root.is_some() {
            metrics.push(ResourceKind::Memory);
        }
        SourceMeta {
            kind: SourceKind::Procfs,
            metrics,
            tick_period_secs: self.tick_period_secs,
            host: None,
        }
    }

    fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError> {
        let now = self.snapshot().inspect_err(|_| {
            if let Some(counter) = &self.probe_failures {
                counter.inc();
            }
        })?;
        let usage = match &self.prev {
            Some(prev) => Self::usage_between(prev, &now),
            None => ResourceVector::zero(),
        };
        let observation = self.observation(usage, now.memory_bytes);
        self.prev = Some(now);
        self.tick += 1;
        Ok(Some(observation))
    }

    /// The default's record without [`meta`](ObservationSource::meta),
    /// which builds the metric list: this source knows no host.
    fn record_for(&self, observation: &Observation, actions: &[Action]) -> TickRecord {
        derive_record(observation, actions.len(), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROC_STAT: &str = "cpu  100 0 50 800 50 0 0 0 0 0\n\
                             cpu0 25 0 12 200 13 0 0 0 0 0\n\
                             cpu1 25 0 13 200 12 0 0 0 0 0\n\
                             cpu2 25 0 12 200 13 0 0 0 0 0\n\
                             cpu3 25 0 13 200 12 0 0 0 0 0\n\
                             intr 12345\n";

    #[test]
    fn proc_stat_parses_aggregate_and_cores() {
        let t = parse_proc_stat(PROC_STAT).unwrap();
        assert_eq!(t.busy_jiffies, 150);
        assert_eq!(t.idle_jiffies, 850);
        assert_eq!(t.cores, 4);
    }

    #[test]
    fn proc_stat_errors_carry_line_numbers() {
        match parse_proc_stat("cpu  1 2 three 4\n") {
            Err(TelemetryError::Codec { line: 1, reason }) => assert!(reason.contains("three")),
            other => panic!("expected Codec at line 1, got {other:?}"),
        }
        match parse_proc_stat("intr 5\nbtime 9\n") {
            Err(TelemetryError::Codec { .. }) => {}
            other => panic!("expected Codec, got {other:?}"),
        }
    }

    #[test]
    fn cpu_stat_and_memory_current_parse() {
        assert_eq!(
            parse_cpu_stat("usage_usec 123456\nuser_usec 100\n").unwrap(),
            123456
        );
        assert!(parse_cpu_stat("user_usec 100\n").is_err());
        match parse_cpu_stat("user_usec 1\nusage_usec NaN\n") {
            Err(TelemetryError::Codec { line: 2, .. }) => {}
            other => panic!("expected Codec at line 2, got {other:?}"),
        }
        assert_eq!(parse_memory_current("1048576\n").unwrap(), 1_048_576);
        assert!(parse_memory_current("lots\n").is_err());
    }

    fn fixture_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stayaway-procfs-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn source_samples_a_fixture_tree() {
        let root = fixture_root("tree");
        let proc_root = root.join("proc");
        let cgroup_root = root.join("cgroup");
        std::fs::create_dir_all(&proc_root).unwrap();
        std::fs::create_dir_all(&cgroup_root).unwrap();
        std::fs::write(proc_root.join("stat"), PROC_STAT).unwrap();
        std::fs::write(cgroup_root.join("cpu.stat"), "usage_usec 1000000\n").unwrap();
        std::fs::write(cgroup_root.join("memory.current"), "2097152\n").unwrap();

        let mut source =
            ProcfsSource::with_roots(&proc_root, Some(cgroup_root.clone()), 1.0).unwrap();
        let meta = source.meta();
        assert_eq!(meta.kind, SourceKind::Procfs);
        assert!(meta.metrics.contains(&ResourceKind::Memory));

        // First tick: occupancy only (no deltas yet).
        let first = source.next_observation().unwrap().unwrap();
        assert_eq!(first.tick, 0);
        assert_eq!(first.containers[0].name, "cgroup");
        assert_eq!(first.containers[0].usage.get(ResourceKind::Cpu), 0.0);
        assert!((first.containers[0].usage.get(ResourceKind::Memory) - 2.0).abs() < 1e-9);

        // Advance the counters and sample again: rates appear.
        std::fs::write(
            proc_root.join("stat"),
            "cpu  200 0 100 800 50 0 0 0 0 0\ncpu0 50 0 25 200 13 0 0 0 0 0\n",
        )
        .unwrap();
        std::fs::write(cgroup_root.join("cpu.stat"), "usage_usec 1500000\n").unwrap();
        let second = source.next_observation().unwrap().unwrap();
        assert_eq!(second.tick, 1);
        assert!(second.containers[0].usage.get(ResourceKind::Cpu) > 0.0);
        assert!(second.containers[0].usage.is_valid());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_proc_stat_is_unsupported() {
        let root = fixture_root("missing");
        match ProcfsSource::with_roots(root.join("nope"), None, 1.0) {
            Err(TelemetryError::Unsupported { .. }) => {}
            other => panic!("expected Unsupported, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn garbled_present_file_is_a_hard_error() {
        let root = fixture_root("garbled");
        let proc_root = root.join("proc");
        std::fs::create_dir_all(&proc_root).unwrap();
        std::fs::write(proc_root.join("stat"), PROC_STAT).unwrap();
        let cgroup_root = root.join("cgroup");
        std::fs::create_dir_all(&cgroup_root).unwrap();
        std::fs::write(cgroup_root.join("cpu.stat"), "usage_usec garbage\n").unwrap();
        let registry = MetricsRegistry::new();
        let failures = registry.counter(
            "stayaway_telemetry_procfs_probe_failures_total",
            "Procfs/cgroup sampling probes that failed to read or parse",
        );
        let mut source = ProcfsSource::with_roots(&proc_root, Some(cgroup_root), 1.0)
            .unwrap()
            .with_metrics(&registry);
        assert!(matches!(
            source.next_observation(),
            Err(TelemetryError::Codec { .. })
        ));
        assert_eq!(failures.get(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn invalid_period_rejected() {
        let root = fixture_root("period");
        let proc_root = root.join("proc");
        std::fs::create_dir_all(&proc_root).unwrap();
        std::fs::write(proc_root.join("stat"), PROC_STAT).unwrap();
        assert!(ProcfsSource::with_roots(&proc_root, None, 0.0).is_err());
        assert!(ProcfsSource::with_roots(&proc_root, None, f64::NAN).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }
}
