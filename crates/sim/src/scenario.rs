//! Pre-built experiment scenarios mirroring the paper's setups (§7.1).

use crate::apps;
use crate::apps::WebWorkload;
use crate::harness::Harness;
use crate::host::Host;
use crate::workload::{DiurnalParams, Trace};
use crate::SimError;
use stayaway_telemetry::{AppClass, HostSpec};

/// Default tick at which batch applications are scheduled, giving the
/// controller a window of isolated sensitive execution first (as in the
/// Figure 5/13 lifecycles).
pub(crate) const DEFAULT_BATCH_START: u64 = 20;

/// Standard deviation of every scenario's multiplicative monitoring noise.
const MONITORING_NOISE_SD: f64 = 0.01;

/// The latency-sensitive application of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum SensitiveKind {
    /// VLC streaming driven by a workload trace.
    VlcStreaming {
        /// Client workload intensity.
        trace: Trace,
    },
    /// The webservice under one of its §7.1 workload types.
    Webservice {
        /// Workload type.
        workload: WebWorkload,
        /// Request intensity.
        trace: Trace,
    },
    /// VLC transcoding treated as the QoS-reporting application — the
    /// "contrived, yet representative" setup of Figure 6.
    VlcTranscode {
        /// Nominal transcode length in ticks.
        work: f64,
    },
    /// No sensitive application (batch-only runs).
    None,
}

/// A batch co-runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchKind {
    /// SPEC CPU 2006 soplex.
    Soplex,
    /// CloudSuite Twitter influence ranking.
    TwitterAnalysis,
    /// CPUBomb from the isolation benchmark suite.
    CpuBomb,
    /// The custom MemoryBomb.
    MemoryBomb,
    /// VLC batch transcoding.
    VlcTranscode,
}

impl BatchKind {
    /// All batch kinds, in the order used by the Figure 12/14–16 sweeps.
    pub const ALL: [BatchKind; 5] = [
        BatchKind::Soplex,
        BatchKind::TwitterAnalysis,
        BatchKind::CpuBomb,
        BatchKind::MemoryBomb,
        BatchKind::VlcTranscode,
    ];

    /// Table 1's Batch-1 combination: Twitter-Analysis + Soplex.
    pub const BATCH_1: [BatchKind; 2] = [BatchKind::TwitterAnalysis, BatchKind::Soplex];

    /// Table 1's Batch-2 combination: Twitter-Analysis + MemoryBomb.
    pub const BATCH_2: [BatchKind; 2] = [BatchKind::TwitterAnalysis, BatchKind::MemoryBomb];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            BatchKind::Soplex => "soplex",
            BatchKind::TwitterAnalysis => "twitter-analysis",
            BatchKind::CpuBomb => "cpu-bomb",
            BatchKind::MemoryBomb => "memory-bomb",
            BatchKind::VlcTranscode => "vlc-transcode",
        }
    }

    fn build(&self, spec: &HostSpec) -> Box<dyn crate::app::Application> {
        match self {
            BatchKind::Soplex => Box::new(apps::soplex()),
            BatchKind::TwitterAnalysis => Box::new(apps::twitter_analysis()),
            BatchKind::CpuBomb => Box::new(apps::cpu_bomb(spec.cpu_cores)),
            BatchKind::MemoryBomb => Box::new(apps::memory_bomb(spec.ram_mb * 0.85)),
            BatchKind::VlcTranscode => Box::new(apps::vlc_transcode(400.0)),
        }
    }
}

impl std::fmt::Display for BatchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A reproducible experiment setup: host, applications and seeds.
///
/// A scenario can build arbitrarily many identical [`Harness`]es, so the
/// same setup can be run under different policies (the with/without
/// Stay-Away comparisons of Figures 8–16).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    host: HostSpec,
    seed: u64,
    sensitive: SensitiveKind,
    /// Additional sensitive applications with §2.1 priorities (lower =
    /// more important; the primary sensitive application has priority 0).
    secondary_sensitive: Vec<(SensitiveKind, u8, u64)>,
    batches: Vec<(BatchKind, u64)>,
}

impl Scenario {
    /// Starts building a custom scenario.
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                name: name.into(),
                host: HostSpec::default(),
                seed: 0,
                sensitive: SensitiveKind::None,
                secondary_sensitive: Vec::new(),
                batches: Vec::new(),
            },
        }
    }

    /// VLC streaming (diurnal workload) co-located with CPUBomb — the
    /// Figure 8/10 setup.
    pub fn vlc_with_cpubomb(seed: u64) -> Scenario {
        Scenario::vlc_with(BatchKind::CpuBomb, seed, "vlc+cpu-bomb")
    }

    /// VLC streaming co-located with Twitter-Analysis — Figures 7, 9, 11.
    pub fn vlc_with_twitter(seed: u64) -> Scenario {
        Scenario::vlc_with(BatchKind::TwitterAnalysis, seed, "vlc+twitter-analysis")
    }

    /// VLC streaming co-located with soplex — Figures 5 and 18.
    pub fn vlc_with_soplex(seed: u64) -> Scenario {
        Scenario::vlc_with(BatchKind::Soplex, seed, "vlc+soplex")
    }

    fn vlc_with(batch: BatchKind, seed: u64, name: &str) -> Scenario {
        let trace = Trace::diurnal(DiurnalParams::default(), seed.wrapping_add(1));
        Scenario::builder(name)
            .seed(seed)
            .sensitive(SensitiveKind::VlcStreaming { trace })
            .batch(batch, DEFAULT_BATCH_START)
            .build()
    }

    /// VLC transcoding co-located with CPUBomb — the instantaneous-
    /// transition illustration of Figure 6.
    pub fn vlc_transcode_with_cpubomb(seed: u64) -> Scenario {
        Scenario::builder("vlc-transcode+cpu-bomb")
            .seed(seed)
            .sensitive(SensitiveKind::VlcTranscode { work: 400.0 })
            .batch(BatchKind::CpuBomb, 30)
            .build()
    }

    /// The webservice under `workload` co-located with one batch
    /// application — the Figure 12/14–16 sweeps.
    pub fn webservice_with(workload: WebWorkload, batch: BatchKind, seed: u64) -> Scenario {
        let trace = Trace::diurnal(DiurnalParams::default(), seed.wrapping_add(2));
        Scenario::builder(format!("webservice-{workload}+{batch}"))
            .seed(seed)
            .sensitive(SensitiveKind::Webservice { workload, trace })
            .batch(batch, DEFAULT_BATCH_START)
            .build()
    }

    /// The webservice co-located with a *combination* of batch
    /// applications (Table 1's Batch-1 / Batch-2).
    pub fn webservice_with_combo(
        workload: WebWorkload,
        combo: &[BatchKind],
        seed: u64,
    ) -> Scenario {
        let trace = Trace::diurnal(DiurnalParams::default(), seed.wrapping_add(2));
        let mut b = Scenario::builder(format!(
            "webservice-{workload}+{}",
            combo
                .iter()
                .map(BatchKind::name)
                .collect::<Vec<_>>()
                .join("+")
        ))
        .seed(seed)
        .sensitive(SensitiveKind::Webservice { workload, trace });
        for (i, kind) in combo.iter().enumerate() {
            b = b.batch(*kind, DEFAULT_BATCH_START + 5 * i as u64);
        }
        b.build()
    }

    /// The scripted workload-variation timeline of Figure 13: webservice
    /// under `workload` with Twitter-Analysis starting at tick 10.
    pub fn webservice_timeline(workload: WebWorkload, seed: u64) -> Result<Scenario, SimError> {
        // Intensity script: high load, a low-utilisation valley, rising
        // load at ~18, and (for Figure 13b) a phase-change window at 30–36.
        let trace = Trace::piecewise(&[
            (0.85, 10),
            (0.25, 8),
            (0.9, 12),
            (0.35, 6),
            (0.8, 14),
            (0.3, 10),
        ])?;
        Ok(Scenario::builder(format!("webservice-{workload}-timeline"))
            .seed(seed)
            .sensitive(SensitiveKind::Webservice { workload, trace })
            .batch(BatchKind::TwitterAnalysis, 10)
            .build())
    }

    /// Builds the scenario a `<sensitive>+<batch>` name describes — the
    /// vocabulary of `--scenario`: sensitive ∈ {`vlc`, `web-cpu`, `web-mem`,
    /// `web-mix`} under a diurnal workload, batch ∈ [`BatchKind::ALL`] by
    /// [`BatchKind::name`], scheduled at `DEFAULT_BATCH_START`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownScenario`] naming the malformed or
    /// unknown half.
    pub fn parse(name: &str, seed: u64) -> Result<Scenario, SimError> {
        let (sens, batch) = name.split_once('+').ok_or_else(|| {
            SimError::UnknownScenario(format!(
                "scenario `{name}` is not of the form <sensitive>+<batch>"
            ))
        })?;
        let batch_kind = BatchKind::ALL
            .into_iter()
            .find(|k| k.name() == batch)
            .ok_or_else(|| {
                SimError::UnknownScenario(format!(
                    "unknown batch app `{batch}` (expected one of {})",
                    BatchKind::ALL.map(|k| k.name()).join(", ")
                ))
            })?;
        let trace = Trace::diurnal(DiurnalParams::default(), seed.wrapping_add(1));
        let workload = match sens {
            "vlc" => None,
            "web-cpu" => Some(WebWorkload::CpuIntensive),
            "web-mem" => Some(WebWorkload::MemIntensive),
            "web-mix" => Some(WebWorkload::Mix),
            other => {
                return Err(SimError::UnknownScenario(format!(
                    "unknown sensitive app `{other}` (expected vlc, web-cpu, web-mem or web-mix)"
                )))
            }
        };
        let sensitive = match workload {
            Some(workload) => SensitiveKind::Webservice { workload, trace },
            None => SensitiveKind::VlcStreaming { trace },
        };
        Ok(Scenario::builder(name)
            .seed(seed)
            .sensitive(sensitive)
            .batch(batch_kind, DEFAULT_BATCH_START)
            .build())
    }

    /// Scenario name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Host capacities.
    pub fn host_spec(&self) -> &HostSpec {
        &self.host
    }

    /// Builds a fresh harness for this scenario.
    ///
    /// # Errors
    ///
    /// Propagates host configuration failures.
    pub fn build_harness(&self) -> Result<Harness, SimError> {
        let mut host = Host::new(self.host)?;
        if let Some(app) = Self::build_sensitive(&self.sensitive) {
            host.add_container(AppClass::Sensitive, app, 0);
        }
        for (kind, priority, start) in &self.secondary_sensitive {
            if let Some(app) = Self::build_sensitive(kind) {
                host.add_container_with_priority(AppClass::Sensitive, app, *start, *priority);
            }
        }
        for (kind, start) in &self.batches {
            host.add_container(AppClass::Batch, kind.build(&self.host), *start);
        }
        Harness::new(host, MONITORING_NOISE_SD, self.seed)
    }

    fn build_sensitive(kind: &SensitiveKind) -> Option<Box<dyn crate::app::Application>> {
        match kind {
            SensitiveKind::VlcStreaming { trace } => {
                Some(Box::new(apps::vlc_streaming(trace.clone())))
            }
            SensitiveKind::Webservice { workload, trace } => {
                Some(Box::new(apps::webservice(*workload, trace.clone())))
            }
            SensitiveKind::VlcTranscode { work } => Some(Box::new(apps::vlc_transcode(*work))),
            SensitiveKind::None => None,
        }
    }

    /// Consumes the scenario and builds its harness.
    ///
    /// # Errors
    ///
    /// Propagates [`Scenario::build_harness`] failures.
    pub fn into_harness(self) -> Result<Harness, SimError> {
        self.build_harness()
    }
}

/// Builder for custom [`Scenario`]s.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Sets the sensitive application.
    pub fn sensitive(mut self, kind: SensitiveKind) -> Self {
        self.scenario.sensitive = kind;
        self
    }

    /// Adds a *secondary* sensitive application with a §2.1 priority
    /// (lower number = more important; the primary sensitive application
    /// has priority 0). Secondary sensitive applications with a worse
    /// priority than the best co-scheduled one may be throttled.
    pub fn secondary_sensitive(
        mut self,
        kind: SensitiveKind,
        priority: u8,
        start_tick: u64,
    ) -> Self {
        self.scenario
            .secondary_sensitive
            .push((kind, priority, start_tick));
        self
    }

    /// Adds a batch co-runner scheduled at `start_tick`.
    pub fn batch(mut self, kind: BatchKind, start_tick: u64) -> Self {
        self.scenario.batches.push((kind, start_tick));
        self
    }

    /// Finalises the scenario.
    pub fn build(self) -> Scenario {
        self.scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stayaway_telemetry::NullPolicy;

    #[test]
    fn presets_build_and_run() {
        for scenario in [
            Scenario::vlc_with_cpubomb(1),
            Scenario::vlc_with_twitter(1),
            Scenario::vlc_with_soplex(1),
            Scenario::vlc_transcode_with_cpubomb(1),
            Scenario::webservice_with(WebWorkload::Mix, BatchKind::Soplex, 1),
        ] {
            let mut h = scenario.build_harness().unwrap();
            let out = h.run(&mut NullPolicy::new(), 30);
            assert_eq!(out.timeline.len(), 30, "{}", scenario.name());
        }
    }

    #[test]
    fn parse_covers_every_sensitive_batch_pair() {
        for sens in ["vlc", "web-cpu", "web-mem", "web-mix"] {
            for batch in BatchKind::ALL {
                let name = format!("{sens}+{batch}");
                let s = Scenario::parse(&name, 1).unwrap();
                assert_eq!(s.name(), name);
                assert_eq!(s.batches, [(batch, DEFAULT_BATCH_START)]);
            }
        }
        // The named presets are the same scenarios.
        assert_eq!(
            Scenario::parse("vlc+cpu-bomb", 9).unwrap(),
            Scenario::vlc_with_cpubomb(9)
        );
    }

    #[test]
    fn parse_names_the_malformed_half() {
        let err = |name: &str| Scenario::parse(name, 1).unwrap_err().to_string();
        assert!(err("vlc").contains("<sensitive>+<batch>"));
        assert!(err("vlc+unknown").contains("unknown batch app `unknown`"));
        assert!(err("nope+soplex").contains("unknown sensitive app `nope`"));
    }

    #[test]
    fn vlc_cpubomb_without_prevention_violates_heavily() {
        let mut h = Scenario::vlc_with_cpubomb(3).build_harness().unwrap();
        let out = h.run(&mut NullPolicy::new(), 200);
        // Once the bomb starts (tick 20) nearly every tick violates.
        let after: Vec<_> = out.timeline.iter().filter(|r| r.tick >= 25).collect();
        let violated = after.iter().filter(|r| r.violated).count();
        assert!(
            violated as f64 > 0.8 * after.len() as f64,
            "only {violated}/{} violations",
            after.len()
        );
        // Before the bomb starts, QoS is clean.
        assert!(out.timeline.iter().take(19).all(|r| !r.violated));
    }

    #[test]
    fn vlc_twitter_violations_are_intermittent() {
        let mut h = Scenario::vlc_with_twitter(3).build_harness().unwrap();
        let out = h.run(&mut NullPolicy::new(), 300);
        let after: Vec<_> = out.timeline.iter().filter(|r| r.tick >= 25).collect();
        let violated = after.iter().filter(|r| r.violated).count();
        assert!(violated > 0, "twitter should cause some violations");
        assert!(
            (violated as f64) < 0.9 * after.len() as f64,
            "twitter violates almost always ({violated}/{}) — should be phase-dependent",
            after.len()
        );
    }

    #[test]
    fn webservice_mem_with_twitter_swaps_periodically() {
        let s = Scenario::webservice_with(WebWorkload::MemIntensive, BatchKind::TwitterAnalysis, 5);
        let mut h = s.build_harness().unwrap();
        let out = h.run(&mut NullPolicy::new(), 300);
        assert!(out.qos.violations > 0);
        assert!(out.qos.satisfaction() > 0.2); // only the memory phase hurts
    }

    #[test]
    fn combo_scenarios_schedule_all_batches() {
        let s = Scenario::webservice_with_combo(WebWorkload::Mix, &BatchKind::BATCH_1, 2);
        assert_eq!(s.batches.len(), 2);
        let h = s.build_harness().unwrap();
        assert_eq!(h.host().containers().count(), 3);
    }

    #[test]
    fn timeline_scenario_starts_twitter_at_ten() {
        let s = Scenario::webservice_timeline(WebWorkload::CpuIntensive, 1).unwrap();
        assert_eq!(s.batches[0].1, 10);
        let mut h = s.build_harness().unwrap();
        let out = h.run(&mut NullPolicy::new(), 60);
        assert_eq!(out.timeline.len(), 60);
    }

    #[test]
    fn scenario_rebuilds_identical_harnesses() {
        let s = Scenario::vlc_with_twitter(9);
        let mut h1 = s.build_harness().unwrap();
        let mut h2 = s.build_harness().unwrap();
        let o1 = h1.run(&mut NullPolicy::new(), 100);
        let o2 = h2.run(&mut NullPolicy::new(), 100);
        assert_eq!(o1, o2);
    }
}
