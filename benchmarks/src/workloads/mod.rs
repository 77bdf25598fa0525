//! The five workloads and what they share: the outcome every pass
//! reports, the co-locations the host-level ones run, and the one
//! closed-loop helper they drive through (plain, or wrapped in the
//! benchmark's clocks).
//!
//! Every workload is a fixed list of independent hosts, fleets or
//! clusters, each under its own seed derived from `--seed`: the cost of a
//! control period depends on how large a state map the run happens to
//! learn (a factor of two between seeds on `vlc+twitter-analysis`), so a
//! single host says more about its seed than about the code.

mod cluster_scale;
mod fleet_cold;
mod host_observed;
mod host_steady;
mod trace_roundtrip;

use crate::clock::{Lap, Laps};
use crate::layers::Layers;
use crate::stats::Digest;
use crate::trace::{TracedPolicy, TracedSource, Tracer};
use stay_away::core::{Controller, ControllerConfig, ControllerStats, Observability};
use stay_away::fleet::derive_cell_seed;
use stay_away::sim::apps::WebWorkload;
use stay_away::sim::scenario::{BatchKind, Scenario};
use stay_away::sim::SimSource;
use stay_away::telemetry::{drive, ObservationSource, Policy, QosSummary, RunOutcome};

/// How much work a pass does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The timed size: 2 to 2.5 s per pass on a quiet reference box, so a
    /// run sees every segment half a dozen times.
    Full,
    /// The traced size: the same hosts/fleets/clusters, fewer of them, so
    /// that a round of the traced run — reference pass, traced pass and
    /// the workload's extra passes — also repeats several times.
    Traced,
    /// About 1 % of the timed size, for the smoke test. The non-vacuity
    /// guards are not enforced: a 200-tick run cannot saturate a map.
    Smoke,
}

impl Size {
    /// One of three values by size.
    pub fn pick(self, full: u64, traced: u64, smoke: u64) -> u64 {
        match self {
            Size::Full => full,
            Size::Traced => traced,
            Size::Smoke => smoke,
        }
    }

    /// Whether the non-vacuity guards apply.
    pub fn guarded(self) -> bool {
        self != Size::Smoke
    }
}

/// The seed of the `index`-th host, fleet or cluster of a workload.
pub fn sub_seed(seed: u64, index: usize) -> u64 {
    derive_cell_seed(seed, index as u64)
}

/// What one pass of a workload did.
#[derive(Debug, Clone)]
pub struct PassOutcome {
    /// Control periods asked for, summed over hosts/cells.
    pub requested: u64,
    /// Control periods completed.
    pub completed: u64,
    /// Actions the simulated substrate rejected, invalid cluster actions
    /// and controller mapping errors.
    pub faults: u64,
    /// *Simulated* QoS accounting pooled over every host/cell.
    pub qos: QosSummary,
    /// *Simulated* nominal batch work completed.
    pub batch_work: f64,
    /// Fingerprint of everything deterministic about the outcome.
    pub digest: Digest,
    /// The period count in user units (cells, epochs, simulated requests).
    pub derived: Vec<(&'static str, f64)>,
    /// Correctness checks and non-vacuity guards that did not hold.
    pub failures: Vec<String>,
}

impl Default for PassOutcome {
    fn default() -> Self {
        PassOutcome {
            requested: 0,
            completed: 0,
            faults: 0,
            qos: QosSummary::new(),
            batch_work: 0.0,
            digest: Digest::default(),
            derived: Vec::new(),
            failures: Vec::new(),
        }
    }
}

impl PassOutcome {
    /// Pools another QoS summary into this outcome's.
    pub fn pool_qos(&mut self, qos: &QosSummary) {
        self.qos.active_ticks += qos.active_ticks;
        self.qos.violations += qos.violations;
        self.qos.qos_sum += qos.qos_sum;
        self.qos.worst = self.qos.worst.min(qos.worst);
        for word in [qos.active_ticks, qos.violations] {
            self.digest.word(word);
        }
        self.digest.float(qos.qos_sum);
        self.digest.float(qos.worst);
    }

    /// Folds one `drive` call of a host's closed loop in: QoS, rejected
    /// actions, the per-tick action counts and — for timed work — the
    /// periods completed.
    fn absorb_chunk(&mut self, lap: Lap, run: &RunOutcome) {
        if lap == Lap::Work {
            self.completed += run.timeline.len() as u64;
        }
        self.faults += run.rejected_actions;
        self.pool_qos(&run.qos);
        self.digest.word(run.rejected_actions);
        for record in &run.timeline {
            self.digest.word(record.actions as u64);
        }
    }

    /// Closes one host's closed loop: the batch work its substrate did
    /// and the controller statistics minus their wall-clock `nanos`.
    pub fn finish_host(&mut self, batch_work: f64, stats: &ControllerStats) {
        self.faults += stats.mapping_errors;
        self.batch_work += batch_work;
        self.digest.float(batch_work);
        fold_stats(&mut self.digest, stats);
    }

    /// Adds `count` to the derived unit `unit`.
    pub fn count(&mut self, unit: &'static str, count: f64) {
        match self.derived.iter_mut().find(|(u, _)| *u == unit) {
            Some((_, total)) => *total += count,
            None => self.derived.push((unit, count)),
        }
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }
}

/// Folds the deterministic part of the controller statistics into `digest`
/// (stage invocation counts yes, stage `nanos` no).
pub fn fold_stats(digest: &mut Digest, stats: &ControllerStats) {
    let timing = &stats.stage_timing;
    for word in [
        stats.periods,
        stats.violations_observed,
        stats.violations_predicted,
        stats.throttles,
        stats.resumes,
        stats.prediction_checks,
        stats.prediction_hits,
        stats.states as u64,
        stats.violation_states as u64,
        stats.mapping_errors,
        stats.samples_rejected,
        stats.events_dropped,
        timing.sense.invocations,
        timing.map.invocations,
        timing.predict.invocations,
        timing.act.invocations,
    ] {
        digest.word(word);
    }
}

/// The controller configuration every host-level workload uses: the
/// defaults (KDE predictor) under the host's seed.
pub fn controller_config(seed: u64) -> ControllerConfig {
    ControllerConfig {
        seed,
        ..ControllerConfig::default()
    }
}

/// The sim co-locations the host-level workloads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoLocation {
    VlcCpuBomb,
    VlcTwitter,
    VlcSoplex,
    WebMemTwitter,
    WebMixSoplex,
}

impl CoLocation {
    /// The paper's four co-locations.
    pub const PAPER: [CoLocation; 4] = [
        CoLocation::VlcCpuBomb,
        CoLocation::VlcTwitter,
        CoLocation::WebMemTwitter,
        CoLocation::WebMixSoplex,
    ];

    fn scenario(self, seed: u64) -> Scenario {
        match self {
            CoLocation::VlcCpuBomb => Scenario::vlc_with_cpubomb(seed),
            CoLocation::VlcTwitter => Scenario::vlc_with_twitter(seed),
            CoLocation::VlcSoplex => Scenario::vlc_with_soplex(seed),
            CoLocation::WebMemTwitter => Scenario::webservice_with(
                WebWorkload::MemIntensive,
                BatchKind::TwitterAnalysis,
                seed,
            ),
            CoLocation::WebMixSoplex => {
                Scenario::webservice_with(WebWorkload::Mix, BatchKind::Soplex, seed)
            }
        }
    }

    /// Whether the batch application is Twitter-Analysis, whose phases
    /// make the state map grow into the hundreds.
    pub fn is_twitter(self) -> bool {
        matches!(self, CoLocation::VlcTwitter | CoLocation::WebMemTwitter)
    }

    /// What a deployment does before its first control period: the
    /// scenario, its simulated host, and a controller for that host.
    ///
    /// # Errors
    ///
    /// Construction failures of the simulator or the controller, as text.
    pub fn host(self, seed: u64, obs: Observability) -> Result<(SimSource, Controller), String> {
        let harness = self
            .scenario(seed)
            .into_harness()
            .map_err(|e| e.to_string())?;
        let controller =
            Controller::for_host_observed(controller_config(seed), harness.host().spec(), obs)
                .map_err(|e| e.to_string())?;
        Ok((SimSource::new(harness), controller))
    }
}

/// Span names for a traced source: `next_observation`, and `apply` when
/// the substrate actuates.
pub type SourceSpans = (&'static str, Option<&'static str>);

/// One stretch of a host's closed loop: how many control periods, what
/// they count towards, and in `telemetry::drive` calls of how many
/// periods — one segment each.
#[derive(Debug, Clone, Copy)]
pub struct Stretch {
    pub lap: Lap,
    pub ticks: u64,
    pub chunk: u64,
}

impl Stretch {
    /// `ticks` timed periods in segments of `chunk`.
    pub fn work(ticks: u64, chunk: u64) -> Self {
        Stretch {
            lap: Lap::Work,
            ticks,
            chunk,
        }
    }
}

fn drive_stretch(
    source: &mut dyn ObservationSource,
    policy: &mut dyn Policy,
    stretch: Stretch,
    laps: &mut Laps,
    tracer: Option<&Tracer>,
    out: &mut PassOutcome,
) -> Result<(), String> {
    if stretch.lap == Lap::Work {
        out.requested += stretch.ticks;
    }
    let mut left = stretch.ticks;
    while left > 0 {
        let periods = left.min(stretch.chunk);
        let run = laps
            .lap(stretch.lap, || match tracer {
                Some(t) => t.span("telemetry.drive", || drive(source, policy, periods)),
                None => drive(source, policy, periods),
            })
            .map_err(|e| e.to_string())?;
        out.absorb_chunk(stretch.lap, &run);
        if (run.timeline.len() as u64) < periods {
            // The shortfall of timed work counts as failed periods.
            if stretch.lap == Lap::Setup {
                out.fail("the source ran dry during the warm-up");
            }
            break;
        }
        left -= periods;
    }
    Ok(())
}

/// Runs the closed loop over `source` and `policy` for one `stretch` and
/// hands the source back. With a tracer, every `drive` call is a
/// `telemetry.drive` span whose children are the clocked source and
/// policy calls.
///
/// # Errors
///
/// Propagates the source's telemetry errors as text.
pub fn closed_loop<S: ObservationSource>(
    source: S,
    policy: &mut dyn Policy,
    stretch: Stretch,
    laps: &mut Laps,
    trace: Option<(&Tracer, SourceSpans)>,
    out: &mut PassOutcome,
) -> Result<S, String> {
    match trace {
        None => {
            let mut source = source;
            drive_stretch(&mut source, policy, stretch, laps, None, out)?;
            Ok(source)
        }
        Some((tracer, (next, apply))) => {
            let mut source = TracedSource::new(source, tracer, next, apply);
            let mut policy = TracedPolicy::new(policy, tracer);
            drive_stretch(&mut source, &mut policy, stretch, laps, Some(tracer), out)?;
            Ok(source.into_inner())
        }
    }
}

/// The tracer and per-layer table of a traced pass.
pub type Trace<'a> = (&'a Tracer, &'a mut Layers);

/// The name of an extra pass of the traced run.
pub type Probe = &'static str;

/// One benchmark workload: inputs fixed at construction from the seed,
/// identical work on every pass.
pub trait Workload {
    /// One pass: every host, fleet or cluster of the workload once, set-up
    /// and work clocked in `laps`. With `trace`, the benchmark's clocks
    /// are on and the per-layer table is filled — plus whatever replays
    /// outside `laps` the breakdown of a sealed loop needs.
    ///
    /// # Errors
    ///
    /// Any construction or run failure of the system under test, as text.
    fn pass(&self, laps: &mut Laps, trace: Option<Trace<'_>>) -> Result<PassOutcome, String>;

    /// Variants of the pass the per-layer ratios need (the same work at
    /// one worker, or with less of the introspection plane on).
    fn probes(&self) -> &'static [Probe] {
        &[]
    }

    /// Runs the `index`-th variant; the outcome must reproduce the pass's
    /// digest.
    ///
    /// # Errors
    ///
    /// As [`Workload::pass`].
    fn probe(&self, index: usize, _laps: &mut Laps) -> Result<PassOutcome, String> {
        Err(format!("this workload has no probe {index}"))
    }

    /// Turns the quiet-machine work seconds of the untraced reference
    /// pass and of each probe, in [`Workload::probes`] order, into
    /// per-layer ratios.
    fn relate(&self, _reference_s: f64, _probes_s: &[f64], _layers: &mut Layers) {}
}

/// Builds workload `name` with inputs derived from `seed`.
///
/// # Errors
///
/// Unknown names and input-construction failures, as text.
pub fn build(name: &str, seed: u64, size: Size) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "host-steady" => Box::new(host_steady::HostSteady::new(seed, size)),
        "fleet-cold" => Box::new(fleet_cold::FleetCold::new(seed, size)),
        "cluster-scale" => Box::new(cluster_scale::ClusterScale::new(seed, size)),
        "trace-roundtrip" => Box::new(trace_roundtrip::TraceRoundtrip::new(seed, size)),
        "host-observed" => Box::new(host_observed::HostObserved::new(seed, size)),
        other => return Err(format!("unknown workload `{other}`")),
    })
}
