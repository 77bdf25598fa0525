//! The run shape every workload shares.
//!
//! Closed loop, one driver thread. A timed run repeats the workload's
//! pass — identical fixed work, tracing off — until `--seconds` are
//! spent, clocks every pass in segments, and reports the pass on a quiet
//! machine: the sum of each segment's fastest time (see [`crate::clock`]).
//! A traced run does the same over rounds of an untraced reference pass,
//! a pass with the benchmark's clocks on, and the workload's probes; the
//! spans come from the fastest traced pass. Host time everywhere; only
//! `qos_satisfaction` and `batch_work` are *simulated* quantities.

use crate::clock::{Best, Laps};
use crate::layers::Layers;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workloads::{self, PassOutcome, Size, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// How long a run measures and how much work a pass does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Seconds of passes.
    pub seconds: f64,
    /// Passes (timed) or rounds (traced) at least, however long one takes.
    pub min_passes: usize,
    /// Work per pass.
    pub size: Size,
}

impl Plan {
    /// The timed shape: full-size passes for `seconds`, three at least.
    pub fn timed(seconds: f64) -> Self {
        Plan {
            seconds,
            min_passes: 3,
            size: Size::Full,
        }
    }

    /// The traced shape: traced-size rounds for `seconds`, two at least.
    pub fn traced(seconds: f64) -> Self {
        Plan {
            seconds,
            min_passes: 2,
            size: Size::Traced,
        }
    }

    /// One pass (or round) at ~1 % size.
    pub fn smoke() -> Self {
        Plan {
            seconds: 0.0,
            min_passes: 1,
            size: Size::Smoke,
        }
    }

    /// Whether another pass fits: `done` passes took `elapsed` seconds,
    /// the fastest of them `fastest`.
    fn goes_on(&self, done: usize, elapsed: f64, fastest: f64) -> bool {
        done < self.min_passes || elapsed + fastest <= self.seconds
    }
}

/// The result of a timed run (`--trace 0`).
#[derive(Debug, Clone)]
pub struct TimedReport {
    /// True when every check held and every metric is finite.
    pub correct: bool,
    /// Control periods requested over all passes.
    pub attempted: u64,
    /// Periods not completed plus rejected/invalid actions plus mapping
    /// errors; all of `attempted` when a check failed.
    pub failed: u64,
    /// The end-to-end metrics, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Passes run and work segments per pass.
    pub shape: (usize, usize),
    /// Work seconds of whole passes as they ran, disturbances included.
    pub pass_work: Summary,
    /// The outcome fingerprint all passes agreed on.
    pub digest: u64,
    /// `ticks_per_s` in user units: cells/s, epochs/s, simulated
    /// requests/s.
    pub derived: Vec<(String, f64)>,
    /// Failed checks, in the order found.
    pub failures: Vec<String>,
}

/// The result of a traced run (`--trace 1`).
#[derive(Debug, Clone)]
pub struct TracedReport {
    /// True when every check held and every metric is finite.
    pub correct: bool,
    /// Control periods requested over all traced passes.
    pub attempted: u64,
    /// As [`TimedReport::failed`], over the traced passes.
    pub failed: u64,
    /// The per-layer metrics, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Rounds run.
    pub rounds: usize,
    /// The outcome fingerprint every pass of every round agreed on.
    pub digest: u64,
    /// Spans the fastest traced pass recorded.
    pub spans: usize,
    /// Share of that pass's wall, clocked apart from the tracer, that its
    /// spans' self times add up to; 1 when the trace accounts for the pass.
    pub accounted: f64,
    /// Failed checks, in the order found.
    pub failures: Vec<String>,
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Periods that did not complete plus the faults the pass counted.
fn failed_periods(out: &PassOutcome) -> u64 {
    out.requested.saturating_sub(out.completed) + out.faults
}

fn non_finite(metrics: &BTreeMap<&'static str, f64>) -> Vec<String> {
    metrics
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(name, v)| format!("metric {name} is {v}"))
        .collect()
}

/// Counts over the passes of a run, and the checks every pass must hold:
/// its own, and the first pass's digest.
#[derive(Default)]
struct Tally {
    first: Option<PassOutcome>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, what: &str, out: PassOutcome, counted: bool) {
        if counted {
            self.attempted += out.requested;
            self.failed += failed_periods(&out);
        }
        match &self.first {
            None => {
                self.failures.extend(out.failures.iter().cloned());
                self.first = Some(out);
            }
            Some(first) => {
                if out.digest != first.digest {
                    self.failures.push(format!(
                        "{what} produced digest {:#018x}, the first pass {:#018x}",
                        out.digest.finish(),
                        first.digest.finish()
                    ));
                }
                // The guards of identical work fail identically; keep
                // only what the first pass did not already say.
                for failure in out.failures {
                    if !self.failures.contains(&failure) {
                        self.failures.push(failure);
                    }
                }
            }
        }
    }

    fn first(&self) -> &PassOutcome {
        self.first.as_ref().expect("at least one pass ran")
    }

    /// The verdict of the run once its metrics are known: whether it was
    /// correct, periods attempted, periods failed (all of them when a
    /// check failed) and the failed checks.
    fn close(&self, metrics: &BTreeMap<&'static str, f64>) -> (bool, u64, u64, Vec<String>) {
        let mut failures = self.failures.clone();
        failures.extend(non_finite(metrics));
        let correct = failures.is_empty();
        let attempted = self.attempted.max(1);
        let failed = if correct {
            self.failed.min(attempted)
        } else {
            attempted
        };
        (correct, attempted, failed, failures)
    }
}

/// Runs workload `name` timed: passes for `plan.seconds`.
///
/// # Errors
///
/// Unknown workloads, and failures of the system under test that leave
/// nothing to report.
pub fn run_timed(name: &str, seed: u64, plan: Plan) -> Result<TimedReport, String> {
    let workload = workloads::build(name, seed, plan.size)?;
    let mut best = Best::default();
    let mut tally = Tally::default();
    let mut fastest = f64::INFINITY;
    let started = Instant::now();
    while plan.goes_on(best.passes(), started.elapsed().as_secs_f64(), fastest) {
        let clock = Instant::now();
        let mut laps = Laps::default();
        let out = workload.pass(&mut laps, None)?;
        best.absorb(laps)?;
        tally.absorb(&format!("pass {}", best.passes()), out, true);
        fastest = fastest.min(clock.elapsed().as_secs_f64());
    }
    let rss = peak_rss_mb()?;

    let first = tally.first();
    let mut metrics = BTreeMap::from([
        ("setup_s", best.setup_s()),
        ("ticks_per_s", first.requested as f64 / best.work_s()),
        ("peak_rss_mb", rss),
        ("qos_satisfaction", first.qos.satisfaction()),
        ("batch_work", first.batch_work),
    ]);
    let (correct, attempted, failed, failures) = tally.close(&metrics);
    metrics.insert(
        "completed_share",
        (attempted - failed) as f64 / attempted as f64,
    );
    Ok(TimedReport {
        correct,
        attempted,
        failed,
        metrics,
        shape: (best.passes(), best.segments()),
        pass_work: best.pass_work(),
        digest: first.digest.finish(),
        derived: first
            .derived
            .iter()
            .map(|(unit, count)| (format!("{unit}_per_s"), count / best.work_s()))
            .collect(),
        failures,
    })
}

/// The fastest traced pass so far: its spans, its per-layer table, and
/// the wall it took.
struct TracedPass {
    tracer: Tracer,
    layers: Layers,
    wall_s: f64,
}

/// One clocked pass of `workload` into `into`.
fn traced_pass(
    workload: &dyn Workload,
    into: &mut TracedPass,
) -> Result<(Laps, PassOutcome), String> {
    into.tracer.reset();
    into.layers = Layers::default();
    let mut laps = Laps::default();
    let clock = Instant::now();
    let out = into.tracer.span("pass", || {
        workload.pass(&mut laps, Some((&into.tracer, &mut into.layers)))
    })?;
    into.wall_s = clock.elapsed().as_secs_f64();
    Ok((laps, out))
}

/// Runs workload `name` traced and writes the spans of the fastest traced
/// pass to `<results_dir>/trace-<name>.jsonl` when a directory is given.
///
/// # Errors
///
/// As [`run_timed`], plus I/O failures writing the span file.
pub fn run_traced(
    name: &str,
    seed: u64,
    plan: Plan,
    results_dir: Option<&Path>,
) -> Result<TracedReport, String> {
    let workload = workloads::build(name, seed, plan.size)?;
    let probes = workload.probes();
    let mut reference = Best::default();
    let mut traced = Best::default();
    let mut probed: Vec<Best> = probes.iter().map(|_| Best::default()).collect();
    let mut tally = Tally::default();

    // Two span buffers that swap, so keeping the fastest pass copies
    // nothing and no push reallocates inside a clocked call once a pass
    // has sized each of them.
    let fresh = || TracedPass {
        tracer: Tracer::new(),
        layers: Layers::default(),
        wall_s: f64::INFINITY,
    };
    let (mut kept, mut current) = (fresh(), fresh());

    let mut rounds = 0;
    let mut fastest = f64::INFINITY;
    let started = Instant::now();
    while plan.goes_on(rounds, started.elapsed().as_secs_f64(), fastest) {
        let clock = Instant::now();
        let mut laps = Laps::default();
        let out = workload.pass(&mut laps, None)?;
        reference.absorb(laps)?;
        tally.absorb("a reference pass", out, false);

        let (laps, out) = traced_pass(workload.as_ref(), &mut current)?;
        traced.absorb(laps)?;
        tally.absorb("a traced pass", out, true);
        if current.wall_s < kept.wall_s {
            std::mem::swap(&mut kept, &mut current);
        }

        for (index, best) in probed.iter_mut().enumerate() {
            let mut laps = Laps::default();
            let out = workload.probe(index, &mut laps)?;
            best.absorb(laps)?;
            tally.absorb(&format!("probe {}", probes[index]), out, false);
        }
        rounds += 1;
        fastest = fastest.min(clock.elapsed().as_secs_f64());
    }

    let spans = kept.tracer.totals();
    let accounted = spans.values().map(|t| t.self_s).sum::<f64>() / kept.wall_s;
    let mut layers = kept.layers;
    layers.set(
        "harness.trace_overhead_share",
        traced.work_s() / reference.work_s() - 1.0,
    );
    let probes_s: Vec<f64> = probed.iter().map(Best::work_s).collect();
    workload.relate(reference.work_s(), &probes_s, &mut layers);
    let metrics = layers.finish(&spans);

    if let Some(dir) = results_dir {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("trace-{name}.jsonl"));
        let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
        kept.tracer
            .write_jsonl(std::io::BufWriter::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let (correct, attempted, failed, failures) = tally.close(&metrics);
    Ok(TracedReport {
        correct,
        attempted,
        failed,
        metrics,
        rounds,
        digest: tally.first().digest.finish(),
        spans: kept.tracer.len(),
        accounted,
        failures,
    })
}
