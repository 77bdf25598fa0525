//! Rendering: the result line the driver reads, the `detail` line and
//! results file the ledger keeps, and the two-file comparison.

use crate::harness::{TimedReport, TracedReport};
use crate::spec::{Better, MetricSpec, END_TO_END, RUN_SECONDS, WORKERS, WORKLOADS};
use crate::stats::Summary;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::fmt::Write;

fn object(pairs: impl IntoIterator<Item = (String, Value)>) -> Value {
    Value::Object(pairs.into_iter().collect())
}

fn metrics_value(specs: &[MetricSpec], values: &BTreeMap<&'static str, f64>) -> Value {
    object(specs.iter().map(|m| {
        (
            m.name.to_string(),
            json!({"value": values[m.name], "unit": m.unit}),
        )
    }))
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[MetricSpec],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_value(specs, values),
    })
    .to_json()
}

fn summary_value(s: &Summary) -> Value {
    json!({
        "samples": s.n as u64,
        "min": s.min,
        "q1": s.q1,
        "median": s.median,
        "q3": s.q3,
        "max": s.max,
    })
}

fn digest_text(digest: u64) -> String {
    format!("{digest:#018x}")
}

/// Everything a timed run knows beyond the result line.
pub fn timed_detail(report: &TimedReport) -> Value {
    json!({
        "digest": digest_text(report.digest),
        "passes": report.shape.0 as u64,
        "segments_per_pass": report.shape.1 as u64,
        "pass_work_s": summary_value(&report.pass_work),
        "derived": object(report.derived.iter().map(|(k, v)| (k.clone(), json!(*v)))),
        "failures": report.failures,
    })
}

/// Everything a traced run knows beyond the result line.
pub fn traced_detail(report: &TracedReport) -> Value {
    json!({
        "digest": digest_text(report.digest),
        "rounds": report.rounds as u64,
        "spans": report.spans as u64,
        "accounted": report.accounted,
        "failures": report.failures,
    })
}

/// Prints every metric of a run by name with its unit, one per line.
pub fn metric_lines(specs: &[MetricSpec], values: &BTreeMap<&'static str, f64>) -> String {
    let mut out = String::new();
    for m in specs {
        let _ = writeln!(out, "  {:<34} {:>16.6} {}", m.name, values[m.name], m.unit);
    }
    out
}

/// One workload's entry in the results file, from its two child runs
/// (result line + detail line each).
pub fn workload_entry(
    name: &str,
    timed: (&Value, &Value),
    traced: (&Value, &Value),
) -> Result<Value, String> {
    let field = |v: &Value, key: &str| {
        v.get(key)
            .cloned()
            .ok_or_else(|| format!("{name}: child output lacks `{key}`"))
    };
    let (timed_result, timed_detail) = timed;
    let (traced_result, traced_detail) = traced;
    let timed_metrics = field(timed_result, "metrics")?;
    let end_to_end = object(END_TO_END.iter().map(|m| {
        let value = timed_metrics
            .get(m.name)
            .and_then(|e| e.get("value"))
            .cloned()
            .unwrap_or(Value::Null);
        let entry = json!({
            "value": value,
            "unit": m.unit,
            "better": m.better.as_str(),
            "bound": m.bound,
        });
        (m.name.to_string(), entry)
    }));
    let mut failures = Vec::new();
    for detail in [timed_detail, traced_detail] {
        failures.extend(
            field(detail, "failures")?
                .as_array()
                .unwrap_or(&[])
                .to_vec(),
        );
    }
    let correct = |v: &Value| v.get("correct") == Some(&Value::Bool(true));
    Ok(json!({
        "name": name,
        "correct": correct(timed_result) && correct(traced_result),
        "attempted": field(timed_result, "attempted")?,
        "failed": field(timed_result, "failed")?,
        "digest": field(timed_detail, "digest")?,
        "end_to_end": end_to_end,
        "derived": field(timed_detail, "derived")?,
        "passes": field(timed_detail, "passes")?,
        "segments_per_pass": field(timed_detail, "segments_per_pass")?,
        "pass_work_s": field(timed_detail, "pass_work_s")?,
        "per_layer": field(traced_result, "metrics")?,
        "traced": traced_detail.clone(),
        "failures": failures,
    }))
}

/// The results file: one entry per workload plus what the run depended on.
pub fn results_file(seed: u64, seconds: f64, workloads: Vec<Value>) -> Value {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    json!({
        "schema": 1u64,
        "seed": seed,
        "run_seconds": seconds,
        "default_run_seconds": RUN_SECONDS,
        "workers": WORKERS as u64,
        "available_parallelism": parallelism,
        "workloads": workloads,
    })
}

/// `--compare` verdict for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sets'
    /// ranges overlap: neither "unchanged" nor "regressed" can be claimed.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share by which `b` is worse than `a` (negative when better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    }
}

/// Judges set B against set A on one workload × metric. With one run a
/// side there is no spread to see, and the medians decide alone.
pub fn judge(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    let worse = worse_by(a.median, b.median, better);
    if a.spread().max(b.spread()) > bound {
        // Noise wider than what the bound resolves: only sets that do
        // not overlap say anything.
        let (b_best, b_worst, a_best, a_worst) = match better {
            Better::Higher => (b.max, b.min, a.max, a.min),
            Better::Lower => (b.min, b.max, a.min, a.max),
        };
        return if worse_by(a_best, b_worst, better) <= 0.0 {
            Verdict::Ok // every run of B reads at least as well as every run of A
        } else if worse > bound && worse_by(a_worst, b_best, better) > 0.0 {
            Verdict::Regressed // every run of B reads worse than every run of A
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Compares two sets of results files (one or more runs each): per
/// end-to-end metric a table with one workload per row — both medians, by
/// how much B is worse, each set's run-to-run spread, the bound and the
/// verdict. Returns the text and whether anything regressed.
///
/// # Errors
///
/// A file that is not a results file of this benchmark.
pub fn compare(a: &[Value], b: &[Value]) -> Result<(String, bool), String> {
    let value = |file: &Value, workload: &str, metric: &str| -> Result<f64, String> {
        file.get("workloads")
            .and_then(Value::as_array)
            .and_then(|ws| {
                ws.iter()
                    .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))
            })
            .and_then(|w| w.get("end_to_end"))
            .and_then(|e| e.get(metric))
            .and_then(|e| e.get("value"))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("no numeric `{metric}` for workload `{workload}`"))
    };
    let summary = |set: &[Value], workload: &str, metric: &str| -> Result<Summary, String> {
        let values: Vec<f64> = set
            .iter()
            .map(|file| value(file, workload, metric))
            .collect::<Result<_, _>>()?;
        Ok(Summary::of(&values))
    };
    if a.is_empty() || b.is_empty() {
        return Err("--compare needs at least one results file a side".into());
    }
    let mut out = String::new();
    let mut regressed = false;
    for m in END_TO_END {
        let _ = writeln!(
            out,
            "{} [{}, {} is better, bound {}]",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
        for (workload, _) in WORKLOADS {
            let (sa, sb) = (summary(a, workload, m.name)?, summary(b, workload, m.name)?);
            let verdict = judge(&sa, &sb, m.better, m.bound);
            regressed |= verdict == Verdict::Regressed;
            let _ = writeln!(
                out,
                "  {workload:<16} A {:>16.6} (n {}, spread {:.3})  B {:>16.6} (n {}, spread {:.3})  \
                 worse by {:>+8.4}  bound {}  {}",
                sa.median,
                sa.n,
                sa.spread(),
                sb.median,
                sb.n,
                sb.spread(),
                worse_by(sa.median, sb.median, m.better),
                m.bound,
                verdict.as_str()
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A results file in which every metric of every workload reads 1,
    /// except `ticks_per_s`.
    fn file(ticks_per_s: f64) -> Value {
        let workloads: Vec<Value> = WORKLOADS
            .iter()
            .map(|(name, _)| {
                let end_to_end = object(END_TO_END.iter().map(|m| {
                    let value = if m.name == "ticks_per_s" {
                        ticks_per_s
                    } else {
                        1.0
                    };
                    (m.name.to_string(), json!({ "value": value }))
                }));
                json!({"name": name, "end_to_end": end_to_end})
            })
            .collect();
        json!({ "workloads": workloads })
    }

    fn set(values: &[f64]) -> Vec<Value> {
        values.iter().map(|v| file(*v)).collect()
    }

    #[test]
    fn identical_files_are_ok() {
        let a = set(&[1000.0]);
        let (text, regressed) = compare(&a, &a).unwrap();
        assert!(!regressed);
        assert!(text.contains("host-steady") && !text.contains("regressed"));
    }

    #[test]
    fn a_drop_beyond_the_bound_regresses_and_noise_is_unresolved() {
        let steady = set(&[1000.0, 1010.0, 990.0, 1005.0]);
        let slow = set(&[700.0, 705.0, 695.0, 702.0]);
        let (text, regressed) = compare(&steady, &slow).unwrap();
        assert!(regressed && text.contains("regressed"));
        // The same drop of the median, but runs so noisy that the sets overlap.
        let noisy_a = set(&[1000.0, 600.0, 1400.0, 1000.0]);
        let noisy_b = set(&[700.0, 400.0, 1100.0, 700.0]);
        let (text, regressed) = compare(&noisy_a, &noisy_b).unwrap();
        assert!(!regressed && text.contains("unresolved"));
        // Noisy, but every run of B beats every run of A.
        let (text, _) = compare(&noisy_b, &set(&[1500.0, 2000.0, 2500.0, 1800.0])).unwrap();
        assert!(!text.contains("unresolved") && !text.contains("regressed"));
    }

    #[test]
    fn worse_by_respects_direction() {
        assert_eq!(worse_by(100.0, 90.0, Better::Higher), 0.1);
        assert_eq!(worse_by(100.0, 90.0, Better::Lower), -0.1);
        assert_eq!(worse_by(0.0, 0.0, Better::Lower), 0.0);
    }
}
