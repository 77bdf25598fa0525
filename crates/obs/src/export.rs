//! Exporters: Prometheus text exposition and pretty JSON snapshots.
//!
//! The Prometheus rendering is the classic text format (`# HELP` /
//! `# TYPE` headers, cumulative `_bucket{le="..."}` series per
//! histogram). The JSON rendering is a human-oriented snapshot with
//! derived statistics (mean, p50/p95/p99) computed at render time so
//! the stored snapshot stays raw and mergeable.

use crate::hist::{bucket_bounds, HistogramSnapshot, Unit, SUB_BITS};
use crate::snapshot::MetricsSnapshot;
use serde_json::{json, Value};
use std::fmt::Write as _;

/// Escapes a HELP text per the exposition format.
fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Renders one histogram's series.
fn write_histogram(out: &mut String, name: &str, hist: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for bucket in &hist.buckets {
        cumulative = cumulative.saturating_add(bucket.count);
        let (_, le) = bucket_bounds::<SUB_BITS>(bucket.index as usize);
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count);
    let _ = writeln!(out, "{name}_sum {}", hist.sum);
    let _ = writeln!(out, "{name}_count {}", hist.count);
}

/// Renders a snapshot in the Prometheus text exposition format.
/// Deterministic: metrics appear in name order within each kind
/// (counters, then gauges, then histograms).
pub fn to_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for c in &snapshot.counters {
        let _ = writeln!(out, "# HELP {} {}", c.name, escape_help(&c.help));
        let _ = writeln!(out, "# TYPE {} counter", c.name);
        let _ = writeln!(out, "{} {}", c.name, c.value);
    }
    for g in &snapshot.gauges {
        let _ = writeln!(out, "# HELP {} {}", g.name, escape_help(&g.help));
        let _ = writeln!(out, "# TYPE {} gauge", g.name);
        let _ = writeln!(out, "{} {}", g.name, g.value);
    }
    for h in &snapshot.histograms {
        let _ = writeln!(out, "# HELP {} {}", h.name, escape_help(&h.help));
        let _ = writeln!(out, "# TYPE {} histogram", h.name);
        write_histogram(&mut out, &h.name, &h.hist);
    }
    out
}

fn unit_name(unit: Unit) -> &'static str {
    match unit {
        Unit::None => "none",
        Unit::Nanos => "nanos",
    }
}

/// Renders a snapshot as a JSON [`Value`] with derived quantiles;
/// pretty-print with [`serde_json::to_string_pretty`].
pub fn to_json(snapshot: &MetricsSnapshot) -> Value {
    let counters: Vec<Value> = snapshot
        .counters
        .iter()
        .map(|c| {
            json!({
                "name": c.name,
                "help": c.help,
                "value": c.value,
            })
        })
        .collect();
    let gauges: Vec<Value> = snapshot
        .gauges
        .iter()
        .map(|g| {
            json!({
                "name": g.name,
                "help": g.help,
                "value": g.value,
            })
        })
        .collect();
    let histograms: Vec<Value> = snapshot
        .histograms
        .iter()
        .map(|h| {
            json!({
                "name": h.name,
                "help": h.help,
                "unit": unit_name(h.hist.unit),
                "count": h.hist.count,
                "sum": h.hist.sum,
                "min": h.hist.min,
                "max": h.hist.max,
                "mean": h.hist.mean(),
                "p50": h.hist.quantile(0.50),
                "p95": h.hist.quantile(0.95),
                "p99": h.hist.quantile(0.99),
            })
        })
        .collect();
    json!({
        "counters": Value::Array(counters),
        "gauges": Value::Array(gauges),
        "histograms": Value::Array(histograms),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn demo_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("stayaway_demo_events_total", "events seen")
            .add(5);
        reg.gauge("stayaway_demo_beta", "throttle ratio").set(0.25);
        let h = reg.histogram("stayaway_demo_iterations", "iterations per run");
        for v in [1u64, 3, 3, 40] {
            h.record(v);
        }
        reg
    }

    #[test]
    fn prometheus_text_has_headers_and_cumulative_buckets() {
        let text = to_prometheus(&demo_registry().snapshot());
        assert!(text.contains("# TYPE stayaway_demo_events_total counter"));
        assert!(text.contains("stayaway_demo_events_total 5"));
        assert!(text.contains("# TYPE stayaway_demo_beta gauge"));
        assert!(text.contains("stayaway_demo_beta 0.25"));
        assert!(text.contains("# TYPE stayaway_demo_iterations histogram"));
        assert!(text.contains("stayaway_demo_iterations_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("stayaway_demo_iterations_sum 47"));
        assert!(text.contains("stayaway_demo_iterations_count 4"));
        assert!(text.ends_with('\n'));
        // Bucket counts are cumulative: the le="3" bucket holds 1+2 values.
        assert!(text.contains("stayaway_demo_iterations_bucket{le=\"3\"} 3"));
    }

    #[test]
    fn json_snapshot_carries_quantiles() {
        let value = to_json(&demo_registry().snapshot());
        let hists = value.get("histograms").and_then(Value::as_array).unwrap();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].get("count").and_then(Value::as_u64), Some(4));
        assert!(hists[0].get("p50").and_then(Value::as_u64).is_some());
        let text = serde_json::to_string_pretty(&value).unwrap();
        assert!(text.contains("stayaway_demo_beta"));
    }

    #[test]
    fn empty_histogram_renders_null_quantiles() {
        let reg = MetricsRegistry::new();
        reg.histogram("stayaway_demo_empty", "never recorded");
        let value = to_json(&reg.snapshot());
        let hists = value.get("histograms").and_then(Value::as_array).unwrap();
        assert!(hists[0].get("p50").unwrap().is_null());
    }
}
