//! Metrics-snapshot diffing — the comparison behind `stayaway
//! metrics-diff`, the regression gate over two `--metrics-out *.json`
//! exports.
//!
//! A snapshot document flattens into comparable [`MetricSeries`] (one per
//! counter and gauge, one per histogram statistic); [`diff_series`] pairs
//! two such sets over the union of their keys and reports the symmetric
//! relative difference of each pair. Wall-clock series are nondeterministic
//! by nature and never enter the comparison.

use serde_json::Value;
use std::collections::BTreeMap;

/// One comparable series extracted from a metrics snapshot: histograms
/// expand to one series per statistic; `metric` names the owning metric so
/// per-metric tolerances attach to all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    /// Unique series key: the metric name, or `<metric>/<statistic>`.
    pub(crate) key: String,
    /// Name of the metric the series belongs to.
    pub(crate) metric: String,
    /// The exported value.
    pub(crate) value: f64,
}

/// One row of a snapshot comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Series key (see `MetricSeries::key`).
    pub key: String,
    /// Owning metric name.
    pub metric: String,
    /// Left-hand value (`NaN` when the series exists only on the right).
    pub a: f64,
    /// Right-hand value (`NaN` when the series exists only on the left).
    pub b: f64,
    /// Symmetric relative difference; infinite for a one-sided series.
    pub rel: f64,
}

/// True for series that carry wall-clock readings, which the regression
/// gate excludes.
pub(crate) fn is_wall_clock(name: &str, unit: Option<&str>) -> bool {
    name.ends_with("_nanos") || name.contains("_nanos_") || unit == Some("nanos")
}

/// Extracts the comparable series from the text of a `--metrics-out
/// *.json` snapshot, skipping wall-clock series and null quantiles.
///
/// # Errors
///
/// Returns the JSON parse error when `text` is not a JSON document.
pub fn parse_snapshot(text: &str) -> Result<Vec<MetricSeries>, serde_json::Error> {
    let doc: Value = serde_json::from_str(text)?;
    let entries = |section: &str| {
        doc.get(section)
            .and_then(Value::as_array)
            .unwrap_or_default()
    };
    let name_of = |entry: &Value| entry.get("name").and_then(Value::as_str).map(String::from);
    let mut out = Vec::new();
    for entry in entries("counters").iter().chain(entries("gauges")) {
        let Some(name) = name_of(entry).filter(|n| !is_wall_clock(n, None)) else {
            continue;
        };
        if let Some(value) = entry.get("value").and_then(number) {
            out.push(MetricSeries {
                key: name.clone(),
                metric: name,
                value,
            });
        }
    }
    for entry in entries("histograms") {
        let unit = entry.get("unit").and_then(Value::as_str);
        let Some(name) = name_of(entry).filter(|n| !is_wall_clock(n, unit)) else {
            continue;
        };
        for stat in ["count", "sum", "min", "max", "mean", "p50", "p95", "p99"] {
            if let Some(value) = entry.get(stat).and_then(number) {
                out.push(MetricSeries {
                    key: format!("{name}/{stat}"),
                    metric: name.clone(),
                    value,
                });
            }
        }
    }
    Ok(out)
}

/// A numeric JSON field, whatever integer/float shape it parsed as.
fn number(value: &Value) -> Option<f64> {
    value
        .as_f64()
        .or_else(|| value.as_u64().map(|u| u as f64))
        .or_else(|| value.as_i64().map(|i| i as f64))
}

/// Symmetric relative difference: `|a-b| / max(|a|,|b|)`; 0 when equal.
pub(crate) fn relative_difference(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if a == b || scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// Compares two series sets over the union of their keys, in key order. A
/// series present on only one side diffs as infinite — a missing metric is
/// a regression, not a skip.
pub fn diff_series(a: &[MetricSeries], b: &[MetricSeries]) -> Vec<DiffRow> {
    let index = |series: &[MetricSeries]| -> BTreeMap<String, f64> {
        series.iter().map(|m| (m.key.clone(), m.value)).collect()
    };
    let (left, right) = (index(a), index(b));
    let metrics: BTreeMap<&str, &str> = a
        .iter()
        .chain(b)
        .map(|m| (m.key.as_str(), m.metric.as_str()))
        .collect();
    metrics
        .into_iter()
        .map(|(key, metric)| {
            let (a, b) = (left.get(key).copied(), right.get(key).copied());
            DiffRow {
                key: key.to_string(),
                metric: metric.to_string(),
                a: a.unwrap_or(f64::NAN),
                b: b.unwrap_or(f64::NAN),
                rel: match (a, b) {
                    (Some(a), Some(b)) => relative_difference(a, b),
                    _ => f64::INFINITY,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(key: &str, value: f64) -> MetricSeries {
        MetricSeries {
            key: key.into(),
            metric: key.into(),
            value,
        }
    }

    #[test]
    fn diff_flags_missing_and_changed_series() {
        let a = vec![series("x_total", 10.0), series("only_a", 1.0)];
        let b = vec![series("x_total", 11.0)];
        let rows = diff_series(&a, &b);
        assert_eq!(rows.len(), 2);
        let only = rows.iter().find(|r| r.key == "only_a").unwrap();
        assert!(
            only.rel.is_infinite() && only.b.is_nan(),
            "a vanished series must trip any gate"
        );
        let x = rows.iter().find(|r| r.key == "x_total").unwrap();
        assert!((x.rel - 1.0 / 11.0).abs() < 1e-12);
        assert!(diff_series(&[], &[]).is_empty());
    }

    #[test]
    fn wall_clock_series_are_excluded_from_the_gate() {
        assert!(is_wall_clock("stayaway_controller_stage_nanos", None));
        assert!(is_wall_clock("anything", Some("nanos")));
        assert!(!is_wall_clock("stayaway_throttles_total", None));
        assert_eq!(relative_difference(0.0, 0.0), 0.0);
        assert_eq!(relative_difference(2.0, 1.0), 0.5);
    }

    #[test]
    fn snapshots_flatten_to_one_series_per_statistic() {
        let text = r#"{
            "counters": [{"name": "x_total", "value": 3},
                         {"name": "busy_nanos_total", "value": 9}],
            "gauges": [{"name": "beta", "value": 0.25}],
            "histograms": [
                {"name": "iters", "unit": "count", "count": 2, "sum": 10, "p50": null},
                {"name": "latency", "unit": "nanos", "count": 2, "sum": 10}
            ]
        }"#;
        let keys: Vec<(String, f64)> = parse_snapshot(text)
            .unwrap()
            .into_iter()
            .map(|s| (s.key, s.value))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("x_total".to_string(), 3.0),
                ("beta".to_string(), 0.25),
                ("iters/count".to_string(), 2.0),
                ("iters/sum".to_string(), 10.0),
            ]
        );
        assert!(parse_snapshot("not json").is_err());
        assert!(parse_snapshot("{}").unwrap().is_empty());
    }
}
