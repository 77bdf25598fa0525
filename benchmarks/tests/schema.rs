//! `BENCHMARK.json` and the code must name the same workloads and metrics,
//! and both must stay inside the benchmark contract's limits.

use serde_json::Value;
use stayaway_benchmarks::spec::{MetricSpec, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("`{key}` is a list"))
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` is a string in {entry}"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn assert_metrics_match(listed: &[Value], specs: &[MetricSpec], bounded: bool) {
    assert_eq!(listed.len(), specs.len());
    for (entry, spec) in listed.iter().zip(specs) {
        assert_eq!(text(entry, "name"), spec.name);
        assert_eq!(text(entry, "unit"), spec.unit, "{}", spec.name);
        assert_eq!(text(entry, "better"), spec.better.as_str(), "{}", spec.name);
        assert!(valid_name(spec.name), "{}", spec.name);
        assert!(valid_unit(spec.unit), "{}: {}", spec.name, spec.unit);
        let bound = entry.get("bound").and_then(Value::as_f64);
        if bounded {
            assert_eq!(bound, Some(spec.bound), "{}", spec.name);
            assert!(spec.bound > 0.0 && spec.bound <= 0.25, "{}", spec.name);
        } else {
            assert_eq!(
                bound, None,
                "{}: per-layer metrics carry no bound",
                spec.name
            );
        }
    }
}

#[test]
fn manifest_and_code_agree() {
    let doc = manifest();
    let workloads = entries(&doc, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(text(entry, "name"), *name);
        assert_eq!(text(entry, "why"), *why);
        assert!(valid_name(name));
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
    }
    assert_metrics_match(entries(&doc, "end_to_end"), END_TO_END, true);
    assert_metrics_match(entries(&doc, "per_layer"), PER_LAYER, false);
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_u64),
        Some(RUN_SECONDS)
    );
}

#[test]
fn contract_limits_hold() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        .collect();
    let listed = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), listed, "every name is used once");

    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

    let doc = manifest();
    let keys: Vec<&str> = match &doc {
        Value::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("BENCHMARK.json is an object, got {other}"),
    };
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = entries(&doc, "paths")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmarks"]);
    let command: Vec<&str> = entries(&doc, "command")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(command, ["bash", "benchmarks/run.sh"]);
}
