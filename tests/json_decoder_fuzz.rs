//! The JSON decoders a user points at a file, fed what a file can hold:
//! arbitrary bytes, every truncation of a valid document, valid documents
//! with random edits and nesting deep enough to exhaust a stack. Each input
//! must decode or fail with an error value, never panic or crash, and an
//! error names what it found in words a user reads — a character or "end
//! of input", never a Rust `Some(120)` / `None`. The decoders stand on the
//! one `serde::value::Cursor`: `obs::events_from_jsonl` (`events
//! --events-in`), `Template::load` followed by
//! `Controller::import_template` (`reuse --template`) and
//! `obs::diff::parse_snapshot` followed by `diff_series` (`metrics-diff`).

use std::sync::OnceLock;

use proptest::prelude::*;
use serde_json::{Number, Value};
use stay_away::core::{Controller, ControllerConfig, Observability};
use stay_away::obs::diff::{diff_series, parse_snapshot, MetricSeries};
use stay_away::obs::{
    attr, events_from_jsonl, events_to_jsonl, to_json, EventId, EventKind, EventRecord, Layer,
    MetricsRegistry,
};
use stay_away::sim::scenario::Scenario;
use stay_away::statespace::Template;
use stay_away::telemetry::HostSpec;

/// SplitMix64, seeded per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What an edit inserts or substitutes: JSON punctuation, number syntax
/// and out-of-range numbers, keyword letters, escapes (a lone surrogate
/// among them) and a multi-byte character.
const PIECES: [&str; 26] = [
    "{",
    "}",
    "[",
    "]",
    "\"",
    ",",
    ":",
    "0",
    "7",
    "-",
    ".",
    "e",
    "E",
    "+",
    "t",
    "null",
    "\\",
    "\\u",
    "\\ud800",
    " ",
    "\n",
    "é",
    "e308",
    "e-320",
    "18446744073709551616",
    "-9223372036854775809",
];

/// `text` after one to three edits, each inserting a piece, replacing one
/// character by a piece or deleting one character.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let mut out = text.to_string();
    for _ in 0..1 + rng.below(3) {
        let mut at = rng.below(out.len() + 1);
        while !out.is_char_boundary(at) {
            at -= 1;
        }
        let end = out[at..].chars().next().map_or(at, |c| at + c.len_utf8());
        let piece = PIECES[rng.below(PIECES.len())];
        match rng.below(3) {
            0 => out.insert_str(at, piece),
            1 => out.replace_range(at..end, piece),
            _ => out.replace_range(at..end, ""),
        }
    }
    out
}

/// Unbalanced brackets and braces nested a million deep.
fn deep_nesting() -> [String; 2] {
    ["[".repeat(1_000_000), "{\"a\":".repeat(1_000_000)]
}

/// `result`, after checking that its error, if any, names no `Option`.
fn readable<T>(result: Result<T, String>) -> Result<T, String> {
    if let Err(message) = &result {
        assert!(
            !message.contains("Some(") && !message.contains("None"),
            "error names an Option: {message}"
        );
    }
    result
}

fn events() -> Vec<EventRecord> {
    (0..4u64)
        .map(|seq| EventRecord {
            tick: 10 * seq,
            layer: [Layer::Controller, Layer::Cluster][seq as usize % 2],
            seq,
            scope: seq as u32,
            kind: EventKind::ALL[seq as usize % EventKind::ALL.len()],
            subject: format!("cell:{seq} \"é\""),
            cause: seq.checked_sub(1).map(|seq| EventId { scope: 0, seq }),
            attrs: vec![
                attr("count", seq),
                attr("delta", -3i64),
                attr("share", 0.1 * seq as f64),
                attr("proactive", seq % 2 == 0),
                attr("reason", "slo\nviolation"),
            ],
        })
        .collect()
}

#[test]
fn events_decode_every_truncation() {
    let events = events();
    let text = events_to_jsonl(&events);
    for cut in (0..=text.len()).filter(|&cut| text.is_char_boundary(cut)) {
        let decoded = readable(events_from_jsonl(&text[..cut]));
        // Cut at a line end, the stream is a prefix of the events.
        if cut == 0 || text.as_bytes()[cut - 1] == b'\n' {
            let lines = text[..cut].lines().count();
            assert_eq!(decoded, Ok(events[..lines].to_vec()), "cut at {cut}");
        }
    }
}

#[test]
fn events_decode_deep_nesting_to_an_error() {
    for text in deep_nesting() {
        assert!(readable(events_from_jsonl(&text)).is_err());
    }
}

/// A template learned over a short run, and the host it was learned on.
fn learned() -> &'static (Template, HostSpec) {
    static LEARNED: OnceLock<(Template, HostSpec)> = OnceLock::new();
    LEARNED.get_or_init(|| {
        let mut harness = Scenario::vlc_with_cpubomb(31)
            .build_harness()
            .expect("harness");
        let spec = *harness.host().spec();
        let mut ctl = Controller::for_host(ControllerConfig::default(), &spec).expect("controller");
        harness.run(&mut ctl, 200);
        let template = ctl.export_template("vlc-streaming").expect("export");
        assert!(template.len() > 1 && template.violation_count() > 0);
        (template, spec)
    })
}

fn template_text() -> String {
    let mut text = Vec::new();
    learned().0.save(&mut text).expect("save");
    String::from_utf8(text).expect("JSON is UTF-8")
}

/// Loads `text` as a template and, when it loads, imports it into a fresh
/// controller: `reuse --template` up to its first period. Returns the
/// number of states imported.
fn load_and_import(text: &[u8]) -> Result<usize, String> {
    let template = readable(Template::load(text).map_err(|e| e.to_string()))?;
    let mut ctl =
        Controller::for_host(ControllerConfig::default(), &learned().1).expect("controller");
    readable(ctl.import_template(&template).map_err(|e| e.to_string()))?;
    Ok(template.len())
}

/// The series of a `--metrics-out x.json` snapshot taken after a short
/// run: the pretty JSON the CLI writes, and what `parse_snapshot` reads
/// back from it.
fn snapshot() -> &'static (String, Vec<MetricSeries>) {
    static SNAPSHOT: OnceLock<(String, Vec<MetricSeries>)> = OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let mut harness = Scenario::vlc_with_cpubomb(31)
            .build_harness()
            .expect("harness");
        let obs = Observability::enabled(MetricsRegistry::new());
        let mut ctl = Controller::for_host_observed(
            ControllerConfig::default(),
            harness.host().spec(),
            obs.clone(),
        )
        .expect("controller");
        harness.run(&mut ctl, 64);
        let registry = obs.exported_registry().expect("an exported registry");
        let text = serde_json::to_string_pretty(&to_json(&registry.snapshot())).expect("renders");
        let series = parse_snapshot(&text).expect("own snapshot parses");
        assert!(series.len() > 10);
        (text, series)
    })
}

/// `metrics-diff` of `text` against the real snapshot: parse it, then
/// diff the two series sets. Returns how many rows differ.
fn diff_against_snapshot(text: &str) -> Result<usize, String> {
    let series = readable(parse_snapshot(text).map_err(|e| e.to_string()))?;
    let rows = diff_series(&snapshot().1, &series);
    Ok(rows.iter().filter(|row| row.rel != 0.0).count())
}

#[test]
fn templates_decode_every_truncation() {
    let text = template_text();
    assert_eq!(load_and_import(text.as_bytes()), Ok(learned().0.len()));
    for cut in 0..text.len() {
        assert!(
            load_and_import(&text.as_bytes()[..cut]).is_err(),
            "cut at {cut}"
        );
    }
}

#[test]
fn templates_decode_deep_nesting_to_an_error() {
    for text in deep_nesting() {
        assert!(load_and_import(text.as_bytes()).is_err());
    }
}

fn member<'a>(object: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(entries) = object else {
        panic!("{key}: not an object");
    };
    let (_, value) = entries
        .iter_mut()
        .find(|(k, _)| k == key)
        .expect("a member");
    value
}

/// Finite coordinates at the edges of `f64` and of `[0, 1]`, in every
/// vector of a learned template: those inside `[0, 1]` import, the rest
/// are refused where the file is read.
#[test]
fn templates_with_extreme_coordinates_import_or_fail_to_load() {
    let (learned, _) = learned();
    let with = |coordinate: f64| {
        let mut tree = serde_json::to_value(learned);
        let Value::Array(states) = member(&mut tree, "states") else {
            panic!("a template has states");
        };
        for (i, state) in states.iter_mut().enumerate() {
            let Value::Array(vector) = member(state, "vector") else {
                panic!("a state has a vector");
            };
            let at = i % vector.len();
            vector[at] = Value::Number(Number::F64(coordinate));
        }
        tree.to_json()
    };
    for inside in [0.0, -0.0, 5e-324, 1e-300, 1.0] {
        assert_eq!(
            load_and_import(with(inside).as_bytes()),
            Ok(learned.len()),
            "{inside}"
        );
    }
    for outside in [
        f64::MAX,
        -f64::MAX,
        1e300,
        1e15,
        1.0 + f64::EPSILON,
        -1e-300,
    ] {
        let refused = load_and_import(with(outside).as_bytes());
        assert!(
            refused.is_err_and(|e| e.contains("outside [0, 1]")),
            "{outside}"
        );
    }
}

/// Decodes 256 mutated copies of `text`; returns how many decoded.
fn decode_mutations<T>(text: &str, decode: impl Fn(&str) -> Result<T, String>) -> usize {
    (0..256)
        .filter(|&seed| readable(decode(&mutate(text, &mut Rng(seed)))).is_ok())
        .count()
}

/// Some edits keep a document valid (whitespace, a digit for a digit) and
/// must decode; the rest must fail as values.
#[test]
fn mutated_documents_decode_or_fail() {
    let events = decode_mutations(&events_to_jsonl(&events()), events_from_jsonl);
    let templates = decode_mutations(&template_text(), |text| load_and_import(text.as_bytes()));
    eprintln!("decoded {events} event streams and {templates} templates of 256 each");
    assert!((16..240).contains(&events), "{events}");
    assert!((16..240).contains(&templates), "{templates}");
}

#[test]
fn snapshots_decode_every_truncation() {
    let text = &snapshot().0;
    assert_eq!(diff_against_snapshot(text), Ok(0));
    for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
        assert!(diff_against_snapshot(&text[..cut]).is_err(), "cut at {cut}");
    }
}

#[test]
fn snapshots_decode_deep_nesting_to_an_error() {
    for text in deep_nesting() {
        assert!(diff_against_snapshot(&text).is_err());
    }
}

/// Edits decode or fail as values; both happen.
#[test]
fn mutated_snapshots_decode_or_fail() {
    let snapshots = decode_mutations(&snapshot().0, diff_against_snapshot);
    eprintln!("decoded {snapshots} snapshots of 256");
    assert!((16..240).contains(&snapshots), "{snapshots}");
}

/// A file holding `x`, or nothing: the error names the character or the
/// end of the input, at byte 0.
#[test]
fn malformed_input_files_name_what_they_hold() {
    let x = "unexpected 'x' at byte 0";
    let empty = "unexpected end of input at byte 0";
    for (got, want) in [
        (events_from_jsonl("x").map(drop), x),
        (load_and_import(b"x").map(drop), x),
        (load_and_import(b"").map(drop), empty),
        (diff_against_snapshot("x").map(drop), x),
        (diff_against_snapshot("").map(drop), empty),
    ] {
        let message = readable(got).unwrap_err();
        assert!(message.contains(want), "{message:?} lacks {want:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn events_decode_arbitrary_bytes(raw in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = readable(events_from_jsonl(&String::from_utf8_lossy(&raw)));
    }

    #[test]
    fn templates_decode_arbitrary_bytes(raw in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = load_and_import(&raw);
    }

    #[test]
    fn snapshots_decode_arbitrary_bytes(raw in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = diff_against_snapshot(&String::from_utf8_lossy(&raw));
    }
}
