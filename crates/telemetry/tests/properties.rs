//! Property tests for the trace codec and the procfs line parsers.
//!
//! The observation-line codec (`stayaway_telemetry::codec`) is written
//! against the fixed schema; the `Serialize` / `Deserialize` derives are
//! its oracle. The first block below holds the two together: the encoder
//! byte-equal to `serde_json::to_string` on generated observations, the
//! decoder equal to `serde_json::from_str` — accept / reject and value —
//! on generated texts (members permuted, unknown members, whitespace,
//! integers for floats, repeated and missing members, out-of-range
//! values, every truncation) and on arbitrary bytes.
//!
//! The codec invariants: a written trace always reads back (round-trip
//! within 1e-12 on every float, exactly on every discrete field), and any
//! corruption — garbled lines, truncation, a future format version —
//! surfaces as a *typed* [`TelemetryError`] carrying the offending line
//! number, never a panic or a silently wrong observation. The procfs
//! parsers are pure functions over text, so they are fuzzed directly.

use proptest::prelude::*;
use serde_json::{Number, Value};
use stayaway_telemetry::procfs::{parse_cpu_stat, parse_memory_current, parse_proc_stat};
use stayaway_telemetry::{
    decode_observation, decode_observation_into, encode_observation, AppClass, ContainerId,
    ContainerObs, HostSpec, Observation, ObservationSource, ResourceKind, ResourceVector,
    SourceKind, SourceMeta, TelemetryError, TraceHeader, TraceSource, TraceWriter, TRACE_VERSION,
};

fn meta() -> SourceMeta {
    SourceMeta {
        kind: SourceKind::Sim,
        metrics: ResourceKind::ALL.to_vec(),
        tick_period_secs: 1.0,
        host: Some(HostSpec::default()),
    }
}

/// Builds one observation from flat fuzz inputs.
fn observation(tick: u64, containers: &[(f64, f64, u8)], qos: f64) -> Observation {
    Observation {
        tick,
        containers: containers
            .iter()
            .enumerate()
            .map(|(i, &(cpu, ipc, flags))| {
                let mut usage = ResourceVector::zero();
                for (k, kind) in ResourceKind::ALL.into_iter().enumerate() {
                    usage.set(kind, cpu * (k as f64 + 0.25));
                }
                ContainerObs {
                    id: ContainerId::from_raw(i),
                    name: format!("app-{i}"),
                    class: if flags & 1 == 0 {
                        AppClass::Sensitive
                    } else {
                        AppClass::Batch
                    },
                    active: flags & 2 != 0,
                    paused: flags & 4 != 0,
                    finished: flags & 8 != 0,
                    usage,
                    ipc,
                    priority: flags >> 4,
                }
            })
            .collect(),
        qos_violation: qos < 0.8,
        qos_value: qos,
    }
}

/// Records `observations` into an in-memory JSONL trace.
fn record(observations: &[Observation]) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new(), &meta()).expect("header");
    for o in observations {
        writer.record(o).expect("finite observation encodes");
    }
    writer.finish().expect("flush")
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

/// SplitMix64 over a proptest-drawn seed: the generators below branch on
/// what they have built so far, which a fixed strategy tuple cannot.
struct Gen(u64);

impl Gen {
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

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// A finite float from the classes the float writer treats apart.
    fn float(&mut self) -> f64 {
        match self.below(9) {
            0 => 0.0,
            1 => -0.0,
            2 => self.below(100_000) as f64 - 50_000.0,
            3 => (self.below(9_000) as f64 + 1.0) * 1e15,
            4 => 999_999_999_999_999.0 + self.below(3) as f64,
            5 => f64::from_bits(self.next() >> 12), // subnormal
            6 => self.next() as f64 / u64::MAX as f64, // 17 significant digits
            7 => (self.next() as f64 / u64::MAX as f64 - 0.5) * 1e4,
            _ => {
                let f = f64::from_bits(self.next());
                if f.is_finite() {
                    f
                } else {
                    0.1 + 0.2
                }
            }
        }
    }

    fn name(&mut self) -> String {
        const ALPHABET: [char; 16] = [
            'a', 'z', '-', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1b}', '\u{7f}', 'é',
            '統', '😀',
        ];
        (0..self.below(10))
            .map(|_| ALPHABET[self.below(16)])
            .collect()
    }

    fn observation(&mut self) -> Observation {
        Observation {
            tick: self.next() >> self.below(64),
            containers: (0..self.below(7))
                .map(|_| ContainerObs {
                    id: ContainerId::from_raw(self.next() as usize >> self.below(64)),
                    name: self.name(),
                    class: if self.coin() {
                        AppClass::Sensitive
                    } else {
                        AppClass::Batch
                    },
                    active: self.coin(),
                    paused: self.coin(),
                    finished: self.coin(),
                    usage: ResourceVector::new(
                        self.float(),
                        self.float(),
                        self.float(),
                        self.float(),
                        self.float(),
                        self.float(),
                    ),
                    ipc: self.float(),
                    priority: self.next() as u8,
                })
                .collect(),
            qos_violation: self.coin(),
            qos_value: self.float(),
        }
    }

    /// A member no schema type declares, of any JSON type.
    fn unknown(&mut self) -> Value {
        match self.below(7) {
            0 => Value::Null,
            1 => Value::Bool(self.coin()),
            2 => Value::Number(Number::I64(-(self.below(1000) as i64) - 1)),
            3 => Value::Number(Number::F64(self.float())),
            4 => Value::String(self.name()),
            5 => Value::Array((0..self.below(3)).map(|_| self.unknown()).collect()),
            _ => Value::Object(
                (0..self.below(3))
                    .map(|_| (self.name(), self.unknown()))
                    .collect(),
            ),
        }
    }

    /// Rewrites a rendered observation the way a foreign writer or a hand
    /// edit might, at every level: some rewrites keep it an observation,
    /// some must make both readers reject it.
    fn mutate(&mut self, value: &mut Value) {
        match value {
            Value::Object(entries) => {
                for (key, member) in entries.iter_mut() {
                    match (key.as_str(), self.below(48)) {
                        ("priority", 0) => *member = Value::Number(Number::U64(256)),
                        ("id", 0) => *member = Value::Number(Number::I64(-1)),
                        ("id", 1) => *member = Value::Number(Number::F64(1.5)),
                        ("id" | "tick", 2) => *member = Value::Number(Number::I64(0)),
                        ("values", 0 | 1) => {
                            if let Value::Array(items) = member {
                                match self.below(3) {
                                    0 => drop(items.pop()),
                                    1 => items.push(Value::Number(Number::U64(7))),
                                    _ => items.push(Value::String("x".into())),
                                }
                            }
                        }
                        (_, 3) => *member = self.unknown(),
                        _ => self.mutate(member),
                    }
                }
                if !entries.is_empty() {
                    match self.below(24) {
                        0 => drop(entries.remove(self.below(entries.len()))),
                        1 => {
                            // A repeated member; whichever copy comes
                            // first is the one that counts.
                            let (key, _) = entries[self.below(entries.len())].clone();
                            let at = self.below(entries.len() + 1);
                            entries.insert(at, (key, self.unknown()));
                        }
                        2 => {
                            let copy = entries[self.below(entries.len())].clone();
                            entries.push(copy);
                        }
                        _ => {}
                    }
                }
                self.pad_and_shuffle(entries);
            }
            Value::Array(items) => items.iter_mut().for_each(|item| self.mutate(item)),
            // `1` for `1.0`: an integer where the schema has a float.
            Value::Number(Number::F64(f)) if f.fract() == 0.0 && f.abs() < 1e15 && self.coin() => {
                *value = Value::Number(if *f < 0.0 || (*f == 0.0 && f.is_sign_negative()) {
                    Number::I64(*f as i64)
                } else {
                    Number::U64(*f as u64)
                });
            }
            _ => {}
        }
    }

    /// The rewrites that must keep an observation what it is, at every
    /// level: unknown members added, members reordered.
    fn reorder(&mut self, value: &mut Value) {
        match value {
            Value::Object(entries) => {
                for (_, member) in entries.iter_mut() {
                    self.reorder(member);
                }
                self.pad_and_shuffle(entries);
            }
            Value::Array(items) => items.iter_mut().for_each(|item| self.reorder(item)),
            _ => {}
        }
    }

    fn pad_and_shuffle(&mut self, entries: &mut Vec<(String, Value)>) {
        for _ in 0..self.below(3) {
            let at = self.below(entries.len() + 1);
            entries.insert(at, (format!("x-{}", self.name()), self.unknown()));
        }
        for i in (1..entries.len()).rev() {
            entries.swap(i, self.below(i + 1));
        }
    }

    fn whitespace(&mut self, out: &mut String) {
        for _ in 0..self.below(4).saturating_sub(1) {
            out.push([' ', '\t', '\n', '\r'][self.below(4)]);
        }
    }

    /// Renders `value` with JSON whitespace wherever the grammar allows it.
    fn render(&mut self, value: &Value, out: &mut String) {
        self.whitespace(out);
        match value {
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.render(item, out);
                }
                self.whitespace(out);
                out.push(']');
            }
            Value::Object(entries) => {
                out.push('{');
                for (i, (key, member)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.whitespace(out);
                    out.push_str(&Value::String(key.clone()).to_json());
                    self.whitespace(out);
                    out.push(':');
                    self.render(member, out);
                }
                self.whitespace(out);
                out.push('}');
            }
            scalar => out.push_str(&scalar.to_json()),
        }
        self.whitespace(out);
    }
}

thread_local! {
    /// The buffer every `decode_observation_into` below decodes into: never
    /// reset, so each decode starts from whatever the last one — accepted
    /// or failed halfway — left behind, with more or fewer containers.
    static REUSED: std::cell::RefCell<Observation> =
        std::cell::RefCell::new(Gen(0x5eed).observation());
}

/// Both readers on one text: they must agree on accept / reject and, when
/// they accept, on every bit of the value (`Debug` tells `-0.0` from `0.0`).
/// The in-place decoder must return exactly what the allocating one does —
/// the same value or the same error message.
fn readers_agree(text: &str) -> Result<Option<Observation>, TestCaseError> {
    let cursor = decode_observation(text);
    let reused = REUSED.with(|buf| {
        let mut buf = buf.borrow_mut();
        decode_observation_into(text, &mut buf).map(|()| buf.clone())
    });
    prop_assert_eq!(
        format!("{reused:?}"),
        format!("{cursor:?}"),
        "into, on {:?}",
        text
    );
    let tree = serde_json::from_str::<Observation>(text);
    match (cursor, tree) {
        (Ok(cursor), Ok(tree)) => {
            prop_assert_eq!(format!("{cursor:?}"), format!("{tree:?}"), "on {:?}", text);
            Ok(Some(cursor))
        }
        (Err(_), Err(_)) => Ok(None),
        (cursor, tree) => Err(TestCaseError::fail(format!(
            "cursor {cursor:?} but tree {:?} on {text:?}",
            tree.map_err(|e| e.to_string())
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The encoder writes the bytes the derive writes, and the decoder
    /// reads them back to the same bits.
    #[test]
    fn encoder_is_byte_equal_to_the_derive(seed in any::<u64>()) {
        let observation = Gen(seed).observation();
        let mut line = String::from("kept:");
        encode_observation(&mut line, &observation);
        let oracle = serde_json::to_string(&observation).expect("encodes");
        prop_assert_eq!(&line["kept:".len()..], oracle.as_str());
        let back = decode_observation(&oracle).expect("own output decodes");
        prop_assert_eq!(format!("{back:?}"), format!("{observation:?}"));
    }

    /// Rewritten lines: the cursor decoder and the derive agree on every
    /// one, and a rewrite that only reorders, pads or adds unknown members
    /// still decodes to the observation it came from.
    #[test]
    fn decoder_agrees_with_the_derive_on_rewritten_lines(seed in any::<u64>()) {
        let mut gen = Gen(seed);
        let observation = gen.observation();
        let mut tree = serde_json::to_value(&observation);
        gen.mutate(&mut tree);
        let mut text = String::new();
        gen.render(&tree, &mut text);
        readers_agree(&text)?;
    }

    /// Reordering, padding and unknown members alone never lose the
    /// observation.
    #[test]
    fn benign_rewrites_keep_the_observation(seed in any::<u64>()) {
        let mut gen = Gen(seed);
        let observation = gen.observation();
        let mut tree = serde_json::to_value(&observation);
        gen.reorder(&mut tree);
        let mut text = String::new();
        gen.render(&tree, &mut text);
        let decoded = readers_agree(&text)?;
        prop_assert_eq!(
            decoded.map(|o| format!("{o:?}")),
            Some(format!("{observation:?}")),
            "on {:?}", text
        );
    }

    /// A line cut at any byte: both readers reject it, or (cut inside
    /// trailing whitespace) both accept it.
    #[test]
    fn decoder_agrees_with_the_derive_on_every_truncation(seed in any::<u64>()) {
        let mut gen = Gen(seed);
        let mut observation = gen.observation();
        observation.containers.truncate(2);
        let mut tree = serde_json::to_value(&observation);
        if gen.coin() {
            gen.mutate(&mut tree);
        }
        let mut text = String::new();
        gen.render(&tree, &mut text);
        for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
            readers_agree(&text[..cut])?;
        }
    }

    /// Arbitrary bytes — raw, and drawn from JSON's own alphabet so the
    /// tokenizer gets past the first byte — never panic either reader, and
    /// through a `TraceSource` fail as a typed Codec error on their line.
    #[test]
    fn arbitrary_bytes_never_panic(
        raw in prop::collection::vec(any::<u8>(), 0..200),
        jsonish in prop::collection::vec(
            prop::sample::select(b"{}[]\",:\\u0123456789abcdefDd.-+eE tfnrls\n".to_vec()), 0..200),
    ) {
        for bytes in [&raw, &jsonish] {
            if let Ok(text) = std::str::from_utf8(bytes) {
                readers_agree(text)?;
            }
            let mut trace = record(&[]);
            trace.extend(bytes.iter().filter(|&&b| b != b'\n'));
            let mut source = TraceSource::new(trace.as_slice()).expect("header is intact");
            match source.next_observation() {
                Ok(_) => {}
                Err(TelemetryError::Codec { line, .. }) => prop_assert_eq!(line, 2),
                Err(other) => prop_assert!(false, "unexpected error {:?}", other),
            }
        }
    }
}

/// The committed fixture was written by the derive path; the codec reads
/// every line of it and writes the same bytes back.
#[test]
fn the_committed_fixture_re_encodes_to_itself() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/smoke_trace.jsonl"
    );
    let text = std::fs::read_to_string(path).expect("fixture is readable");
    let mut lines = 0;
    for line in text.lines().skip(1) {
        let observation = decode_observation(line).expect("fixture line decodes");
        let mut again = String::new();
        encode_observation(&mut again, &observation);
        assert_eq!(again, line);
        lines += 1;
    }
    assert_eq!(lines, 48);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Write→read round-trips every field: discrete fields exactly, floats
    /// within 1e-12.
    #[test]
    fn trace_round_trips(
        ticks in prop::collection::vec(
            (0u64..1_000_000, prop::collection::vec(
                (0.0f64..5000.0, 0.0f64..4.0, 0u8..=255), 0..4), 0.0f64..1.0),
            0..12),
    ) {
        let observations: Vec<Observation> = ticks
            .iter()
            .map(|(tick, containers, qos)| observation(*tick, containers, *qos))
            .collect();
        let bytes = record(&observations);
        let mut source = TraceSource::new(bytes.as_slice()).expect("valid trace");
        prop_assert_eq!(source.header().version, TRACE_VERSION);
        for expected in &observations {
            let got = source.next_observation().expect("decodes").expect("present");
            prop_assert_eq!(got.tick, expected.tick);
            prop_assert_eq!(got.qos_violation, expected.qos_violation);
            prop_assert!(close(got.qos_value, expected.qos_value));
            prop_assert_eq!(got.containers.len(), expected.containers.len());
            for (g, e) in got.containers.iter().zip(&expected.containers) {
                prop_assert_eq!(g.id, e.id);
                prop_assert_eq!(&g.name, &e.name);
                prop_assert_eq!(g.class, e.class);
                prop_assert_eq!((g.active, g.paused, g.finished), (e.active, e.paused, e.finished));
                prop_assert_eq!(g.priority, e.priority);
                prop_assert!(close(g.ipc, e.ipc));
                for kind in ResourceKind::ALL {
                    prop_assert!(close(g.usage.get(kind), e.usage.get(kind)));
                }
            }
        }
        prop_assert!(source.next_observation().expect("clean end").is_none());
    }

    /// Replacing one observation line with garbage yields a Codec error
    /// naming exactly that line — earlier lines still decode, and nothing
    /// panics.
    #[test]
    fn corrupt_line_reports_its_line_number(
        n in 1usize..8,
        victim in 0usize..8,
        garbage in prop::collection::vec(32u8..127, 1..40),
    ) {
        let victim = victim % n;
        let observations: Vec<Observation> =
            (0..n as u64).map(|t| observation(t, &[(1.0, 1.0, 3)], 0.9)).collect();
        let bytes = record(&observations);
        let text = String::from_utf8(bytes).expect("traces are utf-8");
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let mut garbled = String::from_utf8_lossy(&garbage).into_owned();
        // Keep the corruption undecodable rather than accidentally valid JSON.
        garbled.insert(0, '{');
        lines[victim + 1] = garbled;
        let corrupted = lines.join("\n");

        let mut source = TraceSource::new(corrupted.as_bytes()).expect("header is intact");
        for t in 0..victim {
            let o = source.next_observation().expect("pre-corruption decodes");
            prop_assert_eq!(o.expect("present").tick, t as u64);
        }
        match source.next_observation() {
            Err(TelemetryError::Codec { line, .. }) => {
                // Header is line 1, observation k is line k+2.
                prop_assert_eq!(line, victim as u64 + 2);
            }
            other => prop_assert!(false, "expected Codec error, got {:?}", other),
        }
    }

    /// A trace cut at an arbitrary byte offset never panics: it either
    /// ends cleanly (cut on a line boundary) or fails with a typed Codec
    /// error at the cut line. A cut inside the header is MissingHeader.
    #[test]
    fn truncation_is_typed(n in 1usize..6, cut_back in 1usize..200) {
        let observations: Vec<Observation> =
            (0..n as u64).map(|t| observation(t, &[(1.0, 1.0, 3)], 0.9)).collect();
        let mut bytes = record(&observations);
        let cut = bytes.len().saturating_sub(cut_back % bytes.len().max(1));
        bytes.truncate(cut);
        match TraceSource::new(bytes.as_slice()) {
            Ok(mut source) => {
                let mut consumed = 0u64;
                loop {
                    match source.next_observation() {
                        Ok(Some(o)) => {
                            prop_assert_eq!(o.tick, consumed);
                            consumed += 1;
                        }
                        Ok(None) => break, // clean boundary cut
                        Err(TelemetryError::Codec { line, .. }) => {
                            prop_assert_eq!(line, consumed + 2);
                            break;
                        }
                        Err(other) => prop_assert!(false, "unexpected error {:?}", other),
                    }
                }
                prop_assert!(consumed <= n as u64);
            }
            Err(TelemetryError::MissingHeader { .. }) => {
                // The cut landed inside the header line.
            }
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }
    }

    /// Any header version newer than this build rejects as
    /// UnsupportedVersion (and version 0 is never accepted).
    #[test]
    fn version_mismatch_is_typed(version in prop::collection::vec(0u32..1000, 1..2)) {
        let version = version[0];
        let mut header = TraceHeader::for_meta(&meta());
        header.version = version;
        let line = serde_json::to_string(&header).expect("encodes");
        let text = format!("{line}\n");
        let result = TraceSource::new(text.as_bytes());
        if (1..=TRACE_VERSION).contains(&version) {
            prop_assert!(result.is_ok());
        } else {
            match result {
                Err(TelemetryError::UnsupportedVersion { found, supported }) => {
                    prop_assert_eq!(found, version);
                    prop_assert_eq!(supported, TRACE_VERSION);
                }
                other => prop_assert!(false, "expected UnsupportedVersion, got {:?}",
                    other.map(|_| ())),
            }
        }
    }

    /// The procfs line parsers accept arbitrary text without panicking:
    /// every outcome is Ok or a typed Codec error with a plausible line
    /// number.
    #[test]
    fn procfs_parsers_never_panic(raw in prop::collection::vec(9u8..127, 0..400)) {
        let text = String::from_utf8_lossy(&raw).into_owned();
        let lines = text.lines().count() as u64;
        for result in [
            parse_proc_stat(&text).map(|_| ()),
            parse_cpu_stat(&text).map(|_| ()),
            parse_memory_current(&text).map(|_| ()),
        ] {
            if let Err(e) = result {
                match e {
                    TelemetryError::Codec { line, .. } => {
                        prop_assert!(line <= lines.max(1));
                    }
                    other => prop_assert!(false, "unexpected error {:?}", other),
                }
            }
        }
    }

    /// On well-formed /proc/stat-shaped input the parser recovers the
    /// aggregate and core count exactly.
    #[test]
    fn proc_stat_recovers_counters(
        jiffies in prop::collection::vec(0u64..1_000_000, 8),
        cores in 1usize..9,
    ) {
        let mut text = format!(
            "cpu  {} {} {} {} {} {} {} {} 0 0\n",
            jiffies[0], jiffies[1], jiffies[2], jiffies[3],
            jiffies[4], jiffies[5], jiffies[6], jiffies[7],
        );
        for c in 0..cores {
            text.push_str(&format!("cpu{c} 1 0 1 1 0 0 0 0 0 0\n"));
        }
        text.push_str("intr 42\nctxt 7\n");
        let parsed = parse_proc_stat(&text).expect("well-formed");
        let busy = jiffies[0] + jiffies[1] + jiffies[2] + jiffies[5] + jiffies[6] + jiffies[7];
        let idle = jiffies[3] + jiffies[4];
        prop_assert_eq!(parsed.busy_jiffies, busy);
        prop_assert_eq!(parsed.idle_jiffies, idle);
        prop_assert_eq!(parsed.cores, cores);
    }
}
