//! The JSON text layer from outside: rendering is pinned byte for byte,
//! the scalar writers print what `core::fmt` prints, the string scan is
//! linear and escape-correct.

use std::fmt::Write as _;

use serde::value::{
    parse_json, write_json_f64, write_json_i64, write_json_string, write_json_u64, Number, Value,
};

/// SplitMix64: a fixed stream, so the corpus is the same on every build.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn gen_string(rng: &mut Rng) -> String {
    const ALPHABET: [char; 16] = [
        'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
        '→', '😀',
    ];
    (0..rng.below(12))
        .map(|_| ALPHABET[rng.below(16) as usize])
        .collect()
}

fn gen_float(rng: &mut Rng) -> f64 {
    match rng.below(8) {
        0 => 0.0,
        1 => -0.0,
        2 => rng.below(1_000_000) as f64 - 500_000.0,
        3 => (rng.below(1_000) as f64 + 1.0) * 1e15,
        4 => f64::from_bits(rng.below(1 << 52)), // subnormal
        5 => rng.next() as f64 / u64::MAX as f64,
        6 => (rng.next() as f64 / u64::MAX as f64 - 0.5) * 1e6,
        _ => {
            let f = f64::from_bits(rng.next());
            if f.is_finite() {
                f
            } else {
                1.5
            }
        }
    }
}

fn gen_value(rng: &mut Rng, depth: u32) -> Value {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.below(kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::Number(Number::U64(rng.next() >> rng.below(64))),
        3 => Value::Number(Number::I64(
            -((rng.next() >> (1 + rng.below(63))) as i64) - 1,
        )),
        4 => Value::Number(Number::F64(gen_float(rng))),
        5 => Value::String(gen_string(rng)),
        6 => Value::Array(
            (0..rng.below(5))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.below(5))
                .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The compact and pretty renderings of a fixed 2 000-document corpus,
/// digested. The constant was computed before the scalar writers moved
/// from `format!` temporaries to `write!` into the output: a changed byte
/// anywhere in `Value::to_json` / `to_json_pretty` changes it.
#[test]
fn rendering_is_byte_identical_to_the_pinned_corpus() {
    let mut rng = Rng(0x5eed);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut bytes = 0usize;
    for _ in 0..2_000 {
        let value = gen_value(&mut rng, 4);
        let compact = value.to_json();
        let pretty = value.to_json_pretty();
        assert_eq!(parse_json(&compact).as_ref(), Ok(&value));
        assert_eq!(parse_json(&pretty).as_ref(), Ok(&value));
        bytes += compact.len() + pretty.len();
        fnv1a(&mut digest, compact.as_bytes());
        fnv1a(&mut digest, pretty.as_bytes());
    }
    assert_eq!(
        (bytes, digest),
        (PINNED_BYTES, PINNED_DIGEST),
        "digest {digest:#018x}"
    );
}

const PINNED_BYTES: usize = 159_952;
const PINNED_DIGEST: u64 = 0xac90_043c_31ab_ab09;

/// A document of many short strings parses in time linear in its length.
/// The bound is loose enough for a debug build on a busy machine; the
/// scan this replaced re-validated the rest of the document once per
/// character and took seconds for a document this size.
#[test]
fn a_megabyte_of_short_strings_parses_in_linear_time() {
    let mut rng = Rng(7);
    let mut text = String::from("[");
    while text.len() < 1_000_000 {
        if text.len() > 1 {
            text.push(',');
        }
        write_json_string(&mut text, &gen_string(&mut rng));
    }
    text.push(']');
    let started = std::time::Instant::now();
    let parsed = parse_json(&text).expect("well-formed");
    let elapsed = started.elapsed();
    assert!(parsed.as_array().is_some_and(|items| items.len() > 50_000));
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "{} bytes took {elapsed:?}",
        text.len()
    );
}

fn parsed_string(text: &str) -> String {
    match parse_json(text) {
        Ok(Value::String(s)) => s,
        other => panic!("{text}: expected a string, got {other:?}"),
    }
}

#[test]
fn a_surrogate_pair_decodes_to_one_scalar() {
    assert_eq!(parsed_string(r#""\ud83d\ude00""#), "\u{1f600}");
    assert_eq!(parsed_string(r#""a\uD83D\uDE00b""#), "a\u{1f600}b");
    assert_eq!(
        parsed_string(r#""\ud800\udc00\udbff\udfff""#),
        "\u{10000}\u{10ffff}"
    );
}

#[test]
fn a_lone_or_misordered_surrogate_is_the_replacement_character() {
    assert_eq!(parsed_string(r#""\ud83d""#), "\u{fffd}");
    assert_eq!(parsed_string(r#""\ude00""#), "\u{fffd}");
    assert_eq!(parsed_string(r#""\ude00\ud83d""#), "\u{fffd}\u{fffd}");
    assert_eq!(parsed_string(r#""\ud83dx\ude00""#), "\u{fffd}x\u{fffd}");
    // A high half keeps what follows it when that is not a low half.
    assert_eq!(parsed_string(r#""\ud83dA""#), "\u{fffd}A");
    assert_eq!(parsed_string(r#""\ud83d\n""#), "\u{fffd}\n");
    assert_eq!(
        parsed_string(r#""\ud83d\ud83d\ude00""#),
        "\u{fffd}\u{1f600}"
    );
    assert!(parse_json(r#""\ud83d\u12""#).is_err());
    assert!(parse_json(r#""\ud83d\uzzzz""#).is_err());
}

#[test]
fn every_control_character_round_trips() {
    for code in 0u32..0x20 {
        let c = char::from_u32(code).expect("a control character");
        let original = format!("a{c}b{c}");
        let mut text = String::new();
        write_json_string(&mut text, &original);
        assert!(
            text.bytes().all(|b| b >= 0x20),
            "{code:#x} left raw: {text:?}"
        );
        assert_eq!(parsed_string(&text), original, "{code:#x} via {text}");
    }
}

/// The float rule `write_json_f64` followed while it formatted through
/// `core::fmt`, kept verbatim as the oracle of the writer that replaced it.
fn oracle_f64(n: f64) -> String {
    let mut out = String::new();
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{n:.1}");
    } else {
        let start = out.len();
        let _ = write!(out, "{n}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
    out
}

/// Checks `write_json_f64` against the oracle on every value, reusing one
/// buffer; returns how many it checked.
fn check_f64s(values: impl Iterator<Item = f64>) -> u64 {
    let mut out = String::new();
    let mut checked = 0;
    for n in values {
        out.clear();
        write_json_f64(&mut out, n);
        if out != oracle_f64(n) {
            panic!(
                "bits {:#018x}: wrote {out}, core::fmt prints {}",
                n.to_bits(),
                oracle_f64(n)
            );
        }
        checked += 1;
    }
    checked
}

/// The values where a shortest-digits writer goes wrong if it goes wrong
/// anywhere: every binary exponent with the smallest, largest and two
/// middle mantissas, both ends of the bit-pattern range (zero,
/// subnormals from 5e-324 up, and the largest finite values up to
/// `f64::MAX`), the integers on either side of the 1e15 and 2^53 cuts,
/// short decimals d·10^e across the whole exponent range, and the exact
/// decimal ties core rounds up.
fn edge_floats() -> impl Iterator<Item = f64> {
    let exponents = (0..0x7ffu64)
        .flat_map(|e| [0, 1, 1 << 51, (1 << 52) - 1].map(|m| f64::from_bits(e << 52 | m)));
    let low_end = (0..100_000u64).map(f64::from_bits);
    let max = f64::MAX.to_bits();
    let high_end = (max - 100_000..=max).map(f64::from_bits);
    let cuts = [1e15, 9_007_199_254_740_992.0].into_iter().flat_map(|cut| {
        (-2_000..2_000).flat_map(move |k| {
            let n = cut + f64::from(k) * 0.125;
            [n, -n]
        })
    });
    const MANTISSAS: [u64; 12] = [
        1,
        2,
        5,
        9,
        25,
        123,
        4_567,
        99_999,
        1_234_567,
        314_159_265_358_979,
        17_976_931_348_623_157,
        49_406_564_584_124_654,
    ];
    let decimals = (-330..310).flat_map(|e| {
        MANTISSAS
            .into_iter()
            .map(move |d| format!("{d}e{e}").parse::<f64>().expect("a float"))
    });
    exponents
        .chain(low_end)
        .chain(high_end)
        .chain(cuts)
        .chain(decimals)
        .chain(NAMED_TIES.map(|(bits, _)| f64::from_bits(bits)))
        .chain([
            -0.0,
            0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ])
}

/// Values whose shortest digits end in an exact decimal tie, with what
/// core prints for them: core rounds a tie up, Ryu's reference rounds it
/// to even (…695312, …06).
const NAMED_TIES: [(u64, &str); 2] = [
    (0x420a_70ef_1f0d_9000, "14195483617.695313"),
    (0x42a6_c198_b02a_0820, "12510373090564.063"),
];

/// `count` random finite bit patterns and as many uniform draws in
/// [0, 1e4), from the stream `seed` picks.
fn random_floats(seed: u64, count: u64) -> impl Iterator<Item = f64> {
    let mut rng = Rng(seed);
    (0..count).flat_map(move |_| {
        let bits = f64::from_bits(rng.next());
        let uniform = (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 1e4;
        [bits, uniform]
    })
}

#[test]
fn the_float_writer_prints_what_core_fmt_prints() {
    for (bits, text) in NAMED_TIES {
        let mut out = String::new();
        write_json_f64(&mut out, f64::from_bits(bits));
        assert_eq!(
            (out.as_str(), oracle_f64(f64::from_bits(bits)).as_str()),
            (text, text)
        );
    }
    assert!(check_f64s(edge_floats()) > 190_000);
    assert_eq!(check_f64s(random_floats(0xf10a7, 100_000)), 200_000);
}

/// The long sweep: 64 M random bit patterns and as many uniform draws on
/// two threads, with the edge sets. About a minute in release; run it with
/// `cargo test --release -p serde --test text_layer -- --ignored`.
#[test]
#[ignore = "a minute in release; scripts/check.sh runs it"]
fn the_float_writer_prints_what_core_fmt_prints_on_a_long_sweep() {
    assert!(check_f64s(edge_floats()) > 190_000);
    let checked: u64 = std::thread::scope(|scope| {
        let halves = [0x5eed_0001, 0x5eed_0002]
            .map(|seed| scope.spawn(move || check_f64s(random_floats(seed, 32_000_000))));
        halves
            .into_iter()
            .map(|half| half.join().expect("a sweep thread panicked"))
            .sum()
    });
    assert_eq!(checked, 128_000_000);
}

#[test]
fn the_integer_writers_print_what_to_string_prints() {
    let mut unsigned = vec![0, u64::MAX, u64::MAX - 1];
    let mut signed = vec![0, i64::MIN, i64::MIN + 1, i64::MAX];
    for k in 0..20 {
        let p = 10u64.pow(k);
        unsigned.extend([p - 1, p, p + 1]);
        if let Ok(p) = i64::try_from(p) {
            signed.extend([p - 1, p, p + 1, 1 - p, -p, -p - 1]);
        }
    }
    let mut rng = Rng(0x1d);
    for _ in 0..10_000 {
        let n = rng.next() >> rng.below(64);
        unsigned.push(n);
        signed.push(n as i64);
    }
    let mut out = String::new();
    for n in unsigned {
        out.clear();
        write_json_u64(&mut out, n);
        assert_eq!(out, n.to_string());
    }
    for n in signed {
        out.clear();
        write_json_i64(&mut out, n);
        assert_eq!(out, n.to_string());
    }
}
