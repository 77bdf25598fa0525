//! The JSON text layer of the `serde` / `serde_json` compat crates: the
//! scalar writers every [`Serialize`] impl appends compact text with
//! ([`write_json_string`], [`write_json_f64`], [`write_json_u64`],
//! [`write_json_i64`], [`write_json_bool`]) and [`indent`], which
//! pretty-prints that text; the pull [`Cursor`] that every
//! [`Deserialize`](crate::Deserialize) impl reads from; and the [`Value`]
//! tree for documents of no fixed shape, which [`parse_json`] builds by
//! driving the cursor and [`Value::to_json`] renders with the writers.

use crate::Serialize;
use std::borrow::Cow;
use std::fmt;

/// A JSON number. The three variants preserve the distinction between
/// unsigned, signed and floating-point sources so integer round-trips are
/// exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number (always finite).
    F64(f64),
}

impl Number {
    /// The number as `f64` (lossy for very large integers).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::U64(n) => n as f64,
            Number::I64(n) => n as f64,
            Number::F64(n) => n,
        }
    }
}

/// A JSON document: the serde data model of this workspace's compat shims.
///
/// Objects preserve insertion order (like `serde_json` with its
/// `preserve_order` feature) and are represented as a flat pair list —
/// lookups are linear, which is fine for the small configuration and
/// artifact documents this workspace produces.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An ordered key→value map.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup: `Some(&value)` for `Object` entries with this key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::U64(n)) => Some(*n),
            Value::Number(Number::I64(n)) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `i64`, when it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number::I64(n)) => Some(*n),
            Value::Number(Number::U64(n)) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as `f64`, for any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as `&str`, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// True for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Renders compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.serialize(&mut out);
        out
    }

    /// Renders pretty-printed JSON text (two-space indent).
    pub fn to_json_pretty(&self) -> String {
        indent(&self.to_json())
    }
}

/// Pretty-prints compact JSON text as [`Serialize`] writes it: a line per
/// member or element, two spaces of indent per level, a space after each
/// `:`, and an empty array or object left as `[]` or `{}`.
pub fn indent(compact: &str) -> String {
    fn line(out: &mut String, depth: usize) {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
    let mut out = String::with_capacity(compact.len() * 2);
    let (mut depth, mut in_string, mut escaped) = (0, false, false);
    for c in compact.chars() {
        if in_string {
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
            out.push(c);
            continue;
        }
        // Outside strings, text that ends in `{` or `[` has just opened.
        let opened = out.ends_with(['{', '[']);
        match c {
            '}' | ']' => {
                depth -= 1;
                if !opened {
                    line(&mut out, depth);
                }
            }
            _ if opened => line(&mut out, depth),
            _ => {}
        }
        out.push(c);
        match c {
            '{' | '[' => depth += 1,
            ',' => line(&mut out, depth),
            ':' => out.push(' '),
            '"' => in_string = true,
            _ => {}
        }
    }
    out
}

/// Appends `s` as a JSON string literal: `"` and `\` escaped, `\n` `\r`
/// `\t` by their short forms, every other control character below U+0020
/// as `\u00xx`, everything else verbatim.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    // Start of the run of bytes not yet copied; every escaped byte is
    // ASCII, so the slices below always fall on character boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends a float as Rust's `{}` prints it, and so as it parses back: the
/// shortest decimal that round-trips, never in exponent notation. Integral
/// floats keep a ".0" so they re-parse as [`Number::F64`]; huge integral
/// floats (|n| ≥ 1e15) would otherwise print as bare digit runs and
/// re-parse down the integer path. JSON has no non-finite numbers: those
/// render as `null`, as `Serialize for f64` maps them.
///
/// The digits come from Ryu's shortest round-trip core with an exact tie
/// rounded up, as core's formatter rounds it, so the bytes are those of
/// `format!("{n}")` (with the ".0" rule above) without going through
/// `core::fmt`. Integral values below 1e15 are written as integers.
pub fn write_json_f64(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    if n.is_sign_negative() {
        out.push('-');
    }
    let n = n.abs();
    if n < 1e15 && (n as u64) as f64 == n {
        write_json_u64(out, n as u64);
        out.push_str(".0");
        return;
    }
    let (mantissa, exponent) = crate::ryu::d2d(n);
    let mut buf = [0; 20];
    let digits = decimal_digits(mantissa, &mut buf);
    // Digits before the decimal point; none or all are possible.
    let point = exponent + digits.len() as i32;
    if point <= 0 {
        out.push_str("0.");
        push_zeros(out, point.unsigned_abs() as usize);
        push_ascii(out, digits);
    } else if (point as usize) < digits.len() {
        let (whole, fraction) = digits.split_at(point as usize);
        push_ascii(out, whole);
        out.push('.');
        push_ascii(out, fraction);
    } else {
        push_ascii(out, digits);
        push_zeros(out, point as usize - digits.len());
        out.push_str(".0");
    }
}

/// Appends `true` or `false`.
pub fn write_json_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Appends an unsigned integer.
pub fn write_json_u64(out: &mut String, n: u64) {
    let mut buf = [0; 20];
    push_ascii(out, decimal_digits(n, &mut buf));
}

/// Appends a signed integer.
pub fn write_json_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    write_json_u64(out, n.unsigned_abs());
}

/// The decimal digits of `n`, written two at a time from the end of `buf`.
fn decimal_digits(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    const PAIRS: &[u8; 200] = b"\
        0001020304050607080910111213141516171819\
        2021222324252627282930313233343536373839\
        4041424344454647484950515253545556575859\
        6061626364656667686970717273747576777879\
        8081828384858687888990919293949596979899";
    let mut at = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    &buf[at..]
}

/// Appends ASCII bytes one `char` at a time: masking to seven bits
/// tells the compiler each is one UTF-8 byte, which makes a push cheaper
/// than checking the run with `str::from_utf8`.
fn push_ascii(out: &mut String, ascii: &[u8]) {
    for &b in ascii {
        out.push(char::from(b & 0x7f));
    }
}

/// Appends `count` zeros in slices of one constant, which measured faster
/// than extending by a `char` iterator on the usual count of none.
fn push_zeros(out: &mut String, mut count: usize) {
    const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";
    while count > ZEROS.len() {
        out.push_str(ZEROS);
        count -= ZEROS.len();
    }
    out.push_str(&ZEROS[..count]);
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.alternate() {
            f.write_str(&self.to_json_pretty())
        } else {
            f.write_str(&self.to_json())
        }
    }
}

/// Parses JSON text into a [`Value`].
///
/// # Errors
///
/// Returns a message describing the first syntax error.
pub fn parse_json(input: &str) -> Result<Value, String> {
    let mut cursor = Cursor::new(input);
    let value = cursor.value()?;
    cursor.end()?;
    Ok(value)
}

/// How deep [`Cursor::value`] and [`Cursor::skip_value`] nest arrays and
/// objects, as `serde_json`'s default recursion limit: each level is a
/// stack frame, and text nested a million deep would overflow the stack.
const MAX_DEPTH: usize = 128;

/// A pull cursor over JSON text: what every
/// [`Deserialize`](crate::Deserialize) impl reads from, and the tokenizer
/// [`parse_json`] is built on. Every reader skips leading JSON whitespace,
/// consumes exactly one token or value and fails with a message naming the
/// byte offset.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Cursor { text, pos: 0 }
    }

    #[inline]
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    /// The byte at the cursor, whitespace included.
    #[inline]
    fn at(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    /// Skips JSON whitespace (space, tab, line feed, carriage return).
    #[inline]
    pub fn skip_ws(&mut self) {
        while matches!(self.at(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The first byte of the next token, without consuming it.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.at()
    }

    /// Consumes the punctuation byte `b`.
    ///
    /// # Errors
    ///
    /// When the next token does not start with `b`.
    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("{}, expected '{}'", self.unexpected(), b as char))
        }
    }

    /// Succeeds when only whitespace is left.
    ///
    /// # Errors
    ///
    /// When anything else follows.
    pub fn end(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing characters at byte {}", self.pos)),
        }
    }

    /// Reads a string, borrowed from the text when it holds no escape.
    /// Runs between `"` and `\` are copied whole, so the scan is linear in
    /// the string's length. A `\uD800`–`\uDBFF` escape followed directly by
    /// a `\uDC00`–`\uDFFF` one decodes to the scalar the pair encodes; a
    /// surrogate half on its own decodes to U+FFFD.
    ///
    /// # Errors
    ///
    /// When the next token is not a string, the string is unterminated or
    /// an escape is malformed.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            let stop = self.bytes()[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map(|offset| start + offset)
                .ok_or("unterminated string")?;
            // `start` follows a quote or an all-ASCII escape and `stop` is
            // at an ASCII byte: both are character boundaries.
            let run = &self.text[start..stop];
            self.pos = stop + 1;
            if self.bytes()[stop] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            let escaped = self.escape()?;
            let out = owned.get_or_insert_with(String::new);
            out.push_str(run);
            out.push(escaped);
        }
    }

    /// Decodes the escape whose backslash was just consumed.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.at() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) {
                    let mut ahead = self.clone();
                    if ahead.bytes()[ahead.pos..].starts_with(b"\\u") {
                        ahead.pos += 2;
                        if let Ok(low @ 0xdc00..=0xdfff) = ahead.hex4() {
                            code = 0x1_0000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            self.pos = ahead.pos;
                        }
                    }
                }
                return Ok(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return Err(format!("bad escape {}", self.found())),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let mut code = 0;
        for &b in digits {
            code = code * 16 + char::from(b).to_digit(16).ok_or("bad \\u escape")?;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Reads a number: digits alone are an integer ([`Number::U64`], or
    /// [`Number::I64`] after a `-`), a fraction or exponent makes a
    /// [`Number::F64`].
    ///
    /// # Errors
    ///
    /// When the next token is not a number or does not fit its type.
    #[inline]
    pub fn number(&mut self) -> Result<Number, String> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(format!("expected number at byte {}", self.pos));
        }
        let start = self.pos;
        if self.at() == Some(b'-') {
            self.pos += 1;
        }
        self.skip_digits();
        let mut float = false;
        if self.at() == Some(b'.') {
            float = true;
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.at(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.at(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        let text = &self.text[start..self.pos];
        let bad = |e: &dyn fmt::Display| format!("bad number: {e}");
        if float {
            text.parse().map(Number::F64).map_err(|e| bad(&e))
        } else if text.starts_with('-') {
            text.parse().map(Number::I64).map_err(|e| bad(&e))
        } else {
            text.parse().map(Number::U64).map_err(|e| bad(&e))
        }
    }

    #[inline]
    fn skip_digits(&mut self) {
        while self.at().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    /// Reads any number as `f64`, as [`Value::as_f64`] would.
    ///
    /// # Errors
    ///
    /// Those of [`Cursor::number`].
    #[inline]
    pub fn f64(&mut self) -> Result<f64, String> {
        self.number().map(|n| n.as_f64())
    }

    /// Reads a non-negative integer, as [`Value::as_u64`] would.
    ///
    /// # Errors
    ///
    /// Those of [`Cursor::number`], or when the number is negative or has
    /// a fraction or exponent.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        match self.number()? {
            Number::U64(n) => Ok(n),
            Number::I64(n) if n >= 0 => Ok(n as u64),
            _ => Err(format!("expected unsigned integer at byte {start}")),
        }
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    ///
    /// When the next token is neither.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.peek() {
            Some(b't') => self.keyword("true").map(|()| true),
            Some(b'f') => self.keyword("false").map(|()| false),
            _ => Err(format!("expected boolean at byte {}", self.pos)),
        }
    }

    #[inline]
    fn keyword(&mut self, kw: &str) -> Result<(), String> {
        if self.bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Walks an object: `field` is called once per member, after the key
    /// and its `:`, and must consume the member's value.
    ///
    /// # Errors
    ///
    /// When the next token is not an object, its punctuation is malformed
    /// or `field` fails.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            field(self, key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}', got {}", self.found())),
            }
        }
    }

    /// Walks an array: `item` is called once per element and must consume
    /// it.
    ///
    /// # Errors
    ///
    /// When the next token is not an array, its punctuation is malformed
    /// or `item` fails.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']', got {}", self.found())),
            }
        }
    }

    /// Reads the next value of any type into a [`Value`] tree.
    ///
    /// # Errors
    ///
    /// On the first syntax error, or when arrays and objects nest more
    /// than 128 deep.
    pub fn value(&mut self) -> Result<Value, String> {
        self.value_within(MAX_DEPTH)
    }

    fn value_within(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.keyword("null").map(|()| Value::Null),
            Some(b't' | b'f') => self.bool().map(Value::Bool),
            Some(b'"') => self.string().map(|s| Value::String(s.into_owned())),
            Some(b'[' | b'{') if depth == 0 => Err(self.too_deep()),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|cursor| {
                    items.push(cursor.value_within(depth - 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut entries = Vec::new();
                self.object(|cursor, key| {
                    entries.push((key.into_owned(), cursor.value_within(depth - 1)?));
                    Ok(())
                })?;
                Ok(Value::Object(entries))
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Number),
            _ => Err(self.unexpected()),
        }
    }

    /// Consumes the next value of any type, checking its syntax exactly as
    /// [`Cursor::value`] does, without building it.
    ///
    /// # Errors
    ///
    /// On the first syntax error, or when arrays and objects nest more
    /// than 128 deep.
    pub fn skip_value(&mut self) -> Result<(), String> {
        self.skip_within(MAX_DEPTH)
    }

    fn skip_within(&mut self, depth: usize) -> Result<(), String> {
        match self.peek() {
            Some(b'n') => self.keyword("null"),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'"') => self.string().map(drop),
            Some(b'[' | b'{') if depth == 0 => Err(self.too_deep()),
            Some(b'[') => self.array(|cursor| cursor.skip_within(depth - 1)),
            Some(b'{') => self.object(|cursor, _| cursor.skip_within(depth - 1)),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => Err(self.unexpected()),
        }
    }

    /// The error for a token that cannot start a value.
    fn unexpected(&self) -> String {
        format!("unexpected {}", self.found())
    }

    /// What an error found at the cursor, in words: the character there
    /// (a lone byte when the cursor is inside one), or the end of the
    /// input, and where.
    fn found(&self) -> String {
        let at = self.pos;
        let next = self.text.get(at..).and_then(|rest| rest.chars().next());
        match (next, self.at()) {
            (Some(c), _) => format!("{c:?} at byte {at}"),
            (None, Some(b)) => format!("byte 0x{b:02x} at byte {at}"),
            (None, None) => format!("end of input at byte {at}"),
        }
    }

    fn too_deep(&self) -> String {
        format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trip() {
        let v = Value::Object(vec![
            ("a".into(), Value::Number(Number::F64(1.5))),
            (
                "b".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("s".into(), Value::String("x\"y\n".into())),
            ("n".into(), Value::Number(Number::I64(-3))),
            ("u".into(), Value::Number(Number::U64(7))),
        ]);
        let text = v.to_json();
        let back = parse_json(&text).unwrap();
        assert_eq!(back, v);
        let pretty = v.to_json_pretty();
        assert_eq!(parse_json(&pretty).unwrap(), v);
    }

    #[test]
    fn float_formatting_round_trips_precisely() {
        for &f in &[0.1, 1.0 / 3.0, 1e-12, 12345.6789, -2.5e17] {
            let v = Value::Number(Number::F64(f));
            let back = parse_json(&v.to_json()).unwrap();
            assert_eq!(back.as_f64().unwrap(), f);
        }
    }

    #[test]
    fn get_looks_up_object_keys() {
        let v = parse_json(r#"{"x": 1, "y": [2, 3]}"#).unwrap();
        assert_eq!(v.get("x").and_then(Value::as_u64), Some(1));
        assert_eq!(
            v.get("y").and_then(Value::as_array).map(|a| a.len()),
            Some(2)
        );
        assert!(v.get("z").is_none());
    }

    #[test]
    fn nesting_stops_at_the_depth_limit() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        assert!(parse_json(&nested(MAX_DEPTH + 1)).is_err_and(|e| e.contains("nesting deeper")));
        assert!(Cursor::new(&nested(MAX_DEPTH)).skip_value().is_ok());
        assert!(Cursor::new(&nested(MAX_DEPTH + 1)).skip_value().is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("nul").is_err());
        assert!(parse_json("1 2").is_err());
    }
}
