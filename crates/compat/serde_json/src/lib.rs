//! Offline stand-in for `serde_json`.
//!
//! Provides the subset of the upstream API this workspace uses — [`Value`],
//! [`json!`], [`to_string`], [`to_string_pretty`], [`from_str`],
//! [`to_writer_pretty`] and [`from_reader`] — on top of the compat `serde`
//! crate's text layer: serializing appends text with its scalar writers,
//! deserializing reads through its `Cursor`, and neither builds a tree.
//! Floats are formatted with Rust's shortest round-trip representation, so
//! `float_roundtrip` behaviour is the default.

use std::io::{Read, Write};

use serde::value::indent;
pub use serde::value::{parse_json, Number, Value};
use serde::{Cursor, Deserialize, Serialize};

/// Error type covering syntax, shape and I/O failures.
#[derive(Debug)]
pub struct Error {
    message: String,
}

impl Error {
    fn msg(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error {
            message: e.to_string(),
        }
    }
}

/// Converts any serializable value into a [`Value`] tree, through its
/// text.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    parse_json(&render(value)).expect("written JSON parses")
}

fn render<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.serialize(&mut out);
    out
}

/// Serializes to compact JSON text.
///
/// # Errors
///
/// Infallible for this stand-in; the `Result` mirrors the upstream API.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(render(value))
}

/// Serializes to pretty-printed JSON text.
///
/// # Errors
///
/// Infallible for this stand-in; the `Result` mirrors the upstream API.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(indent(&render(value)))
}

/// Parses a value from JSON text.
///
/// # Errors
///
/// Returns [`Error`] on syntax errors, shape mismatches or text after the
/// value.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    let mut cursor = Cursor::new(input);
    let value = T::deserialize(&mut cursor).map_err(Error::msg)?;
    cursor.end().map_err(Error::msg)?;
    Ok(value)
}

/// Writes pretty-printed JSON into `writer`.
///
/// # Errors
///
/// Returns [`Error`] on I/O failures.
pub fn to_writer_pretty<W: Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<(), Error> {
    writer.write_all(indent(&render(value)).as_bytes())?;
    Ok(())
}

/// Reads a value from a JSON byte stream.
///
/// # Errors
///
/// Returns [`Error`] on I/O failures, syntax errors or shape mismatches.
pub fn from_reader<R: Read, T: Deserialize>(mut reader: R) -> Result<T, Error> {
    let mut buf = String::new();
    reader.read_to_string(&mut buf)?;
    from_str(&buf)
}

/// Builds a [`Value`] from a JSON-like literal. Object values and array
/// elements may be arbitrary serializable expressions; nested object
/// literals need an inner `json!` (the only difference from upstream).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $( $element:expr ),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$element) ),* ])
    };
    ({ $( $key:literal : $value:expr ),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( (String::from($key), $crate::to_value(&$value)) ),*
        ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_objects_and_arrays() {
        let total = 3u64;
        let v = json!({
            "name": "run",
            "ok": true,
            "total": total,
            "ratio": 0.5,
            "series": [1.0, 2.0, 3.5],
            "nested": json!({"deep": 1}),
        });
        assert_eq!(v.get("name").and_then(Value::as_str), Some("run"));
        assert_eq!(v.get("total").and_then(Value::as_u64), Some(3));
        assert_eq!(
            v.get("series")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("nested")
                .and_then(|n| n.get("deep"))
                .and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(json!(null), Value::Null);
        assert_eq!(json!(7u8).as_u64(), Some(7));
    }

    #[test]
    fn string_round_trip_via_value() {
        let v = json!({"a": [1, 2], "b": "x"});
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn writer_and_reader_round_trip() {
        let v = json!({"k": 1.25});
        let mut buf = Vec::new();
        to_writer_pretty(&mut buf, &v).unwrap();
        let back: Value = from_reader(buf.as_slice()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn from_str_reports_errors() {
        assert!(from_str::<Value>("{oops").is_err());
    }
}
