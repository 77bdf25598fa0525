//! Offline stand-in for `serde`.
//!
//! The real serde separates the data model from formats; this workspace
//! only ever serializes to and from JSON, so the stand-in collapses the
//! two: [`Serialize`] renders a value into a JSON-shaped [`Value`] tree and
//! [`Deserialize`] rebuilds a value from one. The JSON text layer under
//! the tree lives in [`value`] and is public on its own — the scalar
//! writers `Value::to_json` renders through and the pull
//! [`value::Cursor`] that [`value::parse_json`] drives — so a caller with a
//! fixed schema on a hot path can write and read text without building a
//! tree, through the same tokenizer, float formatter and string escaper.
//! The `serde_json` compat crate names the text entry points upstream
//! does. The derive macros (`serde_derive`,
//! re-exported behind the `derive` feature like upstream) generate the same
//! external representation serde would: structs as objects, newtype structs
//! transparently, unit enum variants as strings and data-carrying variants
//! as single-key objects.

mod ryu;
pub mod value;

pub use value::{Number, Value};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Serialization error (unused by this stand-in, kept for API shape).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerError {
    /// Human-readable description.
    pub message: String,
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    /// Human-readable description.
    pub message: String,
}

impl DeError {
    /// Creates an error with the given message.
    pub fn msg(message: impl Into<String>) -> Self {
        DeError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DeError {}

/// Renders `self` into the JSON data model.
pub trait Serialize {
    /// The [`Value`] representation of `self`.
    fn to_value(&self) -> Value;
}

/// Rebuilds `Self` from the JSON data model.
pub trait Deserialize: Sized {
    /// Parses `Self` out of a [`Value`], failing on shape mismatches.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] when `value` does not have the expected shape.
    fn from_value(value: &Value) -> Result<Self, DeError>;
}

// ---- primitive impls ----------------------------------------------------

macro_rules! ser_de_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::U64(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let n = value.as_u64().ok_or_else(|| {
                    DeError::msg(concat!("expected unsigned integer for ", stringify!($t)))
                })?;
                <$t>::try_from(n).map_err(|_| DeError::msg("integer out of range"))
            }
        }
    )*};
}

ser_de_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_de_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                // Mirror upstream serde_json: non-negative integers use the
                // unsigned representation, so values compare equal after a
                // text round-trip (the parser produces U64 for them).
                if *self >= 0 {
                    Value::Number(Number::U64(*self as u64))
                } else {
                    Value::Number(Number::I64(*self as i64))
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let n = value.as_i64().ok_or_else(|| {
                    DeError::msg(concat!("expected integer for ", stringify!($t)))
                })?;
                <$t>::try_from(n).map_err(|_| DeError::msg("integer out of range"))
            }
        }
    )*};
}

ser_de_signed!(i8, i16, i32, i64, isize);

macro_rules! ser_de_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                // JSON has no non-finite numbers; mirror serde_json's
                // to-null behaviour so serialization never fails.
                if (*self as f64).is_finite() {
                    Value::Number(Number::F64(*self as f64))
                } else {
                    Value::Null
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                value
                    .as_f64()
                    .map(|f| f as $t)
                    .ok_or_else(|| DeError::msg("expected number"))
            }
        }
    )*};
}

ser_de_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::msg("expected boolean")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::String(s) => Ok(s.clone()),
            _ => Err(DeError::msg("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Deserialize::from_value(value)?;
        items
            .try_into()
            .map_err(|_| DeError::msg(format!("expected array of length {N}")))
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(DeError::msg("expected array")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

macro_rules! ser_de_tuple {
    ($(($($name:ident : $idx:tt),+)),* $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::Array(items) => {
                        let mut it = items.iter();
                        Ok(($(
                            {
                                let _ = $idx;
                                $name::from_value(
                                    it.next().ok_or_else(|| DeError::msg("tuple too short"))?,
                                )?
                            },
                        )+))
                    }
                    _ => Err(DeError::msg("expected array for tuple")),
                }
            }
        }
    )*};
}

ser_de_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
);

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        let v: Vec<f64> = vec![1.0, 2.5];
        assert_eq!(Vec::<f64>::from_value(&v.to_value()).unwrap(), v);
        let o: Option<u64> = None;
        assert_eq!(Option::<u64>::from_value(&o.to_value()).unwrap(), None);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64::NAN.to_value(), Value::Null);
        assert_eq!(f64::INFINITY.to_value(), Value::Null);
    }

    #[test]
    fn tuple_round_trip() {
        let t = (1u64, 2.5f64, true);
        let back = <(u64, f64, bool)>::from_value(&t.to_value()).unwrap();
        assert_eq!(back, t);
    }
}
