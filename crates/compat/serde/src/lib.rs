//! Offline stand-in for `serde`.
//!
//! The real serde separates the data model from formats; this workspace
//! only ever serializes to and from JSON, so the stand-in collapses the
//! two: [`Serialize`] appends compact JSON text to a `String` with the
//! scalar writers and [`Deserialize`] reads it back through the pull
//! [`Cursor`], with no tree in between. The text layer lives in [`value`]:
//! the scalar writers, [`value::indent`] for pretty text, the cursor, and
//! the [`Value`] tree, which is one more type with its own impls, for
//! documents whose shape is not known in advance ([`value::parse_json`]).
//! The `serde_json` compat crate names the text entry points upstream
//! does. The derive macros (`serde_derive`, re-exported behind the
//! `derive` feature like upstream) generate the same external
//! representation serde would: structs as objects, newtype structs
//! transparently, unit enum variants as strings and data-carrying variants
//! as single-key objects.

mod ryu;
pub mod value;

use value::{write_json_bool, write_json_f64, write_json_i64, write_json_string, write_json_u64};
pub use value::{Cursor, Number, Value};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Writes `self` as JSON text.
pub trait Serialize {
    /// Appends `self` to `out` as one JSON value, in compact text: no
    /// whitespace outside strings.
    fn serialize(&self, out: &mut String);
}

/// Reads `Self` from JSON text.
pub trait Deserialize: Sized {
    /// Reads one JSON value as `Self`.
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of a syntax error, or what the
    /// text holds where it should hold a `Self`.
    fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, String>;

    /// Reads one JSON value into `self`, keeping what buffers `self` holds
    /// (strings, vectors, the fields of a derived struct). On success
    /// `self` equals what [`Deserialize::deserialize`] would have returned,
    /// whatever it held before; on failure its contents are unspecified.
    /// The default assigns a fresh value.
    ///
    /// # Errors
    ///
    /// Those of [`Deserialize::deserialize`].
    fn deserialize_in_place(&mut self, cursor: &mut Cursor<'_>) -> Result<(), String> {
        *self = Self::deserialize(cursor)?;
        Ok(())
    }
}

/// What the derived readers call: one rule per member of an object.
#[doc(hidden)]
pub mod de {
    use crate::{Cursor, Deserialize};

    /// Reads a member into its slot, or skips it when an earlier member of
    /// the same name filled the slot: the first of repeated members counts.
    pub fn member<T: Deserialize>(
        slot: &mut Option<T>,
        cursor: &mut Cursor<'_>,
    ) -> Result<(), String> {
        if slot.is_some() {
            return cursor.skip_value();
        }
        *slot = Some(T::deserialize(cursor)?);
        Ok(())
    }

    /// [`member`] into a field that is kept: `seen` says a member of the
    /// name was read already.
    pub fn member_in_place<T: Deserialize>(
        seen: &mut bool,
        field: &mut T,
        cursor: &mut Cursor<'_>,
    ) -> Result<(), String> {
        if std::mem::replace(seen, true) {
            return cursor.skip_value();
        }
        field.deserialize_in_place(cursor)
    }

    /// The member read, or what an absent member reads as.
    pub fn required<T: Deserialize>(
        slot: Option<T>,
        field: &str,
        owner: &str,
    ) -> Result<T, String> {
        match slot {
            Some(value) => Ok(value),
            None => missing(field, owner),
        }
    }

    /// [`required`] for a kept field that no member filled.
    pub fn settle<T: Deserialize>(
        seen: bool,
        field: &mut T,
        name: &str,
        owner: &str,
    ) -> Result<(), String> {
        if !seen {
            *field = missing(name, owner)?;
        }
        Ok(())
    }

    /// What an absent member reads as: `null`, which an `Option` accepts
    /// and a field of most types does not.
    #[cold]
    #[inline(never)]
    fn missing<T: Deserialize>(field: &str, owner: &str) -> Result<T, String> {
        T::deserialize(&mut Cursor::new("null"))
            .map_err(|_| format!("missing field `{field}` in {owner}"))
    }
}

// ---- primitive impls ----------------------------------------------------

macro_rules! ser_de_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize(&self, out: &mut String) {
                write_json_u64(out, *self as u64);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, String> {
                <$t>::try_from(cursor.u64()?).map_err(|_| "integer out of range".to_string())
            }
        }
    )*};
}

ser_de_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_de_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize(&self, out: &mut String) {
                write_json_i64(out, *self as i64);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, String> {
                let n = match cursor.number()? {
                    Number::U64(n) => i64::try_from(n).ok(),
                    Number::I64(n) => Some(n),
                    Number::F64(_) => None,
                };
                let in_range = concat!("expected an integer in range of ", stringify!($t));
                n.and_then(|n| <$t>::try_from(n).ok()).ok_or_else(|| in_range.to_string())
            }
        }
    )*};
}

ser_de_signed!(i8, i16, i32, i64, isize);

macro_rules! ser_de_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            /// JSON has no non-finite numbers: those write `null`, as
            /// `serde_json` does, so serialization never fails.
            #[inline]
            fn serialize(&self, out: &mut String) {
                write_json_f64(out, *self as f64);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, String> {
                cursor.f64().map(|f| f as $t)
            }
        }
    )*};
}

ser_de_float!(f32, f64);

impl Serialize for bool {
    #[inline]
    fn serialize(&self, out: &mut String) {
        write_json_bool(out, *self);
    }
}

impl Deserialize for bool {
    #[inline]
    fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, String> {
        cursor.bool()
    }
}

impl Serialize for String {
    #[inline]
    fn serialize(&self, out: &mut String) {
        write_json_string(out, self);
    }
}

impl Deserialize for String {
    #[inline]
    fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, String> {
        cursor.string().map(|s| s.into_owned())
    }

    #[inline]
    fn deserialize_in_place(&mut self, cursor: &mut Cursor<'_>) -> Result<(), String> {
        let text = cursor.string()?;
        self.clear();
        self.push_str(&text);
        Ok(())
    }
}

impl Serialize for str {
    #[inline]
    fn serialize(&self, out: &mut String) {
        write_json_string(out, self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.serialize(out);
        }
        out.push(']');
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut String) {
        self.as_slice().serialize(out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut String) {
        self.as_slice().serialize(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, String> {
        let mut items = Vec::new();
        cursor.array(|cursor| {
            items.push(T::deserialize(cursor)?);
            Ok(())
        })?;
        Ok(items)
    }

    /// Reads each element into the kept one at its index, appends the
    /// rest and drops the surplus.
    fn deserialize_in_place(&mut self, cursor: &mut Cursor<'_>) -> Result<(), String> {
        let mut len = 0;
        cursor.array(|cursor| {
            match self.get_mut(len) {
                Some(item) => item.deserialize_in_place(cursor)?,
                None => self.push(T::deserialize(cursor)?),
            }
            len += 1;
            Ok(())
        })?;
        self.truncate(len);
        Ok(())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, String> {
        let items: Vec<T> = Deserialize::deserialize(cursor)?;
        items
            .try_into()
            .map_err(|_| format!("expected array of length {N}"))
    }

    fn deserialize_in_place(&mut self, cursor: &mut Cursor<'_>) -> Result<(), String> {
        let mut len = 0;
        cursor.array(|cursor| {
            match self.get_mut(len) {
                Some(item) => item.deserialize_in_place(cursor)?,
                // Read as `deserialize` reads it, for the same error.
                None => drop(T::deserialize(cursor)?),
            }
            len += 1;
            Ok(())
        })?;
        if len == N {
            Ok(())
        } else {
            Err(format!("expected array of length {N}"))
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut String) {
        match self {
            Some(v) => v.serialize(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, String> {
        if cursor.peek() == Some(b'n') {
            cursor.skip_value().map(|()| None)
        } else {
            T::deserialize(cursor).map(Some)
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self, out: &mut String) {
        out.push('[');
        self.0.serialize(out);
        out.push(',');
        self.1.serialize(out);
        out.push(']');
    }
}

/// The first two elements of an array; any more are skipped.
impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, String> {
        let (mut a, mut b, mut at) = (None, None, 0);
        cursor.array(|cursor| {
            match at {
                0 => a = Some(A::deserialize(cursor)?),
                1 => b = Some(B::deserialize(cursor)?),
                _ => cursor.skip_value()?,
            }
            at += 1;
            Ok(())
        })?;
        a.zip(b).ok_or_else(|| "tuple too short".to_string())
    }
}

impl Serialize for Value {
    fn serialize(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.serialize(out),
            Value::Number(Number::U64(n)) => n.serialize(out),
            Value::Number(Number::I64(n)) => n.serialize(out),
            Value::Number(Number::F64(n)) => n.serialize(out),
            Value::String(s) => s.serialize(out),
            Value::Array(items) => items.serialize(out),
            Value::Object(entries) => {
                out.push('{');
                for (i, (key, member)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, key);
                    out.push(':');
                    member.serialize(out);
                }
                out.push('}');
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, String> {
        cursor.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text<T: Serialize>(value: &T) -> String {
        let mut out = String::new();
        value.serialize(&mut out);
        out
    }

    fn read<T: Deserialize>(text: &str) -> Result<T, String> {
        let mut cursor = Cursor::new(text);
        let value = T::deserialize(&mut cursor)?;
        cursor.end().map(|()| value)
    }

    #[test]
    fn primitive_round_trips() {
        assert_eq!(read::<u64>(&text(&42u64)), Ok(42));
        assert_eq!(read::<i32>(&text(&-7i32)), Ok(-7));
        assert_eq!(read::<f64>(&text(&1.5f64)), Ok(1.5));
        assert_eq!(read::<bool>(&text(&true)), Ok(true));
        let v: Vec<f64> = vec![1.0, 2.5];
        assert_eq!(read::<Vec<f64>>(&text(&v)), Ok(v));
        let o: Option<u64> = None;
        assert_eq!(read::<Option<u64>>(&text(&o)), Ok(None));
        assert_eq!(read::<u8>("256"), Err("integer out of range".into()));
        assert_eq!(read::<f64>("3"), Ok(3.0));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(text(&f64::NAN), "null");
        assert_eq!(text(&f64::INFINITY), "null");
    }

    #[test]
    fn tuple_round_trip() {
        let t = (1u64, 2.5f64);
        assert_eq!(read::<(u64, f64)>(&text(&t)), Ok(t));
        assert_eq!(read::<(u64, bool)>("[1, true, 2]"), Ok((1, true)));
        assert!(read::<(u64, u64)>("[1]").is_err());
    }

    #[test]
    fn in_place_reads_keep_the_buffers_and_drop_the_surplus() {
        let mut names = vec![String::with_capacity(64), String::from("gone")];
        let kept = names[0].as_ptr();
        let mut cursor = Cursor::new(r#"["a\"b"]"#);
        names.deserialize_in_place(&mut cursor).unwrap();
        assert_eq!(names, ["a\"b"]);
        assert_eq!(names[0].as_ptr(), kept);
        let mut array = [0.0; 3];
        assert!(array
            .deserialize_in_place(&mut Cursor::new("[1, 2]"))
            .is_err());
        assert!(array
            .deserialize_in_place(&mut Cursor::new("[1, 2, 3, 4]"))
            .is_err());
        array
            .deserialize_in_place(&mut Cursor::new("[1, 2.5, 3]"))
            .unwrap();
        assert_eq!(array, [1.0, 2.5, 3.0]);
    }
}
