//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no crates.io access, so this workspace-local
//! crate provides the subset the results pipeline needs: `Serialize` and
//! `Deserialize` traits, primitive and container impls, and re-exported
//! derive macros. `serde_json` (also shimmed) holds the entry points.
//!
//! The only format this workspace speaks is JSON, so the traits speak it
//! directly instead of going through serde's visitor machinery or an
//! intermediate tree. [`Serialize`] writes a value into a [`Writer`], which
//! appends JSON to one output `String` and owns the separators and the
//! compact or pretty indentation. [`Deserialize`] reads a value off a
//! [`Cursor`], which borrows the input text: a derived struct takes its
//! keys as they come, checking the declaration order first and searching
//! its key list only when the order differs, and passes over unknown keys
//! without building them. A key an object lacks reads as an explicit
//! `null` would ([`Deserialize::missing`]).
//!
//! [`Value`] is an owned JSON document for tests and hand edits (patch a
//! field, render it back); nothing on the way to or from JSON builds one.
//!
//! The derives take `default`, `skip_serializing_if`, `tag` and
//! `rename_all` attributes (see the `serde_derive` shim); any other shape
//! fails to compile rather than serializing some surprising way:
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! #[serde(tag = "kind")]
//! enum Status { Failed(String) } // tuple variant
//! ```
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! struct Row { #[serde(rename = "n")] name: String } // unsupported attribute
//! ```

pub use serde_derive::{Deserialize, Serialize};

mod de;
mod float;
mod scan;
mod ser;
mod value;

pub use de::Cursor;
pub use ser::Writer;
pub use value::Value;

use std::collections::BTreeMap;
use std::fmt;

/// Deserialization failure: what was expected, and where.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError {
    message: String,
}

impl DeError {
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        DeError {
            message: message.into(),
        }
    }

    /// Prefix the error with the field it occurred under.
    #[must_use]
    pub fn in_field(self, field: &str) -> Self {
        DeError {
            message: format!("{field}: {}", self.message),
        }
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DeError {}

/// Write a value as JSON.
pub trait Serialize {
    fn serialize(&self, writer: &mut Writer);
}

/// Read a value from JSON.
pub trait Deserialize: Sized {
    fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, DeError>;

    /// What a key absent from its object reads as: the same as `null`.
    fn missing() -> Result<Self, DeError> {
        Self::deserialize(&mut Cursor::new("null"))
    }
}

// ---------------------------------------------------------------------------
// primitive impls
// ---------------------------------------------------------------------------

macro_rules! int_impls {
    ($($ty:ty),* $(,)?) => {$(
        impl Serialize for $ty {
            fn serialize(&self, writer: &mut Writer) {
                writer.int(*self as i128);
            }
        }
        impl Deserialize for $ty {
            fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, DeError> {
                cursor.int(stringify!($ty))
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($ty:ty),* $(,)?) => {$(
        impl Serialize for $ty {
            fn serialize(&self, writer: &mut Writer) {
                writer.float(f64::from(*self));
            }
        }
        impl Deserialize for $ty {
            fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, DeError> {
                cursor.float().map(|f| f as $ty)
            }

            fn missing() -> Result<Self, DeError> {
                Ok(<$ty>::NAN)
            }
        }
    )*};
}

float_impls!(f32, f64);

impl Serialize for bool {
    fn serialize(&self, writer: &mut Writer) {
        writer.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, DeError> {
        cursor.bool()
    }
}

impl Serialize for String {
    fn serialize(&self, writer: &mut Writer) {
        writer.str(self);
    }
}

impl Deserialize for String {
    fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, DeError> {
        cursor.str().map(|s| s.into_owned())
    }
}

impl Serialize for str {
    fn serialize(&self, writer: &mut Writer) {
        writer.str(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, writer: &mut Writer) {
        (**self).serialize(writer);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, writer: &mut Writer) {
        match self {
            Some(v) => v.serialize(writer),
            None => writer.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, DeError> {
        if cursor.null()? {
            Ok(None)
        } else {
            T::deserialize(cursor).map(Some)
        }
    }

    fn missing() -> Result<Self, DeError> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, writer: &mut Writer) {
        writer.begin_array();
        for item in self {
            writer.element();
            item.serialize(writer);
        }
        writer.end_array();
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, DeError> {
        cursor.begin_array()?;
        let mut items = Vec::new();
        while cursor.next_element()? {
            let item =
                T::deserialize(cursor).map_err(|e| e.in_field(&format!("[{}]", items.len())));
            items.push(item?);
        }
        Ok(items)
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self, writer: &mut Writer) {
        writer.begin_object();
        for (key, value) in self {
            writer.key(key);
            value.serialize(writer);
        }
        writer.end_object();
    }
}

/// On a repeated key the last value wins, as inserting each pair in
/// document order leaves it.
impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, DeError> {
        cursor.begin_object("BTreeMap")?;
        let mut map = BTreeMap::new();
        while let Some(key) = cursor.next_key()? {
            let value = V::deserialize(cursor).map_err(|e| e.in_field(&key))?;
            map.insert(key.into_owned(), value);
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json<T: Serialize + ?Sized>(value: &T) -> String {
        let mut w = Writer::compact();
        value.serialize(&mut w);
        w.finish()
    }

    fn parse<T: Deserialize>(text: &str) -> Result<T, DeError> {
        let mut cursor = Cursor::new(text);
        let value = T::deserialize(&mut cursor)?;
        cursor.finish()?;
        Ok(value)
    }

    #[test]
    fn option_roundtrips_through_null_and_missing() {
        let some: Option<f64> = Some(4.5);
        let none: Option<f64> = None;
        assert_eq!(parse::<Option<f64>>(&json(&some)), Ok(Some(4.5)));
        assert_eq!(json(&none), "null");
        assert_eq!(parse::<Option<f64>>(&json(&none)), Ok(None));
        // A missing field reads as null does, which is None.
        assert_eq!(Option::<f64>::missing(), Ok(None));
        assert!(f64::missing().unwrap().is_nan());
        assert_eq!(
            String::missing().unwrap_err().to_string(),
            "expected string, found null"
        );
    }

    #[test]
    fn int_range_errors_are_reported() {
        assert!(parse::<u32>("-1").is_err());
        assert_eq!(parse::<i64>("-1"), Ok(-1));
        assert!(parse::<u64>("1.0").is_err(), "a float is not an integer");
        assert_eq!(parse::<f64>("3"), Ok(3.0), "an integer is a number");
    }

    #[test]
    fn containers_render_empty_and_nested() {
        let empty: Vec<u8> = Vec::new();
        assert_eq!(json(&empty), "[]");
        assert_eq!(json(&BTreeMap::<String, u8>::new()), "{}");
        let nested = vec![vec![1u8, 2], vec![]];
        assert_eq!(json(&nested), "[[1,2],[]]");
        assert_eq!(parse::<Vec<Vec<u8>>>("[[1, 2], []]"), Ok(nested));
        let map: BTreeMap<String, u8> = parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap();
        assert_eq!(map["a"], 3, "a map keeps the last of a repeated key");
    }
}
