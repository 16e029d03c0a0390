//! Offline stand-in for the `serde_json` crate.
//!
//! The entry points over the shim `serde` traits: [`to_string`] and
//! [`to_string_pretty`] hand a value a `serde::Writer`, which appends JSON
//! straight to the one output `String`; [`from_str`] hands it a
//! `serde::Cursor` over the input text and then checks nothing but
//! whitespace follows. No tree is built in either direction. Floats are
//! rendered in their shortest round-trip form by the shim's own formatter,
//! byte for byte as Rust's `{:?}` renders them, so parse(render(x))
//! reproduces x bit-for-bit, which the results-archive tests rely on.

use serde::{Cursor, Deserialize, Serialize, Writer};
use std::fmt;

/// Serialization or parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    message: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error {
            message: e.to_string(),
        }
    }
}

/// Render a value as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut writer = Writer::compact();
    value.serialize(&mut writer);
    Ok(writer.finish())
}

/// Render a value as human-readable JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut writer = Writer::pretty();
    value.serialize(&mut writer);
    Ok(writer.finish())
}

/// Parse JSON text into a typed value.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut cursor = Cursor::new(text);
    let value = T::deserialize(&mut cursor)?;
    cursor.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// One document touching every rendering path: escapes in keys and
    /// values, non-ASCII, the widest int, float shapes `{:?}` treats
    /// differently, NaN, empty containers and three levels of nesting.
    fn rendering_corpus() -> Value {
        let mut inner = Value::object();
        inner.set("deep", Value::Array(vec![Value::Int(1), Value::Float(0.5)]));
        inner.set("none", Value::Null);
        let mut middle = Value::object();
        middle.set("inner", inner);
        middle.set("flag", Value::Bool(false));
        let mut doc = Value::object();
        doc.set(
            "q\"b\\n\nr\rt\tu\u{1f}",
            Value::Str("v\"\\\n\r\t\u{1f}".into()),
        );
        doc.set(
            "caf\u{e9} \u{1F600}",
            Value::Str("na\u{ef}ve \u{1F600}".into()),
        );
        doc.set("min", Value::Int(i128::MIN));
        doc.set(
            "floats",
            Value::Array(
                [0.0, -0.0, 3.0, 1e-7, 1e21, f64::MAX, f64::NAN]
                    .into_iter()
                    .map(Value::Float)
                    .collect(),
            ),
        );
        doc.set("empty_array", Value::Array(Vec::new()));
        doc.set("empty_object", Value::object());
        doc.set("middle", middle);
        doc.set("ok", Value::Bool(true));
        doc
    }

    #[test]
    fn rendering_is_pinned_byte_for_byte() {
        // Literals captured from the reference renderer; any change to
        // escaping, number formatting or indentation shows up here.
        let doc = rendering_corpus();
        assert_eq!(
            to_string(&doc).unwrap(),
            r#"{"q\"b\\n\nr\rt\tu\u001f":"v\"\\\n\r\t\u001f","café 😀":"naïve 😀","min":-170141183460469231731687303715884105728,"floats":[0.0,-0.0,3.0,1e-7,1e21,1.7976931348623157e308,null],"empty_array":[],"empty_object":{},"middle":{"inner":{"deep":[1,0.5],"none":null},"flag":false},"ok":true}"#
        );
        assert_eq!(
            to_string_pretty(&doc).unwrap(),
            r#"{
  "q\"b\\n\nr\rt\tu\u001f": "v\"\\\n\r\t\u001f",
  "café 😀": "naïve 😀",
  "min": -170141183460469231731687303715884105728,
  "floats": [
    0.0,
    -0.0,
    3.0,
    1e-7,
    1e21,
    1.7976931348623157e308,
    null
  ],
  "empty_array": [],
  "empty_object": {},
  "middle": {
    "inner": {
      "deep": [
        1,
        0.5
      ],
      "none": null
    },
    "flag": false
  },
  "ok": true
}"#
        );
    }

    #[test]
    fn deep_indentation_renders_every_space() {
        // Past the renderer's constant run of spaces (depth 32 at width 2).
        let mut doc = Value::Null;
        for _ in 0..40 {
            doc = Value::Array(vec![doc]);
        }
        let pretty = to_string_pretty(&doc).unwrap();
        let widest = pretty.lines().map(|l| l.len() - l.trim_start().len()).max();
        assert_eq!(widest, Some(80));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn floats_roundtrip_bit_for_bit() {
        for &x in &[
            0.0,
            1.0,
            -2.5,
            123.456,
            1e30,
            6.02e-23,
            f64::MAX,
            std::f64::consts::PI,
        ] {
            let json = to_string(&x).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "roundtrip of {x} via {json}");
        }
    }

    #[test]
    fn nested_value_roundtrips() {
        let mut inner = Value::object();
        inner.set("name", Value::Str("latency \"p99\"\n".into()));
        inner.set("ns", Value::Float(412.5));
        inner.set("ok", Value::Bool(true));
        let doc = Value::Array(vec![inner, Value::Null, Value::Int(-7)]);
        for json in [to_string(&doc).unwrap(), to_string_pretty(&doc).unwrap()] {
            let back: Value = from_str(&json).unwrap();
            assert_eq!(back, doc);
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"\\q\"",
            "[1] x",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        let s: String = from_str("\"\\u00e9\\ud83d\\ude00 caf\u{e9}\"").unwrap();
        assert_eq!(s, "\u{e9}\u{1F600} caf\u{e9}");
    }
}
