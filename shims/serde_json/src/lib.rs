//! Offline stand-in for the `serde_json` crate.
//!
//! Serialization lowers through `serde::Serialize::to_value` and renders
//! the resulting tree; deserialization parses text into a `serde::Value`
//! and rebuilds via `serde::Deserialize::from_value`. Floats are rendered
//! with Rust's shortest-roundtrip `{:?}` formatting so parse(render(x))
//! reproduces x bit-for-bit, which the results-archive tests rely on.
//!
//! The renderer writes straight into one output `String` and allocates
//! nothing per value: numbers go through `write!`, each run of characters
//! that needs no escape is one `push_str`, and indentation is a slice of a
//! constant run of spaces.

use serde::{Deserialize, Serialize, Value};
use std::fmt::{self, Write as _};

/// Serialization or parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// Render a value as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Render a value as human-readable JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), Some(2), 0, &mut out);
    Ok(out)
}

/// Parse JSON text into a typed value.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = Parser::new(text).parse_document()?;
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------------
// rendering
// ---------------------------------------------------------------------------

fn render(value: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Writing into a `String` cannot fail.
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` is the shortest representation that parses back to
                // the same f64; integral values keep a `.0` so they stay
                // floats through a roundtrip.
                let _ = write!(out, "{f:?}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => render_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                render(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                render_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    const SPACES: &str = "                                                                ";
    if let Some(width) = indent {
        out.push('\n');
        let mut n = depth * width;
        while n > 0 {
            let run = n.min(SPACES.len());
            out.push_str(&SPACES[..run]);
            n -= run;
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    // Every byte that needs an escape is ASCII, hence a whole character:
    // the runs between them slice `s` on character boundaries.
    let mut run_start = 0;
    for (i, byte) in s.bytes().enumerate() {
        if !matches!(byte, b'"' | b'\\' | 0x00..=0x1f) {
            continue;
        }
        out.push_str(&s[run_start..i]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

// ---------------------------------------------------------------------------
// parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse_document(&mut self) -> Result<Value, Error> {
        let value = self.parse_value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > 128 {
            return Err(self.err("JSON nesting too deep"));
        }
        self.skip_ws();
        match self.peek()? {
            b'n' => self.expect_keyword("null", Value::Null),
            b't' => self.expect_keyword("true", Value::Bool(true)),
            b'f' => self.expect_keyword("false", Value::Bool(false)),
            b'"' => self.parse_string().map(Value::Str),
            b'[' => self.parse_array(depth),
            b'{' => self.parse_object(depth),
            b'-' | b'0'..=b'9' => self.parse_number(),
            other => Err(self.err(format!("unexpected byte {:?}", other as char))),
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, Error> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.next()? {
                b',' => {}
                b']' => return Ok(Value::Array(items)),
                other => {
                    return Err(self.err(format!("expected `,` or `]`, found {:?}", other as char)))
                }
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, Error> {
        self.pos += 1; // consume '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek()? != b'"' {
                return Err(self.err("expected string key"));
            }
            let key = self.parse_string()?;
            self.skip_ws();
            if self.next()? != b':' {
                return Err(self.err("expected `:` after object key"));
            }
            let value = self.parse_value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.next()? {
                b',' => {}
                b'}' => return Ok(Value::Object(pairs)),
                other => {
                    return Err(self.err(format!("expected `,` or `}}`, found {:?}", other as char)))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.pos += 1; // consume opening quote
        let mut out = String::new();
        loop {
            match self.next()? {
                b'"' => return Ok(out),
                b'\\' => match self.next()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hi = self.parse_hex4()?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if self.next()? != b'\\' || self.next()? != b'u' {
                                return Err(self.err("unpaired surrogate escape"));
                            }
                            let lo = self.parse_hex4()?;
                            0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00))
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))?,
                        );
                    }
                    other => {
                        return Err(self.err(format!("invalid escape \\{}", other as char)));
                    }
                },
                byte => {
                    // Re-assemble multi-byte UTF-8 from the source slice.
                    let start = self.pos - 1;
                    let width = utf8_width(byte);
                    self.pos = start + width;
                    if self.pos > self.bytes.len() {
                        return Err(self.err("truncated UTF-8 sequence"));
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = (self.next()? as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek()? == b'-' {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.bytes.get(self.pos) == Some(&b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err(format!("invalid number `{text}`")))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| self.err(format!("invalid number `{text}`")))
        }
    }

    fn expect_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Result<u8, Error> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| self.err("unexpected end of input"))
    }

    fn next(&mut self) -> Result<u8, Error> {
        let byte = self.peek()?;
        self.pos += 1;
        Ok(byte)
    }

    fn err(&self, message: impl Into<String>) -> Error {
        Error::new(format!("{} at byte {}", message.into(), self.pos))
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
