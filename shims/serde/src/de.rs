//! The JSON cursor every [`Deserialize`](crate::Deserialize) impl reads
//! from.

use crate::{DeError, Deserialize};
use std::borrow::Cow;

/// Deepest nesting a document may reach: a value inside more than this
/// many open arrays or objects is rejected, skipped or not, so hostile
/// input cannot exhaust the stack.
const MAX_DEPTH: usize = 128;

/// A borrowing cursor over one JSON document.
///
/// Impls pull values off it in document order: scalars directly, arrays
/// through [`Cursor::begin_array`] and [`Cursor::next_element`], objects
/// through [`Cursor::begin_object`] and [`Cursor::next_key`] (or
/// [`Cursor::next_field`] for a fixed key set). A string with no escape
/// comes back borrowed from the input; nothing else is built on the way.
/// Anything an impl does not want, it passes over with
/// [`Cursor::skip_value`], which still checks it is well-formed JSON. A
/// clone is a saved position: assigning it back rewinds the cursor.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the cursor.
    depth: usize,
    /// The innermost open container has yielded no key or element yet.
    fresh: bool,
}

/// A JSON number as written: integral, or with a fraction or exponent.
pub(crate) enum Number {
    Int(i128),
    /// An integral token too wide for `i128`, read as `f64` reads it.
    WideInt(f64),
    Float(f64),
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Cursor<'a> {
        Cursor {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// Checks that only whitespace follows the value just read.
    pub fn finish(mut self) -> Result<(), DeError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after JSON value"))
        }
    }

    /// Consumes a `null` if one comes next; true if it did.
    pub fn null(&mut self) -> Result<bool, DeError> {
        self.skip_ws();
        if self.peek()? == b'n' {
            self.keyword("null")?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, DeError> {
        self.skip_ws();
        match self.peek()? {
            b't' => self.keyword("true").map(|()| true),
            b'f' => self.keyword("false").map(|()| false),
            _ => Err(self.unexpected("bool")),
        }
    }

    /// Reads an integer into `T`, named `type_name` in a range error.
    pub fn int<T: TryFrom<i128>>(&mut self, type_name: &str) -> Result<T, DeError> {
        self.skip_ws();
        if !matches!(self.peek()?, b'-' | b'0'..=b'9') {
            return Err(self.unexpected("integer"));
        }
        let start = self.pos;
        let number = self.number()?;
        let out_of_range = || {
            let text = &self.text[start..self.pos];
            DeError::new(format!("integer {text} out of range for {type_name}"))
        };
        match number {
            Number::Int(i) => T::try_from(i).map_err(|_| out_of_range()),
            Number::WideInt(_) => Err(out_of_range()),
            Number::Float(_) => Err(DeError::new("expected integer, found float")),
        }
    }

    /// Reads a number as `f64`. A `null` reads as NaN: non-finite floats
    /// are written as `null`.
    pub fn float(&mut self) -> Result<f64, DeError> {
        self.skip_ws();
        match self.peek()? {
            b'n' => self.keyword("null").map(|()| f64::NAN),
            first @ (b'-' | b'0'..=b'9') => Ok(match self.number()? {
                // `-0` is an integer token, but as a float it keeps its sign.
                Number::Int(0) if first == b'-' => -0.0,
                Number::Int(i) => i as f64,
                Number::WideInt(f) | Number::Float(f) => f,
            }),
            _ => Err(self.unexpected("number")),
        }
    }

    /// Reads a string: borrowed from the input when it has no escapes.
    pub fn str(&mut self) -> Result<Cow<'a, str>, DeError> {
        self.skip_ws();
        if self.peek()? != b'"' {
            return Err(self.unexpected("string"));
        }
        self.string()
    }

    /// Enters an object; read its keys with [`Cursor::next_key`] or
    /// [`Cursor::next_field`]. `type_name` names what was expected in the
    /// error for anything else.
    pub fn begin_object(&mut self, type_name: &str) -> Result<(), DeError> {
        self.skip_ws();
        if self.peek()? != b'{' {
            let found = self.kind()?;
            return Err(DeError::new(format!(
                "expected JSON object for `{type_name}`, found {found}"
            )));
        }
        self.open();
        Ok(())
    }

    /// The next key of the open object, with the cursor left on its
    /// value (which the caller must read or skip); `None` once the object
    /// closes.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, DeError> {
        if !self.next_item(b'}')? {
            return Ok(None);
        }
        let key = self.key()?;
        self.colon()?;
        Ok(Some(key))
    }

    /// [`Cursor::next_key`] for an object with the known keys `keys`: the
    /// index of the next key in `keys`, or `keys.len()` for an unknown
    /// one. `expected` is the index the caller expects next. When that key
    /// comes next, spelled without escapes, it is matched where it lies
    /// in the input; any other key is read as [`Cursor::next_key`] reads
    /// it and looked up in `keys`.
    pub fn next_field(
        &mut self,
        keys: &[&str],
        expected: &mut usize,
    ) -> Result<Option<usize>, DeError> {
        if !self.next_item(b'}')? {
            return Ok(None);
        }
        let index = match keys.get(*expected) {
            Some(key) if self.plain_key(key) => *expected,
            _ => {
                let key = self.key()?;
                keys.iter().position(|k| *k == key).unwrap_or(keys.len())
            }
        };
        self.colon()?;
        *expected = index + 1;
        Ok(Some(index))
    }

    /// Enters an array; step through its items with
    /// [`Cursor::next_element`].
    pub fn begin_array(&mut self) -> Result<(), DeError> {
        self.skip_ws();
        if self.peek()? != b'[' {
            return Err(self.unexpected("array"));
        }
        self.open();
        Ok(())
    }

    /// True with the cursor on the open array's next item (which the
    /// caller must read or skip); false once the array closes.
    pub fn next_element(&mut self) -> Result<bool, DeError> {
        self.next_item(b']')
    }

    /// Passes over one value of any shape, checking it is well formed.
    pub fn skip_value(&mut self) -> Result<(), DeError> {
        self.skip_ws();
        match self.peek()? {
            b'n' => self.keyword("null"),
            b't' => self.keyword("true"),
            b'f' => self.keyword("false"),
            b'"' => self.string().map(drop),
            b'-' | b'0'..=b'9' => self.number().map(drop),
            b'[' => {
                self.open();
                while self.next_element()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            b'{' => {
                self.open();
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            other => Err(self.err(format!("unexpected byte {:?}", other as char))),
        }
    }

    /// Enters an object whose variant is named by the string under `key`,
    /// and returns that name. When `key` comes first, as every tagged
    /// value is written, the cursor is left on the key after it. When it
    /// comes later, the object is skimmed for it and the cursor rewound
    /// to the object's first key, so the caller reads every other key
    /// (and passes over the tag again) either way.
    pub fn tag(&mut self, key: &str, type_name: &str) -> Result<Cow<'a, str>, DeError> {
        self.begin_object(type_name)?;
        let start = self.clone();
        let mut first = true;
        while let Some(k) = self.next_key()? {
            if k == key {
                let tag = self.str().map_err(|e| e.in_field(key))?;
                if !first {
                    *self = start;
                }
                return Ok(tag);
            }
            first = false;
            self.skip_value()?;
        }
        // A missing tag reads as `null` does, which no string accepts.
        String::missing()
            .map(Cow::Owned)
            .map_err(|e| e.in_field(key))
    }

    // -- internals ---------------------------------------------------------

    /// What the next value is, for an error naming what was found.
    pub(crate) fn kind(&self) -> Result<&'static str, DeError> {
        Ok(match self.peek()? {
            b'n' => "null",
            b't' | b'f' => "bool",
            b'"' => "string",
            b'[' => "array",
            b'{' => "object",
            b'-' | b'0'..=b'9' => "number",
            other => return Err(self.err(format!("unexpected byte {:?}", other as char))),
        })
    }

    /// The error for a value of the wrong shape where `expected` belongs.
    fn unexpected(&self, expected: &str) -> DeError {
        match self.kind() {
            Ok(found) => DeError::new(format!("expected {expected}, found {found}")),
            Err(syntax) => syntax,
        }
    }

    /// Consumes an opening bracket.
    fn open(&mut self) {
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
    }

    /// Steps to the open container's next item: true on it, false past
    /// the `close` bracket that ends the container.
    fn next_item(&mut self, close: u8) -> Result<bool, DeError> {
        self.skip_ws();
        let byte = self.peek()?;
        if byte == close {
            self.pos += 1;
            self.depth -= 1;
            self.fresh = false;
            return Ok(false);
        }
        if !std::mem::take(&mut self.fresh) {
            if byte != b',' {
                let close = close as char;
                return Err(self.err(format!(
                    "expected `,` or `{close}`, found {:?}",
                    byte as char
                )));
            }
            self.pos += 1;
            self.skip_ws();
        }
        if self.depth > MAX_DEPTH {
            return Err(self.err("JSON nesting too deep"));
        }
        Ok(true)
    }

    /// Reads an object key: a string, or the error for anything else.
    fn key(&mut self) -> Result<Cow<'a, str>, DeError> {
        if self.peek()? != b'"' {
            return Err(self.err("expected string key"));
        }
        self.string()
    }

    /// Consumes the `:` after a key.
    fn colon(&mut self) -> Result<(), DeError> {
        if self.text.as_bytes().get(self.pos) == Some(&b':') {
            self.pos += 1;
            return Ok(());
        }
        self.skip_ws();
        if self.next()? != b':' {
            return Err(self.err("expected `:` after object key"));
        }
        Ok(())
    }

    /// Consumes `"key"` if it comes next, written as is. A key holding
    /// `"` or `\` never matches: JSON cannot spell it that way.
    fn plain_key(&mut self, key: &str) -> bool {
        let n = key.len();
        let Some(quoted) = self.text.as_bytes().get(self.pos..self.pos + n + 2) else {
            return false;
        };
        // With no `"` or `\` before the closing quote, the input's bytes
        // are the key itself.
        let raw = &quoted[1..=n];
        let hit = quoted[0] == b'"'
            && quoted[n + 1] == b'"'
            && crate::scan::quote_end(raw) == n
            && raw == key.as_bytes();
        if hit {
            self.pos += n + 2;
        }
        hit
    }

    /// Reads the string starting at the cursor's `"`.
    fn string(&mut self) -> Result<Cow<'a, str>, DeError> {
        let text = self.text;
        let bytes = text.as_bytes();
        let start = self.pos + 1;
        let mut run_start = start;
        // Allocates only at the first escape.
        let mut out = String::new();
        loop {
            // Every byte that ends a run is ASCII, so each run slices
            // `text` on char boundaries and is copied whole.
            let end = run_start + crate::scan::quote_end(&bytes[run_start..]);
            let Some(&byte) = bytes.get(end) else {
                self.pos = end;
                return Err(self.err("unexpected end of input"));
            };
            let run = &text[run_start..end];
            if byte == b'"' {
                self.pos = end + 1;
                if run_start == start {
                    return Ok(Cow::Borrowed(run));
                }
                out.push_str(run);
                return Ok(Cow::Owned(out));
            }
            out.push_str(run);
            self.pos = end + 1;
            self.escape(&mut out)?;
            run_start = self.pos;
        }
    }

    /// Decodes the escape after a `\` onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), DeError> {
        match self.next()? {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if self.next()? != b'\\' || self.next()? != b'u' {
                        return Err(self.err("unpaired surrogate escape"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("unpaired surrogate escape"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))?);
            }
            other => return Err(self.err(format!("invalid escape \\{}", other as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, DeError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = (self.next()? as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    /// Reads the number at the cursor: digits, then an optional fraction
    /// and exponent, parsed as a whole.
    pub(crate) fn number(&mut self) -> Result<Number, DeError> {
        let bytes = self.text.as_bytes();
        let digits = |mut pos: usize| {
            while matches!(bytes.get(pos), Some(b'0'..=b'9')) {
                pos += 1;
            }
            pos
        };
        let start = self.pos;
        let mut pos = start + usize::from(bytes[start] == b'-');
        pos = digits(pos);
        let mut float = false;
        if bytes.get(pos) == Some(&b'.') {
            float = true;
            pos = digits(pos + 1);
        }
        if matches!(bytes.get(pos), Some(b'e' | b'E')) {
            float = true;
            pos += 1;
            if matches!(bytes.get(pos), Some(b'+' | b'-')) {
                pos += 1;
            }
            pos = digits(pos);
        }
        self.pos = pos;
        let text = &self.text[start..pos];
        let (negative, digits) = match text.strip_prefix('-') {
            Some(digits) => (true, digits),
            None => (false, text),
        };
        if !float && (1..=18).contains(&digits.len()) {
            // Up to 18 digits cannot overflow a `u64`: skip the general
            // `i128` parse.
            let n = digits
                .bytes()
                .fold(0u64, |n, b| n * 10 + u64::from(b - b'0'));
            let n = i128::from(n);
            return Ok(Number::Int(if negative { -n } else { n }));
        }
        let parsed = if float {
            text.parse().map(Number::Float).ok()
        } else {
            (text.parse().map(Number::Int))
                .or_else(|_| text.parse().map(Number::WideInt))
                .ok()
        };
        parsed.ok_or_else(|| self.err(format!("invalid number `{text}`")))
    }

    fn keyword(&mut self, word: &str) -> Result<(), DeError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    pub(crate) fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    pub(crate) fn peek(&self) -> Result<u8, DeError> {
        self.text
            .as_bytes()
            .get(self.pos)
            .copied()
            .ok_or_else(|| self.err("unexpected end of input"))
    }

    fn next(&mut self) -> Result<u8, DeError> {
        let byte = self.peek()?;
        self.pos += 1;
        Ok(byte)
    }

    pub(crate) fn err(&self, message: impl Into<String>) -> DeError {
        DeError::new(format!("{} at byte {}", message.into(), self.pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use proptest::prelude::*;

    #[test]
    fn signed_zeros_read_as_the_standard_parse_reads_them() {
        for text in ["-0", "-0.0", "-0e0", "0"] {
            let read = Cursor::new(text).float().unwrap();
            let want: f64 = text.parse().unwrap();
            assert_eq!(read.to_bits(), want.to_bits(), "{text}");
        }
        assert_eq!(Cursor::new("-0").int::<i64>("i64").unwrap(), 0);
    }

    #[test]
    fn integers_wider_than_i128_read_as_the_standard_parse_reads_them() {
        let forty: String = "1234567890".repeat(4);
        let wide = ["9".repeat(39), forty, format!("1{}", "0".repeat(309))];
        for digits in wide {
            for text in [digits.clone(), format!("-{digits}")] {
                let read = Cursor::new(&text).float().unwrap();
                let want: f64 = text.parse().unwrap();
                assert_eq!(read.to_bits(), want.to_bits(), "{text}");
                let err = Cursor::new(&text).int::<i128>("i128").unwrap_err();
                assert!(err.to_string().contains("out of range"), "{text}: {err}");
            }
        }
        let max = i128::MAX.to_string();
        assert_eq!(Cursor::new(&max).int::<i128>("i128").unwrap(), i128::MAX);
    }

    /// One object's keys as `next_field` finds them: each key's index in
    /// `keys` and its value, or the error.
    fn by_field(text: &str, keys: &[&str]) -> Result<Vec<(usize, Value)>, DeError> {
        let mut c = Cursor::new(text);
        c.begin_object("T")?;
        let (mut expected, mut out) = (0, Vec::new());
        while let Some(index) = c.next_field(keys, &mut expected)? {
            out.push((index, Value::deserialize(&mut c)?));
        }
        c.finish()?;
        Ok(out)
    }

    /// The same through the general path: every key decoded, then looked
    /// up in `keys`.
    fn by_key(text: &str, keys: &[&str]) -> Result<Vec<(usize, Value)>, DeError> {
        let mut c = Cursor::new(text);
        c.begin_object("T")?;
        let mut out = Vec::new();
        while let Some(key) = c.next_key()? {
            let index = keys.iter().position(|k| *k == key).unwrap_or(keys.len());
            out.push((index, Value::deserialize(&mut c)?));
        }
        c.finish()?;
        Ok(out)
    }

    fn same_both_ways(text: &str, keys: &[&str]) -> Result<Vec<(usize, Value)>, DeError> {
        let fast = by_field(text, keys);
        assert_eq!(fast, by_key(text, keys), "{text}");
        fast
    }

    #[test]
    fn the_key_fast_path_reads_as_the_general_path() {
        let keys = ["value", "values", "unit"];
        let indices = |text: &str| -> Vec<usize> {
            same_both_ways(text, &keys)
                .unwrap()
                .into_iter()
                .map(|(i, _)| i)
                .collect()
        };
        assert_eq!(indices(r#"{"value":1,"values":2,"unit":3}"#), [0, 1, 2]);
        assert_eq!(
            indices("{ \"value\" :1 ,\n\t\"values\"\r\n: 2 , \"unit\":\"us\" }"),
            [0, 1, 2],
            "whitespace"
        );
        assert_eq!(indices(r#"{"unit":3,"value":1}"#), [2, 0], "out of order");
        assert_eq!(indices(r#"{"value":1,"value":2}"#), [0, 0], "duplicate");
        // A key that is a prefix of the next one, and one the expected
        // key is a prefix of.
        assert_eq!(indices(r#"{"values":1,"value":2}"#), [1, 0]);
        assert_eq!(indices(r#"{"val":1,"value_x":2,"":3}"#), [3, 3, 3]);
        assert_eq!(indices(r#"{"\u0076alue":1,"values":2}"#), [0, 1], "escaped");
        assert_eq!(indices("{}"), Vec::<usize>::new());
        // A key JSON spells with an escape never matches in place: the
        // input's `"a\":1}` is an unterminated string, not the key `a\`.
        for text in [r#"{"a\":1}"#, r#"{"a\"b":1}"#] {
            let _ = same_both_ways(text, &["a\\", "a\"b"]);
        }
        assert_eq!(same_both_ways(r#"{"a\"b":1}"#, &["a\"b"]).unwrap()[0].0, 0);
        for bad in [
            r#"{"value" 1}"#,
            r#"{"value":1,}"#,
            r#"{"value":1 "unit":2}"#,
            r#"{value:1}"#,
            r#"{"value"#,
            r#"{"value""#,
            r#"{"#,
        ] {
            assert!(same_both_ways(bad, &keys).is_err(), "{bad}");
        }
    }

    /// `{"v":{"v":…{"v":0}…}}`, `depth` objects deep, read through
    /// `next_field` all the way down.
    fn nested_by_field(c: &mut Cursor<'_>) -> Result<u32, DeError> {
        c.begin_object("Nest")?;
        let mut expected = 0;
        let mut depth = 1;
        while c.next_field(&["v"], &mut expected)?.is_some() {
            c.skip_ws();
            if c.peek()? == b'{' {
                depth += nested_by_field(c)?;
            } else {
                c.int::<u32>("u32")?;
            }
        }
        Ok(depth)
    }

    #[test]
    fn nesting_limit_holds_on_both_paths() {
        for (depth, ok) in [(128, true), (129, false)] {
            let text = format!("{}0{}", r#"{"v":"#.repeat(depth), "}".repeat(depth));
            let fast = nested_by_field(&mut Cursor::new(&text));
            let general = crate::Value::deserialize(&mut Cursor::new(&text));
            assert_eq!(fast.is_ok(), ok, "{depth}: {fast:?}");
            assert_eq!(general.is_ok(), ok, "{depth}");
            if !ok {
                assert_eq!(fast.unwrap_err(), general.unwrap_err());
            }
        }
    }

    #[test]
    fn surrogate_escapes_pair_or_fail() {
        let read = |text: &str| Cursor::new(text).str().map(Cow::into_owned);
        assert_eq!(read(r#""\uD83D\uDE00""#).unwrap(), "\u{1F600}");
        assert_eq!(read(r#""\uD801\uDC00""#).unwrap(), "\u{10400}");
        for bad in [
            r#""\uD800""#,
            r#""\uD800A""#,
            r#""\uD800\uD800""#,
            r#""\uD800x""#,
        ] {
            let err = read(bad).unwrap_err().to_string();
            assert!(err.starts_with("unpaired surrogate escape"), "{bad}: {err}");
        }
        assert!(read(r#""\uDC00""#).is_err(), "a lone low half");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]
        #[test]
        fn random_objects_read_the_same_both_ways(
            picks in collection::vec((0usize..7, 0usize..4, 0u32..100), 0..8),
        ) {
            let spellings = ["a", "ab", "b", r"\u0061", "abc", "", r#"a\"b"#];
            let spaces = ["", " ", "\n\t", " \r\n "];
            let mut text = String::from("{");
            for (n, &(key, space, value)) in picks.iter().enumerate() {
                if n > 0 {
                    text.push(',');
                }
                let ws = spaces[space];
                text.push_str(&format!("{ws}\"{}\"{ws}:{ws}{value}{ws}", spellings[key]));
            }
            text.push('}');
            let keys = ["a", "ab", "b", "abc", "a\"b"];
            prop_assert_eq!(by_field(&text, &keys), by_key(&text, &keys));
        }
    }
}
