//! The JSON writer every [`Serialize`](crate::Serialize) impl writes into.

use std::fmt::Write as _;

/// Writes one JSON document into an owned `String`, compact or pretty.
///
/// The writer owns the separators and the indentation: an impl calls
/// [`Writer::key`] before each field of an object and
/// [`Writer::element`] before each item of an array, and the writer
/// decides where commas, newlines and spaces go. A container that gets
/// no key or element renders as `{}` or `[]`. Nothing is allocated per
/// value: numbers are formatted into a stack buffer, each run of
/// characters that needs no escape is found eight bytes at a time and
/// copied with one `push_str`, and indentation is a slice of a constant
/// run of spaces.
#[derive(Debug)]
pub struct Writer {
    out: String,
    /// Spaces per level when pretty; `None` when compact.
    indent: Option<usize>,
    /// Containers open around the next value.
    depth: usize,
    /// The innermost open container has no key or element yet.
    fresh: bool,
    /// The next object opened continues the one being written.
    merge_next: bool,
    /// Depth of a merged object, whose `end_object` writes nothing.
    merged: Option<usize>,
}

impl Writer {
    fn new(indent: Option<usize>) -> Writer {
        Writer {
            out: String::new(),
            indent,
            depth: 0,
            fresh: false,
            merge_next: false,
            merged: None,
        }
    }

    /// A writer of compact JSON: no whitespace at all.
    #[must_use]
    pub fn compact() -> Writer {
        Writer::new(None)
    }

    /// A writer of human-readable JSON: two-space indent, one key or
    /// element per line, a space after each `:`.
    #[must_use]
    pub fn pretty() -> Writer {
        Writer::new(Some(2))
    }

    /// The document written so far.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, value: bool) {
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Writes an integer.
    pub fn int(&mut self, value: impl Into<i128>) {
        let value = value.into();
        let Ok(mut n) = u64::try_from(value.unsigned_abs()) else {
            // Writing into a `String` cannot fail.
            let _ = write!(self.out, "{value}");
            return;
        };
        // Digits from the right into a buffer wide enough for `u64::MAX`.
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if value < 0 {
            self.out.push('-');
        }
        self.out
            .push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
    }

    /// Writes a float in its shortest round-trip form, byte for byte as
    /// Rust's `{:?}` renders it (so an integral value keeps its `.0`), but
    /// without going through `fmt`; JSON has no NaN or infinity, so a
    /// non-finite value writes `null`.
    pub fn float(&mut self, value: f64) {
        if value.is_finite() {
            crate::float::write_f64(&mut self.out, value);
        } else {
            self.null();
        }
    }

    /// Writes a string, escaping `"`, `\` and control characters.
    pub fn str(&mut self, s: &str) {
        let out = &mut self.out;
        out.push('"');
        // Every byte that needs an escape is ASCII, hence a whole
        // character: the runs between them slice `s` on char boundaries.
        let bytes = s.as_bytes();
        let mut run_start = 0;
        loop {
            let i = run_start + crate::scan::escape_end(&bytes[run_start..]);
            out.push_str(&s[run_start..i]);
            let Some(&byte) = bytes.get(i) else {
                break;
            };
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
        out.push('"');
    }

    /// Opens an object; close it with [`Writer::end_object`].
    pub fn begin_object(&mut self) {
        if std::mem::take(&mut self.merge_next) {
            self.merged = Some(self.depth);
            return;
        }
        self.open('{');
    }

    /// Starts the next field of the open object: the separator, then
    /// `key` and its `:`. The field's value is written next.
    pub fn key(&mut self, key: &str) {
        self.separate();
        self.str(key);
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
    }

    /// [`Writer::key`] for a key that needs no escape, given already
    /// quoted (`"\"name\""`): how the derives write every field name.
    pub fn quoted_key(&mut self, quoted: &str) {
        debug_assert!(quoted.len() >= 2 && quoted.starts_with('"') && quoted.ends_with('"'));
        self.separate();
        self.out.push_str(quoted);
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
    }

    /// Closes the innermost open object.
    pub fn end_object(&mut self) {
        if self.merged == Some(self.depth) {
            self.merged = None;
            return;
        }
        self.close('}');
    }

    /// Opens an array; close it with [`Writer::end_array`].
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Starts the next item of the open array; the item is written next.
    pub fn element(&mut self) {
        self.separate();
    }

    /// Closes the innermost open array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Writes `value`, which must serialize as an object, as further
    /// fields of the object being written: its braces are dropped and its
    /// keys follow the ones already written.
    pub fn merge_object<T: crate::Serialize + ?Sized>(&mut self, value: &T) {
        self.merge_next = true;
        value.serialize(self);
        debug_assert!(!self.merge_next, "merge_object on a non-object");
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.fresh = true;
    }

    fn separate(&mut self) {
        if !std::mem::take(&mut self.fresh) {
            self.out.push(',');
        }
        self.newline_indent(self.depth);
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        // A container with no items closes on the same line: `{}`, `[]`.
        if !std::mem::take(&mut self.fresh) {
            self.newline_indent(self.depth);
        }
        self.out.push(bracket);
    }

    fn newline_indent(&mut self, depth: usize) {
        const SPACES: &str = "                                                                ";
        if let Some(width) = self.indent {
            self.out.push('\n');
            let mut n = depth * width;
            while n > 0 {
                let run = n.min(SPACES.len());
                self.out.push_str(&SPACES[..run]);
                n -= run;
            }
        }
    }
}
