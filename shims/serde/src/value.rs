//! [`Value`]: an owned JSON document, for tests and hand edits.

use crate::de::Number;
use crate::{Cursor, DeError, Deserialize, Serialize, Writer};

/// A JSON document held in memory.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a map), and a
/// parsed object keeps a repeated key as often as it appears, so a
/// document reads and renders back to the same bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All integers ride in `i128`, wide enough for any primitive int.
    Int(i128),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An empty object, ready for [`Value::set`] calls.
    #[must_use]
    pub fn object() -> Self {
        Value::Object(Vec::new())
    }

    /// Insert or replace a key on an object; no-op on other variants.
    pub fn set(&mut self, key: &str, value: Value) {
        if let Value::Object(pairs) = self {
            if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                pairs.push((key.to_owned(), value));
            }
        }
    }

    /// Look up a key on an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl Serialize for Value {
    fn serialize(&self, writer: &mut Writer) {
        match self {
            Value::Null => writer.null(),
            Value::Bool(b) => writer.bool(*b),
            Value::Int(i) => writer.int(*i),
            Value::Float(f) => writer.float(*f),
            Value::Str(s) => writer.str(s),
            Value::Array(items) => items.serialize(writer),
            Value::Object(pairs) => {
                writer.begin_object();
                for (key, value) in pairs {
                    writer.key(key);
                    value.serialize(writer);
                }
                writer.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(cursor: &mut Cursor<'_>) -> Result<Self, DeError> {
        cursor.skip_ws();
        Ok(match cursor.peek()? {
            b'n' => {
                cursor.null()?;
                Value::Null
            }
            b't' | b'f' => Value::Bool(cursor.bool()?),
            b'"' => Value::Str(cursor.str()?.into_owned()),
            b'-' | b'0'..=b'9' => match cursor.number()? {
                Number::Int(i) => Value::Int(i),
                Number::Float(f) => Value::Float(f),
            },
            b'[' => Value::Array(Vec::deserialize(cursor)?),
            b'{' => {
                cursor.begin_object("Value")?;
                let mut pairs = Vec::new();
                while let Some(key) = cursor.next_key()? {
                    pairs.push((key.into_owned(), Value::deserialize(cursor)?));
                }
                Value::Object(pairs)
            }
            other => return Err(cursor.err(format!("unexpected byte {:?}", other as char))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_set_get_and_order() {
        let mut obj = Value::object();
        obj.set("b", Value::Int(2));
        obj.set("a", Value::Int(1));
        obj.set("b", Value::Int(3));
        assert_eq!(obj.get("b"), Some(&Value::Int(3)));
        // Insertion order preserved, replacement in place.
        if let Value::Object(pairs) = &obj {
            assert_eq!(pairs[0].0, "b");
            assert_eq!(pairs[1].0, "a");
        } else {
            panic!("expected object");
        }
    }
}
