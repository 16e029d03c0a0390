//! The derive attributes on small local types: `default` (missing key or
//! `null`), `skip_serializing_if`, and the `tag` / `rename_all` enums;
//! and how the derived readers take JSON text: keys in any order, unknown
//! and repeated keys, missing keys, malformed and over-deep input.

use serde::{Deserialize, Serialize};

fn legacy() -> u32 {
    1
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Report {
    #[serde(default = "legacy")]
    version: u32,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    items: Vec<u32>,
    #[serde(skip_serializing_if = "Option::is_none")]
    extra: Option<bool>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum Event {
    Started,
    SpanEnd {
        name: String,
        #[serde(default)]
        contended: bool,
    },
}

/// Every field kind a missing key can land on.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Row {
    name: String,
    value: f64,
    note: Option<String>,
    nested: Option<Report>,
}

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("render")
}

fn parse<T: Deserialize>(text: &str) -> Result<T, serde_json::Error> {
    serde_json::from_str(text)
}

fn row() -> Row {
    Row {
        name: "lat_syscall".into(),
        value: 4.5,
        note: Some("fast".into()),
        nested: None,
    }
}

#[test]
fn defaults_fill_missing_and_null_keys_and_skipped_keys_stay_off_the_wire() {
    let bare = Report {
        version: 1,
        items: vec![],
        extra: None,
    };
    assert_eq!(parse::<Report>("{}"), Ok(bare));
    let nulls = r#"{"version": null, "items": null}"#;
    assert_eq!(parse::<Report>(nulls).map(|r| r.version), Ok(1));
    assert_eq!(json(&parse::<Report>("{}").unwrap()), r#"{"version":1}"#);
    let full = Report {
        version: 2,
        items: vec![3],
        extra: Some(true),
    };
    assert_eq!(parse::<Report>(&json(&full)), Ok(full));
}

#[test]
fn tagged_enums_write_the_tag_first_and_ignore_foreign_keys() {
    let end = Event::SpanEnd {
        name: "suite".into(),
        contended: false,
    };
    let wire = r#"{"kind":"span_end","name":"suite","contended":false}"#;
    assert_eq!(json(&end), wire);
    let old = r#"{"seq":9,"kind":"span_end","name":"suite"}"#;
    assert_eq!(parse::<Event>(old), Ok(end));
    let started = r#"{"kind":"started"}"#;
    assert_eq!(json(&Event::Started), started);
    assert_eq!(parse::<Event>(started), Ok(Event::Started));
    assert!(parse::<Event>(r#"{"kind":"nope"}"#).is_err());
    assert!(parse::<Event>("{}").is_err(), "the tag is required");
}

#[test]
fn keys_read_in_any_order() {
    let text = r#"{"nested": {"extra": false, "version": 3}, "note": "fast",
                   "value": 4.5, "name": "lat_syscall"}"#;
    let back: Row = parse(text).unwrap();
    assert_eq!(back.name, "lat_syscall");
    assert_eq!(back.value, 4.5);
    assert_eq!(back.note.as_deref(), Some("fast"));
    let nested = back.nested.expect("nested object read");
    assert_eq!((nested.version, nested.extra), (3, Some(false)));
    // Rendering restores declaration order.
    assert!(json(&nested).starts_with(r#"{"version":3"#));
}

#[test]
fn unknown_scalar_array_and_object_keys_are_skipped() {
    let text = r#"{"name": "lat_syscall", "s": "x\"yé", "n": -1.5e3, "b": true,
                   "z": null, "value": 4.5, "a": [1, [2, {"k": []}], "q"],
                   "note": "fast", "o": {"deep": {"er": [null]}}, "nested": null}"#;
    assert_eq!(parse::<Row>(text), Ok(row()));
    // A skipped value must still be well-formed JSON.
    let torn = r#"{"name": "lat_syscall", "a": [1, 2,], "value": 4.5}"#;
    assert!(parse::<Row>(torn).is_err());
}

#[test]
fn the_first_of_a_repeated_key_wins() {
    let text = r#"{"name": "first", "value": 1.0, "name": "second", "value": "not a number",
                   "note": null, "note": "late"}"#;
    let back: Row = parse(text).unwrap();
    assert_eq!(back.name, "first");
    assert_eq!(back.value, 1.0);
    assert_eq!(
        back.note, None,
        "an explicit null still wins over a later value"
    );
    let tagged = r#"{"kind":"span_end","name":"a","kind":"started","name":"b"}"#;
    assert_eq!(
        parse::<Event>(tagged),
        Ok(Event::SpanEnd {
            name: "a".into(),
            contended: false
        })
    );
}

#[test]
fn a_missing_key_reads_as_null() {
    // Option reads None, f64 reads NaN, either way.
    for text in [
        r#"{"name": "x", "value": null, "note": null}"#,
        r#"{"name": "x"}"#,
    ] {
        let back: Row = parse(text).unwrap();
        assert!(back.value.is_nan(), "{text}");
        assert_eq!((back.note, back.nested), (None, None), "{text}");
    }
    // A String has no null: the error names the field, missing or null.
    for text in [r#"{"value": 1.0}"#, r#"{"name": null, "value": 1.0}"#] {
        let err = parse::<Row>(text).unwrap_err().to_string();
        assert_eq!(err, "name: expected string, found null", "{text}");
    }
}

#[test]
fn a_tag_after_other_keys_is_found() {
    let text = r#"{"contended": true, "name": "suite", "kind": "span_end", "extra": [1]}"#;
    assert_eq!(
        parse::<Event>(text),
        Ok(Event::SpanEnd {
            name: "suite".into(),
            contended: true
        })
    );
    let started = r#"{"seq": 1, "name": "ignored", "kind": "started"}"#;
    assert_eq!(parse::<Event>(started), Ok(Event::Started));
    // Nested inside a struct, the cursor ends past the enum's object.
    #[derive(Debug, PartialEq, Deserialize)]
    struct Holder {
        event: Event,
        after: u32,
    }
    let holder = r#"{"event": {"name": "n", "kind": "span_end"}, "after": 7}"#;
    assert_eq!(parse::<Holder>(holder).map(|h| h.after), Ok(7));
}

#[test]
fn truncated_input_and_invalid_utf8_are_errors() {
    let full = json(&row());
    for cut in 0..full.len() {
        assert!(
            parse::<Row>(&full[..cut]).is_err(),
            "accepted {:?}",
            &full[..cut]
        );
    }
    assert!(
        parse::<Row>(&format!("{full} {{")).is_err(),
        "trailing text"
    );
    // Text is `&str`, so invalid UTF-8 never reaches the cursor: a wire
    // body holding it fails its one UTF-8 check.
    use lmbench::core::service::proto;
    let mut body = b"\x00\x00\x00\x04\"\xff\xfe\"".to_vec();
    assert!(proto::from_wire::<String>(bytes::Bytes::from(body.clone())).is_err());
    body[5..7].copy_from_slice(b"ok");
    assert_eq!(
        proto::from_wire::<String>(bytes::Bytes::from(body)),
        Ok("ok".to_owned())
    );
}

#[test]
fn nesting_past_128_levels_is_rejected_even_when_skipped() {
    let nest = |levels: usize| format!("{}1{}", "[".repeat(levels), "]".repeat(levels));
    // Inside the outer object, 127 arrays put the innermost value 128
    // containers deep: allowed. One more array puts it 129 deep.
    #[derive(Debug, Deserialize)]
    struct Known {
        #[allow(dead_code)]
        items: serde::Value,
    }
    let known = |levels| parse::<Known>(&format!(r#"{{"items": {}}}"#, nest(levels)));
    assert!(known(127).is_ok(), "{:?}", known(127));
    assert!(known(128)
        .unwrap_err()
        .to_string()
        .contains("nesting too deep"));
    let skipped = |levels| parse::<Row>(&format!(r#"{{"x": {}, "name": "n"}}"#, nest(levels)));
    assert!(skipped(127).is_ok(), "{:?}", skipped(127));
    assert!(skipped(128)
        .unwrap_err()
        .to_string()
        .contains("nesting too deep"));
    let deep = parse::<Row>(&format!(r#"{{"x": {}}}"#, "[".repeat(100_000)));
    assert!(deep.unwrap_err().to_string().contains("nesting too deep"));
}
