//! Offline stand-in for the `serde_derive` proc-macro crate.
//!
//! Without crates.io access there is no `syn`/`quote`, so the derives here
//! parse the token stream by hand. They cover non-generic named-field
//! structs (one object key per field, in declaration order) and enums of
//! unit and named-field variants. The generated `Serialize` writes each
//! key, as a literal already quoted, and each value into the shim
//! `serde::Writer`; the generated
//! `Deserialize` reads keys off a `serde::Cursor` as they come, into one
//! slot per field: the first time a key appears it fills its slot, an
//! unknown or repeated key is skipped, and a slot still empty at the end
//! reads as `Deserialize::missing()` (what `null` reads as). Three
//! attributes are understood, spelled as in real serde:
//!
//! - `#[serde(default)]` / `#[serde(default = "path")]` on a field: a
//!   missing key **or an explicit `null`** reads as `Default::default()`
//!   (or `path()`), so artifacts written before the field existed load.
//! - `#[serde(skip_serializing_if = "path")]` on a field: the key is left
//!   off the wire when `path(&field)` is true, so data without the field
//!   keeps the bytes an older binary wrote.
//! - `#[serde(tag = "key", rename_all = "snake_case")]` on an enum: one
//!   object per value, the variant name under `key` first, then its fields
//!   in declaration order. A reader finds the tag wherever it is. A
//!   unit-only enum needs no `tag` and renders each variant as a plain
//!   string.
//!
//! Anything else (another attribute, a tuple variant, generics) is a
//! compile error naming the offending item.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.body {
        Body::Struct(fields) => format!(
            "let {} = self; {}",
            pattern("Self", fields),
            write_object(None, fields)
        ),
        Body::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let path = format!("{}::{}", item.name, v.name);
                    let fields = v.fields.as_deref().unwrap_or_default();
                    let write = match &item.tag {
                        Some(tag) => write_object(Some((tag, &v.wire)), fields),
                        None => format!("__w.str({:?});", v.wire),
                    };
                    format!("{} => {{ {write} }}", pattern(&path, fields))
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    let code = format!(
        "impl ::serde::Serialize for {} {{\
             fn serialize(&self, __w: &mut ::serde::Writer) {{ {body} }}\
         }}",
        item.name
    );
    code.parse().expect("generated Serialize impl parses")
}

/// Derive `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(fields) => format!(
            "__c.begin_object({name:?})?; {}",
            read_fields("Self", fields)
        ),
        Body::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let path = format!("{name}::{}", v.name);
                    let read = match (&item.tag, &v.fields) {
                        (Some(_), fields) => {
                            read_fields(&path, fields.as_deref().unwrap_or_default())
                        }
                        (None, _) => format!("::std::result::Result::Ok({path})"),
                    };
                    format!("{:?} => {{ {read} }}", v.wire)
                })
                .collect();
            let tag = match &item.tag {
                Some(tag) => format!("__c.tag({tag:?}, {name:?})?"),
                None => "__c.str()?".to_owned(),
            };
            format!(
                "let __tag = {tag}; match &*__tag {{ {arms} __other => ::std::result::Result::Err(\
                     ::serde::DeError::new(::std::format!(\"unknown {name} `{{}}`\", __other))) }}"
            )
        }
    };
    let code = format!(
        "impl ::serde::Deserialize for {name} {{\
             fn deserialize(__c: &mut ::serde::Cursor<'_>)\
                 -> ::std::result::Result<Self, ::serde::DeError> {{ {body} }}\
         }}"
    );
    code.parse().expect("generated Deserialize impl parses")
}

struct Item {
    name: String,
    tag: Option<String>,
    body: Body,
}

enum Body {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Field {
    name: String,
    /// The field's type, as source text.
    ty: String,
    /// Expression a missing or null key reads as.
    default: Option<String>,
    /// Predicate path that keeps the key off the wire.
    skip_if: Option<String>,
}

struct Variant {
    name: String,
    /// The name on the wire (after `rename_all`).
    wire: String,
    /// `None` for a unit variant.
    fields: Option<Vec<Field>>,
}

/// A pattern binding each field of `path` to `__field_<name>`.
fn pattern(path: &str, fields: &[Field]) -> String {
    let binds: String = fields
        .iter()
        .map(|f| format!("{0}: __field_{0}, ", f.name))
        .collect();
    format!("{path} {{ {binds}.. }}")
}

/// Statements writing an object: the optional `(tag key, variant name)`
/// pair, then every bound field in declaration order.
fn write_object(tag: Option<(&String, &String)>, fields: &[Field]) -> String {
    let tag = tag.map_or(String::new(), |(key, wire)| {
        format!("{} __w.str({wire:?});", write_key(key))
    });
    let writes: String = fields
        .iter()
        .map(|f| {
            let write = format!(
                "{} ::serde::Serialize::serialize(__field_{}, __w);",
                write_key(&f.name),
                f.name
            );
            match &f.skip_if {
                Some(path) => format!("if !{path}(__field_{}) {{ {write} }}", f.name),
                None => write,
            }
        })
        .collect();
    format!("__w.begin_object(); {tag} {writes} __w.end_object();")
}

/// The statement writing object key `key`: as a quoted literal when it
/// needs no escape, as every field name does.
fn write_key(key: &str) -> String {
    if key.chars().any(|c| c == '"' || c == '\\' || c.is_control()) {
        format!("__w.key({key:?});")
    } else {
        let quoted = format!("\"{key}\"");
        format!("__w.quoted_key({quoted:?});")
    }
}

/// Statements reading the rest of an open object into `path { fields }`:
/// one `Option` slot per field, filled by the first key of its name, then
/// the struct built from the slots (a missing key reads as its default,
/// or as `Deserialize::missing()`, errors naming the key).
fn read_fields(path: &str, fields: &[Field]) -> String {
    let slots: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            format!(
                "let mut __slot{i}: ::std::option::Option<{}> = ::std::option::Option::None;",
                f.ty
            )
        })
        .collect();
    let keys: String = fields.iter().map(|f| format!("{:?},", f.name)).collect();
    let arms: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let read = format!(
                "::serde::Deserialize::deserialize(__c).map_err(|e| e.in_field({:?}))?",
                f.name
            );
            let read = match &f.default {
                Some(default) => format!("if __c.null()? {{ {default} }} else {{ {read} }}"),
                None => read,
            };
            format!(
                "{i} if __slot{i}.is_none() => __slot{i} = ::std::option::Option::Some({read}),"
            )
        })
        .collect();
    let inits: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let missing = match &f.default {
                Some(default) => default.clone(),
                None => format!(
                    "::serde::Deserialize::missing().map_err(|e| e.in_field({:?}))?",
                    f.name
                ),
            };
            format!(
                "{}: match __slot{i} {{ ::std::option::Option::Some(__v) => __v, \
                     ::std::option::Option::None => {missing} }},",
                f.name
            )
        })
        .collect();
    format!(
        "{slots} let mut __next = 0usize;\
         while let ::std::option::Option::Some(__index) = __c.next_field(&[{keys}], &mut __next)? {{\
             match __index {{ {arms} _ => __c.skip_value()?, }}\
         }}\
         ::std::result::Result::Ok({path} {{ {inits} }})"
    )
}

type Attrs = Vec<(String, Option<String>)>;

/// Parse a derive input: item attributes, `struct`/`enum`, name, body.
fn parse_item(input: TokenStream) -> Item {
    let mut tts = input.into_iter();
    let mut attrs = Attrs::new();
    let is_enum = loop {
        match tts.next().expect("derive input is a struct or enum") {
            TokenTree::Punct(p) if p.as_char() == '#' => attrs.extend(next_attr(&mut tts)),
            TokenTree::Ident(id) if id.to_string() == "struct" => break false,
            TokenTree::Ident(id) if id.to_string() == "enum" => break true,
            _ => {}
        }
    };
    let name = tts.next().expect("item name").to_string();
    let body = match tts.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        _ => panic!("{name}: shim serde derives need named fields or variants, and no generics"),
    };
    let (mut tag, mut snake_case) = (None, false);
    for (key, value) in attrs {
        match (is_enum, key.as_str(), value.as_deref()) {
            (true, "tag", Some(v)) => tag = Some(v.to_owned()),
            (true, "rename_all", Some("snake_case")) => snake_case = true,
            _ => panic!(
                "unsupported serde attribute `{key}` on {name}: enums take \
                 tag = \"...\" and rename_all = \"snake_case\", structs none"
            ),
        }
    }
    let body = if is_enum {
        let variants = parse_variants(body, &name, snake_case);
        if let (None, Some(v)) = (&tag, variants.iter().find(|v| v.fields.is_some())) {
            panic!(
                "{name}::{} has fields: an enum with struct variants needs #[serde(tag = \"...\")]",
                v.name
            );
        }
        Body::Enum(variants)
    } else {
        Body::Struct(parse_fields(body, &name))
    };
    Item { name, tag, body }
}

/// After a `#`: the `key` / `key = "value"` pairs of a `serde(...)`
/// attribute; other attributes (`doc`, ...) yield none.
fn next_attr(tts: &mut impl Iterator<Item = TokenTree>) -> Attrs {
    let Some(TokenTree::Group(attr)) = tts.next() else {
        return Attrs::new();
    };
    let mut attr = attr.stream().into_iter();
    let args = match (attr.next(), attr.next()) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) if id.to_string() == "serde" => {
            args
        }
        _ => return Attrs::new(),
    };
    let mut pairs = Attrs::new();
    for tt in args.stream() {
        match tt {
            TokenTree::Ident(key) => pairs.push((key.to_string(), None)),
            TokenTree::Literal(lit) => {
                let value = lit.to_string().trim_matches('"').to_owned();
                pairs.last_mut().expect("attribute key before its value").1 = Some(value);
            }
            _ => {} // `=` and `,`
        }
    }
    pairs
}

/// Parse a brace group of named fields. A field name is the last ident
/// before a top-level `:`; the type after it runs to the next top-level
/// `,` (tracking `<`/`>` depth so generic arguments don't end it early).
fn parse_fields(body: TokenStream, owner: &str) -> Vec<Field> {
    let mut fields = Vec::new();
    let (mut attrs, mut last_ident) = (Attrs::new(), None);
    let mut tts = body.into_iter();
    while let Some(tt) = tts.next() {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '#' => attrs.extend(next_attr(&mut tts)),
            TokenTree::Ident(id) => last_ident = Some(id.to_string()),
            TokenTree::Punct(p) if p.as_char() == ':' => {
                let name: String = last_ident.take().expect("ident precedes `:` in a field");
                let (mut default, mut skip_if) = (None, None);
                for (key, value) in attrs.drain(..) {
                    match (key.as_str(), value) {
                        ("default", None) => {
                            default = Some("::std::default::Default::default()".into())
                        }
                        ("default", Some(path)) => default = Some(format!("{path}()")),
                        ("skip_serializing_if", Some(path)) => skip_if = Some(path),
                        _ => panic!(
                            "unsupported serde attribute `{key}` on {owner}.{name}: fields take \
                             default, default = \"path\" and skip_serializing_if = \"path\""
                        ),
                    }
                }
                let mut ty = TokenStream::new();
                let mut angle_depth = 0i32;
                for ty_tt in tts.by_ref() {
                    match &ty_tt {
                        TokenTree::Punct(q) if q.as_char() == '<' => angle_depth += 1,
                        TokenTree::Punct(q) if q.as_char() == '>' => angle_depth -= 1,
                        TokenTree::Punct(q) if q.as_char() == ',' && angle_depth == 0 => break,
                        _ => {}
                    }
                    ty.extend([ty_tt]);
                }
                fields.push(Field {
                    name,
                    ty: ty.to_string(),
                    default,
                    skip_if,
                });
            }
            _ => {}
        }
    }
    fields
}

/// Parse an enum body: each variant is a name, optionally followed by a
/// brace group of named fields.
fn parse_variants(body: TokenStream, owner: &str, snake_case: bool) -> Vec<Variant> {
    let mut variants: Vec<Variant> = Vec::new();
    let mut tts = body.into_iter();
    while let Some(tt) = tts.next() {
        let last = variants.last_mut();
        match tt {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if let Some((key, _)) = next_attr(&mut tts).first() {
                    panic!("unsupported serde attribute `{key}` on a variant of {owner}");
                }
            }
            TokenTree::Ident(id) => {
                let name = id.to_string();
                let wire = snake_case.then(|| to_snake_case(&name));
                let wire = wire.unwrap_or_else(|| name.clone());
                variants.push(Variant {
                    name,
                    wire,
                    fields: None,
                });
            }
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                let v = last.expect("variant name before its fields");
                v.fields = Some(parse_fields(g.stream(), &format!("{owner}::{}", v.name)));
            }
            TokenTree::Group(_) => panic!(
                "{owner}::{} is a tuple variant: shim serde derives support unit and \
                 named-field variants only",
                last.map_or("?", |v| v.name.as_str())
            ),
            _ => {}
        }
    }
    variants
}

/// `CountersUnavailable` -> `counters_unavailable`, as serde spells it.
fn to_snake_case(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.extend(c.to_lowercase());
    }
    out
}
