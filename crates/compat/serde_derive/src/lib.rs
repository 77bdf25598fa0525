//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for the
//! item shapes this workspace actually uses — non-generic structs (named,
//! tuple and unit) and enums whose variants are unit, tuple or struct-like.
//! The generated representation matches upstream serde's external JSON
//! encoding: structs become objects, one-field tuple structs are
//! transparent newtypes, unit enum variants encode as their name string and
//! data-carrying variants as a single-key object. The one field attribute
//! understood is `#[serde(skip)]` on a named struct field: never written,
//! `Default::default()` on read.
//!
//! The implementation parses the raw `proc_macro::TokenStream` directly so
//! the workspace does not need `syn`/`quote` from crates.io.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The shape of a parsed item.
enum Item {
    NamedStruct {
        name: String,
        fields: Vec<String>,
        /// `#[serde(skip)]` fields: absent from the encoding.
        skipped: Vec<String>,
    },
    TupleStruct {
        name: String,
        arity: usize,
    },
    UnitStruct {
        name: String,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

/// Derives the compat `serde::Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item).parse().expect("generated code parses"),
        Err(e) => compile_error(&e),
    }
}

/// Derives the compat `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_deserialize(&item)
            .parse()
            .expect("generated code parses"),
        Err(e) => compile_error(&e),
    }
}

fn compile_error(message: &str) -> TokenStream {
    format!("compile_error!({message:?});")
        .parse()
        .expect("error tokens")
}

// ---- parsing ------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;

    skip_attributes_and_visibility(&tokens, &mut pos);

    let keyword = match tokens.get(pos) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    pos += 1;

    let name = match tokens.get(pos) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };
    pos += 1;

    if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde compat derive does not support generic type `{name}`"
        ));
    }

    match keyword.as_str() {
        "struct" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let (fields, skipped) = parse_named_fields(g.stream())?;
                Ok(Item::NamedStruct {
                    name,
                    fields,
                    skipped,
                })
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Ok(Item::TupleStruct {
                    name,
                    arity: count_tuple_fields(g.stream()),
                })
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok(Item::UnitStruct { name }),
            other => Err(format!("unsupported struct body: {other:?}")),
        },
        "enum" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Item::Enum {
                name,
                variants: parse_variants(g.stream())?,
            }),
            other => Err(format!("unsupported enum body: {other:?}")),
        },
        other => Err(format!("cannot derive serde traits for `{other}` items")),
    }
}

/// Advances `pos` past any `#[...]` attributes and a `pub` / `pub(...)`
/// visibility prefix.
fn skip_attributes_and_visibility(tokens: &[TokenTree], pos: &mut usize) {
    loop {
        match tokens.get(*pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *pos += 1;
                if matches!(tokens.get(*pos), Some(TokenTree::Group(_))) {
                    *pos += 1;
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *pos += 1;
                if matches!(
                    tokens.get(*pos),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    *pos += 1;
                }
            }
            _ => return,
        }
    }
}

/// Splits a field/variant body on top-level commas (commas inside `<...>`
/// generic arguments do not count; bracketed groups are single tokens).
fn split_top_level_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut parts: Vec<Vec<TokenTree>> = Vec::new();
    let mut current: Vec<TokenTree> = Vec::new();
    let mut angle_depth = 0usize;
    for tt in stream {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                ',' if angle_depth == 0 => {
                    parts.push(std::mem::take(&mut current));
                    continue;
                }
                _ => {}
            }
        }
        current.push(tt);
    }
    if !current.is_empty() {
        parts.push(current);
    }
    parts
}

/// True when the field's tokens carry a `#[serde(skip)]` attribute.
fn has_serde_skip(part: &[TokenTree]) -> bool {
    part.windows(2).any(|w| {
        matches!(&w[0], TokenTree::Punct(p) if p.as_char() == '#')
            && matches!(&w[1], TokenTree::Group(g)
                if g.stream().to_string().replace(' ', "") == "serde(skip)")
    })
}

/// Field names of a braced body: `(encoded, skipped)`.
fn parse_named_fields(stream: TokenStream) -> Result<(Vec<String>, Vec<String>), String> {
    let mut fields = Vec::new();
    let mut skipped = Vec::new();
    for part in split_top_level_commas(stream) {
        let mut pos = 0;
        skip_attributes_and_visibility(&part, &mut pos);
        match part.get(pos) {
            Some(TokenTree::Ident(id)) if has_serde_skip(&part[..pos]) => {
                skipped.push(id.to_string())
            }
            Some(TokenTree::Ident(id)) => fields.push(id.to_string()),
            None => continue,
            other => return Err(format!("expected field name, got {other:?}")),
        }
    }
    Ok((fields, skipped))
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    split_top_level_commas(stream).len()
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    for part in split_top_level_commas(stream) {
        let mut pos = 0;
        skip_attributes_and_visibility(&part, &mut pos);
        let name = match part.get(pos) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => continue,
            other => return Err(format!("expected variant name, got {other:?}")),
        };
        pos += 1;
        let kind = match part.get(pos) {
            None => VariantKind::Unit,
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let (fields, skipped) = parse_named_fields(g.stream())?;
                if !skipped.is_empty() {
                    return Err(format!(
                        "serde compat derive supports `#[serde(skip)]` on struct fields only \
                         (variant `{name}`)"
                    ));
                }
                VariantKind::Named(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                VariantKind::Tuple(count_tuple_fields(g.stream()))
            }
            // `Variant = 3` discriminants: treat as unit.
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => VariantKind::Unit,
            other => return Err(format!("unsupported variant body: {other:?}")),
        };
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

// ---- code generation ----------------------------------------------------

fn object_literal(pairs: &[(String, String)]) -> String {
    let entries: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("(::std::string::String::from({k:?}), {v})"))
        .collect();
    format!(
        "::serde::Value::Object(::std::vec::Vec::from([{}]))",
        entries.join(", ")
    )
}

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::NamedStruct { name, fields, .. } => {
            let pairs: Vec<(String, String)> = fields
                .iter()
                .map(|f| {
                    (
                        f.clone(),
                        format!("::serde::Serialize::to_value(&self.{f})"),
                    )
                })
                .collect();
            impl_serialize(name, &object_literal(&pairs))
        }
        Item::TupleStruct { name, arity: 1 } => {
            impl_serialize(name, "::serde::Serialize::to_value(&self.0)")
        }
        Item::TupleStruct { name, arity } => {
            let items: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            impl_serialize(
                name,
                &format!(
                    "::serde::Value::Array(::std::vec::Vec::from([{}]))",
                    items.join(", ")
                ),
            )
        }
        Item::UnitStruct { name } => impl_serialize(name, "::serde::Value::Null"),
        Item::Enum { name, variants } => {
            let mut arms = Vec::new();
            for v in variants {
                let vname = &v.name;
                let arm = match &v.kind {
                    VariantKind::Unit => format!(
                        "{name}::{vname} => ::serde::Value::String(::std::string::String::from({vname:?})),"
                    ),
                    VariantKind::Tuple(1) => format!(
                        "{name}::{vname}(x0) => {},",
                        object_literal(&[(
                            vname.clone(),
                            "::serde::Serialize::to_value(x0)".to_string()
                        )])
                    ),
                    VariantKind::Tuple(arity) => {
                        let binders: Vec<String> = (0..*arity).map(|i| format!("x{i}")).collect();
                        let items: Vec<String> = binders
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        let payload = format!(
                            "::serde::Value::Array(::std::vec::Vec::from([{}]))",
                            items.join(", ")
                        );
                        format!(
                            "{name}::{vname}({}) => {},",
                            binders.join(", "),
                            object_literal(&[(vname.clone(), payload)])
                        )
                    }
                    VariantKind::Named(fields) => {
                        let pairs: Vec<(String, String)> = fields
                            .iter()
                            .map(|f| (f.clone(), format!("::serde::Serialize::to_value({f})")))
                            .collect();
                        format!(
                            "{name}::{vname} {{ {} }} => {},",
                            fields.join(", "),
                            object_literal(&[(
                                vname.clone(),
                                object_literal(&pairs)
                            )])
                        )
                    }
                };
                arms.push(arm);
            }
            impl_serialize(name, &format!("match self {{ {} }}", arms.join(" ")))
        }
    }
}

fn impl_serialize(name: &str, body: &str) -> String {
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

/// Expression extracting field `f` from an `entries: &Vec<(String, Value)>`
/// binding, falling back to `Null` (so `Option` fields tolerate omission).
fn field_extract(owner: &str, field: &str) -> String {
    format!(
        "{{\n\
            let found = entries.iter().find(|(k, _)| k == {field:?});\n\
            match found {{\n\
                ::core::option::Option::Some((_, v)) => ::serde::Deserialize::from_value(v)?,\n\
                ::core::option::Option::None => ::serde::Deserialize::from_value(&::serde::Value::Null)\n\
                    .map_err(|_| ::serde::DeError::msg(\"missing field `{field}` in {owner}\"))?,\n\
            }}\n\
        }}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::NamedStruct {
            name,
            fields,
            skipped,
        } => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| format!("{f}: {}", field_extract(name, f)))
                .chain(
                    skipped
                        .iter()
                        .map(|f| format!("{f}: ::core::default::Default::default()")),
                )
                .collect();
            impl_deserialize(
                name,
                &format!(
                    "match value {{\n\
                        ::serde::Value::Object(entries) => ::core::result::Result::Ok({name} {{ {} }}),\n\
                        _ => ::core::result::Result::Err(::serde::DeError::msg(\"expected object for {name}\")),\n\
                    }}",
                    inits.join(", ")
                ),
            )
        }
        Item::TupleStruct { name, arity: 1 } => impl_deserialize(
            name,
            &format!(
                "::core::result::Result::Ok({name}(::serde::Deserialize::from_value(value)?))"
            ),
        ),
        Item::TupleStruct { name, arity } => {
            let inits: Vec<String> = (0..*arity)
                .map(|i| {
                    format!(
                        "::serde::Deserialize::from_value(items.get({i}).ok_or_else(|| \
                         ::serde::DeError::msg(\"tuple struct {name} too short\"))?)?"
                    )
                })
                .collect();
            impl_deserialize(
                name,
                &format!(
                    "match value {{\n\
                        ::serde::Value::Array(items) => ::core::result::Result::Ok({name}({})),\n\
                        _ => ::core::result::Result::Err(::serde::DeError::msg(\"expected array for {name}\")),\n\
                    }}",
                    inits.join(", ")
                ),
            )
        }
        Item::UnitStruct { name } => {
            impl_deserialize(name, &format!("::core::result::Result::Ok({name})"))
        }
        Item::Enum { name, variants } => {
            let mut unit_arms = Vec::new();
            let mut data_arms = Vec::new();
            for v in variants {
                let vname = &v.name;
                match &v.kind {
                    VariantKind::Unit => unit_arms.push(format!(
                        "{vname:?} => ::core::result::Result::Ok({name}::{vname}),"
                    )),
                    VariantKind::Tuple(1) => data_arms.push(format!(
                        "{vname:?} => ::core::result::Result::Ok({name}::{vname}(\
                         ::serde::Deserialize::from_value(payload)?)),"
                    )),
                    VariantKind::Tuple(arity) => {
                        let inits: Vec<String> = (0..*arity)
                            .map(|i| {
                                format!(
                                    "::serde::Deserialize::from_value(items.get({i}).ok_or_else(|| \
                                     ::serde::DeError::msg(\"variant {vname} too short\"))?)?"
                                )
                            })
                            .collect();
                        data_arms.push(format!(
                            "{vname:?} => match payload {{\n\
                                ::serde::Value::Array(items) => \
                                    ::core::result::Result::Ok({name}::{vname}({})),\n\
                                _ => ::core::result::Result::Err(::serde::DeError::msg(\
                                    \"expected array payload for {name}::{vname}\")),\n\
                            }},",
                            inits.join(", ")
                        ));
                    }
                    VariantKind::Named(fields) => {
                        let inits: Vec<String> = fields
                            .iter()
                            .map(|f| format!("{f}: {}", field_extract(vname, f)))
                            .collect();
                        data_arms.push(format!(
                            "{vname:?} => match payload {{\n\
                                ::serde::Value::Object(entries) => \
                                    ::core::result::Result::Ok({name}::{vname} {{ {} }}),\n\
                                _ => ::core::result::Result::Err(::serde::DeError::msg(\
                                    \"expected object payload for {name}::{vname}\")),\n\
                            }},",
                            inits.join(", ")
                        ));
                    }
                }
            }
            impl_deserialize(
                name,
                &format!(
                    "match value {{\n\
                        ::serde::Value::String(s) => match s.as_str() {{\n\
                            {}\n\
                            other => ::core::result::Result::Err(::serde::DeError::msg(\
                                ::std::format!(\"unknown {name} variant `{{other}}`\"))),\n\
                        }},\n\
                        ::serde::Value::Object(entries) if entries.len() == 1 => {{\n\
                            let (tag, payload) = &entries[0];\n\
                            match tag.as_str() {{\n\
                                {}\n\
                                other => ::core::result::Result::Err(::serde::DeError::msg(\
                                    ::std::format!(\"unknown {name} variant `{{other}}`\"))),\n\
                            }}\n\
                        }}\n\
                        _ => ::core::result::Result::Err(::serde::DeError::msg(\
                            \"expected string or single-key object for {name}\")),\n\
                    }}",
                    unit_arms.join("\n"),
                    data_arms.join("\n")
                ),
            )
        }
    }
}

fn impl_deserialize(name: &str, body: &str) -> String {
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn from_value(value: &::serde::Value) -> \
                 ::core::result::Result<Self, ::serde::DeError> {{ {body} }}\n\
         }}"
    )
}
