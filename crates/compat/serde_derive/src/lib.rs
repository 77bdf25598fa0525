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
//! The generated impls append compact text to a `String` and read it
//! through `serde::Cursor`; there is no tree in between. A named struct's
//! reader takes its members in any order, skips unknown ones, keeps the
//! first of a repeated one and names a missing one with its owner; it also
//! gets a `deserialize_in_place` that reads each member into the field it
//! names, so the fields' buffers are kept.
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
//
// The generated code names its locals with a `__` prefix, so no field name
// can shadow them: `__out` the text, `__c` the cursor.

/// Appends JSON text that is fixed at compile time: punctuation, and keys
/// and unit variant names, which are Rust identifiers and so need no JSON
/// escape (`{:?}` quotes them as JSON does).
fn push(text: &str) -> String {
    format!("__out.push_str({text:?});")
}

fn serialize(value: &str) -> String {
    format!("::serde::Serialize::serialize({value}, __out);")
}

/// Writes an object whose members are `(key, expression of a reference)`:
/// `{"a":` before the first value, `,"b":` before each next, `}` after.
fn ser_object<'a>(members: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let mut code = String::new();
    let mut open = "{";
    for (key, value) in members {
        code += &push(&format!("{open}{key:?}:"));
        code += &serialize(&value);
        open = ",";
    }
    code + &push(if open == "{" { "{}" } else { "}" })
}

/// Writes an array of expressions of references.
fn ser_array(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().map(|item| serialize(&item)).collect();
    format!("{} {} {}", push("["), items.join(&push(",")), push("]"))
}

fn binders(arity: usize) -> Vec<String> {
    (0..arity).map(|i| format!("__x{i}")).collect()
}

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::NamedStruct { name, fields, .. } => (
            name,
            ser_object(fields.iter().map(|f| (f.as_str(), format!("&self.{f}")))),
        ),
        Item::TupleStruct { name, arity: 1 } => (name, serialize("&self.0")),
        Item::TupleStruct { name, arity } => {
            (name, ser_array((0..*arity).map(|i| format!("&self.{i}"))))
        }
        Item::UnitStruct { name } => (name, push("null")),
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    let (pattern, payload) = match &v.kind {
                        VariantKind::Unit => {
                            let tag = push(&format!("{vname:?}"));
                            return format!("{name}::{vname} => {{ {tag} }}");
                        }
                        VariantKind::Tuple(1) => ("(__x0)".into(), serialize("__x0")),
                        VariantKind::Tuple(arity) => {
                            let binders = binders(*arity);
                            (format!("({})", binders.join(", ")), ser_array(binders))
                        }
                        VariantKind::Named(fields) => (
                            format!("{{ {} }}", fields.join(", ")),
                            ser_object(fields.iter().map(|f| (f.as_str(), f.clone()))),
                        ),
                    };
                    let (open, close) = (push(&format!("{{{vname:?}:")), push("}"));
                    format!("{name}::{vname} {pattern} => {{ {open} {payload} {close} }}")
                })
                .collect();
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self, __out: &mut ::std::string::String) {{ {body} }}\n\
         }}"
    )
}

/// Reads an object into `owner`'s named fields: the slot declarations,
/// the walk over the members, and the field initialisers.
fn de_fields(owner: &str, fields: &[String]) -> (String, String, String) {
    if fields.is_empty() {
        let walk = "__c.object(|__c, _| __c.skip_value())?;";
        return (String::new(), walk.into(), String::new());
    }
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for f in fields {
        slots.push_str(&format!("let mut __f_{f} = ::core::option::Option::None;"));
        arms.push_str(&format!("{f:?} => ::serde::de::member(&mut __f_{f}, __c),"));
        inits.push_str(&format!(
            "{f}: ::serde::de::required(__f_{f}, {f:?}, {owner:?})?,"
        ));
    }
    let walk = format!("__c.object(|__c, __k| match &*__k {{ {arms} _ => __c.skip_value(), }})?;");
    (slots, walk, inits)
}

/// Reads the first `arity` elements of an array (the rest are skipped):
/// the slot declarations, the walk and one expression per element.
fn de_items(what: &str, arity: usize) -> (String, String, String) {
    let slots: String = binders(arity)
        .iter()
        .map(|x| format!("let mut {x} = ::core::option::Option::None;"))
        .collect();
    let arms: String = binders(arity)
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let read = "::serde::Deserialize::deserialize(__c)?";
            format!("{i} => {x} = ::core::option::Option::Some({read}),")
        })
        .collect();
    let walk = format!(
        "let mut __at = 0usize;\n\
         __c.array(|__c| {{\n\
             match __at {{ {arms} _ => __c.skip_value()?, }}\n\
             __at += 1;\n\
             ::core::result::Result::Ok(())\n\
         }})?;"
    );
    let items = binders(arity)
        .iter()
        .map(|x| format!("{x}.ok_or({:?})?", format!("{what} too short")))
        .collect::<Vec<_>>()
        .join(", ");
    (slots, walk, items)
}

fn gen_deserialize(item: &Item) -> String {
    let ok = "::core::result::Result::Ok";
    let (name, body, in_place) = match item {
        Item::NamedStruct {
            name,
            fields,
            skipped,
        } => {
            let (slots, walk, inits) = de_fields(name, fields);
            let defaults: String = skipped
                .iter()
                .map(|f| format!("{f}: ::core::default::Default::default(),"))
                .collect();
            let body = format!("{slots} {walk} {ok}({name} {{ {inits} {defaults} }})");
            (name, body, Some(gen_in_place(name, fields, skipped)))
        }
        Item::TupleStruct { name, arity: 1 } => (
            name,
            format!("{ok}({name}(::serde::Deserialize::deserialize(__c)?))"),
            None,
        ),
        Item::TupleStruct { name, arity } => {
            let (slots, walk, items) = de_items(&format!("tuple struct {name}"), *arity);
            (name, format!("{slots} {walk} {ok}({name}({items}))"), None)
        }
        Item::UnitStruct { name } => (name, format!("__c.skip_value()?; {ok}({name})"), None),
        Item::Enum { name, variants } => (name, gen_enum(name, variants), None),
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(__c: &mut ::serde::Cursor<'_>) -> \
                 ::core::result::Result<Self, ::std::string::String> {{ {body} }}\n\
             {}\n\
         }}",
        in_place.unwrap_or_default()
    )
}

/// `deserialize_in_place` for a named struct: each member is read into
/// the field it names, so the field's buffers are kept.
fn gen_in_place(name: &str, fields: &[String], skipped: &[String]) -> String {
    let (seen, walk) = if fields.is_empty() {
        (
            String::new(),
            "__c.object(|__c, _| __c.skip_value())?;".to_string(),
        )
    } else {
        let arms: String = fields
            .iter()
            .enumerate()
            .map(|(i, f)| {
                format!(
                    "{f:?} => ::serde::de::member_in_place(&mut __seen[{i}], &mut self.{f}, __c),"
                )
            })
            .collect();
        (
            format!("let mut __seen = [false; {}];", fields.len()),
            format!("__c.object(|__c, __k| match &*__k {{ {arms} _ => __c.skip_value(), }})?;"),
        )
    };
    let settle: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| format!("::serde::de::settle(__seen[{i}], &mut self.{f}, {f:?}, {name:?})?;"))
        .collect();
    let reset: String = skipped
        .iter()
        .map(|f| format!("self.{f} = ::core::default::Default::default();"))
        .collect();
    format!(
        "fn deserialize_in_place(&mut self, __c: &mut ::serde::Cursor<'_>) -> \
             ::core::result::Result<(), ::std::string::String> {{\n\
             {seen} {walk} {settle} {reset} ::core::result::Result::Ok(())\n\
         }}"
    )
}

/// A unit variant reads from its name string, a data-carrying one from a
/// single-key object.
fn gen_enum(name: &str, variants: &[Variant]) -> String {
    let unknown = format!(
        "::core::result::Result::Err(::std::format!(\"unknown {name} variant `{{}}`\", __tag))"
    );
    let not_one = format!(
        "::core::result::Result::Err(::std::string::String::from(\
         \"expected a string or a single-key object for {name}\"))"
    );
    let mut unit_arms = String::new();
    let mut data_arms = String::new();
    for v in variants {
        let vname = &v.name;
        let read = match &v.kind {
            VariantKind::Unit => {
                unit_arms.push_str(&format!(
                    "{vname:?} => ::core::result::Result::Ok({name}::{vname}),"
                ));
                continue;
            }
            VariantKind::Tuple(1) => {
                format!("{name}::{vname}(::serde::Deserialize::deserialize(__c)?)")
            }
            VariantKind::Tuple(arity) => {
                let (slots, walk, items) = de_items(&format!("variant {vname}"), *arity);
                format!("{{ {slots} {walk} {name}::{vname}({items}) }}")
            }
            VariantKind::Named(fields) => {
                let (slots, walk, inits) = de_fields(vname, fields);
                format!("{{ {slots} {walk} {name}::{vname} {{ {inits} }} }}")
            }
        };
        data_arms.push_str(&format!("{vname:?} => {read},"));
    }
    let data = if data_arms.is_empty() {
        format!("__c.object(|_, __tag| {unknown})?; {not_one}")
    } else {
        format!(
            "let mut __out = ::core::option::Option::None;\n\
             __c.object(|__c, __tag| {{\n\
                 if __out.is_some() {{ return {not_one}; }}\n\
                 __out = ::core::option::Option::Some(match &*__tag {{\n\
                     {data_arms}\n\
                     _ => return {unknown},\n\
                 }});\n\
                 ::core::result::Result::Ok(())\n\
             }})?;\n\
             match __out {{ ::core::option::Option::Some(__v) => ::core::result::Result::Ok(__v), \
             ::core::option::Option::None => {not_one} }}"
        )
    };
    format!(
        "if __c.peek() == ::core::option::Option::Some(b'\"') {{\n\
             let __tag = __c.string()?;\n\
             return match &*__tag {{ {unit_arms} _ => {unknown}, }};\n\
         }}\n\
         {data}"
    )
}
