//! The derives on every item shape they support, through the text layer
//! alone: what they write, what they read back, what they tolerate and
//! what they reject.

use serde::{Cursor, Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, serde_derive::Serialize, serde_derive::Deserialize)]
struct Point {
    x: f64,
    label: String,
    note: Option<u64>,
    #[serde(skip)]
    cache: Vec<u8>,
}

#[derive(Debug, PartialEq, serde_derive::Serialize, serde_derive::Deserialize)]
struct Id(u32);

#[derive(Debug, PartialEq, serde_derive::Serialize, serde_derive::Deserialize)]
struct Pair(u8, String);

#[derive(Debug, PartialEq, serde_derive::Serialize, serde_derive::Deserialize)]
struct Marker;

#[derive(Debug, PartialEq, serde_derive::Serialize, serde_derive::Deserialize)]
enum Shape {
    Empty,
    Id(Id),
    Span(i64, i64),
    Labelled { at: Point, weight: f32 },
}

#[derive(Debug, PartialEq, serde_derive::Serialize, serde_derive::Deserialize)]
enum Unit {
    A,
    B,
}

fn write<T: Serialize>(value: &T) -> String {
    let mut out = String::new();
    value.serialize(&mut out);
    out
}

fn read<T: Deserialize>(text: &str) -> Result<T, String> {
    let mut cursor = Cursor::new(text);
    let value = T::deserialize(&mut cursor)?;
    cursor.end().map(|()| value)
}

fn point() -> Point {
    Point {
        x: 1.5,
        label: "a\"b".into(),
        note: None,
        cache: vec![7],
    }
}

#[test]
fn every_shape_writes_serde_s_external_representation_and_reads_it_back() {
    let shapes = [
        (Shape::Empty, r#""Empty""#),
        (Shape::Id(Id(3)), r#"{"Id":3}"#),
        (Shape::Span(-1, 2), r#"{"Span":[-1,2]}"#),
        (
            Shape::Labelled {
                at: Point {
                    cache: Vec::new(),
                    ..point()
                },
                weight: 0.5,
            },
            r#"{"Labelled":{"at":{"x":1.5,"label":"a\"b","note":null},"weight":0.5}}"#,
        ),
    ];
    for (shape, text) in shapes {
        assert_eq!(write(&shape), text);
        assert_eq!(read::<Shape>(text), Ok(shape));
    }
    assert_eq!(write(&Pair(1, "x".into())), r#"[1,"x"]"#);
    assert_eq!(read::<Pair>(r#"[1, "x", true]"#), Ok(Pair(1, "x".into())));
    assert_eq!(write(&Marker), "null");
    assert_eq!(read::<Marker>("[1, {}]"), Ok(Marker));
    assert_eq!(read::<Unit>(r#""B""#), Ok(Unit::B));
}

#[test]
fn a_skipped_field_is_never_written_and_reads_as_its_default() {
    let text = write(&point());
    assert_eq!(text, r#"{"x":1.5,"label":"a\"b","note":null}"#);
    let back: Point = read(&text).unwrap();
    assert_eq!(back.cache, Vec::<u8>::new());
    assert_eq!(back.label, "a\"b");
}

#[test]
fn members_come_in_any_order_unknown_ones_are_skipped_and_the_first_counts() {
    let text = r#" { "note" : 4 , "extra": [{"deep": [null]}], "label": "first",
        "x": 2, "label": "second", "cache": [1] } "#;
    let back: Point = read(text).unwrap();
    assert_eq!(back.x, 2.0);
    assert_eq!(back.label, "first");
    assert_eq!(back.note, Some(4));
    assert!(back.cache.is_empty());
}

#[test]
fn a_missing_member_is_named_with_its_owner_but_an_option_may_be_absent() {
    assert_eq!(
        read::<Point>(r#"{"label": "l"}"#),
        Err("missing field `x` in Point".to_string())
    );
    assert_eq!(
        read::<Shape>(r#"{"Labelled": {"weight": 1}}"#),
        Err("missing field `at` in Labelled".to_string())
    );
    let back: Point = read(r#"{"x": 0, "label": ""}"#).unwrap();
    assert_eq!(back.note, None);
}

#[test]
fn the_wrong_shape_is_an_error_value() {
    for text in [
        r#""Nope""#,
        r#"{"Nope": 1}"#,
        r#"{"Id": 1, "Span": [1, 2]}"#,
        r#"{}"#,
        r#"{"Span": [1]}"#,
        "[]",
        "x",
    ] {
        assert!(read::<Shape>(text).is_err(), "{text}");
    }
    assert!(read::<Unit>(r#"{"A": null}"#).is_err());
    assert!(read::<Id>("-1").is_err());
    assert!(read::<Point>(r#"{"x": 1, "label": "l"} 1"#).is_err());
    let message = read::<Point>("x").unwrap_err();
    assert!(message.contains("unexpected 'x' at byte 0"), "{message}");
}

#[test]
fn reading_in_place_keeps_the_buffers_and_forgets_the_values() {
    let mut points = vec![point(), point(), point()];
    points[0].label.reserve(64);
    let kept = points[0].label.as_ptr();
    let text = r#"[{"x": 9, "label": "new"}, {"x": 8, "label": "two", "note": 1}]"#;
    points.deserialize_in_place(&mut Cursor::new(text)).unwrap();
    assert_eq!(points, read::<Vec<Point>>(text).unwrap());
    assert_eq!(points[0].label.as_ptr(), kept);
    assert!(points[0].cache.is_empty() && points[0].note.is_none());
    assert_eq!(
        points.deserialize_in_place(&mut Cursor::new(r#"[{"label": "l"}]"#)),
        Err("missing field `x` in Point".to_string())
    );
}
