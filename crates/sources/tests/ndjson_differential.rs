//! Differential and adversarial suite for the NDJSON decoder.
//!
//! `ndjson_to_frame` scans each line once against the schema. The reference
//! below is the decoder it replaced: parse the line into a `serde_json`
//! tree, then look every column up by name. Over seeded NY Taxi lines
//! (shuffled keys, edge-case spellings, duplicate and unknown keys, deep
//! nesting) and byte-level mutations of them (truncation, bit flips,
//! spliced fragments), both must accept or reject each payload alike, with
//! the same frame bit for bit or the same error message.

use dquag_datagen::DatasetKind;
use dquag_sources::{ndjson_to_frame, SourceError};
use dquag_tabular::{DataFrame, DataType, Field, Schema, Value as Cell};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::Value as Json;

/// The decoder `ndjson_to_frame` replaced: a JSON tree per line.
fn reference_ndjson_to_frame(payload: &[u8], schema: &Schema) -> Result<DataFrame, SourceError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| SourceError::Decode(format!("invalid UTF-8 in NDJSON payload: {e}")))?;
    let mut df = DataFrame::new(schema.clone());
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let value: Json = serde_json::from_str(line)
            .map_err(|e| SourceError::Decode(format!("NDJSON line {line_no}: {e}")))?;
        let object = value.as_object().ok_or_else(|| {
            SourceError::Decode(format!(
                "NDJSON line {line_no}: expected an object, found {}",
                value.kind()
            ))
        })?;
        let mut row = Vec::with_capacity(schema.len());
        for field in schema.fields() {
            let cell = match object.get(&field.name) {
                None | Some(Json::Null) => Cell::Null,
                Some(Json::Number(n)) if field.dtype == DataType::Numeric => Cell::Number(*n),
                Some(Json::String(s)) if field.dtype == DataType::Categorical => {
                    Cell::Text(s.clone())
                }
                Some(other) => {
                    return Err(SourceError::Decode(format!(
                        "NDJSON line {line_no}: column `{}` expects {}, found {}",
                        field.name,
                        match field.dtype {
                            DataType::Numeric => "a number",
                            DataType::Categorical => "a string",
                        },
                        other.kind()
                    )))
                }
            };
            row.push(cell);
        }
        df.push_row(row)
            .map_err(|e| SourceError::Decode(format!("NDJSON line {line_no}: {e}")))?;
    }
    Ok(df)
}

/// How one payload fared under both decoders.
#[derive(Debug, PartialEq, Eq)]
enum Agreement {
    Accepted,
    Rejected(String),
}

/// Decode `payload` both ways and assert they agree: the same frame, with
/// every `f64` compared by its bits, or the same `Decode` error.
fn agree(payload: &[u8], schema: &Schema) -> Agreement {
    let shown = String::from_utf8_lossy(payload);
    match (
        ndjson_to_frame(payload, schema),
        reference_ndjson_to_frame(payload, schema),
    ) {
        (Ok(ours), Ok(reference)) => {
            assert_eq!(ours.n_rows(), reference.n_rows(), "{shown}");
            assert_eq!(ours.schema(), reference.schema(), "{shown}");
            for row in 0..ours.n_rows() {
                for col in 0..ours.n_cols() {
                    let (a, b) = (ours.value(row, col), reference.value(row, col));
                    match (a.expect("in range"), b.expect("in range")) {
                        (Cell::Number(x), Cell::Number(y)) => {
                            assert_eq!(x.to_bits(), y.to_bits(), "({row}, {col}) of {shown}")
                        }
                        (x, y) => assert_eq!(x, y, "({row}, {col}) of {shown}"),
                    }
                }
            }
            Agreement::Accepted
        }
        (Err(ours), Err(reference)) => {
            assert!(matches!(ours, SourceError::Decode(_)), "{ours:?}");
            assert_eq!(ours, reference, "{shown}");
            Agreement::Rejected(ours.to_string())
        }
        (ours, reference) => panic!(
            "decoders disagree on {shown:?}: ours {:?}, reference {:?}",
            ours.map(|df| df.n_rows()),
            reference.map(|df| df.n_rows())
        ),
    }
}

/// Spliced into lines, or into strings and numbers.
const FRAGMENTS: &[&str] = &[
    "\\\"",
    "é",
    "\\uD83E\\uDD80",
    "\\uD800",
    "\\uDC00",
    "\\uD800\\u0041",
    "1e999",
    "-0",
    "01",
    "1.",
    "-",
    "true",
    "{\"k\": [1, {\"j\": null}]}",
    "[[], {}]",
    "\"",
    ",",
    ":",
    "{",
    "}",
    "\\",
    "\r",
    "\n",
    " ",
];

/// Spellings a numeric cell can take besides its own shortest form.
const NUMBER_EDGES: &[&str] = &[
    "-0", "1e999", "-1e999", "1e-400", "01", "00", "1.", "-", "-.5", "1e", "1e+", "1E+2", "0.1e-3",
    "2.5E-1", "true", "false", "\"3\"", "[1]", "{}", "nul",
];

/// Pieces spliced into a categorical cell's string body.
const STRING_EDGES: &[&str] = &[
    "\\\"",
    "\\\\",
    "\\/",
    "\\n",
    "\\b\\f\\r\\t",
    "\\u00e9",
    "é",
    "🦀",
    "\\uD83E\\uDD80",
    "\\uD800",
    "\\uDC00",
    "\\uD800\\u0041",
    "\\uD800\\uE000",
    "\\u+041",
    "\\uZZZZ",
    "\\x",
    "\t",
];

/// Values of keys the schema does not have.
const UNKNOWN_VALUES: &[&str] = &[
    "true",
    "false",
    "null",
    "-12.5e3",
    "\"text\"",
    "[]",
    "{}",
    "[1, [2, [3]], {\"a\": {\"b\": [null]}}]",
    "{\"nested\": {\"deeper\": [true, \"\\u00e9\"]}, \"n\": -0}",
];

fn nyt_rows(rng: &mut StdRng) -> (Schema, Vec<Vec<Cell>>) {
    let kind = DatasetKind::NyTaxi;
    let seed = rng.gen();
    let clean = kind.generate_clean(256, seed);
    let dirty = kind.generate_dirty(256, seed ^ 1);
    let rows = clean.iter_rows().chain(dirty.iter_rows()).collect();
    (clean.schema().clone(), rows)
}

/// A JSON string literal of `text`.
fn quoted(text: &str) -> String {
    serde_json::to_string(&text).expect("strings serialise")
}

/// Insert `piece` at a random character boundary of `text`.
fn splice(rng: &mut StdRng, text: &str, piece: &str) -> String {
    let boundaries: Vec<usize> = text
        .char_indices()
        .map(|(i, _)| i)
        .chain([text.len()])
        .collect();
    let at = *boundaries.choose(rng).expect("at least the end");
    format!("{}{piece}{}", &text[..at], &text[at..])
}

/// `depth` nested arrays or objects around `null`.
fn nest(depth: usize, arrays: bool) -> String {
    if arrays {
        format!("{}null{}", "[".repeat(depth), "]".repeat(depth))
    } else {
        format!("{}null{}", "{\"d\":".repeat(depth), "}".repeat(depth))
    }
}

fn number_spelling(rng: &mut StdRng, x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    match rng.gen_range(0..50u32) {
        0 => NUMBER_EDGES.choose(rng).expect("nonempty").to_string(),
        1..=3 => format!("{x:e}"),
        4 | 5 => format!("{x:E}"),
        6..=8 => format!("{x:?}"),
        _ => x.to_string(),
    }
}

fn string_spelling(rng: &mut StdRng, text: &str) -> String {
    let mut literal = quoted(text);
    if rng.gen_bool(0.05) {
        let body = &literal[1..literal.len() - 1];
        let piece = STRING_EDGES.choose(rng).expect("nonempty");
        literal = format!("\"{}\"", splice(rng, body, piece));
    }
    if rng.gen_bool(0.01) {
        // A value of another kind for a categorical column.
        literal = ["12", "true", "[\"x\"]", "{\"a\": 1}"]
            .choose(rng)
            .expect("nonempty")
            .to_string();
    }
    literal
}

fn key_spelling(rng: &mut StdRng, name: &str) -> String {
    match rng.gen_range(0..40u32) {
        // The same key with its first character escaped: it must still match.
        0 => {
            let first = name.chars().next().expect("nonempty name");
            format!("\"\\u{:04x}{}\"", first as u32, &name[first.len_utf8()..])
        }
        1 => quoted(&name.to_uppercase()),
        _ => quoted(name),
    }
}

fn value_spelling(rng: &mut StdRng, cell: &Cell) -> String {
    if rng.gen_bool(0.03) {
        return "null".into();
    }
    match cell {
        Cell::Null => "null".into(),
        Cell::Number(x) => number_spelling(rng, *x),
        Cell::Text(text) => string_spelling(rng, text),
    }
}

/// A value of the wrong type for `field`'s column.
fn wrong_value(field: &Field) -> &'static str {
    match field.dtype {
        DataType::Numeric => "true",
        DataType::Categorical => "7",
    }
}

fn whitespace(rng: &mut StdRng) -> &'static str {
    [" ", "", "", "", "\t", "  ", "\r"]
        .choose(rng)
        .expect("nonempty")
}

/// One NY Taxi row as a JSON object with its keys in random order.
fn object_line(rng: &mut StdRng, schema: &Schema, row: &[Cell]) -> String {
    let mut members = Vec::new();
    for (field, cell) in schema.fields().iter().zip(row) {
        if rng.gen_bool(0.04) {
            continue;
        }
        let key = key_spelling(rng, &field.name);
        if rng.gen_bool(0.015) {
            // A duplicate whose other occurrence has the wrong type: fine
            // when the good value comes last, an error when it does not.
            members.push(format!("{key}:{}", wrong_value(field)));
        }
        members.push(format!("{key}:{}", value_spelling(rng, cell)));
    }
    if rng.gen_bool(0.3) {
        let value = if rng.gen_bool(0.1) {
            nest(rng.gen_range(120..=131), rng.gen_bool(0.5))
        } else {
            UNKNOWN_VALUES.choose(rng).expect("nonempty").to_string()
        };
        members.push(format!("\"unknown_{}\":{value}", rng.gen_range(0..3u32)));
    }
    members.shuffle(rng);
    let mut line = String::from("{");
    for (i, member) in members.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(whitespace(rng));
        line.push_str(member);
        line.push_str(whitespace(rng));
    }
    line.push('}');
    line
}

/// Byte-level damage: truncation, a bit flip, or a spliced fragment.
fn mutate(rng: &mut StdRng, line: String) -> Vec<u8> {
    let mut bytes = line.into_bytes();
    match rng.gen_range(0..3u32) {
        0 => bytes.truncate(rng.gen_range(0..=bytes.len())),
        1 => {
            if !bytes.is_empty() {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        _ => {
            let at = rng.gen_range(0..=bytes.len());
            let piece = FRAGMENTS.choose(rng).expect("nonempty");
            bytes.splice(at..at, piece.bytes());
        }
    }
    bytes
}

/// One payload of one to three lines.
fn payload(rng: &mut StdRng, schema: &Schema, rows: &[Vec<Cell>]) -> Vec<u8> {
    let newline: &[u8] = if rng.gen_bool(0.3) { b"\r\n" } else { b"\n" };
    let mut out = Vec::new();
    for i in 0..rng.gen_range(1..=3usize) {
        if i > 0 {
            out.extend_from_slice(newline);
        }
        let line: Vec<u8> = match rng.gen_range(0..40u32) {
            0 => Vec::new(),
            1 => b" \t ".to_vec(),
            2 => ["[1, 2]", "\"row\"", "42", "null", "true", "[{}]"]
                .choose(rng)
                .expect("nonempty")
                .as_bytes()
                .to_vec(),
            _ => {
                let row = rows.choose(rng).expect("rows");
                let line = object_line(rng, schema, row);
                if rng.gen_bool(0.15) {
                    mutate(rng, line)
                } else {
                    line.into_bytes()
                }
            }
        };
        out.extend_from_slice(&line);
    }
    if rng.gen_bool(0.5) {
        out.extend_from_slice(newline);
    }
    out
}

#[test]
fn seeded_payloads_decode_like_the_json_tree_decoder() {
    const CASES: usize = 20_000;
    let mut rng = StdRng::seed_from_u64(0x00DE_C0DE_5EED);
    let (schema, rows) = nyt_rows(&mut rng);
    let (mut accepted, mut rejected) = (0usize, Vec::new());
    for _ in 0..CASES {
        match agree(&payload(&mut rng, &schema, &rows), &schema) {
            Agreement::Accepted => accepted += 1,
            Agreement::Rejected(message) => rejected.push(message),
        }
    }
    eprintln!(
        "{CASES} cases: {accepted} accepted alike, {} rejected alike",
        rejected.len()
    );
    // The generator must keep both outcomes, and the rejections must reach
    // every kind of check, or the comparison proves little.
    assert!(accepted > CASES / 10, "only {accepted} accepted");
    assert!(
        rejected.len() > CASES / 10,
        "only {} rejected",
        rejected.len()
    );
    for needle in [
        "invalid UTF-8 in NDJSON payload",
        "expected an object, found array",
        "expects a number, found bool",
        "expects a string, found number",
        "recursion limit exceeded",
        "surrogate",
        "invalid number",
        "invalid escape sequence",
        "unterminated string",
        "trailing characters",
        "invalid literal",
    ] {
        assert!(
            rejected.iter().any(|message| message.contains(needle)),
            "no rejection mentions {needle:?}"
        );
    }
}

#[test]
fn nesting_under_an_ignored_key_stops_at_the_same_depth() {
    let schema = Schema::new(vec![Field::numeric("fare", "fare")]);
    for depth in 120..=131 {
        for arrays in [true, false] {
            let line = format!("{{\"fare\": 1, \"extra\": {}}}", nest(depth, arrays));
            let outcome = agree(line.as_bytes(), &schema);
            // The row object is one level: 126 more fit under the limit.
            if depth <= 126 {
                assert_eq!(outcome, Agreement::Accepted, "depth {depth}");
            } else {
                assert!(
                    matches!(&outcome, Agreement::Rejected(m) if m.contains("recursion limit exceeded")),
                    "depth {depth}: {outcome:?}"
                );
            }
        }
    }
}

#[test]
fn the_last_duplicate_of_a_key_wins() {
    let schema = Schema::new(vec![
        Field::numeric("fare", "fare"),
        Field::categorical("zone", "zone"),
    ]);
    let cases: [(&str, bool); 6] = [
        (r#"{"fare": true, "zone": "A", "fare": 2}"#, true),
        (r#"{"fare": 2, "zone": "A", "fare": true}"#, false),
        (r#"{"zone": 5, "zone": "B", "fare": null}"#, true),
        (r#"{"zone": "B", "zone": [1]}"#, false),
        (r#"{"fare": 1, "fare": null}"#, true),
        (r#"{"fare": 1, "fare": 01}"#, true),
    ];
    for (line, accepted) in cases {
        let outcome = agree(line.as_bytes(), &schema);
        assert_eq!(
            outcome == Agreement::Accepted,
            accepted,
            "{line}: {outcome:?}"
        );
    }
    let df = ndjson_to_frame(br#"{"fare": true, "fare": 2, "zone": "\u0041"}"#, &schema).unwrap();
    assert_eq!(df.value(0, 0).unwrap(), Cell::Number(2.0));
    assert_eq!(df.value(0, 1).unwrap(), Cell::Text("A".into()));
}

#[test]
fn a_deserialised_schema_that_repeats_a_name_fills_both_columns() {
    // `Schema::new` refuses a repeated name, but a deserialised schema can
    // hold one; the reference gives both columns the key's value.
    let zone = serde_json::to_string(&Field::categorical("zone", "")).unwrap();
    let fare = serde_json::to_string(&Field::numeric("fare", "")).unwrap();
    let schema: Schema =
        serde_json::from_str(&format!("{{\"fields\": [{zone}, {fare}, {zone}]}}")).unwrap();
    assert_eq!(schema.len(), 3);
    for line in [
        r#"{"zone": "A", "fare": 1}"#,
        r#"{"fare": 1, "zone": "A"}"#,
        r#"{"zone": 3}"#,
        r#"{}"#,
    ] {
        agree(line.as_bytes(), &schema);
    }
    let df = ndjson_to_frame(br#"{"fare": 1, "zone": "A"}"#, &schema).unwrap();
    assert_eq!(df.value(0, 2).unwrap(), Cell::Text("A".into()));
}
