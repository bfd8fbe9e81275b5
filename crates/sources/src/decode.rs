//! Wire-payload decoding: CSV and NDJSON bytes into typed [`DataFrame`]s.

use crate::SourceError;
use dquag_tabular::{csv, DataFrame, DataType, Schema, Value as Cell};
use serde_json::Value as Json;
use std::fmt;
use std::str::FromStr;

/// The payload encodings the network adapters accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireFormat {
    /// Header row + one CSV record per line (the same dialect
    /// `dquag_tabular::csv` writes). CRLF and a missing trailing newline
    /// are accepted.
    Csv,
    /// One JSON object per line, keys matching schema column names. Missing
    /// keys and JSON `null`s become missing values; unknown keys are
    /// ignored.
    Ndjson,
}

impl WireFormat {
    /// Map an HTTP `Content-Type` to a format (CSV unless the type names
    /// JSON).
    pub fn from_content_type(content_type: &str) -> Self {
        let lowered = content_type.to_ascii_lowercase();
        if lowered.contains("ndjson") || lowered.contains("json") {
            WireFormat::Ndjson
        } else {
            WireFormat::Csv
        }
    }
}

impl fmt::Display for WireFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WireFormat::Csv => "csv",
            WireFormat::Ndjson => "ndjson",
        })
    }
}

impl FromStr for WireFormat {
    type Err = SourceError;

    fn from_str(s: &str) -> Result<Self, SourceError> {
        match s {
            "csv" => Ok(WireFormat::Csv),
            "ndjson" => Ok(WireFormat::Ndjson),
            other => Err(SourceError::Frame(format!(
                "unknown batch format `{other}` (expected csv or ndjson)"
            ))),
        }
    }
}

/// Decode one framed payload into a typed batch.
pub fn decode_batch(
    format: WireFormat,
    payload: &[u8],
    schema: &Schema,
) -> Result<DataFrame, SourceError> {
    match format {
        WireFormat::Csv => {
            csv::from_csv_bytes(payload, schema).map_err(|e| SourceError::Decode(e.to_string()))
        }
        WireFormat::Ndjson => ndjson_to_frame(payload, schema),
    }
}

/// Decode newline-delimited JSON objects into a typed batch.
///
/// Each non-blank line must be a JSON object; values are matched to the
/// schema by key: numbers for numeric columns, strings for categorical
/// ones, `null` (or an absent key) for a missing value.
pub fn ndjson_to_frame(payload: &[u8], schema: &Schema) -> Result<DataFrame, SourceError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use dquag_tabular::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::numeric("age", "age"),
            Field::categorical("city", "city"),
        ])
    }

    #[test]
    fn format_parsing_and_content_types() {
        assert_eq!("csv".parse::<WireFormat>().unwrap(), WireFormat::Csv);
        assert_eq!("ndjson".parse::<WireFormat>().unwrap(), WireFormat::Ndjson);
        assert!("xml".parse::<WireFormat>().is_err());
        assert_eq!(WireFormat::from_content_type("text/csv"), WireFormat::Csv);
        assert_eq!(
            WireFormat::from_content_type("application/x-ndjson; charset=utf-8"),
            WireFormat::Ndjson
        );
        assert_eq!(WireFormat::Csv.to_string(), "csv");
    }

    #[test]
    fn ndjson_decodes_typed_rows() {
        let payload = concat!(
            "{\"age\": 31, \"city\": \"Paris\"}\n",
            "\n",
            "{\"city\": \"Lyon\", \"age\": null, \"extra\": true}\r\n",
            "{\"age\": 2.5, \"city\": \"Nice\"}",
        );
        let df = ndjson_to_frame(payload.as_bytes(), &schema()).unwrap();
        assert_eq!(df.n_rows(), 3);
        assert_eq!(df.value(0, 0).unwrap(), Cell::Number(31.0));
        assert_eq!(df.value(1, 0).unwrap(), Cell::Null);
        assert_eq!(df.value(1, 1).unwrap(), Cell::Text("Lyon".into()));
        assert_eq!(df.value(2, 0).unwrap(), Cell::Number(2.5));
    }

    #[test]
    fn ndjson_type_mismatches_are_reported_with_lines() {
        let payload = b"{\"age\": \"old\", \"city\": \"Paris\"}";
        let err = ndjson_to_frame(payload, &schema()).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("line 1"), "{text}");
        assert!(text.contains("age"), "{text}");

        let not_object = b"[1, 2]";
        assert!(ndjson_to_frame(not_object, &schema()).is_err());
        let bad_json = b"{nope";
        assert!(ndjson_to_frame(bad_json, &schema()).is_err());
    }

    #[test]
    fn deeply_nested_ndjson_is_a_decode_error() {
        // Each `[` costs the JSON parser a stack frame; the nesting limit
        // must turn this into an error long before the stack runs out.
        let hostile = "[".repeat(100_000);
        let err = decode_batch(WireFormat::Ndjson, hostile.as_bytes(), &schema()).unwrap_err();
        assert!(
            err.to_string().contains("recursion limit exceeded"),
            "{err}"
        );
    }

    #[test]
    fn csv_and_ndjson_payloads_decode_identically() {
        let csv_payload = b"age,city\r\n31,Paris\r\n,Lyon";
        let ndjson_payload =
            b"{\"age\": 31, \"city\": \"Paris\"}\n{\"age\": null, \"city\": \"Lyon\"}";
        let a = decode_batch(WireFormat::Csv, csv_payload, &schema()).unwrap();
        let b = decode_batch(WireFormat::Ndjson, ndjson_payload, &schema()).unwrap();
        assert_eq!(a.n_rows(), b.n_rows());
        for row in 0..a.n_rows() {
            for col in 0..a.n_cols() {
                assert_eq!(a.value(row, col).unwrap(), b.value(row, col).unwrap());
            }
        }
    }
}
