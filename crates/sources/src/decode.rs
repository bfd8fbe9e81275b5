//! Wire-payload decoding: CSV and NDJSON bytes into typed [`DataFrame`]s.
//!
//! NDJSON is decoded in one pass per line, directed by the schema, with no
//! JSON tree in between. The payload must be UTF-8 as a whole; each
//! non-blank line is then scanned once, with the grammar and the error
//! messages of the workspace's `serde_json`:
//!
//! * a key is borrowed from the line (copied only when it holds an escape)
//!   and matched against the column names, the column after the last match
//!   first;
//! * a numeric column's number is scanned as `serde_json` scans it and
//!   parsed from its slice with `str::parse::<f64>`;
//! * a categorical column's string is the one allocation a cell makes;
//! * the value of an unknown key is checked and skipped, under the same
//!   128-level nesting limit;
//! * when a key repeats, the last value wins, so a value of the wrong type
//!   fails the line only if no later duplicate replaces it.
//!
//! So a payload decodes to a frame exactly when
//! `serde_json::from_str::<Value>` accepts each line and every keyed value
//! fits its column, and the frame holds the same bits.

use crate::SourceError;
use dquag_tabular::{csv, DataFrame, DataType, Schema, Value as Cell};
use std::borrow::Cow;
use std::fmt;

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
/// ones, `null` (or an absent key) for a missing value. When a key repeats,
/// its last value counts; unknown keys are checked and ignored.
pub fn ndjson_to_frame(payload: &[u8], schema: &Schema) -> Result<DataFrame, SourceError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| SourceError::Decode(format!("invalid UTF-8 in NDJSON payload: {e}")))?;
    let columns = Columns::new(schema);
    let mut cells: Vec<Slot> = vec![Ok(Cell::Null); schema.len()];
    let mut df = DataFrame::new(schema.clone());
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let at_line = |msg: String| SourceError::Decode(format!("NDJSON line {line_no}: {msg}"));
        Line::new(line)
            .read_row(&columns, &mut cells)
            .map_err(at_line)?;
        for &(column, first) in &columns.repeats {
            cells[column] = cells[first].clone();
        }
        let mut row = Vec::with_capacity(cells.len());
        for (field, cell) in schema.fields().iter().zip(&mut cells) {
            match std::mem::replace(cell, Ok(Cell::Null)) {
                Ok(cell) => row.push(cell),
                Err(kind) => {
                    return Err(at_line(format!(
                        "column `{}` expects {}, found {kind}",
                        field.name,
                        match field.dtype {
                            DataType::Numeric => "a number",
                            DataType::Categorical => "a string",
                        }
                    )))
                }
            }
        }
        df.push_row(row).map_err(|e| at_line(e.to_string()))?;
    }
    Ok(df)
}

/// One column's value on the current line: a cell, or the kind of a JSON
/// value that does not fit the column (`Value::kind`'s spelling).
type Slot = Result<Cell, &'static str>;

/// A syntax error's message, `serde_json`'s text included.
type Parsed<T> = Result<T, String>;

/// Upstream `serde_json`'s nesting budget: arrays and objects nest at most
/// 127 deep, so a hostile line of nested `[` cannot exhaust the stack.
const RECURSION_LIMIT: usize = 128;

/// The schema's column names, looked up by key.
struct Columns<'s> {
    /// Each name's first column, in schema order.
    keys: Vec<(&'s str, usize, DataType)>,
    /// `(column, first)`: a column whose name an earlier column `first`
    /// already has, and so the same value. [`Schema::new`] refuses such
    /// schemas, but a deserialised one can hold them.
    repeats: Vec<(usize, usize)>,
}

impl<'s> Columns<'s> {
    fn new(schema: &'s Schema) -> Self {
        let mut keys: Vec<(&str, usize, DataType)> = Vec::with_capacity(schema.len());
        let mut repeats = Vec::new();
        for (column, field) in schema.fields().iter().enumerate() {
            match keys.iter().find(|key| key.0 == field.name) {
                Some(&(_, first, _)) => repeats.push((column, first)),
                None => keys.push((&field.name, column, field.dtype)),
            }
        }
        Self { keys, repeats }
    }

    /// The index in `keys` of `name`, trying `hint` first.
    fn find(&self, name: &str, hint: usize) -> Option<usize> {
        match self.keys.get(hint) {
            Some(key) if key.0 == name => Some(hint),
            _ => self.keys.iter().position(|key| key.0 == name),
        }
    }
}

/// A cursor over one NDJSON line. Every check and message follows the
/// workspace's `serde_json` parser, so the two accept the same lines and
/// report the same error at the same byte.
struct Line<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Nesting levels left before the line is rejected.
    remaining_depth: usize,
}

impl<'a> Line<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            remaining_depth: RECURSION_LIMIT,
        }
    }

    /// Read the line's object into `cells`, indexed by column. Cells of
    /// absent keys are left as they are.
    fn read_row(&mut self, columns: &Columns<'_>, cells: &mut [Slot]) -> Parsed<()> {
        self.skip_whitespace();
        if self.peek() != Some(b'{') {
            let kind = self.skip_value()?;
            self.end()?;
            return Err(format!("expected an object, found {kind}"));
        }
        let mut hint = 0;
        self.nested(|line| {
            line.object(|line, key| {
                let Some(index) = columns.find(key, hint) else {
                    return line.skip_value().map(drop);
                };
                let (_, column, dtype) = columns.keys[index];
                cells[column] = line.cell(dtype)?;
                hint = index + 1;
                Ok(())
            })
        })?;
        self.end()
    }

    /// The next value as a `dtype` cell, or the kind of a value of another
    /// type.
    fn cell(&mut self, dtype: DataType) -> Parsed<Slot> {
        self.skip_whitespace();
        Ok(match (self.peek(), dtype) {
            (Some(b'n'), _) => self.literal("null").map(|()| Ok(Cell::Null))?,
            (Some(b'-' | b'0'..=b'9'), DataType::Numeric) => Ok(Cell::Number(self.number()?)),
            (Some(b'"'), DataType::Categorical) => Ok(Cell::Text(self.string()?.into_owned())),
            _ => Err(self.skip_value()?),
        })
    }

    /// Check and step over one value, returning its kind.
    fn skip_value(&mut self) -> Parsed<&'static str> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| "null"),
            Some(b't') => self.literal("true").map(|()| "bool"),
            Some(b'f') => self.literal("false").map(|()| "bool"),
            Some(b'"') => self.string().map(|_| "string"),
            Some(b'[') => self.nested(Self::skip_array).map(|()| "array"),
            Some(b'{') => self
                .nested(|line| line.object(|line, _| line.skip_value().map(drop)))
                .map(|()| "object"),
            Some(b'-' | b'0'..=b'9') => self.number().map(|_| "number"),
            Some(c) => Err(self.error(&format!("unexpected character `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Read one array or object (its opening byte under the cursor) a
    /// nesting level down.
    fn nested(&mut self, read: impl FnOnce(&mut Self) -> Parsed<()>) -> Parsed<()> {
        self.remaining_depth -= 1;
        if self.remaining_depth == 0 {
            return Err(self.error("recursion limit exceeded"));
        }
        let read = read(self);
        self.remaining_depth += 1;
        read
    }

    fn skip_array(&mut self) -> Parsed<()> {
        self.pos += 1;
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_value()?;
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    /// Read an object, handing each key to `member` with the cursor before
    /// its value; `member` must consume the value.
    fn object(&mut self, mut member: impl FnMut(&mut Self, &str) -> Parsed<()>) -> Parsed<()> {
        self.pos += 1;
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            member(self, &key)?;
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    /// A string, borrowed from the line unless it holds an escape.
    fn string(&mut self) -> Parsed<Cow<'a, str>> {
        self.expect(b'"')?;
        let start = self.pos;
        self.skip_unescaped();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                _ => return Err(self.error("unterminated string")),
            }
            let run = self.pos;
            self.skip_unescaped();
            out.push_str(&self.text[run..self.pos]);
        }
    }

    /// Step to the next `"`, `\` or the end of the line. Both bytes are
    /// ASCII, so the run is whole UTF-8.
    fn skip_unescaped(&mut self) {
        while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
            self.pos += 1;
        }
    }

    /// The character an escape spells, the cursor just past its backslash.
    fn escape(&mut self) -> Parsed<char> {
        let ch = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'u') => {
                self.pos += 1;
                let code = self.hex4()?;
                // Surrogate pairs: \uD800-\uDBFF followed by \uDC00-\uDFFF.
                if !(0xD800..0xDC00).contains(&code) {
                    return char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"));
                }
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(self.error("unpaired surrogate"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.error("lone leading surrogate"));
                }
                return char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                    .ok_or_else(|| self.error("invalid surrogate pair"));
            }
            _ => return Err(self.error("invalid escape sequence")),
        };
        self.pos += 1;
        Ok(ch)
    }

    fn hex4(&mut self) -> Parsed<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        // `from_str_radix` is what `serde_json` calls, so a leading `+` is
        // accepted here as it is there.
        let code = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .ok()
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// `-`? digits* (`.` digits*)? ([eE] [+-]? digits*)?, then whatever
    /// `str::parse::<f64>` makes of it.
    fn number(&mut self) -> Parsed<f64> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.skip_digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map_err(|_| self.error(&format!("invalid number `{text}`")))
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, word: &str) -> Parsed<()> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn expect(&mut self, byte: u8) -> Parsed<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    /// Only whitespace may follow the line's value.
    fn end(&mut self) -> Parsed<()> {
        self.skip_whitespace();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters after JSON document"))
        }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn error(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }
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
    fn unpaired_surrogate_escapes_are_decode_errors() {
        // A high surrogate followed by an escape that is not a low surrogate
        // is a decode error: no panic on overflowing arithmetic, no made-up
        // character.
        for second in ["0041", "E000"] {
            let line = format!("{{\"age\": 1, \"city\": \"{0}uD800{0}u{second}\"}}", '\\');
            let err = decode_batch(WireFormat::Ndjson, line.as_bytes(), &schema()).unwrap_err();
            assert!(matches!(err, SourceError::Decode(_)), "{err}");
            assert!(err.to_string().contains("surrogate"), "{err}");
        }
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
