//! Feature encoding and normalisation.
//!
//! Mirrors the paper's §3.1 preprocessing:
//!
//! * **Categorical features** are label-encoded. The encoder is fitted over
//!   the clean training data *and* any future data (use
//!   [`DatasetEncoder::fit_many`]) so that the same category always maps to
//!   the same code. Codes are additionally scaled to `[0, 1]` so that all
//!   features live on a comparable range for the GNN.
//! * **Numerical features** are min-max normalised to `[0, 1]`.
//!
//! Cells the encoder cannot place inside the learned clean range are mapped
//! *outside* `[0, 1]` on purpose: missing values become
//! [`MISSING_SENTINEL`], unseen categories land just above `1`. The GNN never
//! saw such values during training, so they produce the large reconstruction
//! errors that drive detection.

use crate::dataframe::{Column, DataFrame};
use crate::schema::Schema;
use crate::value::{DataType, Value};
use crate::{Result, TabularError};
use std::collections::HashMap;

/// Encoded value used for missing cells. Deliberately outside `[0, 1]`.
pub const MISSING_SENTINEL: f32 = -0.5;

/// Bound on the magnitude of an encoded numeric. Far outside `[0, 1]`, so a
/// clamped value still stands out, yet small enough that the network's
/// activations stay finite. Clean and injected data encode to within about
/// ±17, so only raw values like `inf` or `1e39` ever reach it.
const ENCODED_NUMERIC_BOUND: f64 = 1.0e6;

/// A fitted label encoder for one categorical column.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LabelEncoder {
    code_of: HashMap<String, usize>,
    labels: Vec<String>,
}

impl LabelEncoder {
    /// Fit over an iterator of observed labels. Labels are assigned codes in
    /// lexicographic order so that fitting is order-independent.
    pub fn fit<'a, I: IntoIterator<Item = &'a str>>(labels: I) -> Self {
        let mut unique: Vec<String> = labels.into_iter().map(str::to_string).collect();
        unique.sort();
        unique.dedup();
        let code_of = unique
            .iter()
            .enumerate()
            .map(|(i, l)| (l.clone(), i))
            .collect();
        Self {
            code_of,
            labels: unique,
        }
    }

    /// Number of known labels.
    pub fn n_labels(&self) -> usize {
        self.labels.len()
    }

    /// The code for a label, if known.
    pub fn code(&self, label: &str) -> Option<usize> {
        self.code_of.get(label).copied()
    }

    /// The label for a code, if in range.
    pub fn label(&self, code: usize) -> Option<&str> {
        self.labels.get(code).map(String::as_str)
    }

    /// Encode a label into normalised `[0, 1]` space. Unknown labels map just
    /// above `1.0` so they stand out as out-of-distribution.
    pub fn encode_normalised(&self, label: &str) -> f32 {
        let denom = (self.n_labels().saturating_sub(1)).max(1) as f32;
        match self.code(label) {
            Some(code) => code as f32 / denom,
            None => (self.n_labels() as f32 + 1.0) / denom,
        }
    }

    /// Decode a normalised value back to the nearest known label.
    pub fn decode_normalised(&self, value: f32) -> Option<&str> {
        if self.labels.is_empty() {
            return None;
        }
        let denom = (self.n_labels().saturating_sub(1)).max(1) as f32;
        let code = (value * denom)
            .round()
            .clamp(0.0, (self.n_labels() - 1) as f32) as usize;
        self.label(code)
    }
}

/// A fitted min-max scaler for one numeric column.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MinMaxScaler {
    min: f64,
    max: f64,
}

impl MinMaxScaler {
    /// Fit over observed values. Degenerate columns (empty or constant) scale
    /// everything to `0.5`.
    pub fn fit<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for v in values {
            if v.is_finite() {
                min = min.min(v);
                max = max.max(v);
            }
        }
        if !min.is_finite() || !max.is_finite() {
            min = 0.0;
            max = 0.0;
        }
        Self { min, max }
    }

    /// The fitted minimum.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// The fitted maximum.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Scale a raw value into the unit interval (values outside the fitted
    /// range land outside `[0, 1]`, which is intentional — see module docs).
    ///
    /// The result is always finite: `NaN` encodes as [`MISSING_SENTINEL`],
    /// and anything else is clamped to ±10⁶, so `inf` or `1e39` is judged
    /// as a bad value rather than poisoning the network's arithmetic. When
    /// the fitted range itself overflows to infinity, an infinite value
    /// scales to `inf / inf` and encodes as [`MISSING_SENTINEL`] too.
    pub fn transform(&self, value: f64) -> f32 {
        if value.is_nan() {
            return MISSING_SENTINEL;
        }
        let range = self.max - self.min;
        if range.abs() < f64::EPSILON {
            return 0.5;
        }
        let scaled = (value - self.min) / range;
        if scaled.is_nan() {
            return MISSING_SENTINEL;
        }
        scaled.clamp(-ENCODED_NUMERIC_BOUND, ENCODED_NUMERIC_BOUND) as f32
    }

    /// Map a normalised value back to the raw scale.
    pub fn inverse(&self, value: f32) -> f64 {
        let range = self.max - self.min;
        if range.abs() < f64::EPSILON {
            self.min
        } else {
            self.min + value as f64 * range
        }
    }
}

/// Per-column encoder.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ColumnEncoder {
    /// Min-max scaling for numeric columns.
    MinMax(MinMaxScaler),
    /// Label encoding for categorical columns.
    Label(LabelEncoder),
}

/// A dense, fully numeric encoding of a dataframe: `n_rows × n_features`
/// `f32` values in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedData {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f32>,
}

impl EncodedData {
    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of encoded features (== schema width).
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Borrow one encoded row.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.n_cols..(r + 1) * self.n_cols]
    }

    /// Read one cell.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.n_cols + c]
    }

    /// Borrow the raw row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

/// A fitted encoder for a whole schema: one [`ColumnEncoder`] per column.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DatasetEncoder {
    schema: Schema,
    encoders: Vec<ColumnEncoder>,
}

impl DatasetEncoder {
    /// Fit on a single dataframe.
    pub fn fit(df: &DataFrame) -> Self {
        Self::fit_many(&[df])
    }

    /// Fit on several dataframes sharing a schema. The paper fits the label
    /// encoder on the clean data *and* any future data so that codes stay
    /// consistent between the training and validation phases.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty or schemas differ (programming error in
    /// the calling pipeline).
    pub fn fit_many(frames: &[&DataFrame]) -> Self {
        assert!(
            !frames.is_empty(),
            "DatasetEncoder::fit_many needs at least one frame"
        );
        let schema = frames[0].schema().clone();
        for f in frames {
            assert_eq!(
                f.schema(),
                &schema,
                "DatasetEncoder::fit_many requires identical schemas"
            );
        }
        let mut encoders = Vec::with_capacity(schema.len());
        for (col_idx, field) in schema.fields().iter().enumerate() {
            let encoder = match field.dtype {
                DataType::Numeric => {
                    let values = frames.iter().flat_map(|f| {
                        match f.column(col_idx).expect("column in range") {
                            Column::Numeric(v) => v.iter().flatten().copied().collect::<Vec<_>>(),
                            Column::Categorical(_) => Vec::new(),
                        }
                    });
                    ColumnEncoder::MinMax(MinMaxScaler::fit(values))
                }
                DataType::Categorical => {
                    let mut labels: Vec<&str> = Vec::new();
                    for f in frames {
                        if let Column::Categorical(v) = f.column(col_idx).expect("column in range")
                        {
                            labels.extend(v.iter().flatten().map(String::as_str));
                        }
                    }
                    ColumnEncoder::Label(LabelEncoder::fit(labels))
                }
            };
            encoders.push(encoder);
        }
        Self { schema, encoders }
    }

    /// The schema the encoder was fitted on.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of encoded features.
    pub fn n_features(&self) -> usize {
        self.encoders.len()
    }

    /// The per-column encoder at `index`.
    pub fn column_encoder(&self, index: usize) -> Option<&ColumnEncoder> {
        self.encoders.get(index)
    }

    /// Encode a whole dataframe into a dense matrix.
    pub fn transform(&self, df: &DataFrame) -> Result<EncodedData> {
        if df.schema() != &self.schema {
            return Err(TabularError::EncoderMismatch(
                "dataframe schema differs from the schema the encoder was fitted on".to_string(),
            ));
        }
        let n_rows = df.n_rows();
        let n_cols = self.encoders.len();
        let mut data = vec![0.0f32; n_rows * n_cols];
        for (c, encoder) in self.encoders.iter().enumerate() {
            let column = df.column(c)?;
            match (encoder, column) {
                (ColumnEncoder::MinMax(scaler), Column::Numeric(values)) => {
                    for (r, v) in values.iter().enumerate() {
                        data[r * n_cols + c] = match v {
                            Some(x) => scaler.transform(*x),
                            None => MISSING_SENTINEL,
                        };
                    }
                }
                (ColumnEncoder::Label(enc), Column::Categorical(values)) => {
                    for (r, v) in values.iter().enumerate() {
                        data[r * n_cols + c] = match v {
                            Some(label) => enc.encode_normalised(label),
                            None => MISSING_SENTINEL,
                        };
                    }
                }
                _ => {
                    return Err(TabularError::EncoderMismatch(format!(
                        "column {c} type does not match the fitted encoder"
                    )))
                }
            }
        }
        Ok(EncodedData {
            n_rows,
            n_cols,
            data,
        })
    }

    /// Encode a single cell value for column `col`.
    pub fn encode_cell(&self, col: usize, value: &Value) -> Result<f32> {
        let encoder = self
            .encoders
            .get(col)
            .ok_or(TabularError::ColumnIndexOutOfBounds {
                index: col,
                len: self.encoders.len(),
            })?;
        Ok(match (encoder, value) {
            (_, Value::Null) => MISSING_SENTINEL,
            (ColumnEncoder::MinMax(s), Value::Number(n)) => s.transform(*n),
            (ColumnEncoder::Label(e), Value::Text(t)) => e.encode_normalised(t),
            (ColumnEncoder::MinMax(_), other) => {
                return Err(TabularError::TypeMismatch {
                    column: self.schema.fields()[col].name.clone(),
                    expected: "a number or null",
                    actual: format!("{other:?}"),
                })
            }
            (ColumnEncoder::Label(_), other) => {
                return Err(TabularError::TypeMismatch {
                    column: self.schema.fields()[col].name.clone(),
                    expected: "text or null",
                    actual: format!("{other:?}"),
                })
            }
        })
    }

    /// Decode a normalised model output back into a typed value for column
    /// `col` — numeric columns invert the min-max scaling, categorical
    /// columns snap to the nearest known label. This is how the repair
    /// decoder's suggestions become concrete replacement values.
    pub fn decode_cell(&self, col: usize, value: f32) -> Result<Value> {
        let encoder = self
            .encoders
            .get(col)
            .ok_or(TabularError::ColumnIndexOutOfBounds {
                index: col,
                len: self.encoders.len(),
            })?;
        Ok(match encoder {
            ColumnEncoder::MinMax(s) => Value::Number(s.inverse(value.clamp(0.0, 1.0))),
            ColumnEncoder::Label(e) => e
                .decode_normalised(value)
                .map(|l| Value::Text(l.to_string()))
                .unwrap_or(Value::Null),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::numeric("age", "age in years"),
            Field::categorical("city", "city name"),
        ])
    }

    fn frame(rows: &[(Option<f64>, Option<&str>)]) -> DataFrame {
        let mut df = DataFrame::new(schema());
        for (n, t) in rows {
            df.push_row(vec![
                n.map(Value::Number).unwrap_or(Value::Null),
                t.map(|s| Value::Text(s.into())).unwrap_or(Value::Null),
            ])
            .unwrap();
        }
        df
    }

    #[test]
    fn label_encoder_is_order_independent_and_bijective() {
        let a = LabelEncoder::fit(vec!["b", "a", "c", "a"]);
        let b = LabelEncoder::fit(vec!["c", "a", "b"]);
        assert_eq!(a, b);
        assert_eq!(a.n_labels(), 3);
        for label in ["a", "b", "c"] {
            let code = a.code(label).unwrap();
            assert_eq!(a.label(code), Some(label));
        }
        assert_eq!(a.code("zzz"), None);
    }

    #[test]
    fn label_encoding_normalised_range_and_unknowns() {
        let e = LabelEncoder::fit(vec!["low", "mid", "high"]);
        for label in ["low", "mid", "high"] {
            let v = e.encode_normalised(label);
            assert!((0.0..=1.0).contains(&v));
            assert_eq!(e.decode_normalised(v), Some(label));
        }
        assert!(e.encode_normalised("unseen") > 1.0);
        // decoding clamps to a known label
        assert!(e.decode_normalised(9.0).is_some());
    }

    #[test]
    fn single_label_encoder_does_not_divide_by_zero() {
        let e = LabelEncoder::fit(vec!["only"]);
        let v = e.encode_normalised("only");
        assert!(v.is_finite());
        assert_eq!(e.decode_normalised(v), Some("only"));
    }

    #[test]
    fn min_max_scaler_round_trip() {
        let s = MinMaxScaler::fit(vec![10.0, 20.0, 30.0]);
        assert_eq!(s.min(), 10.0);
        assert_eq!(s.max(), 30.0);
        assert!((s.transform(20.0) - 0.5).abs() < 1e-6);
        assert!((s.inverse(0.5) - 20.0).abs() < 1e-6);
        assert!(s.transform(40.0) > 1.0);
        assert!(s.transform(0.0) < 0.0);
    }

    #[test]
    fn constant_column_scales_to_half() {
        let s = MinMaxScaler::fit(vec![5.0, 5.0]);
        assert_eq!(s.transform(5.0), 0.5);
        assert_eq!(s.inverse(0.7), 5.0);
        let empty = MinMaxScaler::fit(Vec::<f64>::new());
        assert_eq!(empty.transform(1.0), 0.5);
    }

    #[test]
    fn dataset_encoder_transform_shapes_and_values() {
        let clean = frame(&[
            (Some(20.0), Some("Paris")),
            (Some(40.0), Some("London")),
            (Some(60.0), Some("Paris")),
        ]);
        let enc = DatasetEncoder::fit(&clean);
        assert_eq!(enc.n_features(), 2);
        let out = enc.transform(&clean).unwrap();
        assert_eq!(out.n_rows(), 3);
        assert_eq!(out.n_cols(), 2);
        assert!((out.get(0, 0) - 0.0).abs() < 1e-6);
        assert!((out.get(1, 0) - 0.5).abs() < 1e-6);
        assert!((out.get(2, 0) - 1.0).abs() < 1e-6);
        // every encoded clean value is in [0,1]
        assert!(out.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn missing_and_unknown_values_fall_outside_unit_interval() {
        let clean = frame(&[(Some(20.0), Some("Paris")), (Some(40.0), Some("London"))]);
        let enc = DatasetEncoder::fit(&clean);
        let dirty = frame(&[(None, Some("Tokyo")), (Some(100.0), None)]);
        let out = enc.transform(&dirty).unwrap();
        assert_eq!(out.get(0, 0), MISSING_SENTINEL);
        assert!(out.get(0, 1) > 1.0, "unknown category must exceed 1.0");
        assert!(out.get(1, 0) > 1.0, "out-of-range numeric must exceed 1.0");
        assert_eq!(out.get(1, 1), MISSING_SENTINEL);
    }

    #[test]
    fn non_finite_and_huge_numerics_encode_to_finite_values() {
        let scaler = MinMaxScaler::fit([0.0, 10.0]);
        assert_eq!(scaler.transform(f64::NAN), MISSING_SENTINEL);
        assert_eq!(scaler.transform(f64::INFINITY), 1.0e6);
        assert_eq!(scaler.transform(f64::NEG_INFINITY), -1.0e6);
        assert_eq!(scaler.transform(1e39), 1.0e6, "beyond f32 range");
        assert_eq!(scaler.transform(-1e39), -1.0e6);
        assert_eq!(scaler.transform(5.0), 0.5);
        assert_eq!(
            scaler.transform(180.0),
            18.0,
            "out of range, below the bound"
        );
        // A range that overflows f64 turns an infinite cell into inf / inf.
        let wide = MinMaxScaler::fit([-1e308, 1e308]);
        assert_eq!(wide.transform(f64::INFINITY), MISSING_SENTINEL);
        assert_eq!(wide.transform(f64::NEG_INFINITY), MISSING_SENTINEL);
        assert!(wide.transform(1e308).is_finite());
    }

    #[test]
    fn fit_many_unions_label_space() {
        let clean = frame(&[(Some(1.0), Some("Paris"))]);
        let future = frame(&[(Some(2.0), Some("Tokyo"))]);
        let enc = DatasetEncoder::fit_many(&[&clean, &future]);
        match enc.column_encoder(1).unwrap() {
            ColumnEncoder::Label(l) => {
                assert_eq!(l.n_labels(), 2);
                assert!(l.code("Tokyo").is_some());
            }
            _ => panic!("expected label encoder"),
        }
    }

    #[test]
    fn transform_rejects_other_schema() {
        let clean = frame(&[(Some(1.0), Some("a"))]);
        let enc = DatasetEncoder::fit(&clean);
        let other = DataFrame::new(Schema::new(vec![Field::numeric("x", "")]));
        assert!(matches!(
            enc.transform(&other),
            Err(TabularError::EncoderMismatch(_))
        ));
    }

    #[test]
    fn fitted_encoder_round_trips_through_json() {
        let clean = frame(&[
            (Some(20.0), Some("Paris")),
            (Some(40.0), Some("London")),
            (None, Some("Tokyo")),
        ]);
        let enc = DatasetEncoder::fit(&clean);
        let json = serde_json::to_string(&enc).unwrap();
        let back: DatasetEncoder = serde_json::from_str(&json).unwrap();
        assert_eq!(back, enc);
        // The restored encoder behaves identically, including on values the
        // original never saw.
        assert_eq!(
            back.encode_cell(1, &Value::Text("unseen".into())).unwrap(),
            enc.encode_cell(1, &Value::Text("unseen".into())).unwrap()
        );
        assert_eq!(
            back.encode_cell(0, &Value::Number(33.3)).unwrap(),
            enc.encode_cell(0, &Value::Number(33.3)).unwrap()
        );
    }

    #[test]
    fn encode_and_decode_cells() {
        let clean = frame(&[(Some(0.0), Some("a")), (Some(10.0), Some("b"))]);
        let enc = DatasetEncoder::fit(&clean);
        assert_eq!(enc.encode_cell(0, &Value::Null).unwrap(), MISSING_SENTINEL);
        assert!((enc.encode_cell(0, &Value::Number(5.0)).unwrap() - 0.5).abs() < 1e-6);
        assert!(enc.encode_cell(0, &Value::Text("x".into())).is_err());
        assert!(enc.encode_cell(1, &Value::Number(5.0)).is_err());
        assert!(enc.encode_cell(9, &Value::Null).is_err());

        match enc.decode_cell(0, 0.5).unwrap() {
            Value::Number(n) => assert!((n - 5.0).abs() < 1e-6),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(enc.decode_cell(1, 0.0).unwrap(), Value::Text("a".into()));
        assert_eq!(enc.decode_cell(1, 1.0).unwrap(), Value::Text("b".into()));
        // out-of-range numeric decodes are clamped into the clean range
        match enc.decode_cell(0, 7.0).unwrap() {
            Value::Number(n) => assert!(n <= 10.0),
            other => panic!("unexpected {other:?}"),
        }
    }
}
