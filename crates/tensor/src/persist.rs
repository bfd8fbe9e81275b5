//! Serialisation and integrity support for persisted tensor parameters.
//!
//! Fitted models are written to disk as JSON (see `dquag-persist`), so
//! [`Matrix`] gains hand-written `serde` impls here: a
//! `{rows, cols, data: [..]}` object whose entries pass through `f64`
//! losslessly (every `f32` is exactly representable as `f64`, and the
//! vendored `serde_json` guarantees exact finite-`f64` round-trips).
//!
//! The same module provides the FNV-1a checksum the persisted-model format
//! uses to fail closed on corrupted or hand-edited parameter files: the
//! checksum covers each matrix's shape and the raw bit pattern of every
//! element, so any single-bit flip in a weight changes it. The byte-wise
//! [`fnv1a`] it folds with is the workspace's one FNV-1a; the model-file
//! envelope in `dquag-persist` hashes its payload text with it too.

use crate::Matrix;
use serde::{DeError, Deserialize, Serialize, Value};

impl Serialize for Matrix {
    fn to_value(&self) -> Value {
        let mut map = std::collections::BTreeMap::new();
        map.insert("rows".to_string(), Value::Number(self.rows() as f64));
        map.insert("cols".to_string(), Value::Number(self.cols() as f64));
        map.insert(
            "data".to_string(),
            Value::Array(
                self.as_slice()
                    .iter()
                    .map(|&x| Value::Number(f64::from(x)))
                    .collect(),
            ),
        );
        Value::Object(map)
    }
}

impl Deserialize for Matrix {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_object().ok_or_else(|| {
            DeError::custom(format!("expected object for Matrix, found {}", v.kind()))
        })?;
        let rows = usize::from_value(obj.get("rows").unwrap_or(&Value::Null))
            .map_err(|e| DeError::custom(format!("Matrix rows: {e}")))?;
        let cols = usize::from_value(obj.get("cols").unwrap_or(&Value::Null))
            .map_err(|e| DeError::custom(format!("Matrix cols: {e}")))?;
        let data = Vec::<f32>::from_value(obj.get("data").unwrap_or(&Value::Null))
            .map_err(|e| DeError::custom(format!("Matrix data: {e}")))?;
        Matrix::from_vec(rows, cols, data)
            .map_err(|e| DeError::custom(format!("Matrix shape: {e}")))
    }
}

/// FNV-1a offset basis (64-bit): the state a fresh [`fnv1a`] hash starts
/// from.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x00000100000001b3;

/// Fold a byte slice into a running FNV-1a 64-bit hash. Start from
/// [`FNV_OFFSET`]; `fnv1a(FNV_OFFSET, bytes)` is the textbook hash of
/// `bytes`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Fold a slice of `f32` bit patterns into the hash, two elements per step.
///
/// The byte-at-a-time FNV chain is a serial xor-multiply dependency — eight
/// multiplies per element — which is too slow for a checksum re-verified on
/// the first forward pass of every scoring session. Folding whole 64-bit
/// words (two packed element bit patterns per step) keeps the certificate:
/// every xor-multiply step is a bijection of the hash state, so a single
/// flipped bit in any element still changes the final value.
fn fnv1a_elems(mut hash: u64, elems: &[f32]) -> u64 {
    let mut pairs = elems.chunks_exact(2);
    for pair in &mut pairs {
        hash ^= u64::from(pair[0].to_bits()) | (u64::from(pair[1].to_bits()) << 32);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    for &x in pairs.remainder() {
        hash ^= u64::from(x.to_bits());
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Checksum one matrix: shape plus the bit pattern of every element.
///
/// Uses `to_bits` rather than the numeric value so `-0.0` vs `0.0` and
/// distinct NaN payloads all hash differently — the checksum certifies the
/// stored bytes, not numeric equivalence.
pub fn matrix_checksum(matrix: &Matrix) -> u64 {
    let mut hash = FNV_OFFSET;
    hash = fnv1a(hash, &(matrix.rows() as u64).to_le_bytes());
    hash = fnv1a(hash, &(matrix.cols() as u64).to_le_bytes());
    fnv1a_elems(hash, matrix.as_slice())
}

/// Checksum an ordered sequence of named matrices (a parameter store).
///
/// The name is hashed alongside each matrix so renaming or reordering
/// parameters changes the result even when the values are identical.
pub fn params_checksum<'a, I>(params: I) -> u64
where
    I: IntoIterator<Item = (&'a str, &'a Matrix)>,
{
    let mut hash = FNV_OFFSET;
    for (name, matrix) in params {
        hash = fnv1a(hash, name.as_bytes());
        hash = fnv1a(hash, &matrix_checksum(matrix).to_le_bytes());
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(vec![vec![1.5, -2.25, 0.0], vec![-0.0, 3.0e-7, 1.0e9]])
    }

    #[test]
    fn matrix_round_trips_bit_exactly_through_json() {
        let m = sample();
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shape(), m.shape());
        for (a, b) in back.as_slice().iter().zip(m.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn mismatched_shape_is_rejected() {
        let json = r#"{"rows": 2, "cols": 3, "data": [1, 2, 3]}"#;
        assert!(serde_json::from_str::<Matrix>(json).is_err());
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let m = sample();
        let base = matrix_checksum(&m);
        let mut tweaked = m.clone();
        tweaked.set(1, 2, f32::from_bits(m.get(1, 2).to_bits() ^ 1));
        assert_ne!(matrix_checksum(&tweaked), base);
        // Sign of zero matters: the checksum certifies bytes, not numerics.
        let mut zero_flip = m.clone();
        zero_flip.set(0, 2, -0.0);
        assert_ne!(matrix_checksum(&zero_flip), base);
    }

    #[test]
    fn params_checksum_is_sensitive_to_names_and_order() {
        let a = Matrix::ones(2, 2);
        let b = Matrix::zeros(2, 2);
        let fwd = params_checksum([("w1", &a), ("w2", &b)]);
        let rev = params_checksum([("w2", &b), ("w1", &a)]);
        let renamed = params_checksum([("w1", &a), ("w3", &b)]);
        assert_ne!(fwd, rev);
        assert_ne!(fwd, renamed);
    }
}
