//! Workload inputs: the clean reference each deployment is fitted on and
//! the pool of labelled wire frames the load generator cycles through.
//!
//! The reference — and with it the fitted model — is the same for every
//! seed: a model fitted on a few hundred rows calibrates its threshold on
//! a hundred, so a per-seed reference would make detection quality, not
//! the code, the main source of run-to-run spread. The seed picks the
//! traffic. Everything here is a pure function of the seed, so the same
//! seed yields byte-identical payloads.

use dquag_datagen::errors::PAPER_ERROR_RATE;
use dquag_datagen::{
    inject_hidden, inject_ordinary, make_test_batches, BatchProtocol, DatasetKind, OrdinaryError,
};
use dquag_sources::WireFormat;
use dquag_tabular::{csv, DataFrame, Value};

/// One labelled batch: the generated frame, its ground-truth label and the
/// bytes that go on the wire.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The generated rows (what the direct verdict is computed on).
    pub data: DataFrame,
    /// Ground truth: true when errors were injected.
    pub dirty: bool,
    /// The payload exactly as the listener receives it.
    pub payload: Vec<u8>,
}

/// A workload's inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The dataset the frames are drawn from.
    pub kind: DatasetKind,
    /// Wire encoding of every payload.
    pub format: WireFormat,
    /// Clean rows the validator is fitted on.
    pub reference: DataFrame,
    /// Distinct frames, sent round-robin.
    pub frames: Vec<Frame>,
}

/// Seed of the clean reference every run fits on.
const REFERENCE_SEED: u64 = 0x005E_ED0F_DA7A;

/// A well-spread 64-bit seed for stream `stream` of run seed `seed`
/// (SplitMix64 finaliser).
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(stream.wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Apply the paper's three ordinary errors (§4.1.2) at `rate` to the
/// dataset's default target columns.
fn inject_ordinary_errors(kind: DatasetKind, df: &mut DataFrame, rate: f64, seed: u64) {
    let columns = kind.default_ordinary_error_columns();
    let mut rng = dquag_datagen::rng(seed);
    for (error, column) in OrdinaryError::ALL.iter().zip(&columns) {
        inject_ordinary(df, *error, &[*column], rate, &mut rng);
    }
}

/// `backfill`: full-width NY Taxi NDJSON batches of `rows` rows; every
/// second frame comes from `generate_dirty`.
pub fn backfill(seed: u64, n_frames: usize, rows: usize, reference_rows: usize) -> Inputs {
    let kind = DatasetKind::NyTaxi;
    let frames = (0..n_frames)
        .map(|i| {
            let frame_seed = derive_seed(seed, 1 + i as u64);
            let dirty = i % 2 == 1;
            let data = if dirty {
                kind.generate_dirty(rows, frame_seed)
            } else {
                kind.generate_clean(rows, frame_seed)
            };
            let payload = to_ndjson(&data).into_bytes();
            Frame {
                data,
                dirty,
                payload,
            }
        })
        .collect();
    Inputs {
        kind,
        format: WireFormat::Ndjson,
        reference: kind.generate_clean(reference_rows, REFERENCE_SEED),
        frames,
    }
}

/// `refit`: a clean CreditCard reference plus the §4.2 protocol batches
/// (`make_test_batches`, 50 clean + 50 dirty at 10% of the source). The
/// dirty source carries the ordinary errors and both hidden conflicts.
pub fn refit(seed: u64, reference_rows: usize, source_rows: usize) -> Inputs {
    let kind = DatasetKind::CreditCard;
    let clean_source = kind.generate_clean(source_rows, derive_seed(seed, 1));
    let mut dirty_source = kind.generate_clean(source_rows, derive_seed(seed, 2));
    inject_ordinary_errors(
        kind,
        &mut dirty_source,
        PAPER_ERROR_RATE,
        derive_seed(seed, 3),
    );
    let mut rng = dquag_datagen::rng(derive_seed(seed, 4));
    for conflict in kind.hidden_errors() {
        inject_hidden(&mut dirty_source, conflict, PAPER_ERROR_RATE, &mut rng);
    }
    let mut rng = dquag_datagen::rng(derive_seed(seed, 5));
    let frames = make_test_batches(
        &clean_source,
        &dirty_source,
        BatchProtocol::default(),
        &mut rng,
    )
    .into_iter()
    .map(|batch| Frame {
        payload: csv::to_csv_string(&batch.data).into_bytes(),
        data: batch.data,
        dirty: batch.is_dirty,
    })
    .collect();
    Inputs {
        kind,
        format: WireFormat::Csv,
        reference: kind.generate_clean(reference_rows, REFERENCE_SEED),
        frames,
    }
}

/// Newline-delimited JSON, one object per row keyed by column name;
/// missing cells are `null`. Numbers use Rust's shortest round-trip
/// formatting, so decoding restores every `f64` bit for bit.
fn to_ndjson(df: &DataFrame) -> String {
    let names: Vec<String> = df
        .schema()
        .fields()
        .iter()
        .map(|field| json_string(&field.name))
        .collect();
    let mut out = String::with_capacity(df.n_rows() * df.n_cols() * 24);
    for row in df.iter_rows() {
        out.push('{');
        for (i, (name, value)) in names.iter().zip(row).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(name);
            out.push(':');
            match value {
                Value::Null => out.push_str("null"),
                Value::Number(x) if x.is_finite() => out.push_str(&x.to_string()),
                Value::Number(_) => out.push_str("null"),
                Value::Text(text) => out.push_str(&json_string(&text)),
            }
        }
        out.push_str("}\n");
    }
    out
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dquag_sources::decode_batch;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let payloads = |inputs: Inputs| -> Vec<Vec<u8>> {
            inputs.frames.into_iter().map(|f| f.payload).collect()
        };
        assert_eq!(
            payloads(backfill(7, 4, 64, 50)),
            payloads(backfill(7, 4, 64, 50))
        );
        assert_ne!(
            payloads(backfill(7, 4, 64, 50)),
            payloads(backfill(8, 4, 64, 50))
        );
        assert_eq!(payloads(refit(7, 50, 200)), payloads(refit(7, 50, 200)));
        assert_eq!(
            backfill(7, 4, 64, 50).reference,
            backfill(8, 4, 64, 50).reference
        );
    }

    #[test]
    fn labels_follow_the_workload_mix() {
        let backfill = backfill(1, 6, 32, 50);
        let dirty: Vec<usize> = (0..6).filter(|&i| backfill.frames[i].dirty).collect();
        assert_eq!(dirty, vec![1, 3, 5]);
        let refit = refit(1, 50, 400);
        assert_eq!(refit.frames.len(), 100);
        assert_eq!(refit.frames.iter().filter(|f| f.dirty).count(), 50);
        assert!(refit.frames.iter().all(|f| f.data.n_rows() == 40));
    }

    #[test]
    fn wire_payloads_decode_to_the_generated_frames() {
        for inputs in [backfill(3, 2, 64, 50), refit(3, 50, 200)] {
            let schema = inputs.kind.schema();
            for frame in &inputs.frames {
                let decoded = decode_batch(inputs.format, &frame.payload, &schema).unwrap();
                assert_eq!(decoded, frame.data);
            }
        }
    }
}
