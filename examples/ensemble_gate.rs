//! A composed data-quality gate: DQuaG, a KS/PSI drift detector and Deequ
//! under majority voting, assembled from one declarative JSON spec.
//!
//! The spec tree is the deployment's whole validator description — it
//! round-trips through `serde_json`, builds through the open registry, and
//! the resulting ensemble fits/validates/replicates like any single
//! backend. The feed contains one batch with *erroneous values* (numeric
//! anomalies the value-level members catch) and one batch with *distribution
//! drift* (every value individually plausible — the drift member's home
//! turf), so the example shows why heterogeneous members make a better gate
//! than any one of them — including on the clean batch, where a
//! trigger-happy member is simply outvoted.
//!
//! ```bash
//! cargo run --release --example ensemble_gate
//! ```

use dquag::core::DquagConfig;
use dquag::datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag::gnn::ModelConfig;
use dquag::tabular::{DataFrame, Value};
use dquag::validate::{build_spec, ValidatorSpec};

/// The deployment spec, exactly as it would live in a config file.
const SPEC_JSON: &str = r#"{"Ensemble": {"members": [
    {"Backend": {"name": "dquag"}},
    {"Drift": {"tests": ["Ks", "Psi"],
               "ks_threshold": 0.15, "psi_threshold": 0.25, "bins": 10}},
    {"Backend": {"name": "deequ-auto"}}
], "voting": "Majority"}}"#;

/// Scale every numeric value: distribution drift without a single
/// individually-implausible cell.
fn drifted(kind: DatasetKind, seed: u64, factor: f64) -> DataFrame {
    let mut batch = kind.generate_clean(300, seed);
    let numeric = batch.schema().numeric_indices();
    for row in 0..batch.n_rows() {
        for &col in &numeric {
            if let Ok(Value::Number(v)) = batch.value(row, col) {
                batch
                    .set_value(row, col, Value::Number(v * factor))
                    .expect("in-bounds write");
            }
        }
    }
    batch
}

fn main() {
    let kind = DatasetKind::CreditCard;
    let clean = kind.generate_clean(900, 81);

    let spec: ValidatorSpec = serde_json::from_str(SPEC_JSON).expect("spec JSON parses");
    println!("deployment spec: {spec}\n");

    // The `dquag` member's hyper-parameters come from the config the spec
    // is built with: a smaller network than the paper default, so the
    // example fits in seconds.
    let config = DquagConfig {
        model: ModelConfig {
            hidden_dim: 16,
            n_layers: 2,
            ..ModelConfig::default()
        },
        epochs: 12,
        ..DquagConfig::default()
    };
    let mut validator = build_spec(&spec, &config).expect("spec builds");
    println!(
        "fitting `{}` on {} clean rows …",
        validator.name(),
        clean.n_rows()
    );
    validator.fit(&clean).expect("fitting succeeds");

    // The feed: a clean batch, a batch with injected value errors, and a
    // mean-shifted batch only the drift member can see.
    let clean_batch = kind.generate_clean(300, 82);
    let mut dirty_batch = kind.generate_clean(300, 83);
    let mut rng = dquag::datagen::rng(84);
    inject_ordinary(
        &mut dirty_batch,
        OrdinaryError::NumericAnomalies,
        &kind.default_ordinary_error_columns(),
        0.3,
        &mut rng,
    );
    let drifted_batch = drifted(kind, 85, 1.6);

    for (label, batch, expect_dirty) in [
        ("clean", &clean_batch, false),
        ("value errors", &dirty_batch, true),
        ("distribution drift", &drifted_batch, true),
    ] {
        let verdict = validator.validate(batch).expect("same schema");
        println!("[{label}] {verdict}\n");
        assert_eq!(
            verdict.is_dirty, expect_dirty,
            "[{label}] unexpected majority verdict"
        );
    }
}
