//! Quickstart: the unified validator API end to end.
//!
//! Builds a DQuaG validator through the [`dquag::validate`] registry, fits it
//! on clean data, judges an incoming batch, inspects the graded `Verdict`,
//! and repairs the cells DQuaG flags.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use dquag::core::DquagConfig;
use dquag::datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag::gnn::ModelConfig;
use dquag::validate::{build_spec, ValidatorSpec};

fn main() {
    // 1. A clean reference dataset (stand-in for your curated training data).
    let clean = DatasetKind::CreditCard.generate_clean(4_000, 7);
    println!(
        "clean reference data: {} rows × {} columns",
        clean.n_rows(),
        clean.n_cols()
    );

    // 2. An incoming batch with real problems: 20% numeric anomalies and
    //    missing values in three attributes.
    let mut incoming = DatasetKind::CreditCard.generate_clean(800, 8);
    let mut rng = dquag::datagen::rng(9);
    let columns = DatasetKind::CreditCard.default_ordinary_error_columns();
    inject_ordinary(
        &mut incoming,
        OrdinaryError::NumericAnomalies,
        &columns,
        0.2,
        &mut rng,
    );
    inject_ordinary(
        &mut incoming,
        OrdinaryError::MissingValues,
        &columns,
        0.2,
        &mut rng,
    );

    // 3. Configure the pipeline with a range-checked config (a
    //    lighter-than-paper setting keeps the example fast) and train DQuaG
    //    behind the unified `Validator` API. Swapping the `"dquag"` key for
    //    any baseline's (`"gate"`, `"deequ-expert"`, …) changes nothing else
    //    in this program.
    let config = DquagConfig {
        model: ModelConfig {
            hidden_dim: 24,
            ..ModelConfig::default()
        },
        epochs: 15,
        ..DquagConfig::default()
    }
    .validated()
    .expect("configuration in range");
    let mut validator =
        build_spec(&ValidatorSpec::backend("dquag"), &config).expect("dquag is built in");
    let fit = validator.fit(&clean).expect("training succeeds");
    println!(
        "trained: {} weights, threshold = {:.5} ({})",
        fit.n_parameters.unwrap_or(0),
        fit.threshold.unwrap_or(0.0),
        fit.notes.join("; ")
    );

    // 4. Judge the incoming batch. `Verdict` implements `Display`: headline
    //    plus violation messages, no hand-formatting.
    let verdict = validator.validate(&incoming).expect("same schema");
    println!("{verdict}");

    // 5. Repair the flagged cells (a DQuaG capability) and re-validate.
    assert!(validator.capabilities().repair);
    let repaired = validator
        .repair(&incoming, &verdict)
        .expect("repair succeeds")
        .expect("DQuaG supports repair");
    let after = validator.validate(&repaired).expect("same schema");
    println!("after repair: {after}");
    println!(
        "flagged {:.1}% before repair, {:.1}% after",
        100.0 * verdict.error_rate(),
        100.0 * after.error_rate()
    );
}
