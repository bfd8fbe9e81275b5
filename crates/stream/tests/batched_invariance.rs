//! Pipeline-level golden test for batched inference: fit once, validate the
//! datagen error catalog through direct `validate` calls *and* the stream
//! engine scoring 32 rows per forward pass vs one, and assert identical
//! `Verdict`s. Like the replica count, matrix-level batching must be an
//! implementation detail no consumer can observe.

use dquag_core::{DquagConfig, DquagValidator, StreamConfig};
use dquag_datagen::{inject_hidden, inject_ordinary, DatasetKind, HiddenError, OrdinaryError};
use dquag_stream::StreamEngine;
use dquag_tabular::DataFrame;
use dquag_validate::{DquagBackend, Validator, Verdict};

/// Clean reference data plus the error catalog: one batch per ordinary error
/// type, one per applicable hidden conflict, plus clean controls.
fn catalog() -> (DataFrame, Vec<DataFrame>) {
    let kind = DatasetKind::CreditCard;
    let clean = kind.generate_clean(700, 11);
    let columns = kind.default_ordinary_error_columns();
    let mut batches = Vec::new();

    let mut rng = dquag_datagen::rng(31);
    batches.push(dquag_datagen::sample_fraction(&clean, 0.2, &mut rng));
    for error in OrdinaryError::ALL {
        let mut batch = dquag_datagen::sample_fraction(&clean, 0.2, &mut rng);
        inject_ordinary(&mut batch, error, &columns, 0.25, &mut rng);
        batches.push(batch);
    }
    for error in [
        HiddenError::CreditEmploymentBeforeBirth,
        HiddenError::CreditIncomeEducationMismatch,
    ] {
        let mut batch = dquag_datagen::sample_fraction(&clean, 0.2, &mut rng);
        inject_hidden(&mut batch, error, 0.25, &mut rng);
        batches.push(batch);
    }
    batches.push(dquag_datagen::sample_fraction(&clean, 0.2, &mut rng));
    (clean, batches)
}

fn assert_same_verdicts(batched: &[Verdict], per_row: &[Verdict], context: &str) {
    assert_eq!(batched.len(), per_row.len(), "{context}: verdict count");
    for (index, (a, b)) in batched.iter().zip(per_row.iter()).enumerate() {
        assert_eq!(
            a.is_dirty, b.is_dirty,
            "{context}: batch {index} dataset verdict"
        );
        assert_eq!(
            a.flagged_instances, b.flagged_instances,
            "{context}: batch {index} flagged instances"
        );
        assert_eq!(a.cell_flags, b.cell_flags, "{context}: batch {index} cells");
        assert_eq!(a.n_instances, b.n_instances);
        let (ea, eb) = (
            a.instance_errors.as_ref().expect("full detail"),
            b.instance_errors.as_ref().expect("full detail"),
        );
        for (row, (x, y)) in ea.iter().zip(eb.iter()).enumerate() {
            assert!(
                (x - y).abs() <= 1e-5,
                "{context}: batch {index} row {row}: {x} vs {y}"
            );
        }
    }
}

#[test]
fn batching_is_invisible_through_session_and_stream_engine() {
    let (clean, batches) = catalog();
    let mut config = DquagConfig {
        epochs: 10,
        batch_size: 64,
        inference_batch_size: 32, // smaller than a batch → ragged final chunks
        ..DquagConfig::default()
    };
    config.model.hidden_dim = 12;
    config.model.n_layers = 2;
    let config = config.validated().expect("configuration in range");

    // Fit exactly once; both paths share the same weights and threshold and
    // differ only in the rows stacked into one forward pass.
    let trained = DquagValidator::train(&clean, &[], &config).expect("training succeeds");
    let backend = |batched: bool| {
        let mut state = trained.export_state();
        if !batched {
            state.config.inference_batch_size = 1;
        }
        let validator = DquagValidator::from_state(state).expect("state restores");
        Box::new(DquagBackend::from_trained(validator))
    };

    // Path 1: direct `validate` calls.
    let validate_all = |batched: bool| -> Vec<Verdict> {
        let validator = backend(batched);
        batches
            .iter()
            .map(|batch| validator.validate(batch).expect("same schema"))
            .collect()
    };
    let direct_batched = validate_all(true);
    assert_same_verdicts(&direct_batched, &validate_all(false), "direct");
    let n_dirty = direct_batched.iter().filter(|v| v.is_dirty).count();
    assert!(
        n_dirty >= 3,
        "the error catalog must actually trip the validator ({n_dirty} dirty)"
    );

    // Path 2: the stream engine's replica workers.
    let run_stream = |batched: bool| -> Vec<Verdict> {
        let (engine, ingest, verdicts) = StreamEngine::builder()
            .stream_config(&StreamConfig {
                queue_capacity: batches.len(),
                replicas: 2,
                ..StreamConfig::default()
            })
            .start(backend(batched))
            .expect("engine starts");
        for batch in &batches {
            ingest.submit(batch.clone()).expect("engine open");
        }
        drop(ingest);
        let items: Vec<Verdict> = verdicts
            .map(|item| {
                item.outcome
                    .verdict()
                    .expect("no deadlines configured")
                    .clone()
            })
            .collect();
        engine.shutdown();
        items
    };
    assert_same_verdicts(&run_stream(true), &run_stream(false), "stream engine");
}
