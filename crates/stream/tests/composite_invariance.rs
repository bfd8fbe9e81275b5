//! Composite replica-invariance: a spec-built ensemble behaves identically
//! under the sharded streaming engine and direct `validate` calls.
//!
//! The acceptance pipeline of the composable-spec redesign, end to end: a
//! JSON `ValidatorSpec` containing an `Ensemble` and a `Drift` node is
//! deserialised, built through the default registry, fitted once per copy,
//! and driven through (a) direct `validate` calls, (b) a single-replica
//! `StreamEngine` and (c) a 3-replica `StreamEngine`. All three verdict
//! streams — and a fourth from an in-code-constructed copy of the same spec
//! — must be identical: replica count and construction path are
//! implementation details the verdicts cannot see.

use dquag_core::{DquagConfig, StreamConfig};
use dquag_datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag_stream::{StreamEngine, StreamOutcome, SubmitOutcome};
use dquag_tabular::DataFrame;
use dquag_validate::spec::{ValidatorSpec, Voting};
use dquag_validate::{build_spec, Verdict};

/// Clean reference data plus a mixed clean/corrupted/shifted batch stream.
/// Credit Card at conformance-suite scale: batches large enough that the
/// statistical members do not false-positive on sampling noise.
fn batch_stream(n: usize) -> (DataFrame, Vec<DataFrame>) {
    let kind = DatasetKind::CreditCard;
    let clean = kind.generate_clean(700, 2081);
    let columns = kind.default_ordinary_error_columns();
    let mut batches = Vec::new();
    for i in 0..n {
        let mut batch = kind.generate_clean(260, 2400 + i as u64);
        match i % 3 {
            1 => {
                let mut rng = dquag_datagen::rng(2500 + i as u64);
                inject_ordinary(
                    &mut batch,
                    OrdinaryError::NumericAnomalies,
                    &columns,
                    0.3,
                    &mut rng,
                );
            }
            2 => {
                // Distribution shift: every numeric value scaled, each cell
                // still plausible on its own.
                let numeric = batch.schema().numeric_indices();
                for row in 0..batch.n_rows() {
                    for &col in &numeric {
                        if let Ok(dquag_tabular::Value::Number(v)) = batch.value(row, col) {
                            batch
                                .set_value(row, col, dquag_tabular::Value::Number(v * 1.5))
                                .expect("in-bounds write");
                        }
                    }
                }
            }
            _ => {}
        }
        batches.push(batch);
    }
    (clean, batches)
}

/// The ensemble spec under test, as the JSON an operator would deploy.
const SPEC_JSON: &str = r#"{"Ensemble": {"members": [
    {"Drift": {"tests": ["Ks", "Psi"],
               "ks_threshold": 0.15, "psi_threshold": 0.25, "bins": 10}},
    {"Backend": {"name": "deequ-auto", "params": {}}},
    {"Backend": {"name": "gate", "params": {}}}
], "voting": "Majority"}}"#;

fn in_code_spec() -> ValidatorSpec {
    ValidatorSpec::ensemble(
        vec![
            ValidatorSpec::drift(),
            ValidatorSpec::backend("deequ-auto"),
            ValidatorSpec::backend("gate"),
        ],
        Voting::Majority,
    )
}

/// Build the spec, fit it, and drain `batches` through an engine with the
/// given replica count, returning the re-sequenced verdicts.
fn verdicts_via_engine(
    spec: &ValidatorSpec,
    config: &DquagConfig,
    clean: &DataFrame,
    batches: &[DataFrame],
    replicas: usize,
) -> Vec<Verdict> {
    let mut validator = build_spec(spec, config).expect("spec builds");
    validator.fit(clean).expect("fit succeeds");
    let (engine, ingest, stream) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: batches.len().max(1),
            replicas,
            ..StreamConfig::default()
        })
        .start(validator)
        .expect("engine starts");
    for batch in batches {
        match ingest.submit(batch.clone()).expect("engine open") {
            SubmitOutcome::Enqueued(_) => {}
            other => panic!("lossless test engine must enqueue, got {other}"),
        }
    }
    ingest.close();
    let verdicts: Vec<Verdict> = stream
        .map(|item| match item.outcome {
            StreamOutcome::Verdict(verdict) => verdict,
            other => panic!("no deadline/failure expected, got {other:?}"),
        })
        .collect();
    engine.shutdown();
    verdicts
}

#[test]
fn ensemble_spec_verdicts_are_invariant_across_session_and_sharded_engine() {
    let (clean, batches) = batch_stream(9);
    let config = DquagConfig::fast();

    let parsed: ValidatorSpec = serde_json::from_str(SPEC_JSON).expect("spec JSON parses");
    assert_eq!(parsed, in_code_spec(), "JSON and in-code trees agree");

    // Path 1: direct calls on the parsed spec.
    let mut validator = build_spec(&parsed, &config).expect("spec builds");
    validator.fit(&clean).expect("fit succeeds");
    let direct_verdicts: Vec<Verdict> = batches
        .iter()
        .map(|batch| validator.validate(batch).expect("validation succeeds"))
        .collect();

    // Paths 2 + 3: the streaming engine, unsharded and sharded. The drift
    // member replicates by cloning; the baselines decline, so the engine
    // exercises the Arc-sharing fallback for composites too.
    let single = verdicts_via_engine(&parsed, &config, &clean, &batches, 1);
    let sharded = verdicts_via_engine(&parsed, &config, &clean, &batches, 3);

    // Path 4: the in-code copy of the same tree.
    let in_code = verdicts_via_engine(&in_code_spec(), &config, &clean, &batches, 2);

    assert_eq!(direct_verdicts, single, "direct calls vs 1-replica engine");
    assert_eq!(single, sharded, "1-replica vs 3-replica engine");
    assert_eq!(sharded, in_code, "parsed spec vs in-code spec");

    // The stream is not degenerate: the ensemble passes clean batches and
    // flags at least the ordinary-error ones.
    assert!(!direct_verdicts[0].is_dirty, "clean batch must pass");
    assert!(
        direct_verdicts[1].is_dirty,
        "ordinary-error batch must be flagged (score {})",
        direct_verdicts[1].score
    );
    for verdict in &direct_verdicts {
        assert_eq!(
            verdict.validator,
            "majority(KS/PSI drift, Deequ auto, Gate)"
        );
    }
}

#[test]
fn replicable_composite_shards_with_true_replicas() {
    // An ensemble of two drift detectors replicates member-by-member —
    // the engine's workers each get an independent fitted copy, and the
    // verdict stream still cannot tell.
    let (clean, batches) = batch_stream(6);
    let config = DquagConfig::fast();
    let spec = ValidatorSpec::ensemble(
        vec![
            ValidatorSpec::drift(),
            ValidatorSpec::Drift(dquag_validate::spec::DriftSpec {
                ks_threshold: 0.3,
                psi_threshold: 0.5,
                ..Default::default()
            }),
        ],
        Voting::Any,
    );

    let mut probe = build_spec(&spec, &config).expect("spec builds");
    probe.fit(&clean).expect("fit succeeds");
    assert!(
        probe.replicate().is_some(),
        "an all-drift ensemble must replicate"
    );

    let single = verdicts_via_engine(&spec, &config, &clean, &batches, 1);
    let sharded = verdicts_via_engine(&spec, &config, &clean, &batches, 3);
    assert_eq!(single, sharded, "replica count must not change verdicts");
}
