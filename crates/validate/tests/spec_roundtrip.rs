//! Spec-tree round-trip and build-equivalence suite.
//!
//! The tentpole guarantee of the composable-spec redesign: a
//! [`ValidatorSpec`] is *pure data*. Serialising a tree to JSON and
//! deserialising it back must yield an equal tree, and building both copies
//! through the registry must yield validators that — fitted on the same
//! clean reference — produce **identical verdicts** on every batch.
//!
//! A seeded randomized generator explores the spec grammar (backend leaves,
//! drift nodes with random thresholds, ensembles under every voting policy,
//! gated pairs) the way the PR 1–3 property suites explore theirs; a fixed
//! hand-written JSON document pins the acceptance-criterion shape (one
//! `Ensemble`, one `Drift`) and the wire format itself.

use dquag_core::DquagConfig;
use dquag_datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag_tabular::{DataFrame, DataType, Value};
use dquag_validate::build_spec;
use dquag_validate::spec::{DriftSpec, DriftTest, EscalateWhen, ValidatorSpec, Voting};
use rand::rngs::StdRng;
use rand::Rng;

/// Clean reference data plus the error-catalog batches every copy judges:
/// a clean batch, an ordinary-error batch (missing values + numeric
/// anomalies) and a mean-shifted batch (every value plausible, the
/// distribution not).
fn fixtures() -> (DataFrame, Vec<DataFrame>) {
    let kind = DatasetKind::CreditCard;
    let clean = kind.generate_clean(600, 910);
    let clean_batch = kind.generate_clean(250, 911);

    let mut dirty_batch = kind.generate_clean(250, 912);
    let mut rng = dquag_datagen::rng(913);
    let columns = kind.default_ordinary_error_columns();
    inject_ordinary(
        &mut dirty_batch,
        OrdinaryError::NumericAnomalies,
        &columns,
        0.25,
        &mut rng,
    );
    inject_ordinary(
        &mut dirty_batch,
        OrdinaryError::MissingValues,
        &columns,
        0.2,
        &mut rng,
    );

    let mut shifted_batch = kind.generate_clean(250, 914);
    shift_numeric_columns(&mut shifted_batch, 1.6);

    (clean, vec![clean_batch, dirty_batch, shifted_batch])
}

/// Multiply every numeric value by `factor`: each cell stays individually
/// plausible while the column distributions move.
fn shift_numeric_columns(df: &mut DataFrame, factor: f64) {
    let numeric: Vec<usize> = df.schema().numeric_indices();
    for row in 0..df.n_rows() {
        for &col in &numeric {
            if let Ok(Value::Number(v)) = df.value(row, col) {
                df.set_value(row, col, Value::Number(v * factor))
                    .expect("in-bounds numeric write");
            }
        }
    }
}

/// A random spec tree over the cheap default-registry backends. DQuaG is
/// deliberately excluded: the grammar is what is under test, and training a
/// GNN per random case would turn a property test into a benchmark.
fn arbitrary_spec(rng: &mut StdRng, depth: usize) -> ValidatorSpec {
    if depth == 0 || rng.gen_bool(0.45) {
        return arbitrary_leaf(rng);
    }
    if rng.gen_bool(0.6) {
        let n_members = rng.gen_range(2..=4usize);
        let members: Vec<ValidatorSpec> = (0..n_members)
            .map(|_| arbitrary_spec(rng, depth - 1))
            .collect();
        let voting = match rng.gen_range(0..3u8) {
            0 => Voting::Majority,
            1 => Voting::Any,
            _ => Voting::Weighted((0..n_members).map(|_| rng.gen_range(0.1..3.0)).collect()),
        };
        ValidatorSpec::ensemble(members, voting)
    } else {
        let escalate = if rng.gen_bool(0.5) {
            EscalateWhen::Dirty
        } else {
            EscalateWhen::ScoreAtLeast(rng.gen_range(0.0..1.0))
        };
        ValidatorSpec::gated(
            arbitrary_spec(rng, depth - 1),
            arbitrary_spec(rng, depth - 1),
            escalate,
        )
    }
}

fn arbitrary_leaf(rng: &mut StdRng) -> ValidatorSpec {
    match rng.gen_range(0..7u8) {
        0 => ValidatorSpec::backend("adqv"),
        1 => ValidatorSpec::backend("gate"),
        2 => ValidatorSpec::backend("deequ-auto"),
        3 => ValidatorSpec::backend("deequ-expert"),
        4 => ValidatorSpec::backend("tfdv-auto"),
        5 => ValidatorSpec::backend("tfdv-expert"),
        _ => {
            let tests = match rng.gen_range(0..3u8) {
                0 => vec![DriftTest::Ks],
                1 => vec![DriftTest::Psi],
                _ => vec![DriftTest::Ks, DriftTest::Psi],
            };
            ValidatorSpec::Drift(DriftSpec {
                tests,
                ks_threshold: rng.gen_range(0.05..0.5),
                psi_threshold: rng.gen_range(0.1..0.6),
                bins: rng.gen_range(4..16usize),
            })
        }
    }
}

#[test]
fn random_spec_trees_round_trip_and_build_identical_validators() {
    let (clean, batches) = fixtures();
    let config = DquagConfig::fast();
    let mut rng = dquag_datagen::rng(0x5bec);

    for case in 0..20 {
        let spec = arbitrary_spec(&mut rng, 2);
        let json = serde_json::to_string(&spec)
            .unwrap_or_else(|e| panic!("case {case}: {spec} must serialise: {e}"));
        let back: ValidatorSpec = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("case {case}: {spec} must deserialise: {e}"));
        assert_eq!(back, spec, "case {case}: round-trip must be lossless");

        let mut original = build_spec(&spec, &config)
            .unwrap_or_else(|e| panic!("case {case}: {spec} must build: {e}"));
        let mut copy = build_spec(&back, &config)
            .unwrap_or_else(|e| panic!("case {case}: round-tripped {spec} must build: {e}"));
        assert_eq!(original.name(), copy.name(), "case {case}");
        assert_eq!(original.capabilities(), copy.capabilities(), "case {case}");

        original.fit(&clean).expect("fit succeeds");
        copy.fit(&clean).expect("fit succeeds");
        for (i, batch) in batches.iter().enumerate() {
            let a = original.validate(batch).expect("validate succeeds");
            let b = copy.validate(batch).expect("validate succeeds");
            assert_eq!(
                a, b,
                "case {case}, batch {i}: verdicts must be identical for `{spec}`"
            );
        }
    }
}

#[test]
fn acceptance_spec_json_builds_fits_and_matches_the_in_code_copy() {
    // The acceptance-criterion document: at least one Ensemble and one
    // Drift node, written as a JSON literal the way an operator would.
    let json = r#"{"Ensemble": {"members": [
        {"Drift": {"tests": ["Ks", "Psi"],
                   "ks_threshold": 0.15, "psi_threshold": 0.25, "bins": 10}},
        {"Backend": {"name": "adqv", "params": {}}},
        {"Backend": {"name": "gate", "params": {}}}
    ], "voting": "Majority"}}"#;
    let parsed: ValidatorSpec = serde_json::from_str(json).expect("literal parses");

    let in_code = ValidatorSpec::ensemble(
        vec![
            ValidatorSpec::drift(),
            ValidatorSpec::backend("adqv"),
            ValidatorSpec::backend("gate"),
        ],
        Voting::Majority,
    );
    assert_eq!(parsed, in_code, "the literal is the in-code tree");

    let (clean, batches) = fixtures();
    let config = DquagConfig::fast();

    // Copy A is built from the parsed literal, copy B from the in-code
    // tree; the verdict streams must be identical.
    let mut parsed_copy = build_spec(&parsed, &config).expect("parsed spec builds");
    parsed_copy.fit(&clean).expect("fit succeeds");
    let parsed_verdicts: Vec<_> = batches
        .iter()
        .map(|batch| parsed_copy.validate(batch).expect("validation succeeds"))
        .collect();

    let mut direct = build_spec(&in_code, &config).expect("in-code spec builds");
    direct.fit(&clean).expect("fit succeeds");
    for (verdict, batch) in parsed_verdicts.iter().zip(&batches) {
        assert_eq!(
            verdict,
            &direct.validate(batch).expect("validate succeeds"),
            "parsed and in-code verdicts must match"
        );
        assert_eq!(verdict.validator, "majority(KS/PSI drift, ADQV, Gate)");
    }

    // The ensemble actually catches the catalog: clean passes, the
    // ordinary-error batch is flagged by a majority.
    assert!(!parsed_verdicts[0].is_dirty, "clean batch must pass");
    assert!(
        parsed_verdicts[1].is_dirty,
        "ordinary-error batch must be flagged (score {})",
        parsed_verdicts[1].score
    );
}

#[test]
fn drift_detector_flags_distribution_shift_the_value_checks_miss() {
    let (clean, batches) = fixtures();
    let config = DquagConfig::fast();

    let mut drift = build_spec(&ValidatorSpec::drift(), &config).expect("drift builds");
    drift.fit(&clean).expect("fit succeeds");

    let clean_verdict = drift.validate(&batches[0]).expect("clean batch");
    let shifted_verdict = drift.validate(&batches[2]).expect("shifted batch");

    assert!(
        !clean_verdict.is_dirty,
        "same-distribution batch must pass (score {})",
        clean_verdict.score
    );
    assert!(
        shifted_verdict.is_dirty,
        "mean-shifted batch must be flagged (score {})",
        shifted_verdict.score
    );
    assert!(clean_verdict.score < shifted_verdict.score);
    // The graded detail names drifted columns with their statistics.
    assert!(shifted_verdict
        .violations
        .iter()
        .any(|v| v.contains("column `") && (v.contains("KS") || v.contains("PSI"))));

    // A schema the detector never profiled is an InvalidBatch error, not a
    // bogus verdict.
    let alien = DatasetKind::NyTaxi.generate_clean(50, 915);
    assert!(drift.validate(&alien).is_err());
}

#[test]
fn drift_verdicts_survive_serde_and_respect_the_contract() {
    let (clean, batches) = fixtures();
    let config = DquagConfig::fast();
    let mut drift = build_spec(&ValidatorSpec::drift(), &config).expect("drift builds");

    match drift.validate(&batches[0]).map(|_| ()) {
        Err(dquag_validate::ValidateError::NotFitted(name)) => {
            assert_eq!(name, "KS/PSI drift")
        }
        other => panic!("unfitted drift validate must fail, got {other:?}"),
    }

    drift.fit(&clean).expect("fit succeeds");
    for batch in &batches {
        let verdict = drift.validate(batch).expect("validate succeeds");
        assert_eq!(verdict.n_instances, batch.n_rows());
        assert!(verdict.score.is_finite() && verdict.score >= 0.0);
        if verdict.is_dirty {
            assert!(!verdict.violations.is_empty());
        }
        let json = serde_json::to_string(&verdict).expect("verdict serialises");
        let back: dquag_validate::Verdict =
            serde_json::from_str(&json).expect("verdict deserialises");
        assert_eq!(back, verdict);
    }

    // Replication: plain-data fitted state, true independent replica.
    let replica = drift.replicate().expect("fitted drift replicates");
    for batch in &batches {
        assert_eq!(
            replica.validate(batch).expect("replica validates"),
            drift.validate(batch).expect("original validates")
        );
    }
}

#[test]
fn schema_sanity_for_fixture_datasets() {
    // The drift fixtures rely on Credit Card having both column types.
    let (clean, _) = fixtures();
    let has_numeric = clean
        .schema()
        .fields()
        .iter()
        .any(|f| f.dtype == DataType::Numeric);
    let has_categorical = clean
        .schema()
        .fields()
        .iter()
        .any(|f| f.dtype == DataType::Categorical);
    assert!(has_numeric && has_categorical);
}
