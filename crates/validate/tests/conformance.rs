//! Trait-conformance suite: each of the seven paper validators must honour
//! the [`Verdict`] contract.
//!
//! One parameterized test runs each backend through fit → validate on a
//! clean batch and a corrupted batch (via `dquag-datagen` error injection)
//! and asserts the shared contract:
//!
//! * the verdict is labelled with the validator's name and covers every row;
//! * the anomaly score does not decrease when the batch is corrupted;
//! * `violations` is non-empty whenever `is_dirty` is true;
//! * instance/cell detail is present exactly when the backend's
//!   [`Capabilities`] claim it (and is internally consistent);
//! * verdicts survive a serde round-trip;
//! * validating before fitting fails with `NotFitted`.

use dquag_baselines::BaselineKind;
use dquag_core::DquagConfig;
use dquag_datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag_tabular::DataFrame;
use dquag_validate::{build_spec, Capabilities, ValidateError, Validator, ValidatorSpec, Verdict};

fn test_config() -> DquagConfig {
    DquagConfig::builder()
        .epochs(10)
        .batch_size(64)
        .hidden_dim(12)
        .n_layers(2)
        .build()
        .expect("configuration in range")
}

/// The seven paper validators in table order (the six baseline profiles,
/// then DQuaG), each with the label its verdicts carry.
fn paper_specs() -> Vec<(&'static str, ValidatorSpec)> {
    BaselineKind::ALL
        .iter()
        .map(|kind| (kind.label(), ValidatorSpec::backend(kind.key())))
        .chain([("DQuaG", ValidatorSpec::backend("dquag"))])
        .collect()
}

fn build(spec: &ValidatorSpec) -> Box<dyn Validator> {
    build_spec(spec, &test_config()).expect("paper specs build")
}

/// Clean reference data plus one clean and one clearly corrupted batch.
fn fixtures() -> (DataFrame, DataFrame, DataFrame) {
    let kind = DatasetKind::CreditCard;
    let clean = kind.generate_clean(900, 71);
    let clean_batch = kind.generate_clean(300, 72);
    let mut dirty_batch = kind.generate_clean(300, 73);
    let mut rng = dquag_datagen::rng(74);
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
    (clean, clean_batch, dirty_batch)
}

fn assert_verdict_contract(verdict: &Verdict, label: &str, caps: Capabilities, n_rows: usize) {
    assert_eq!(verdict.validator, label);
    assert_eq!(verdict.n_instances, n_rows, "{label}");
    assert!(verdict.score.is_finite(), "{label} score must be finite");
    if verdict.is_dirty {
        assert!(
            !verdict.violations.is_empty(),
            "{label} flagged the batch but reported no violations"
        );
    }

    assert_eq!(
        verdict.instance_errors.is_some(),
        caps.instance_errors,
        "{label}"
    );
    assert_eq!(verdict.cell_flags.is_some(), caps.cell_flags, "{label}");
    if let Some(errors) = &verdict.instance_errors {
        assert_eq!(errors.len(), n_rows, "{label} must score every instance");
        assert!(errors.iter().all(|e| e.is_finite() && *e >= 0.0), "{label}");
        let flagged = verdict
            .flagged_instances
            .as_ref()
            .expect("instance detail includes the flagged list");
        assert!(
            flagged.windows(2).all(|w| w[0] < w[1]),
            "{label} flagged list sorted"
        );
        for &row in flagged {
            assert!(row < n_rows, "{label}");
            assert!(verdict.is_flagged(row), "{label}");
        }
    }
    if let Some(cells) = &verdict.cell_flags {
        for cell in cells {
            assert!(
                verdict.is_flagged(cell.row),
                "{label} cell flags live in flagged rows"
            );
        }
    }

    // Serde round-trip: the unified result is a wire format.
    let json = serde_json::to_string(verdict).expect("verdict serialises");
    let back: Verdict = serde_json::from_str(&json).expect("verdict deserialises");
    assert_eq!(
        &back, verdict,
        "{label} verdict must survive a serde round-trip"
    );
}

#[test]
fn every_kind_honours_the_verdict_contract() {
    let (clean, clean_batch, dirty_batch) = fixtures();
    for (label, spec) in paper_specs() {
        let mut validator = build(&spec);

        // Validating before fitting is a NotFitted error, not a panic.
        match validator.validate(&clean_batch) {
            Err(ValidateError::NotFitted(name)) => assert_eq!(name, label),
            other => panic!("{label} unfitted validate must fail, got {other:?}"),
        }

        let fit = validator.fit(&clean).expect("fit succeeds");
        assert_eq!(fit.validator, label);
        assert_eq!(fit.n_rows, clean.n_rows());
        assert_eq!(fit.n_columns, clean.n_cols());

        let clean_verdict = validator.validate(&clean_batch).expect("same schema");
        let dirty_verdict = validator.validate(&dirty_batch).expect("same schema");
        let caps = validator.capabilities();
        assert_verdict_contract(&clean_verdict, label, caps, clean_batch.n_rows());
        assert_verdict_contract(&dirty_verdict, label, caps, dirty_batch.n_rows());

        // The corrupted batch must never look *cleaner* than the clean one.
        assert!(
            clean_verdict.score <= dirty_verdict.score + 1e-12,
            "{label}: clean score {} must not exceed dirty score {}",
            clean_verdict.score,
            dirty_verdict.score
        );
    }
}

#[test]
fn heavily_corrupted_batches_are_flagged_by_every_kind() {
    // 25% numeric anomalies + 20% missing cells across three attributes is
    // exactly the error family every system in the paper's Table 1 catches.
    let (clean, _, dirty_batch) = fixtures();
    for (label, spec) in paper_specs() {
        let mut validator = build(&spec);
        validator.fit(&clean).expect("fit succeeds");
        let verdict = validator.validate(&dirty_batch).expect("same schema");
        assert!(
            verdict.is_dirty,
            "{label} must flag the corrupted batch (score {})",
            verdict.score
        );
        assert!(!verdict.violations.is_empty(), "{label}");
    }
}

#[test]
fn replicate_copies_fitted_state_or_declines() {
    let (clean, _, dirty_batch) = fixtures();
    for (label, spec) in paper_specs() {
        let mut validator = build(&spec);
        assert!(
            validator.replicate().is_none(),
            "{label} must not replicate unfitted state"
        );
        validator.fit(&clean).expect("fit succeeds");
        match validator.replicate() {
            // A replica must be interchangeable with the original.
            Some(replica) => {
                assert_eq!(replica.name(), validator.name(), "{label}");
                assert_eq!(
                    replica.validate(&dirty_batch).expect("same schema"),
                    validator.validate(&dirty_batch).expect("same schema"),
                    "{label} replica verdicts must match the original's"
                );
            }
            // Declining is legal: the engine shares the validator instead.
            None => assert_ne!(label, "DQuaG", "DQuaG must replicate"),
        }
    }
}

#[test]
fn repair_is_gated_by_capabilities() {
    let (clean, _, dirty_batch) = fixtures();
    for (label, spec) in paper_specs() {
        let mut validator = build(&spec);
        validator.fit(&clean).expect("fit succeeds");
        let verdict = validator.validate(&dirty_batch).expect("same schema");
        let repaired = validator
            .repair(&dirty_batch, &verdict)
            .expect("repair call succeeds");
        assert_eq!(
            repaired.is_some(),
            validator.capabilities().repair,
            "{label} repair availability must match its capabilities"
        );
        if let Some(repaired) = repaired {
            assert_eq!(repaired.n_rows(), dirty_batch.n_rows());
            assert_eq!(repaired.schema(), dirty_batch.schema());
        }
    }
}
