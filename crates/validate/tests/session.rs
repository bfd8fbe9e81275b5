//! Integration tests for the streaming [`ValidationSession`].

use dquag_core::DquagConfig;
use dquag_datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag_tabular::DataFrame;
use dquag_validate::{build_spec, ValidationSession, ValidatorSpec, Voting};

fn test_config() -> DquagConfig {
    let mut config = DquagConfig {
        epochs: 10,
        batch_size: 64,
        ..DquagConfig::default()
    };
    config.model.hidden_dim = 12;
    config.model.n_layers = 2;
    config.validated().expect("configuration in range")
}

/// A mixed stream: clean and corrupted hotel-booking batches.
fn batch_stream(n: usize) -> (DataFrame, Vec<DataFrame>) {
    let kind = DatasetKind::HotelBooking;
    let clean = kind.generate_clean(800, 81);
    let columns = kind.default_ordinary_error_columns();
    let mut batches = Vec::new();
    for i in 0..n {
        let mut batch = kind.generate_clean(120, 200 + i as u64);
        if i % 2 == 1 {
            let mut rng = dquag_datagen::rng(300 + i as u64);
            inject_ordinary(
                &mut batch,
                OrdinaryError::NumericAnomalies,
                &columns,
                0.3,
                &mut rng,
            );
        }
        batches.push(batch);
    }
    (clean, batches)
}

#[test]
fn parallel_multi_batch_validation_matches_sequential() {
    // With validation_threads > 1 the trained backend splits each batch's
    // rows across threads; its verdicts must equal the sequential path's.
    let (clean, batches) = batch_stream(6);
    let train = |validation_threads| {
        let config = DquagConfig {
            validation_threads,
            ..test_config()
        }
        .validated()
        .expect("configuration in range");
        ValidationSession::train(&config, &clean).expect("training succeeds")
    };

    let parallel = train(4).validate_batches(&batches).expect("same schema");
    let sequential = train(1).validate_batches(&batches).expect("same schema");

    assert_eq!(parallel.len(), batches.len());
    assert_eq!(
        parallel, sequential,
        "parallel and sequential validation must produce identical verdicts"
    );
}

#[test]
fn train_builds_the_validator_the_config_declares() {
    // `config.validator` picks what `train` fits: here an ensemble of two
    // baselines, which validates in bulk like any single backend.
    let (clean, batches) = batch_stream(4);
    let config = DquagConfig {
        validation_threads: 2,
        validator: ValidatorSpec::ensemble(
            vec![
                ValidatorSpec::backend("gate"),
                ValidatorSpec::backend("adqv"),
            ],
            Voting::Any,
        ),
        ..DquagConfig::default()
    }
    .validated()
    .expect("configuration in range");

    let mut session = ValidationSession::train(&config, &clean).expect("training succeeds");
    assert_eq!(session.validator().name(), "any(Gate, ADQV)");
    let verdicts = session.push_batches(&batches).expect("same schema");
    assert_eq!(verdicts.len(), batches.len());
    assert!(verdicts.iter().all(|v| v.validator == "any(Gate, ADQV)"));
}

#[test]
fn session_streams_batches_and_tracks_history() {
    let (clean, batches) = batch_stream(4);
    let validator = build_spec(&ValidatorSpec::backend("gate"), &test_config()).unwrap();
    let mut session = ValidationSession::fit(validator, &clean).expect("fit succeeds");
    assert!(session.fit_report().is_some());

    // One-at-a-time ingestion…
    let first = session
        .push_batch(&batches[0])
        .expect("same schema")
        .clone();
    assert_eq!(session.n_batches(), 1);
    assert_eq!(session.history()[0], first);

    // …and bulk ingestion through an iterator, appended in order. The
    // returned slice views the history directly (no copies).
    let n_rest = session
        .push_stream(batches[1..].iter().cloned())
        .expect("same schema")
        .len();
    assert_eq!(session.n_batches(), batches.len());
    assert_eq!(n_rest, batches.len() - 1);

    let summary = session.summary();
    assert_eq!(summary.validator, "Gate");
    assert_eq!(summary.n_batches, batches.len());
    assert_eq!(summary.n_dirty, session.n_dirty());
    assert!((summary.dirty_fraction - session.dirty_fraction()).abs() < 1e-12);
    let json = serde_json::to_string(&summary).expect("summary serialises");
    assert!(json.contains("Gate"));
}

#[test]
fn rolling_error_rate_windows_the_history() {
    let (clean, batches) = batch_stream(6);
    let config = test_config();
    let mut session = ValidationSession::train(&config, &clean).expect("training succeeds");
    session.push_batches(&batches).expect("same schema");

    let rates: Vec<f64> = session.history().iter().map(|v| v.error_rate()).collect();
    let mean_all: f64 = rates.iter().sum::<f64>() / rates.len() as f64;
    let mean_last2: f64 = rates[rates.len() - 2..].iter().sum::<f64>() / 2.0;
    assert!((session.rolling_error_rate(0) - mean_all).abs() < 1e-12);
    assert!((session.rolling_error_rate(100) - mean_all).abs() < 1e-12);
    assert!((session.rolling_error_rate(2) - mean_last2).abs() < 1e-12);

    // Corrupted batches (odd indices) must push the rolling rate up.
    assert!(
        rates[1] > rates[0],
        "corrupted batch rate {} must exceed clean batch rate {}",
        rates[1],
        rates[0]
    );
}

#[test]
fn empty_session_reports_zeroes() {
    let (clean, _) = batch_stream(0);
    let validator = build_spec(&ValidatorSpec::backend("adqv"), &test_config()).unwrap();
    let session = ValidationSession::fit(validator, &clean).expect("fit succeeds");
    assert_eq!(session.n_batches(), 0);
    assert_eq!(session.dirty_fraction(), 0.0);
    assert_eq!(session.rolling_error_rate(0), 0.0);
    assert_eq!(session.rolling_error_rate(5), 0.0);
}
