//! Cross-crate integration tests: the full DQuaG pipeline against the
//! generated evaluation datasets and the baseline validators.

use dquag::baselines::BaselineKind;
use dquag::core::metrics::DetectionMetrics;
use dquag::core::{DquagConfig, DquagValidator};
use dquag::datagen::{
    inject_hidden, inject_ordinary, make_test_batches, BatchProtocol, DatasetKind, HiddenError,
    OrdinaryError,
};
use dquag::gnn::ModelConfig;
use dquag::validate::{build_spec, ValidatorSpec};

/// A small-but-real pipeline configuration used across these tests.
fn test_config() -> DquagConfig {
    DquagConfig {
        epochs: 20,
        batch_size: 64,
        model: ModelConfig {
            hidden_dim: 16,
            n_layers: 2,
            ..ModelConfig::default()
        },
        ..DquagConfig::default()
    }
}

#[test]
fn every_dataset_supports_train_validate_repair() {
    for kind in DatasetKind::ALL {
        let clean = kind.generate_clean(700, 11);
        let dirty = kind.generate_dirty(250, 12);
        let validator =
            DquagValidator::train(&clean, &[&dirty], &test_config()).expect("training succeeds");
        let report = validator.validate(&dirty).expect("same schema");
        assert_eq!(report.n_instances(), dirty.n_rows(), "{kind:?}");
        let repaired = validator.repair(&dirty, &report).expect("repair succeeds");
        assert_eq!(repaired.n_rows(), dirty.n_rows());
        assert_eq!(repaired.schema(), dirty.schema());
    }
}

#[test]
fn dquag_separates_clean_from_corrupted_batches_on_credit_card() {
    let kind = DatasetKind::CreditCard;
    let clean = kind.generate_clean(1_200, 21);
    let mut dirty = kind.generate_clean(1_200, 22);
    let mut rng = dquag::datagen::rng(23);
    let cols = kind.default_ordinary_error_columns();
    inject_ordinary(
        &mut dirty,
        OrdinaryError::NumericAnomalies,
        &cols,
        0.2,
        &mut rng,
    );
    inject_ordinary(
        &mut dirty,
        OrdinaryError::MissingValues,
        &cols,
        0.2,
        &mut rng,
    );
    inject_hidden(
        &mut dirty,
        HiddenError::CreditEmploymentBeforeBirth,
        0.2,
        &mut rng,
    );

    // At this corruption level the corrupted batches flag >60% of their
    // instances while clean batches hover around the 5% the threshold
    // percentile implies; a flag factor of 2 (10% cutoff) decides with a wide
    // margin on both sides instead of sitting inside the clean noise band.
    let config = DquagConfig {
        dataset_flag_factor: 2.0,
        ..test_config()
    };
    let validator = DquagValidator::train(&clean, &[], &config).expect("training");
    let protocol = BatchProtocol {
        n_clean: 6,
        n_dirty: 6,
        fraction: 0.25,
        max_rows: None,
    };
    let batches = make_test_batches(&clean, &dirty, protocol, &mut rng);
    let labels: Vec<bool> = batches.iter().map(|b| b.is_dirty).collect();
    let predictions: Vec<bool> = batches
        .iter()
        .map(|b| {
            validator
                .validate(&b.data)
                .expect("schema")
                .dataset_is_dirty
        })
        .collect();
    let metrics = DetectionMetrics::from_predictions(&predictions, &labels);
    assert!(
        metrics.recall() >= 0.99,
        "all corrupted batches must be flagged, recall = {}",
        metrics.recall()
    );
    assert!(
        metrics.accuracy() >= 0.75,
        "overall accuracy should be high, got {}",
        metrics.accuracy()
    );
}

#[test]
fn dquag_beats_expert_rules_on_hidden_conflicts() {
    // The Hotel Booking conflict (a `Group` booking with zero adults but
    // babies) keeps every individual value inside its clean per-column range,
    // so range/domain-based expert suites cannot see it — only a model of the
    // joint feature behaviour can.
    let kind = DatasetKind::HotelBooking;
    let clean = kind.generate_clean(2_000, 31);
    let mut conflicted = kind.generate_clean(800, 32);
    let mut rng = dquag::datagen::rng(33);
    inject_hidden(
        &mut conflicted,
        HiddenError::HotelGroupWithoutAdults,
        0.2,
        &mut rng,
    );

    // Expert-tuned Deequ and TFDV pass the conflicted batch…
    for kind in [BaselineKind::DeequExpert, BaselineKind::TfdvExpert] {
        let mut validator =
            build_spec(&ValidatorSpec::backend(kind.key()), &test_config()).unwrap();
        validator.fit(&clean).expect("baseline fitting succeeds");
        assert!(
            !validator
                .validate(&conflicted)
                .expect("same schema")
                .is_dirty,
            "{} is not expected to see the hidden conflict",
            kind.label()
        );
    }

    // …while DQuaG separates it clearly from clean data. A capacity closer to
    // the paper's is needed for this genuinely hidden dependency.
    let config = DquagConfig {
        epochs: 30,
        batch_size: 128,
        model: ModelConfig {
            hidden_dim: 24,
            n_layers: 4,
            ..ModelConfig::default()
        },
        seed: 99,
        ..DquagConfig::default()
    };
    let dquag = DquagValidator::train(&clean, &[], &config).expect("training");
    let clean_probe = kind.generate_clean(800, 34);
    let clean_report = dquag.validate(&clean_probe).expect("schema");
    let conflict_report = dquag.validate(&conflicted).expect("schema");
    assert!(
        conflict_report.error_rate > clean_report.error_rate + 0.03,
        "DQuaG must separate the hidden conflict from clean data (conflict {} vs clean {})",
        conflict_report.error_rate,
        clean_report.error_rate
    );
    assert!(
        conflict_report.dataset_is_dirty,
        "DQuaG must flag the conflicted batch (error rate {})",
        conflict_report.error_rate
    );
    assert!(
        !clean_report.dataset_is_dirty,
        "the clean probe must pass (error rate {})",
        clean_report.error_rate
    );
}

#[test]
fn repair_moves_the_dirty_batch_towards_the_clean_distribution() {
    let kind = DatasetKind::Airbnb;
    let clean = kind.generate_clean(1_000, 41);
    let dirty = kind.generate_dirty(400, 42);
    let validator = DquagValidator::train(&clean, &[&dirty], &test_config()).expect("training");
    let (before, repaired, after) = validator.validate_and_repair(&dirty).expect("pipeline");
    assert!(after.error_rate <= before.error_rate);
    // repairs only changed flagged cells
    let flagged: std::collections::HashSet<(usize, usize)> = before
        .cell_flags
        .iter()
        .map(|c| (c.row, c.column))
        .collect();
    let mut changed = 0;
    for row in 0..dirty.n_rows() {
        for col in 0..dirty.n_cols() {
            if dirty.value(row, col).unwrap() != repaired.value(row, col).unwrap() {
                changed += 1;
                assert!(
                    flagged.contains(&(row, col)),
                    "cell ({row},{col}) changed without being flagged"
                );
            }
        }
    }
    assert!(changed <= flagged.len());
}

#[test]
fn all_validator_kinds_share_the_batch_protocol() {
    // All seven configurations run through the *same* loop — construction via
    // the registry from the configuration's validator spec, fit/validate via
    // the unified trait — and produce defined metrics on the same labelled
    // batches.
    let kind = DatasetKind::HotelBooking;
    let clean = kind.generate_clean(900, 51);
    let dirty = kind.generate_dirty(900, 52);
    let mut rng = dquag::datagen::rng(53);
    let protocol = BatchProtocol {
        n_clean: 3,
        n_dirty: 3,
        fraction: 0.2,
        max_rows: None,
    };
    let batches = make_test_batches(&clean, &dirty, protocol, &mut rng);
    let labels: Vec<bool> = batches.iter().map(|b| b.is_dirty).collect();

    // The seven paper validators: the six baseline profiles, then DQuaG.
    let keys = BaselineKind::ALL
        .iter()
        .map(BaselineKind::key)
        .chain(["dquag"]);
    for key in keys {
        let config = DquagConfig {
            validator: ValidatorSpec::backend(key),
            ..test_config()
        };
        let mut validator = build_spec(&config.validator, &config).expect("paper backends build");
        validator.fit(&clean).expect("fit succeeds");
        let predictions: Vec<bool> = batches
            .iter()
            .map(|b| validator.validate(&b.data).expect("same schema").is_dirty)
            .collect();
        let metrics = DetectionMetrics::from_predictions(&predictions, &labels);
        assert!(
            metrics.accuracy() >= 0.0 && metrics.accuracy() <= 1.0,
            "{key}"
        );
        if key == "dquag" {
            assert!(
                metrics.recall() > 0.5,
                "DQuaG should flag most dirty batches"
            );
        }
    }
}

#[test]
fn csv_round_trip_feeds_the_pipeline() {
    // Exported CSV files can be re-ingested and validated — the deployment
    // path for data arriving from other systems.
    let kind = DatasetKind::PlayStore;
    let clean = kind.generate_clean(600, 61);
    let dirty = kind.generate_dirty(200, 62);
    let csv = dquag::tabular::csv::to_csv_string(&dirty);
    let reloaded = dquag::tabular::csv::from_csv_str(&csv, clean.schema()).expect("CSV parses");
    assert_eq!(reloaded.n_rows(), dirty.n_rows());

    let validator = DquagValidator::train(&clean, &[&reloaded], &test_config()).expect("training");
    let report = validator.validate(&reloaded).expect("schema");
    assert_eq!(report.n_instances(), reloaded.n_rows());
}
