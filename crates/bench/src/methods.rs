//! Uniform evaluation of every validator backend with the paper's batch
//! protocol.
//!
//! All seven configurations (DQuaG plus the six baseline profiles) go through
//! the same [`dquag_validate::Validator`] trait: build from a
//! [`ValidatorSpec`] via [`dquag_validate::build_spec`], fit on the clean
//! reference data, judge every batch. There is no per-backend dispatch here —
//! the unified API is the whole point.

use dquag_baselines::BaselineKind;
use dquag_core::metrics::DetectionMetrics;
use dquag_core::DquagConfig;
use dquag_datagen::Batch;
use dquag_stream::StreamEngine;
use dquag_tabular::DataFrame;
use dquag_validate::{build_spec, Validator, ValidatorSpec};

/// The seven validators the paper evaluates, in its table order: the six
/// baseline profiles ([`BaselineKind::ALL`]), then DQuaG.
pub fn paper_specs() -> Vec<ValidatorSpec> {
    BaselineKind::ALL
        .iter()
        .map(|kind| ValidatorSpec::backend(kind.key()))
        .chain([ValidatorSpec::backend("dquag")])
        .collect()
}

/// Result of evaluating one validator on a set of labelled batches.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodResult {
    /// Name of the evaluated validator.
    pub method: String,
    /// Confusion-matrix metrics over the batches.
    pub metrics: DetectionMetrics,
}

impl MethodResult {
    /// Accuracy, convenience accessor.
    pub fn accuracy(&self) -> f64 {
        self.metrics.accuracy()
    }

    /// Recall, convenience accessor.
    pub fn recall(&self) -> f64 {
        self.metrics.recall()
    }
}

/// Build the validator a spec tree declares (through the default registry)
/// and fit it on the clean reference data. Ensembles, drift detectors and
/// gated pairs evaluate through the same batch protocol as any single
/// backend.
///
/// Experiments that evaluate one dataset under several error conditions fit
/// expensive validators once and hand them back to [`evaluate_method`] as
/// `prefitted` (the paper trains DQuaG once per dataset as well).
pub fn fit_spec(
    spec: &ValidatorSpec,
    clean: &DataFrame,
    config: &DquagConfig,
) -> Box<dyn Validator> {
    let mut validator = build_spec(spec, config).expect("spec resolves against the registry");
    validator
        .fit(clean)
        .expect("fitting on generated clean data succeeds");
    validator
}

/// Classify every batch with an already-fitted validator and score the
/// predictions — the common core of [`evaluate_method`] and spec-driven
/// evaluation.
pub fn evaluate_fitted(validator: &dyn Validator, batches: &[Batch]) -> DetectionMetrics {
    let labels: Vec<bool> = batches.iter().map(|b| b.is_dirty).collect();
    let predictions: Vec<bool> = batches
        .iter()
        .map(|b| {
            validator
                .validate(&b.data)
                .expect("batch shares the training schema")
                .is_dirty
        })
        .collect();
    DetectionMetrics::from_predictions(&predictions, &labels)
}

/// Evaluate one validator spec: fit on the clean reference data (or reuse
/// `prefitted`, which must be a fitted validator built from the same spec)
/// and classify every batch.
pub fn evaluate_method(
    spec: &ValidatorSpec,
    clean: &DataFrame,
    batches: &[Batch],
    prefitted: Option<&dyn Validator>,
    config: &DquagConfig,
) -> MethodResult {
    let owned;
    let validator: &dyn Validator = match prefitted {
        Some(v) => {
            let expected = build_spec(spec, config).expect("spec resolves against the registry");
            assert_eq!(
                v.name(),
                expected.name(),
                "prefitted validator must match the evaluated spec"
            );
            v
        }
        None => {
            owned = fit_spec(spec, clean, config);
            &*owned
        }
    };
    MethodResult {
        method: validator.name().to_string(),
        metrics: evaluate_fitted(validator, batches),
    }
}

/// Evaluate one validator spec by driving every batch through the streaming
/// engine instead of the caller's thread: a producer submits the batches
/// while the engine shards them across `config.stream.replicas` fitted
/// replicas, and the re-sequenced verdict stream yields the predictions in
/// submission order.
///
/// The engine runs lossless for metric integrity (`Block` backpressure, no
/// deadline) regardless of `config.stream`'s policy; replica count and queue
/// capacity are honoured. Results are identical to [`evaluate_method`] —
/// sharding is an implementation detail the metrics cannot see.
pub fn evaluate_method_streaming(
    spec: &ValidatorSpec,
    clean: &DataFrame,
    batches: &[Batch],
    config: &DquagConfig,
) -> MethodResult {
    let validator = fit_spec(spec, clean, config);
    let method = validator.name().to_string();
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .replicas(config.stream.replicas)
        .queue_capacity(config.stream.queue_capacity)
        .start(validator)
        .expect("stream configuration in range");

    let labels: Vec<bool> = batches.iter().map(|b| b.is_dirty).collect();
    let predictions: Vec<bool> = std::thread::scope(|scope| {
        scope.spawn(move || {
            for batch in batches {
                let outcome = ingest
                    .submit(batch.data.clone())
                    .expect("engine open while the producer runs");
                assert!(outcome.is_enqueued(), "Block policy never sheds load");
            }
            // Dropping the producer's only handle closes ingestion; the
            // engine drains and the verdict stream ends.
        });
        verdicts
            .map(|item| {
                item.outcome
                    .into_verdict()
                    .expect("lossless engine yields a verdict per batch")
                    .is_dirty
            })
            .collect()
    });
    engine.shutdown();

    MethodResult {
        method,
        metrics: DetectionMetrics::from_predictions(&predictions, &labels),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use dquag_datagen::{make_test_batches, BatchProtocol, DatasetKind};

    #[test]
    fn all_kinds_are_listed_with_dquag_last() {
        let specs = paper_specs();
        assert_eq!(specs.len(), 7);
        for (spec, kind) in specs.iter().zip(BaselineKind::ALL) {
            assert_eq!(*spec, ValidatorSpec::backend(kind.key()));
        }
        assert_eq!(specs.last(), Some(&ValidatorSpec::backend("dquag")));
    }

    #[test]
    fn baseline_evaluation_produces_metrics_over_all_batches() {
        let clean = DatasetKind::CreditCard.generate_clean(800, 3);
        let dirty = DatasetKind::CreditCard.generate_dirty(800, 4);
        let mut rng = dquag_datagen::rng(5);
        let protocol = BatchProtocol {
            n_clean: 3,
            n_dirty: 3,
            fraction: 0.2,
            max_rows: None,
        };
        let batches = make_test_batches(&clean, &dirty, protocol, &mut rng);
        let result = evaluate_method(
            &ValidatorSpec::backend("deequ-expert"),
            &clean,
            &batches,
            None,
            &Scale::Smoke.dquag_config(),
        );
        assert_eq!(result.metrics.total(), 6);
        assert!(result.accuracy() >= 0.5);
        assert!(result.recall() >= 0.5);
    }

    #[test]
    fn spec_evaluation_agrees_with_the_kind_path_and_composes() {
        use dquag_validate::Voting;
        let clean = DatasetKind::CreditCard.generate_clean(600, 23);
        let dirty = DatasetKind::CreditCard.generate_dirty(600, 24);
        let mut rng = dquag_datagen::rng(25);
        let protocol = BatchProtocol {
            n_clean: 2,
            n_dirty: 2,
            fraction: 0.2,
            max_rows: None,
        };
        let batches = make_test_batches(&clean, &dirty, protocol, &mut rng);
        let config = Scale::Smoke.dquag_config();

        // Fitting and scoring by hand agrees with `evaluate_method`.
        let gate = ValidatorSpec::backend("gate");
        let via_spec = fit_spec(&gate, &clean, &config);
        let leaf_metrics = evaluate_fitted(&*via_spec, &batches);
        let result = evaluate_method(&gate, &clean, &batches, None, &config);
        assert_eq!(result.method, "Gate");
        assert_eq!(leaf_metrics, result.metrics);

        // A composite spec runs through the very same protocol.
        let ensemble = fit_spec(
            &ValidatorSpec::ensemble(
                vec![
                    ValidatorSpec::backend("gate"),
                    ValidatorSpec::backend("adqv"),
                    ValidatorSpec::drift(),
                ],
                Voting::Majority,
            ),
            &clean,
            &config,
        );
        let metrics = evaluate_fitted(&*ensemble, &batches);
        assert_eq!(metrics.total(), 4);
        assert!(metrics.recall() >= 0.5);
    }

    #[test]
    fn prefitted_validators_are_reused() {
        let clean = DatasetKind::CreditCard.generate_clean(600, 7);
        let dirty = DatasetKind::CreditCard.generate_dirty(600, 8);
        let mut rng = dquag_datagen::rng(9);
        let protocol = BatchProtocol {
            n_clean: 2,
            n_dirty: 2,
            fraction: 0.2,
            max_rows: None,
        };
        let batches = make_test_batches(&clean, &dirty, protocol, &mut rng);
        let config = Scale::Smoke.dquag_config();
        let gate = ValidatorSpec::backend("gate");
        let fitted = fit_spec(&gate, &clean, &config);
        let reused = evaluate_method(&gate, &clean, &batches, Some(&*fitted), &config);
        let fresh = evaluate_method(&gate, &clean, &batches, None, &config);
        assert_eq!(
            reused.metrics, fresh.metrics,
            "reuse must not change results"
        );
    }

    #[test]
    fn streaming_evaluation_matches_the_direct_path() {
        let clean = DatasetKind::CreditCard.generate_clean(700, 11);
        let dirty = DatasetKind::CreditCard.generate_dirty(700, 12);
        let mut rng = dquag_datagen::rng(13);
        let protocol = BatchProtocol {
            n_clean: 3,
            n_dirty: 3,
            fraction: 0.2,
            max_rows: None,
        };
        let batches = make_test_batches(&clean, &dirty, protocol, &mut rng);
        let mut config = Scale::Smoke.dquag_config();
        config.stream.replicas = 3;

        let gate = ValidatorSpec::backend("gate");
        let direct = evaluate_method(&gate, &clean, &batches, None, &config);
        let streamed = evaluate_method_streaming(&gate, &clean, &batches, &config);
        assert_eq!(
            direct.metrics, streamed.metrics,
            "the sharded engine must reproduce the direct path exactly"
        );
    }

    #[test]
    #[should_panic(expected = "prefitted validator must match")]
    fn mismatched_prefitted_validator_is_rejected() {
        let clean = DatasetKind::CreditCard.generate_clean(600, 7);
        let config = Scale::Smoke.dquag_config();
        let fitted = fit_spec(&ValidatorSpec::backend("gate"), &clean, &config);
        evaluate_method(
            &ValidatorSpec::backend("adqv"),
            &clean,
            &[],
            Some(&*fitted),
            &config,
        );
    }
}
