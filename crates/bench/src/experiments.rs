//! The experiment implementations, one sub-module per table/figure of the
//! paper's evaluation (§4) plus the DESIGN.md ablations.

use crate::methods::{evaluate_method, fit_spec, paper_specs};
use crate::render_table;
use crate::scale::Scale;
use dquag_datagen::errors::PAPER_ERROR_RATE;
use dquag_datagen::{
    inject_hidden, inject_ordinary, make_test_batches, Batch, BatchProtocol, DatasetKind,
    HiddenError, OrdinaryError,
};
use dquag_tabular::DataFrame;
use dquag_validate::{Validator, ValidatorSpec};

/// The paper's contribution, the DQuaG GNN pipeline.
fn dquag_spec() -> ValidatorSpec {
    ValidatorSpec::backend("dquag")
}

/// Reuse the expensive pre-fitted DQuaG validator for the DQuaG rows and fit
/// the (cheap) baselines fresh.
fn prefitted_for<'a>(spec: &ValidatorSpec, fitted: &'a dyn Validator) -> Option<&'a dyn Validator> {
    (*spec == dquag_spec()).then_some(fitted)
}

/// Build the 50/50 (scale-dependent) labelled batch set for a clean/dirty
/// dataset pair.
fn batches_for(clean: &DataFrame, dirty: &DataFrame, scale: Scale, seed: u64) -> Vec<Batch> {
    let protocol = BatchProtocol {
        n_clean: scale.n_batches_per_class(),
        n_dirty: scale.n_batches_per_class(),
        fraction: 0.10,
        max_rows: None,
    };
    let mut rng = dquag_datagen::rng(seed);
    make_test_batches(clean, dirty, protocol, &mut rng)
}

/// A dirty copy of `clean` with one ordinary error type injected at the
/// paper's 20% rate into the dataset's standard target columns.
fn with_ordinary_error(
    clean: &DataFrame,
    kind: DatasetKind,
    error: OrdinaryError,
    seed: u64,
) -> DataFrame {
    let mut dirty = clean.clone();
    let mut rng = dquag_datagen::rng(seed);
    let columns = kind.default_ordinary_error_columns();
    inject_ordinary(&mut dirty, error, &columns, PAPER_ERROR_RATE, &mut rng);
    dirty
}

/// A dirty copy of `clean` with one hidden conflict injected at the paper's
/// 20% rate.
fn with_hidden_error(clean: &DataFrame, error: HiddenError, seed: u64) -> DataFrame {
    let mut dirty = clean.clone();
    let mut rng = dquag_datagen::rng(seed);
    inject_hidden(&mut dirty, error, PAPER_ERROR_RATE, &mut rng);
    dirty
}

// ---------------------------------------------------------------------------
// Table 1 — synthetic error detection
// ---------------------------------------------------------------------------

/// Table 1: accuracy and recall of every method on synthetic ordinary and
/// hidden errors (Hotel Booking and Credit Card).
pub mod table1 {
    use super::*;

    /// One table row.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Row {
        /// Dataset name.
        pub dataset: &'static str,
        /// Error-type label (`N, S, M`, `Conflicts`, `Conflicts-1`, …).
        pub error_types: String,
        /// Method label.
        pub method: String,
        /// Detection accuracy over the labelled batches.
        pub accuracy: f64,
        /// Detection recall over the dirty batches.
        pub recall: f64,
    }

    /// Run the experiment.
    pub fn run(scale: Scale) -> Vec<Row> {
        let mut rows = Vec::new();
        let specs = paper_specs();
        for kind in [DatasetKind::HotelBooking, DatasetKind::CreditCard] {
            let clean = kind.generate_clean(scale.dataset_rows(), 101);
            let config = scale.dquag_config();
            let dquag = fit_spec(&dquag_spec(), &clean, &config);

            // Ordinary errors: evaluate N, S, M separately and report the mean
            // (the paper's rows carry averaged values, marked with *).
            let mut per_method = vec![(String::new(), 0.0, 0.0); specs.len()];
            for (i, error) in OrdinaryError::ALL.iter().enumerate() {
                let dirty = with_ordinary_error(&clean, kind, *error, 200 + i as u64);
                let batches = batches_for(&clean, &dirty, scale, 300 + i as u64);
                for (m, spec) in specs.iter().enumerate() {
                    let result = evaluate_method(
                        spec,
                        &clean,
                        &batches,
                        prefitted_for(spec, &*dquag),
                        &config,
                    );
                    let (method, accuracy, recall) = &mut per_method[m];
                    *accuracy += result.accuracy();
                    *recall += result.recall();
                    *method = result.method;
                }
            }
            for (method, accuracy, recall) in per_method {
                rows.push(Row {
                    dataset: kind.name(),
                    error_types: "N, S, M".to_string(),
                    method,
                    accuracy: accuracy / OrdinaryError::ALL.len() as f64,
                    recall: recall / OrdinaryError::ALL.len() as f64,
                });
            }

            // Hidden conflicts.
            let conflicts = kind.hidden_errors();
            for (i, conflict) in conflicts.iter().enumerate() {
                let label = if conflicts.len() == 1 {
                    "Conflicts".to_string()
                } else {
                    conflict.label().to_string()
                };
                let dirty = with_hidden_error(&clean, *conflict, 400 + i as u64);
                let batches = batches_for(&clean, &dirty, scale, 500 + i as u64);
                for spec in &specs {
                    let result = evaluate_method(
                        spec,
                        &clean,
                        &batches,
                        prefitted_for(spec, &*dquag),
                        &config,
                    );
                    rows.push(Row {
                        dataset: kind.name(),
                        error_types: label.clone(),
                        accuracy: result.accuracy(),
                        recall: result.recall(),
                        method: result.method,
                    });
                }
            }
        }
        rows
    }

    /// Render the rows as an aligned text table.
    pub fn render(rows: &[Row]) -> String {
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.to_string(),
                    r.error_types.clone(),
                    r.method.clone(),
                    format!("{:.3}", r.accuracy),
                    format!("{:.3}", r.recall),
                ]
            })
            .collect();
        format!(
            "Table 1 — accuracy and recall on synthetic data errors\n{}",
            render_table(
                &["Dataset", "Error Types", "Method", "Acc.", "Recall"],
                &table_rows
            )
        )
    }
}

// ---------------------------------------------------------------------------
// Table 2 — encoder architectures
// ---------------------------------------------------------------------------

/// Table 2: difference in flagged-instance percentage between dirty and clean
/// data for the five encoder architectures.
pub mod table2 {
    use super::*;
    use dquag_gnn::EncoderKind;

    /// One table cell (dataset × encoder).
    #[derive(Debug, Clone, PartialEq)]
    pub struct Row {
        /// Dataset name.
        pub dataset: &'static str,
        /// Encoder label (Graph2Vec, GCN, GCN+GAT, GCN+GIN, GAT+GIN).
        pub encoder: &'static str,
        /// Difference (percentage points) between the flagged-instance rate
        /// on dirty batches and on clean batches. Higher is better.
        pub difference_pct: f64,
    }

    /// Run the experiment.
    pub fn run(scale: Scale) -> Vec<Row> {
        let mut rows = Vec::new();
        for kind in [DatasetKind::Airbnb, DatasetKind::Bicycle] {
            let clean = kind.generate_clean(scale.dataset_rows(), 111);
            let dirty = kind.generate_dirty(scale.dataset_rows(), 112);
            let batches = batches_for(&clean, &dirty, scale, 113);
            for encoder in EncoderKind::ALL {
                let config = scale.dquag_config().with_encoder(encoder);
                let validator = fit_spec(&dquag_spec(), &clean, &config);
                let mut clean_rate = 0.0;
                let mut dirty_rate = 0.0;
                let mut n_clean = 0usize;
                let mut n_dirty = 0usize;
                for batch in &batches {
                    let verdict = validator.validate(&batch.data).expect("schema matches");
                    if batch.is_dirty {
                        dirty_rate += verdict.error_rate();
                        n_dirty += 1;
                    } else {
                        clean_rate += verdict.error_rate();
                        n_clean += 1;
                    }
                }
                let difference = 100.0
                    * (dirty_rate / n_dirty.max(1) as f64 - clean_rate / n_clean.max(1) as f64);
                rows.push(Row {
                    dataset: kind.name(),
                    encoder: encoder.label(),
                    difference_pct: difference,
                });
            }
        }
        rows
    }

    /// Render the rows as an aligned text table.
    pub fn render(rows: &[Row]) -> String {
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.to_string(),
                    r.encoder.to_string(),
                    format!("{:+.2}", r.difference_pct),
                ]
            })
            .collect();
        format!(
            "Table 2 — difference (%) in flagged errors for clean vs. dirty data (higher is better)\n{}",
            render_table(&["Dataset", "Encoder", "Diff (%)"], &table_rows)
        )
    }
}

// ---------------------------------------------------------------------------
// Table 3 — accuracy vs sample size
// ---------------------------------------------------------------------------

/// Table 3: DQuaG detection accuracy as a function of the validation sample
/// size, on Airbnb, Bicycle and NY Taxi.
pub mod table3 {
    use super::*;

    /// One table cell (dataset × sample size).
    #[derive(Debug, Clone, PartialEq)]
    pub struct Row {
        /// Dataset name.
        pub dataset: &'static str,
        /// Number of rows per validated batch.
        pub sample_size: usize,
        /// Detection accuracy (percent).
        pub accuracy_pct: f64,
    }

    /// Run the experiment.
    pub fn run(scale: Scale) -> Vec<Row> {
        let mut rows = Vec::new();
        for kind in [
            DatasetKind::Airbnb,
            DatasetKind::Bicycle,
            DatasetKind::NyTaxi,
        ] {
            let clean = kind.generate_clean(scale.dataset_rows(), 121);
            let dirty = kind.generate_dirty(scale.dataset_rows(), 122);
            let config = scale.dquag_config();
            let validator = fit_spec(&dquag_spec(), &clean, &config);
            for &sample_size in &scale.table3_sample_sizes() {
                let protocol = BatchProtocol::fixed_size(
                    scale.n_batches_per_class(),
                    scale.n_batches_per_class(),
                    sample_size,
                );
                let mut rng = dquag_datagen::rng(123 + sample_size as u64);
                let batches = make_test_batches(&clean, &dirty, protocol, &mut rng);
                let labels: Vec<bool> = batches.iter().map(|b| b.is_dirty).collect();
                let predictions: Vec<bool> = batches
                    .iter()
                    .map(|b| {
                        validator
                            .validate(&b.data)
                            .expect("schema matches")
                            .is_dirty
                    })
                    .collect();
                let metrics =
                    dquag_core::metrics::DetectionMetrics::from_predictions(&predictions, &labels);
                rows.push(Row {
                    dataset: kind.name(),
                    sample_size,
                    accuracy_pct: metrics.accuracy() * 100.0,
                });
            }
        }
        rows
    }

    /// Render the rows as an aligned text table.
    pub fn render(rows: &[Row]) -> String {
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.to_string(),
                    r.sample_size.to_string(),
                    format!("{:.1}", r.accuracy_pct),
                ]
            })
            .collect();
        format!(
            "Table 3 — overall accuracy (%) for different validation sample sizes\n{}",
            render_table(&["Dataset", "Sample Size", "Accuracy (%)"], &table_rows)
        )
    }
}

// ---------------------------------------------------------------------------
// Figure 3 — real-world error detection
// ---------------------------------------------------------------------------

/// Figure 3: accuracy of every method on the datasets with real-world errors
/// (Airbnb, Bicycle, App).
pub mod figure3 {
    use super::*;

    /// One bar of the figure.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Row {
        /// Dataset name.
        pub dataset: &'static str,
        /// Method label.
        pub method: String,
        /// Detection accuracy.
        pub accuracy: f64,
        /// Detection recall.
        pub recall: f64,
    }

    /// Run the experiment.
    pub fn run(scale: Scale) -> Vec<Row> {
        let mut rows = Vec::new();
        for kind in DatasetKind::WITH_REAL_ERRORS {
            let clean = kind.generate_clean(scale.dataset_rows(), 131);
            let dirty = kind.generate_dirty(scale.dataset_rows(), 132);
            let config = scale.dquag_config();
            let dquag = fit_spec(&dquag_spec(), &clean, &config);
            let batches = batches_for(&clean, &dirty, scale, 133);
            for spec in paper_specs() {
                let result = evaluate_method(
                    &spec,
                    &clean,
                    &batches,
                    prefitted_for(&spec, &*dquag),
                    &config,
                );
                rows.push(Row {
                    dataset: kind.name(),
                    accuracy: result.accuracy(),
                    recall: result.recall(),
                    method: result.method,
                });
            }
        }
        rows
    }

    /// Render the rows as an aligned text table.
    pub fn render(rows: &[Row]) -> String {
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.to_string(),
                    r.method.clone(),
                    format!("{:.3}", r.accuracy),
                    format!("{:.3}", r.recall),
                ]
            })
            .collect();
        format!(
            "Figure 3 — accuracy on datasets with real-world data errors\n{}",
            render_table(&["Dataset", "Method", "Acc.", "Recall"], &table_rows)
        )
    }
}

// ---------------------------------------------------------------------------
// Figure 4 — scalability
// ---------------------------------------------------------------------------

/// Figure 4: validation wall-clock time as a function of data size and
/// dimensionality on the NY Taxi dataset.
pub mod figure4 {
    use super::*;
    use std::time::Instant;

    /// One point of the scalability curves.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Row {
        /// Number of dataset columns.
        pub dimensions: usize,
        /// Number of validated rows.
        pub rows: usize,
        /// Wall-clock validation time in seconds.
        pub seconds: f64,
    }

    /// Run the experiment. Training happens once per dimensionality on a
    /// moderate clean set; the timed quantity is phase-2 validation only,
    /// matching the figure.
    pub fn run(scale: Scale) -> Vec<Row> {
        let mut rows = Vec::new();
        let train_rows = scale.dataset_rows().min(5_000);
        for dimensions in [5usize, 10, 18] {
            let clean =
                dquag_datagen::datasets::nytaxi::generate_clean(train_rows, dimensions, 141);
            let config = scale.dquag_config();
            let validator = fit_spec(&dquag_spec(), &clean, &config);
            for &n_rows in &scale.figure4_row_counts() {
                let data = dquag_datagen::datasets::nytaxi::generate_clean(n_rows, dimensions, 142);
                let start = Instant::now();
                let verdict = validator.validate(&data).expect("schema matches");
                let seconds = start.elapsed().as_secs_f64();
                assert_eq!(verdict.n_instances, n_rows);
                rows.push(Row {
                    dimensions,
                    rows: n_rows,
                    seconds,
                });
            }
        }
        rows
    }

    /// Render the rows as an aligned text table.
    pub fn render(rows: &[Row]) -> String {
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.dimensions.to_string(),
                    r.rows.to_string(),
                    format!("{:.3}", r.seconds),
                ]
            })
            .collect();
        format!(
            "Figure 4 — data-quality validation time vs data size and dimensionality (NY Taxi)\n{}",
            render_table(&["Dimensions", "Rows", "Time (s)"], &table_rows)
        )
    }
}

// ---------------------------------------------------------------------------
// §4.6 — repair evaluation
// ---------------------------------------------------------------------------

/// §4.6: error rate of the dirty data before and after applying the repair
/// decoder's suggestions, compared with the clean data's own error rate.
pub mod repair_eval {
    use super::*;

    /// One dataset's repair summary.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Row {
        /// Dataset name.
        pub dataset: &'static str,
        /// Flagged-instance rate of the dirty data (percent).
        pub dirty_error_rate_pct: f64,
        /// Flagged-instance rate after repair (percent).
        pub repaired_error_rate_pct: f64,
        /// Flagged-instance rate of clean data (percent), for reference.
        pub clean_error_rate_pct: f64,
        /// Whether the repaired dataset is classified as clean by DQuaG.
        pub repaired_classified_clean: bool,
    }

    /// Run the experiment — through the unified [`Validator`] trait,
    /// exercising the graded-detail path: the DQuaG backend exposes repair
    /// behind `Validator::repair`, gated by its capabilities.
    pub fn run(scale: Scale) -> Vec<Row> {
        use dquag_validate::DquagBackend;

        let mut rows = Vec::new();
        for kind in [DatasetKind::Airbnb, DatasetKind::Bicycle] {
            let clean = kind.generate_clean(scale.dataset_rows(), 151);
            let dirty = kind.generate_dirty(scale.dataset_rows() / 2, 152);
            let config = scale.dquag_config();
            // The encoder must cover the dirty batch's categories (§3.1), so
            // hand it to the backend as known future data before fitting.
            let mut validator = DquagBackend::new(config).with_future(vec![dirty.clone()]);
            validator.fit(&clean).expect("training succeeds");
            assert!(validator.capabilities().repair);

            let clean_verdict = validator
                .validate(&clean.split_at(clean.n_rows() / 2).expect("split").1)
                .expect("schema matches");
            let before = validator.validate(&dirty).expect("schema matches");
            let repaired = validator
                .repair(&dirty, &before)
                .expect("repair succeeds")
                .expect("DQuaG supports repair");
            let after = validator.validate(&repaired).expect("schema matches");
            rows.push(Row {
                dataset: kind.name(),
                dirty_error_rate_pct: before.error_rate() * 100.0,
                repaired_error_rate_pct: after.error_rate() * 100.0,
                clean_error_rate_pct: clean_verdict.error_rate() * 100.0,
                repaired_classified_clean: !after.is_dirty,
            });
        }
        rows
    }

    /// Render the rows as an aligned text table.
    pub fn render(rows: &[Row]) -> String {
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.to_string(),
                    format!("{:.2}", r.dirty_error_rate_pct),
                    format!("{:.2}", r.repaired_error_rate_pct),
                    format!("{:.2}", r.clean_error_rate_pct),
                    r.repaired_classified_clean.to_string(),
                ]
            })
            .collect();
        format!(
            "Section 4.6 — data repair evaluation (flagged-instance rates)\n{}",
            render_table(
                &[
                    "Dataset",
                    "Dirty (%)",
                    "Repaired (%)",
                    "Clean (%)",
                    "Repaired classified clean"
                ],
                &table_rows
            )
        )
    }
}

// ---------------------------------------------------------------------------
// Ablations called out in DESIGN.md
// ---------------------------------------------------------------------------

/// Design ablations: feature-graph quality, weighted validation loss and
/// threshold percentile.
pub mod ablations {
    use super::*;
    use dquag_core::DquagConfig;
    use dquag_graph::FeatureGraph;

    /// One ablation result: the dirty-minus-clean flagged-rate separation (in
    /// percentage points) achieved by a variant.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Row {
        /// Ablation family (`graph`, `weighted-loss`, `threshold`).
        pub family: &'static str,
        /// Variant label.
        pub variant: String,
        /// Separation between dirty and clean flagged rates (pp).
        pub separation_pct: f64,
    }

    fn separation(clean: &DataFrame, dirty: &DataFrame, scale: Scale, config: &DquagConfig) -> f64 {
        let validator = fit_spec(&dquag_spec(), clean, config);
        let batches = batches_for(clean, dirty, scale, 161);
        let mut clean_rate = 0.0;
        let mut dirty_rate = 0.0;
        let mut n_clean = 0usize;
        let mut n_dirty = 0usize;
        for batch in &batches {
            let verdict = validator.validate(&batch.data).expect("schema matches");
            if batch.is_dirty {
                dirty_rate += verdict.error_rate();
                n_dirty += 1;
            } else {
                clean_rate += verdict.error_rate();
                n_clean += 1;
            }
        }
        100.0 * (dirty_rate / n_dirty.max(1) as f64 - clean_rate / n_clean.max(1) as f64)
    }

    /// Run all ablations on the Credit Card dataset (the one with both hidden
    /// conflicts).
    pub fn run(scale: Scale) -> Vec<Row> {
        let kind = DatasetKind::CreditCard;
        let clean = kind.generate_clean(scale.dataset_rows(), 162);
        let dirty = kind.generate_dirty(scale.dataset_rows(), 163);
        let names: Vec<String> = clean
            .schema()
            .names()
            .into_iter()
            .map(str::to_string)
            .collect();
        let mut rows = Vec::new();

        // Feature-graph quality.
        let base = scale.dquag_config();
        let graph_variants: Vec<(String, Option<FeatureGraph>)> = vec![
            ("inferred".to_string(), None),
            (
                "fully-connected".to_string(),
                Some(FeatureGraph::fully_connected(names.clone())),
            ),
            ("empty".to_string(), Some(FeatureGraph::new(names))),
        ];
        for (label, graph) in graph_variants {
            let mut config = base.clone();
            config.feature_graph_override = graph;
            rows.push(Row {
                family: "graph",
                variant: label,
                separation_pct: separation(&clean, &dirty, scale, &config),
            });
        }

        // Weighted validation loss vs plain reconstruction loss.
        for (label, sharpness) in [("weighted (paper)", 2.0f32), ("unweighted", 0.0)] {
            let mut config = base.clone();
            config.model.weight_sharpness = sharpness;
            rows.push(Row {
                family: "weighted-loss",
                variant: label.to_string(),
                separation_pct: separation(&clean, &dirty, scale, &config),
            });
        }

        // Threshold percentile.
        for percentile in [0.90f64, 0.95, 0.99] {
            let mut config = base.clone();
            config.threshold_percentile = percentile;
            rows.push(Row {
                family: "threshold",
                variant: format!("p{:02.0}", percentile * 100.0),
                separation_pct: separation(&clean, &dirty, scale, &config),
            });
        }
        rows
    }

    /// Render the rows as an aligned text table.
    pub fn render(rows: &[Row]) -> String {
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.family.to_string(),
                    r.variant.clone(),
                    format!("{:+.2}", r.separation_pct),
                ]
            })
            .collect();
        format!(
            "Ablations — dirty-minus-clean flagged-rate separation (percentage points)\n{}",
            render_table(&["Family", "Variant", "Separation (pp)"], &table_rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The smoke-scale experiment runs double as integration tests of the full
    // harness path; the heavier assertions on result *shape* live in the
    // workspace-level integration tests.

    #[test]
    fn figure4_smoke_scales_linearly_in_rows() {
        let rows = figure4::run(Scale::Smoke);
        assert_eq!(rows.len(), 3 * Scale::Smoke.figure4_row_counts().len());
        // within one dimensionality, more rows must not be faster by a large factor
        for dims in [5usize, 10, 18] {
            let series: Vec<&figure4::Row> = rows.iter().filter(|r| r.dimensions == dims).collect();
            assert!(series.windows(2).all(|w| w[1].rows > w[0].rows));
            assert!(series.iter().all(|r| r.seconds >= 0.0));
        }
        let text = figure4::render(&rows);
        assert!(text.contains("Dimensions"));
    }

    #[test]
    fn repair_eval_smoke_reduces_error_rate() {
        let rows = repair_eval::run(Scale::Smoke);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(
                row.repaired_error_rate_pct <= row.dirty_error_rate_pct + 1e-9,
                "{row:?}"
            );
        }
        assert!(repair_eval::render(&rows).contains("repair"));
    }
}
