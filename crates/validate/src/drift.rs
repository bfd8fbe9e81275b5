//! The KS/PSI drift-detector backend: per-column distribution tests against
//! the fitted reference.
//!
//! Where DQuaG and the baselines hunt *erroneous values*, the drift detector
//! answers a different question the same `Validator` API can carry: has the
//! incoming batch's **distribution** moved away from the clean reference,
//! even if every individual value still looks plausible? Fitting profiles
//! each column — an empirical CDF and quantile-binned histogram for numeric
//! columns, category frequencies for categorical ones — and validation
//! computes, per column:
//!
//! * the two-sample **Kolmogorov–Smirnov** statistic (numeric columns): the
//!   sup-distance between the reference and batch empirical CDFs;
//! * the **population stability index**: `Σ (p_i − q_i)·ln(p_i/q_i)` over
//!   quantile bins (numeric, with missing values as their own bucket) or
//!   categories (categorical, with unseen categories pooled into a bucket).
//!
//! A column drifts when an enabled statistic exceeds its threshold; the
//! batch is dirty when any column drifts, and the verdict's score is the
//! largest statistic-to-threshold ratio across columns (so `score > 1` ⇔
//! dirty and the score stays comparable across threshold settings). The
//! violation messages grade the verdict with per-column KS/PSI values.

use crate::persist_state::{
    CategoricalProfileState, CategoryProportion, DriftColumnState, DriftState, NumericProfileState,
    PersistedValidatorState,
};
use crate::verdict::Capabilities;
use crate::{FitReport, Result, ValidateError, Validator, Verdict};
use dquag_core::spec::{DriftSpec, DriftTest, ValidatorSpec};
use dquag_tabular::{DataFrame, DataType};
use dquag_telemetry::{ColumnDriftSample, Telemetry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Laplace-style floor keeping PSI finite when a bucket is empty on one
/// side.
const PSI_EPSILON: f64 = 1e-4;

/// How many drifted columns are spelled out as violation messages before the
/// rest are summarised in one line.
const MAX_COLUMN_VIOLATIONS: usize = 8;

/// How many unseen categories are named inside one column's violation
/// message before the rest are counted.
const MAX_UNSEEN_CATEGORIES: usize = 4;

/// The fitted reference profile of one column.
#[derive(Debug, Clone)]
enum ColumnProfile {
    /// Sorted finite values (the empirical CDF), quantile bin edges and the
    /// reference proportion per bucket — `bins` value buckets plus one
    /// trailing missing bucket.
    Numeric {
        sorted: Vec<f64>,
        edges: Vec<f64>,
        proportions: Vec<f64>,
    },
    /// Reference proportion per category; `None` keys count missing values.
    Categorical {
        proportions: BTreeMap<Option<String>, f64>,
    },
}

/// Per-column drift statistics for one validated batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDrift {
    /// Column name.
    pub column: String,
    /// Two-sample KS statistic, when the column is numeric and the test is
    /// enabled.
    pub ks: Option<f64>,
    /// Population stability index, when the test is enabled.
    pub psi: Option<f64>,
    /// Largest statistic-to-threshold ratio among the enabled tests.
    pub ratio: f64,
    /// Batch categories that were absent from the reference at fit time
    /// (categorical columns only; always empty for numeric columns). These
    /// contribute to PSI through the epsilon floor, and the violation
    /// message names them so the operator sees *which* new category
    /// appeared, not just a statistic.
    pub unseen: Vec<String>,
}

impl ColumnDrift {
    /// True when an enabled statistic exceeded its threshold.
    pub fn drifted(&self) -> bool {
        self.ratio > 1.0
    }
}

/// The drift detector behind the unified [`Validator`] trait.
///
/// Construct via [`DriftValidator::new`] (or the registry, from a
/// `ValidatorSpec::Drift` node), fit on clean reference data, then validate
/// incoming batches. The fitted profile is plain data, so
/// [`Validator::replicate`] clones a true independent replica.
#[derive(Debug, Clone)]
pub struct DriftValidator {
    spec: DriftSpec,
    name: String,
    profiles: Option<Vec<(String, ColumnProfile)>>,
    /// Data-plane telemetry sink: when attached, every validation feeds
    /// its per-column statistics into the bundle's drift gauges and
    /// scoreboard. Survives [`Validator::replicate`] (a clone), so every
    /// engine replica reports into the same series.
    telemetry: Option<Arc<Telemetry>>,
}

impl DriftValidator {
    /// An unfitted drift detector running the given tests and thresholds.
    pub fn new(spec: DriftSpec) -> Self {
        let ks = spec.tests.contains(&DriftTest::Ks);
        let psi = spec.tests.contains(&DriftTest::Psi);
        let name = match (ks, psi) {
            (true, true) => "KS/PSI drift",
            (true, false) => "KS drift",
            (false, true) => "PSI drift",
            // An empty test list is rejected by `DriftSpec::validated`, but
            // the type allows it; keep the label truthful.
            (false, false) => "drift",
        };
        Self {
            spec,
            name: name.to_string(),
            profiles: None,
            telemetry: None,
        }
    }

    /// The tests and thresholds this detector runs.
    pub fn spec(&self) -> &DriftSpec {
        &self.spec
    }

    /// Per-column drift statistics for `batch` — the graded detail behind
    /// the verdict, for callers that want numbers instead of messages.
    pub fn column_drift(&self, batch: &DataFrame) -> Result<Vec<ColumnDrift>> {
        let profiles = self
            .profiles
            .as_ref()
            .ok_or_else(|| ValidateError::NotFitted(self.name.clone()))?;
        let ks_enabled = self.spec.tests.contains(&DriftTest::Ks);
        let psi_enabled = self.spec.tests.contains(&DriftTest::Psi);

        let mut drifts = Vec::with_capacity(profiles.len());
        for (name, profile) in profiles {
            let column = batch.column_by_name(name).map_err(|_| {
                ValidateError::InvalidBatch(format!(
                    "batch is missing the reference column `{name}`"
                ))
            })?;
            let mut unseen = Vec::new();
            let (ks, psi) = match profile {
                ColumnProfile::Numeric {
                    sorted,
                    edges,
                    proportions,
                } => {
                    let values = column.numeric_values().ok_or_else(|| {
                        ValidateError::InvalidBatch(format!(
                            "reference column `{name}` is numeric but the batch column is not"
                        ))
                    })?;
                    let mut batch_sorted: Vec<f64> = values
                        .iter()
                        .flatten()
                        .copied()
                        .filter(|v| v.is_finite())
                        .collect();
                    batch_sorted.sort_by(|a, b| a.total_cmp(b));
                    let ks = (ks_enabled && !sorted.is_empty() && !batch_sorted.is_empty())
                        .then(|| ks_statistic(sorted, &batch_sorted));
                    let psi = (psi_enabled && !values.is_empty()).then(|| {
                        let batch_props = numeric_proportions(values, edges);
                        psi_statistic(proportions, &batch_props)
                    });
                    (ks, psi)
                }
                ColumnProfile::Categorical { proportions } => {
                    let values = column.categorical_values().ok_or_else(|| {
                        ValidateError::InvalidBatch(format!(
                            "reference column `{name}` is categorical but the batch column is not"
                        ))
                    })?;
                    let batch_props = categorical_proportions(values);
                    unseen = batch_props
                        .keys()
                        .filter(|category| !proportions.contains_key(*category))
                        .filter_map(|category| category.clone())
                        .collect();
                    let psi = (psi_enabled && !values.is_empty())
                        .then(|| categorical_psi(proportions, &batch_props));
                    // KS needs an ordering; it does not apply to categories.
                    (None, psi)
                }
            };
            let mut ratio: f64 = 0.0;
            if let Some(ks) = ks {
                ratio = ratio.max(ks / self.spec.ks_threshold);
            }
            if let Some(psi) = psi {
                ratio = ratio.max(psi / self.spec.psi_threshold);
            }
            drifts.push(ColumnDrift {
                column: name.clone(),
                ks,
                psi,
                ratio,
                unseen,
            });
        }
        Ok(drifts)
    }

    /// Export the fitted reference profile as serialisable state, or `None`
    /// when the detector has not been fitted yet.
    pub fn export_state(&self) -> Option<DriftState> {
        let profiles = self.profiles.as_ref()?;
        let profiles = profiles
            .iter()
            .map(|(column, profile)| match profile {
                ColumnProfile::Numeric {
                    sorted,
                    edges,
                    proportions,
                } => DriftColumnState {
                    column: column.clone(),
                    numeric: Some(NumericProfileState {
                        sorted: sorted.clone(),
                        edges: edges.clone(),
                        proportions: proportions.clone(),
                    }),
                    categorical: None,
                },
                ColumnProfile::Categorical { proportions } => DriftColumnState {
                    column: column.clone(),
                    numeric: None,
                    categorical: Some(CategoricalProfileState {
                        categories: proportions
                            .iter()
                            .map(|(category, &proportion)| CategoryProportion {
                                category: category.clone(),
                                proportion,
                            })
                            .collect(),
                    }),
                },
            })
            .collect();
        Some(DriftState {
            spec: self.spec.clone(),
            profiles,
        })
    }

    /// Rebuild a fitted detector from persisted state.
    ///
    /// Fails closed: an invalid spec, a profile carrying neither (or both) of
    /// its distributions, mis-sized numeric buckets, an unsorted CDF sample,
    /// or non-finite proportions are all rejected rather than loaded into a
    /// detector that would mis-score.
    pub fn from_state(state: DriftState) -> Result<Self> {
        ValidatorSpec::Drift(state.spec.clone()).validated()?;
        let mut profiles = Vec::with_capacity(state.profiles.len());
        for column_state in state.profiles {
            column_state.validated()?;
            let corrupt = |what: &str| {
                ValidateError::InvalidConfig(format!(
                    "persisted drift profile for column `{}` {what}",
                    column_state.column
                ))
            };
            let profile = if let Some(numeric) = &column_state.numeric {
                if numeric.proportions.len() != numeric.edges.len() + 2 {
                    return Err(corrupt(&format!(
                        "has {} bucket proportions for {} edges (expected {})",
                        numeric.proportions.len(),
                        numeric.edges.len(),
                        numeric.edges.len() + 2
                    )));
                }
                if numeric.sorted.windows(2).any(|w| w[0] > w[1]) {
                    return Err(corrupt("has an unsorted reference sample"));
                }
                if numeric.edges.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(corrupt("has non-increasing bin edges"));
                }
                if !proportions_are_sane(&numeric.proportions) {
                    return Err(corrupt("has non-finite or negative bucket proportions"));
                }
                ColumnProfile::Numeric {
                    sorted: numeric.sorted.clone(),
                    edges: numeric.edges.clone(),
                    proportions: numeric.proportions.clone(),
                }
            } else {
                let categorical = column_state
                    .categorical
                    .as_ref()
                    .expect("validated: exactly one profile side is set");
                let mut proportions = BTreeMap::new();
                for record in &categorical.categories {
                    if !record.proportion.is_finite() || record.proportion < 0.0 {
                        return Err(corrupt("has non-finite or negative category proportions"));
                    }
                    if proportions
                        .insert(record.category.clone(), record.proportion)
                        .is_some()
                    {
                        return Err(corrupt("lists a category twice"));
                    }
                }
                ColumnProfile::Categorical { proportions }
            };
            profiles.push((column_state.column, profile));
        }
        let mut detector = DriftValidator::new(state.spec);
        detector.profiles = Some(profiles);
        Ok(detector)
    }
}

/// Every proportion finite and non-negative.
fn proportions_are_sane(proportions: &[f64]) -> bool {
    proportions.iter().all(|p| p.is_finite() && *p >= 0.0)
}

impl Validator for DriftValidator {
    fn name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::dataset_level()
    }

    fn fit(&mut self, clean: &DataFrame) -> Result<FitReport> {
        let mut profiles = Vec::with_capacity(clean.n_cols());
        let mut n_numeric = 0usize;
        for (index, field) in clean.schema().fields().iter().enumerate() {
            let column = clean.column(index).map_err(ValidateError::from_tabular)?;
            let profile = match field.dtype {
                DataType::Numeric => {
                    n_numeric += 1;
                    let values = column
                        .numeric_values()
                        .expect("schema says the column is numeric");
                    let mut sorted: Vec<f64> = values
                        .iter()
                        .flatten()
                        .copied()
                        .filter(|v| v.is_finite())
                        .collect();
                    sorted.sort_by(|a, b| a.total_cmp(b));
                    let edges = quantile_edges(&sorted, self.spec.bins);
                    let proportions = numeric_proportions(values, &edges);
                    ColumnProfile::Numeric {
                        sorted,
                        edges,
                        proportions,
                    }
                }
                DataType::Categorical => {
                    let values = column
                        .categorical_values()
                        .expect("schema says the column is categorical");
                    ColumnProfile::Categorical {
                        proportions: categorical_proportions(values),
                    }
                }
            };
            profiles.push((field.name.clone(), profile));
        }
        // A KS-only detector over a schema with no numeric columns can
        // never flag anything (KS needs an ordering); refuse the inert
        // configuration here, where the column types are first known,
        // instead of silently "monitoring" nothing.
        if n_numeric == 0 && !self.spec.tests.contains(&DriftTest::Psi) {
            return Err(ValidateError::InvalidConfig(format!(
                "drift spec enables only the KS test, but all {} columns of the reference \
                 are categorical — KS needs numeric columns; enable the Psi test",
                clean.n_cols()
            )));
        }
        let report = FitReport {
            validator: self.name.clone(),
            n_rows: clean.n_rows(),
            n_columns: clean.n_cols(),
            threshold: None,
            n_parameters: None,
            notes: vec![format!(
                "profiled {} columns ({} numeric, {} categorical) over {} rows, {} PSI bins",
                clean.n_cols(),
                n_numeric,
                clean.n_cols() - n_numeric,
                clean.n_rows(),
                self.spec.bins
            )],
        };
        self.profiles = Some(profiles);
        Ok(report)
    }

    fn validate(&self, batch: &DataFrame) -> Result<Verdict> {
        let drifts = self.column_drift(batch)?;
        if let Some(telemetry) = &self.telemetry {
            let samples: Vec<ColumnDriftSample> = drifts
                .iter()
                .map(|d| ColumnDriftSample {
                    column: d.column.clone(),
                    ks: d.ks,
                    psi: d.psi,
                    ratio: d.ratio,
                })
                .collect();
            telemetry.observe_column_drift(&samples);
        }
        let score = drifts.iter().map(|d| d.ratio).fold(0.0f64, f64::max);
        let drifted: Vec<&ColumnDrift> = drifts.iter().filter(|d| d.drifted()).collect();
        let is_dirty = !drifted.is_empty();

        let mut violations = Vec::new();
        if is_dirty {
            violations.push(format!(
                "{} of {} columns drifted beyond the {} limits",
                drifted.len(),
                drifts.len(),
                self.name
            ));
            for drift in drifted.iter().take(MAX_COLUMN_VIOLATIONS) {
                let mut parts = Vec::new();
                if let Some(ks) = drift.ks {
                    parts.push(format!("KS {ks:.3} (limit {})", self.spec.ks_threshold));
                }
                if let Some(psi) = drift.psi {
                    parts.push(format!("PSI {psi:.3} (limit {})", self.spec.psi_threshold));
                }
                if !drift.unseen.is_empty() {
                    let named: Vec<String> = drift
                        .unseen
                        .iter()
                        .take(MAX_UNSEEN_CATEGORIES)
                        .map(|c| format!("`{c}`"))
                        .collect();
                    let overflow = drift.unseen.len().saturating_sub(MAX_UNSEEN_CATEGORIES);
                    let suffix = if overflow > 0 {
                        format!(" and {overflow} more")
                    } else {
                        String::new()
                    };
                    parts.push(format!(
                        "{} unseen at fit time: {}{}",
                        if drift.unseen.len() == 1 {
                            "category"
                        } else {
                            "categories"
                        },
                        named.join(", "),
                        suffix
                    ));
                }
                violations.push(format!("column `{}`: {}", drift.column, parts.join(", ")));
            }
            if drifted.len() > MAX_COLUMN_VIOLATIONS {
                violations.push(format!(
                    "… and {} more drifted columns",
                    drifted.len() - MAX_COLUMN_VIOLATIONS
                ));
            }
        }

        Ok(Verdict::dataset_level(
            self.name.clone(),
            is_dirty,
            score,
            batch.n_rows(),
            violations,
        ))
    }

    fn attach_telemetry(&mut self, telemetry: &Arc<Telemetry>) {
        self.telemetry = Some(Arc::clone(telemetry));
    }

    fn replicate(&self) -> Option<Box<dyn Validator>> {
        // The fitted profile is plain data; a clone is a true replica.
        self.profiles
            .is_some()
            .then(|| Box::new(self.clone()) as Box<dyn Validator>)
    }

    fn persisted_state(&self) -> Option<PersistedValidatorState> {
        self.export_state().map(PersistedValidatorState::Drift)
    }
}

impl ValidateError {
    fn from_tabular(e: dquag_tabular::TabularError) -> Self {
        ValidateError::InvalidBatch(e.to_string())
    }
}

/// Two-sample Kolmogorov–Smirnov statistic: the sup-distance between the
/// empirical CDFs of two sorted samples, via a single merge walk.
fn ks_statistic(reference: &[f64], batch: &[f64]) -> f64 {
    let (n, m) = (reference.len() as f64, batch.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut sup = 0.0f64;
    while i < reference.len() && j < batch.len() {
        let (r, b) = (reference[i], batch[j]);
        let step = r.min(b);
        while i < reference.len() && reference[i] <= step {
            i += 1;
        }
        while j < batch.len() && batch[j] <= step {
            j += 1;
        }
        sup = sup.max((i as f64 / n - j as f64 / m).abs());
    }
    // Past one sample's end the other CDF is pinned at 1; the remaining gap
    // is already covered by the last comparison above.
    sup
}

/// Quantile bin edges over a sorted reference sample: `bins - 1` interior
/// edges (deduplicated, so heavily repeated values collapse bins instead of
/// producing empty ones).
fn quantile_edges(sorted: &[f64], bins: usize) -> Vec<f64> {
    if sorted.is_empty() {
        return Vec::new();
    }
    let mut edges = Vec::with_capacity(bins.saturating_sub(1));
    for k in 1..bins {
        let edge = dquag_tabular::stats::percentile_sorted(sorted, k as f64 / bins as f64);
        if edges.last().is_none_or(|last| *last < edge) {
            edges.push(edge);
        }
    }
    edges
}

/// Proportion of values per bucket: `edges.len() + 1` value buckets (split
/// at each edge, right-inclusive) plus one trailing bucket for missing and
/// non-finite values. Proportions are over *all* rows, so a surge of nulls
/// shows up as PSI drift even when the present values are unchanged.
fn numeric_proportions(values: &[Option<f64>], edges: &[f64]) -> Vec<f64> {
    let mut counts = vec![0usize; edges.len() + 2];
    for value in values {
        match value {
            Some(v) if v.is_finite() => {
                let bucket = edges.partition_point(|edge| v > edge);
                counts[bucket] += 1;
            }
            _ => *counts.last_mut().expect("at least the missing bucket") += 1,
        }
    }
    let total = values.len().max(1) as f64;
    counts.into_iter().map(|c| c as f64 / total).collect()
}

/// PSI over aligned bucket proportions, with an epsilon floor keeping the
/// logarithm finite when a bucket is empty on one side.
fn psi_statistic(reference: &[f64], batch: &[f64]) -> f64 {
    debug_assert_eq!(reference.len(), batch.len());
    reference
        .iter()
        .zip(batch)
        .map(|(&p, &q)| {
            let p = p.max(PSI_EPSILON);
            let q = q.max(PSI_EPSILON);
            (q - p) * (q / p).ln()
        })
        .sum()
}

/// Proportion of rows per category, with `None` counting missing values.
fn categorical_proportions(values: &[Option<String>]) -> BTreeMap<Option<String>, f64> {
    let mut counts: BTreeMap<Option<String>, usize> = BTreeMap::new();
    for value in values {
        *counts.entry(value.clone()).or_insert(0) += 1;
    }
    let total = values.len().max(1) as f64;
    counts
        .into_iter()
        .map(|(k, c)| (k, c as f64 / total))
        .collect()
}

/// PSI over the union of reference and batch categories; a category absent
/// on one side contributes through the epsilon floor, so brand-new or
/// vanished categories register as drift.
fn categorical_psi(
    reference: &BTreeMap<Option<String>, f64>,
    batch: &BTreeMap<Option<String>, f64>,
) -> f64 {
    let mut psi = 0.0;
    for (category, &p) in reference {
        let q = batch.get(category).copied().unwrap_or(0.0);
        let (p, q) = (p.max(PSI_EPSILON), q.max(PSI_EPSILON));
        psi += (q - p) * (q / p).ln();
    }
    for (category, &q) in batch {
        if !reference.contains_key(category) {
            let (p, q) = (PSI_EPSILON, q.max(PSI_EPSILON));
            psi += (q - p) * (q / p).ln();
        }
    }
    psi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ks_statistic_matches_hand_computed_cases() {
        // Identical samples: zero distance.
        let a = [1.0, 2.0, 3.0, 4.0];
        assert!(ks_statistic(&a, &a) < 1e-12);
        // Fully separated samples: distance 1.
        let b = [10.0, 11.0, 12.0];
        assert!((ks_statistic(&a, &b) - 1.0).abs() < 1e-12);
        // Half-shifted: the sup gap is 0.5.
        let c = [3.0, 4.0, 5.0, 6.0];
        assert!((ks_statistic(&a, &c) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn psi_is_zero_for_identical_and_grows_with_shift() {
        let p = [0.25, 0.25, 0.25, 0.25];
        assert!(psi_statistic(&p, &p).abs() < 1e-12);
        let shifted = [0.70, 0.10, 0.10, 0.10];
        assert!(psi_statistic(&p, &shifted) > 0.5);
        // Symmetric in direction of shift up to the epsilon floor.
        assert!((psi_statistic(&p, &shifted) - psi_statistic(&shifted, &p)).abs() < 1e-9);
    }

    #[test]
    fn quantile_edges_deduplicate_repeated_values() {
        let sorted = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 9.0];
        let edges = quantile_edges(&sorted, 10);
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
        assert!(!edges.is_empty());
    }

    #[test]
    fn numeric_proportions_cover_every_row_including_missing() {
        let values = [Some(1.0), Some(2.5), None, Some(f64::NAN), Some(10.0)];
        let edges = [2.0, 5.0];
        let props = numeric_proportions(&values, &edges);
        // 3 value buckets + missing bucket; NaN and None both land in
        // missing.
        assert_eq!(props.len(), 4);
        assert!((props.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((props[3] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn ks_only_detector_refuses_an_all_categorical_schema() {
        use dquag_core::spec::DriftSpec;
        use dquag_tabular::{DataFrame, Field, Schema, Value};

        let schema = Schema::new(vec![Field::categorical("city", "")]);
        let mut df = DataFrame::new(schema);
        for city in ["rome", "oslo", "lima"] {
            df.push_row(vec![Value::Text(city.to_string())]).unwrap();
        }

        // KS alone cannot see categorical columns; fitting must refuse the
        // inert configuration instead of silently monitoring nothing.
        let mut ks_only = DriftValidator::new(DriftSpec {
            tests: vec![DriftTest::Ks],
            ..DriftSpec::default()
        });
        match ks_only.fit(&df).map(|_| ()) {
            Err(ValidateError::InvalidConfig(msg)) => {
                assert!(msg.contains("categorical"), "got `{msg}`")
            }
            other => panic!("KS-only fit on categorical data must fail, got {other:?}"),
        }

        // With PSI enabled the same schema fits and detects.
        let mut both = DriftValidator::new(DriftSpec::default());
        both.fit(&df).expect("PSI covers categorical columns");
        let mut novel = DataFrame::new(df.schema().clone());
        for _ in 0..3 {
            novel
                .push_row(vec![Value::Text("atlantis".to_string())])
                .unwrap();
        }
        assert!(both.validate(&novel).unwrap().is_dirty);
    }

    #[test]
    fn unseen_category_is_named_in_the_violation_message() {
        use dquag_core::spec::DriftSpec;
        use dquag_tabular::{DataFrame, Field, Schema, Value};

        let schema = Schema::new(vec![Field::categorical("city", "")]);
        let mut reference = DataFrame::new(schema.clone());
        for city in ["rome", "oslo", "lima", "rome", "oslo", "lima"] {
            reference
                .push_row(vec![Value::Text(city.to_string())])
                .unwrap();
        }
        let mut detector = DriftValidator::new(DriftSpec::default());
        detector.fit(&reference).unwrap();

        // A batch dominated by a category that did not exist at fit time.
        let mut batch = DataFrame::new(schema);
        for city in ["atlantis", "atlantis", "atlantis", "rome"] {
            batch.push_row(vec![Value::Text(city.to_string())]).unwrap();
        }

        let drifts = detector.column_drift(&batch).unwrap();
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].unseen, vec!["atlantis".to_string()]);

        let verdict = detector.validate(&batch).unwrap();
        assert!(verdict.is_dirty);
        let named = verdict.violations.iter().any(|v| {
            v.contains("column `city`")
                && v.contains("unseen at fit time")
                && v.contains("`atlantis`")
        });
        assert!(
            named,
            "violations must name the unseen category, got {:?}",
            verdict.violations
        );

        // A batch of only known categories reports nothing unseen.
        let mut known = DataFrame::new(reference.schema().clone());
        for city in ["rome", "oslo"] {
            known.push_row(vec![Value::Text(city.to_string())]).unwrap();
        }
        assert!(detector.column_drift(&known).unwrap()[0].unseen.is_empty());
    }

    #[test]
    fn fitted_detector_round_trips_through_persisted_state() {
        use dquag_core::spec::DriftSpec;
        use dquag_tabular::{DataFrame, Field, Schema, Value};
        use serde::Serialize;

        let schema = Schema::new(vec![
            Field::numeric("amount", ""),
            Field::categorical("city", ""),
        ]);
        let mut reference = DataFrame::new(schema.clone());
        for i in 0..40 {
            reference
                .push_row(vec![
                    Value::Number(i as f64 / 3.0),
                    Value::Text(if i % 2 == 0 { "rome" } else { "oslo" }.to_string()),
                ])
                .unwrap();
        }
        let mut detector = DriftValidator::new(DriftSpec::default());
        detector.fit(&reference).unwrap();

        let state = detector.export_state().expect("fitted detectors export");
        let json = serde_json::to_string(&state.to_value()).unwrap();
        let parsed: DriftState = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, state);
        let reloaded = DriftValidator::from_state(parsed).unwrap();

        // Verdicts are identical on a drifted batch, missing values and all.
        let mut batch = DataFrame::new(schema);
        for i in 0..12 {
            batch
                .push_row(vec![
                    Value::Number(100.0 + i as f64),
                    Value::Text("atlantis".to_string()),
                ])
                .unwrap();
        }
        batch.push_row(vec![Value::Null, Value::Null]).unwrap();
        let before = detector.validate(&batch).unwrap();
        let after = reloaded.validate(&batch).unwrap();
        assert_eq!(before, after);
        assert!(after.is_dirty);

        // An unfitted detector has nothing to export.
        assert!(DriftValidator::new(DriftSpec::default())
            .export_state()
            .is_none());
    }

    #[test]
    fn tampered_drift_state_fails_closed() {
        use dquag_core::spec::DriftSpec;
        use dquag_tabular::{DataFrame, Field, Schema, Value};

        let schema = Schema::new(vec![Field::numeric("amount", "")]);
        let mut reference = DataFrame::new(schema);
        for i in 0..30 {
            reference.push_row(vec![Value::Number(i as f64)]).unwrap();
        }
        let mut detector = DriftValidator::new(DriftSpec::default());
        detector.fit(&reference).unwrap();
        let state = detector.export_state().unwrap();

        // Dropping a bucket proportion breaks the edges/buckets contract.
        let mut short = state.clone();
        short.profiles[0]
            .numeric
            .as_mut()
            .unwrap()
            .proportions
            .pop();
        assert!(DriftValidator::from_state(short).is_err());

        // A profile with no distribution at all.
        let mut hollow = state.clone();
        hollow.profiles[0].numeric = None;
        assert!(DriftValidator::from_state(hollow).is_err());

        // A NaN proportion would poison every future PSI.
        let mut poisoned = state.clone();
        poisoned.profiles[0].numeric.as_mut().unwrap().proportions[0] = f64::NAN;
        assert!(DriftValidator::from_state(poisoned).is_err());

        // An unsorted CDF sample would corrupt every future KS statistic.
        let mut shuffled = state;
        shuffled.profiles[0]
            .numeric
            .as_mut()
            .unwrap()
            .sorted
            .reverse();
        assert!(DriftValidator::from_state(shuffled).is_err());
    }

    #[test]
    fn attached_telemetry_receives_per_column_statistics() {
        use dquag_core::spec::DriftSpec;
        use dquag_tabular::{DataFrame, Field, Schema, Value};
        use dquag_telemetry::{TelemetryConfig, TelemetryDataConfig};

        let schema = Schema::new(vec![
            Field::numeric("amount", ""),
            Field::numeric("delay", ""),
        ]);
        let mut reference = DataFrame::new(schema.clone());
        for i in 0..60 {
            reference
                .push_row(vec![
                    Value::Number(i as f64 / 10.0),
                    Value::Number((i % 7) as f64),
                ])
                .unwrap();
        }
        let mut detector = DriftValidator::new(DriftSpec::default());
        detector.fit(&reference).unwrap();

        let telemetry = TelemetryConfig {
            dump_on_error: false,
            data: TelemetryDataConfig {
                enabled: true,
                ..TelemetryDataConfig::default()
            },
            ..TelemetryConfig::default()
        }
        .build()
        .expect("telemetry is enabled");
        detector.attach_telemetry(&telemetry);

        // `amount` shifts far from the reference; `delay` stays put.
        let mut batch = DataFrame::new(schema);
        for i in 0..30 {
            batch
                .push_row(vec![
                    Value::Number(500.0 + i as f64),
                    Value::Number((i % 7) as f64),
                ])
                .unwrap();
        }
        let verdict = detector.validate(&batch).unwrap();
        assert!(verdict.is_dirty);

        let board = telemetry.drift_scoreboard().expect("data layer on");
        assert_eq!(board.batches, 1);
        assert_eq!(board.columns.len(), 2);
        assert_eq!(board.top().unwrap().column, "amount");
        assert!(board.top().unwrap().drifted);
        let text = telemetry.prometheus();
        assert!(text.contains("dquag_column_drift{column=\"amount\",stat=\"ks\"}"));
        assert!(text.contains("dquag_column_drift_threshold_ratio{column=\"amount\"}"));

        // A replica keeps reporting into the same bundle.
        let replica = detector.replicate().expect("fitted detectors replicate");
        replica.validate(&batch).unwrap();
        assert_eq!(telemetry.drift_scoreboard().unwrap().batches, 2);
    }

    #[test]
    fn unseen_categories_register_as_drift() {
        let mut reference = BTreeMap::new();
        reference.insert(Some("a".to_string()), 0.5);
        reference.insert(Some("b".to_string()), 0.5);
        let mut same = BTreeMap::new();
        same.insert(Some("a".to_string()), 0.5);
        same.insert(Some("b".to_string()), 0.5);
        assert!(categorical_psi(&reference, &same).abs() < 1e-9);

        let mut novel = BTreeMap::new();
        novel.insert(Some("z".to_string()), 1.0);
        assert!(categorical_psi(&reference, &novel) > 1.0);
    }
}
