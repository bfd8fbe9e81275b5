//! Adapters plugging DQuaG and the four baselines into the unified
//! [`Validator`] trait.

use crate::verdict::Capabilities;
use crate::{FitReport, Result, ValidateError, Validator, Verdict};
use dquag_baselines::{BaselineKind, BatchValidator};
use dquag_core::{DquagConfig, DquagValidator};
use dquag_tabular::{DataFrame, Schema};
use dquag_telemetry::Telemetry;
use std::sync::Arc;

/// How many flagged instances are spelled out as violation messages before
/// the rest are summarised in one line.
const MAX_INSTANCE_VIOLATIONS: usize = 5;

/// The DQuaG GNN pipeline behind the unified API.
///
/// Holds the pipeline configuration; [`Validator::fit`] trains the network
/// and calibrates the detection threshold, [`Validator::validate`] maps the
/// rich [`dquag_core::ValidationReport`] into a full-detail [`Verdict`].
pub struct DquagBackend {
    config: DquagConfig,
    future: Vec<DataFrame>,
    fitted: Option<DquagValidator>,
    telemetry: Option<Arc<Telemetry>>,
}

impl DquagBackend {
    /// An unfitted backend with the given pipeline configuration.
    pub fn new(config: DquagConfig) -> Self {
        Self {
            config,
            future: Vec::new(),
            fitted: None,
            telemetry: None,
        }
    }

    /// Register known future batches before fitting so the label encoder
    /// covers their categories (§3.1 of the paper).
    pub fn with_future(mut self, future: Vec<DataFrame>) -> Self {
        self.future = future;
        self
    }

    /// Wrap an already-trained core validator.
    pub fn from_trained(validator: DquagValidator) -> Self {
        Self {
            config: validator.config().clone(),
            future: Vec::new(),
            fitted: Some(validator),
            telemetry: None,
        }
    }

    /// The trained core validator, if fitted — the escape hatch for
    /// DQuaG-only features (feature-graph inspection, training diagnostics).
    pub fn trained(&self) -> Option<&DquagValidator> {
        self.fitted.as_ref()
    }

    /// Mutable access to the trained core validator — the seam
    /// `dquag-faults` uses to corrupt fitted parameters or install
    /// activation faults on a live backend.
    pub fn trained_mut(&mut self) -> Option<&mut DquagValidator> {
        self.fitted.as_mut()
    }

    fn require_fitted(&self) -> Result<&DquagValidator> {
        self.fitted
            .as_ref()
            .ok_or_else(|| ValidateError::NotFitted(self.name().to_string()))
    }
}

impl Validator for DquagBackend {
    fn name(&self) -> &str {
        "DQuaG"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::full_detail()
    }

    fn fit(&mut self, clean: &DataFrame) -> Result<FitReport> {
        let future: Vec<&DataFrame> = self.future.iter().collect();
        let mut validator = DquagValidator::train(clean, &future, &self.config)?;
        if let Some(telemetry) = &self.telemetry {
            validator = validator.with_telemetry(Arc::clone(telemetry));
        }
        let summary = validator.training_summary();
        let report = FitReport {
            validator: self.name().to_string(),
            n_rows: clean.n_rows(),
            n_columns: clean.n_cols(),
            threshold: Some(summary.threshold),
            n_parameters: Some(summary.n_weights),
            notes: vec![
                format!(
                    "trained {} epochs on {} rows, calibrated on {}",
                    summary.epoch_losses.len(),
                    summary.n_train_rows,
                    summary.n_calibration_rows
                ),
                format!("feature graph has {} edges", summary.graph_edges.len()),
            ],
        };
        self.fitted = Some(validator);
        Ok(report)
    }

    fn validate(&self, batch: &DataFrame) -> Result<Verdict> {
        let validator = self.require_fitted()?;
        let report = validator.validate(batch)?;

        let mut violations = Vec::new();
        if report.dataset_is_dirty {
            violations.push(format!(
                "{:.1}% of instances exceed the reconstruction-error threshold {:.5} \
                 (dataset limit {:.1}%)",
                100.0 * report.error_rate,
                report.threshold,
                100.0 * validator.config().dataset_error_rate_threshold(),
            ));
            for &row in report
                .flagged_instances
                .iter()
                .take(MAX_INSTANCE_VIOLATIONS)
            {
                let blamed: Vec<&str> = report
                    .cell_flags
                    .iter()
                    .filter(|c| c.row == row)
                    .filter_map(|c| batch.schema().field(c.column).map(|f| f.name.as_str()))
                    .collect();
                violations.push(format!(
                    "instance {row}: error {:.5}, suspicious features {blamed:?}",
                    report.instance_errors[row]
                ));
            }
            if report.flagged_instances.len() > MAX_INSTANCE_VIOLATIONS {
                violations.push(format!(
                    "… and {} more flagged instances",
                    report.flagged_instances.len() - MAX_INSTANCE_VIOLATIONS
                ));
            }
        }

        Ok(Verdict {
            validator: self.name().to_string(),
            is_dirty: report.dataset_is_dirty,
            score: report.error_rate,
            n_instances: report.n_instances(),
            violations,
            instance_errors: Some(report.instance_errors),
            flagged_instances: Some(report.flagged_instances),
            cell_flags: Some(report.cell_flags),
            threshold: Some(report.threshold),
        })
    }

    fn repair(&self, batch: &DataFrame, verdict: &Verdict) -> Result<Option<DataFrame>> {
        let validator = self.require_fitted()?;
        // Repair targets the flagged cells, so a verdict without instance
        // detail (e.g. produced by a baseline backend) cannot drive it —
        // silently returning the batch unchanged would let dirty data pass
        // as "repaired".
        let (Some(instance_errors), Some(flagged_instances), Some(cell_flags)) = (
            verdict.instance_errors.clone(),
            verdict.flagged_instances.clone(),
            verdict.cell_flags.clone(),
        ) else {
            return Err(ValidateError::InvalidBatch(format!(
                "repair needs a verdict with instance detail; the given one \
                 (from `{}`) carries none",
                verdict.validator
            )));
        };
        // Rebuild the core report view the repair decoder expects.
        let report = dquag_core::ValidationReport::new(
            instance_errors,
            flagged_instances,
            cell_flags,
            verdict.is_dirty,
            verdict.threshold.unwrap_or(validator.threshold()),
        );
        Ok(Some(validator.repair(batch, &report)?))
    }

    fn attach_telemetry(&mut self, telemetry: &Arc<Telemetry>) {
        // The fitted core validator, and every later fit through this
        // backend, times its phase-2 stages and counts forward passes.
        if let Some(fitted) = self.fitted.take() {
            self.fitted = Some(fitted.with_telemetry(Arc::clone(telemetry)));
        }
        self.telemetry = Some(Arc::clone(telemetry));
    }

    fn replicate(&self) -> Option<Box<dyn Validator>> {
        // The fitted core validator is plain data (weights, encoder,
        // thresholds), so a clone is a true independent replica.
        self.fitted.as_ref().map(|fitted| {
            Box::new(DquagBackend {
                config: self.config.clone(),
                future: self.future.clone(),
                fitted: Some(fitted.clone()),
                telemetry: self.telemetry.clone(),
            }) as Box<dyn Validator>
        })
    }

    fn health_check(&self) -> Result<()> {
        // An unfitted backend has no parameters to drift, so nothing to
        // verify; once fitted, re-hash against the checksum taken at fit.
        match &self.fitted {
            Some(fitted) => fitted.health_check().map_err(ValidateError::from),
            None => Ok(()),
        }
    }

    fn persisted_state(&self) -> Option<crate::PersistedValidatorState> {
        self.fitted
            .as_ref()
            .map(|fitted| crate::PersistedValidatorState::Dquag(Box::new(fitted.export_state())))
    }
}

/// One of the four baseline systems (six configurations) behind the unified
/// API.
///
/// Wraps the `dquag_baselines::BatchValidator` SPI and lifts its flat
/// [`dquag_baselines::BatchVerdict`] into the graded [`Verdict`] (without
/// instance detail — none of the baselines localises errors).
///
/// The baselines look columns up by position or skip the ones they cannot
/// find, so a batch of another schema would be judged on whatever columns
/// happen to line up. The backend keeps the schema it was fitted on and
/// refuses any other one.
pub struct BaselineBackend {
    kind: BaselineKind,
    inner: Box<dyn BatchValidator>,
    fitted: Option<Schema>,
}

impl BaselineBackend {
    /// An unfitted backend for the given baseline configuration.
    pub fn new(kind: BaselineKind) -> Self {
        Self {
            kind,
            inner: kind.build(),
            fitted: None,
        }
    }

    /// Which baseline configuration this wraps.
    pub fn kind(&self) -> BaselineKind {
        self.kind
    }
}

impl Validator for BaselineBackend {
    fn name(&self) -> &str {
        self.kind.label()
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::dataset_level()
    }

    fn fit(&mut self, clean: &DataFrame) -> Result<FitReport> {
        self.inner.fit(clean);
        self.fitted = Some(clean.schema().clone());
        Ok(FitReport {
            validator: self.name().to_string(),
            n_rows: clean.n_rows(),
            n_columns: clean.n_cols(),
            threshold: None,
            n_parameters: None,
            notes: vec![format!("fitted on {} clean rows", clean.n_rows())],
        })
    }

    fn validate(&self, batch: &DataFrame) -> Result<Verdict> {
        let Some(schema) = &self.fitted else {
            return Err(ValidateError::NotFitted(self.name().to_string()));
        };
        if batch.schema() != schema {
            return Err(ValidateError::InvalidBatch(format!(
                "the batch's schema differs from the one `{}` was fitted on \
                 (columns {:?}, expected {:?})",
                self.name(),
                batch.schema().names(),
                schema.names()
            )));
        }
        let verdict = self.inner.validate(batch);
        Ok(Verdict::dataset_level(
            self.name(),
            verdict.is_dirty,
            verdict.score,
            batch.n_rows(),
            verdict.violations,
        ))
    }
}
