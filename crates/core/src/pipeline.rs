//! The end-to-end DQuaG pipeline: training, validation, repair.

use crate::config::DquagConfig;
use crate::{CoreError, Result};
use dquag_gnn::{ActivationFault, DquagNetwork, HealthError, InferenceSession, ParamStore};
use dquag_graph::knowledge::{build_feature_graph, StatisticalOracle};
use dquag_graph::FeatureGraph;
use dquag_tabular::encode::DatasetEncoder;
use dquag_tabular::stats::percentile_f32;
use dquag_tabular::{DataFrame, Value};
use dquag_telemetry::{Stage, Telemetry};
use dquag_tensor::optim::Adam;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A flagged cell: the feature-level detection output of §3.2.1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellFlag {
    /// Row (instance) index in the validated dataframe.
    pub row: usize,
    /// Column (feature) index.
    pub column: usize,
    /// Squared reconstruction error of that feature.
    pub error: f32,
}

/// What phase 2 reports about one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Instance-level reconstruction errors `e_i`, one per row.
    pub instance_errors: Vec<f32>,
    /// Indices of instances whose error exceeds the threshold.
    pub flagged_instances: Vec<usize>,
    /// Individually flagged `(row, feature)` cells inside flagged instances.
    pub cell_flags: Vec<CellFlag>,
    /// Fraction of instances flagged (`R_error`).
    pub error_rate: f64,
    /// Dataset-level verdict: true when `R_error > 5% × n`.
    pub dataset_is_dirty: bool,
    /// The detection threshold in force.
    pub threshold: f32,
}

impl ValidationReport {
    /// Build a report, enforcing the invariant [`Self::is_flagged`] relies
    /// on: `flagged_instances` is sorted ascending and deduplicated here, so
    /// lookups stay correct whatever order the caller produced.
    /// `error_rate` is derived from the flagged count.
    pub fn new(
        instance_errors: Vec<f32>,
        mut flagged_instances: Vec<usize>,
        cell_flags: Vec<CellFlag>,
        dataset_is_dirty: bool,
        threshold: f32,
    ) -> Self {
        flagged_instances.sort_unstable();
        flagged_instances.dedup();
        let error_rate = if instance_errors.is_empty() {
            0.0
        } else {
            flagged_instances.len() as f64 / instance_errors.len() as f64
        };
        Self {
            instance_errors,
            flagged_instances,
            cell_flags,
            error_rate,
            dataset_is_dirty,
            threshold,
        }
    }

    /// Number of validated instances.
    pub fn n_instances(&self) -> usize {
        self.instance_errors.len()
    }

    /// True if the given row was flagged.
    ///
    /// `flagged_instances` is sorted (enforced by [`Self::new`]), so this is
    /// a binary search.
    pub fn is_flagged(&self, row: usize) -> bool {
        debug_assert!(
            self.flagged_instances.windows(2).all(|w| w[0] < w[1]),
            "flagged_instances was mutated out of sorted order"
        );
        self.flagged_instances.binary_search(&row).is_ok()
    }
}

/// Summary of phase-1 training, kept for diagnostics and the experiment logs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingSummary {
    /// Mean multi-task loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Number of rows used for gradient updates.
    pub n_train_rows: usize,
    /// Number of held-out rows used for threshold calibration.
    pub n_calibration_rows: usize,
    /// The calibrated detection threshold.
    pub threshold: f32,
    /// Number of scalar weights in the network.
    pub n_weights: usize,
    /// Edges of the inferred feature graph, as `(feature, feature)` names.
    pub graph_edges: Vec<(String, String)>,
}

/// Default interval, in matrix-level forward passes, between parameter
/// checksum re-verifications on an armed inference session. The check also
/// always fires on a session's first pass, so every `validate` call verifies
/// the store at least once; the period only bounds the re-check cost on very
/// large batches.
pub const DEFAULT_SELF_CHECK_PERIOD: u64 = 32;

/// A trained DQuaG validator: the phase-1 artefacts needed to run phase 2.
#[derive(Debug, Clone)]
pub struct DquagValidator {
    config: DquagConfig,
    network: DquagNetwork,
    encoder: DatasetEncoder,
    graph: FeatureGraph,
    threshold: f32,
    summary: TrainingSummary,
    telemetry: Option<std::sync::Arc<Telemetry>>,
    /// Checksum of the network parameters at fit (or restore) time — the
    /// reference every runtime self-check compares against.
    fitted_checksum: u64,
    /// Forward passes between checksum re-verifications; 0 disables the
    /// runtime self-checks entirely.
    self_check_period: u64,
    /// Activation-corruption hook propagated onto every inference session
    /// this validator opens — the fault-injection seam used by `dquag-faults`.
    activation_fault: Option<ActivationFault>,
}

/// The complete serialisable state of a fitted [`DquagValidator`]: config,
/// feature graph, fitted encoders, every network parameter (exact `f32`
/// bits — the JSON codec round-trips finite floats losslessly), calibrated
/// threshold and training diagnostics.
///
/// The checksum is stored as a hexadecimal string rather than a bare `u64`
/// because the JSON number line is `f64`: a 64-bit hash above 2⁵³ would
/// silently lose low bits in numeric form and every load would fail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DquagModelState {
    /// Pipeline configuration in force when the model was fitted.
    pub config: DquagConfig,
    /// The feature graph the network was built over.
    pub graph: FeatureGraph,
    /// Fitted per-column encoders.
    pub encoder: DatasetEncoder,
    /// Network parameters as `(name, matrix)` pairs in registration order.
    pub params: Vec<(String, dquag_tensor::Matrix)>,
    /// FNV-1a checksum over the parameter names, shapes and raw bits,
    /// formatted as 16 lowercase hex digits.
    pub param_checksum: String,
    /// Calibrated detection threshold.
    pub threshold: f32,
    /// Training diagnostics carried along for observability.
    pub summary: TrainingSummary,
}

impl DquagValidator {
    /// Phase 1: train on a clean dataset.
    ///
    /// `future` may list additional dataframes (e.g. the incoming batches to
    /// be validated later) so that the label encoder covers their categories,
    /// exactly as §3.1 prescribes; pass `&[]` when no future data is known.
    pub fn train(
        clean: &DataFrame,
        future: &[&DataFrame],
        config: &DquagConfig,
    ) -> Result<DquagValidator> {
        if clean.n_rows() < 10 {
            return Err(CoreError::InvalidTrainingData(format!(
                "need at least 10 clean rows, got {}",
                clean.n_rows()
            )));
        }

        // 1. Fit the encoders over clean ∪ future data.
        let mut frames: Vec<&DataFrame> = Vec::with_capacity(future.len() + 1);
        frames.push(clean);
        for f in future {
            if f.schema() != clean.schema() {
                return Err(CoreError::SchemaMismatch(
                    "future data must keep the same schema as the clean dataset".to_string(),
                ));
            }
            frames.push(f);
        }
        let encoder = DatasetEncoder::fit_many(&frames);

        // 2. Build the knowledge-based feature graph from the clean data
        //    (or use the caller-supplied graph, e.g. from a real LLM run).
        let graph = match &config.feature_graph_override {
            Some(graph) => graph.clone(),
            None => {
                let oracle = StatisticalOracle::default();
                build_feature_graph(clean, &oracle, config.oracle_sample_size)?
            }
        };

        // 3. Split clean data into a training part and a calibration slice.
        let n_calibration = ((clean.n_rows() as f64 * config.calibration_fraction) as usize)
            .clamp(1, clean.n_rows() / 2);
        let n_train = clean.n_rows() - n_calibration;
        let (train_df, calibration_df) = clean.split_at(n_train)?;

        let encoded_train = encoder.transform(&train_df)?;
        let encoded_calibration = encoder.transform(&calibration_df)?;

        // 4. Train the network with Adam on shuffled mini-batches.
        let mut model_config = config.model;
        model_config.seed = config.seed;
        let mut network = DquagNetwork::new(&graph, model_config);
        let mut optimizer = Adam::with_learning_rate(config.learning_rate);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut epoch_losses = Vec::with_capacity(config.epochs);
        let mut indices: Vec<usize> = (0..encoded_train.n_rows()).collect();
        for _ in 0..config.epochs {
            indices.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut n_batches = 0;
            for chunk in indices.chunks(config.batch_size.max(1)) {
                let batch: Vec<&[f32]> = chunk.iter().map(|&row| encoded_train.row(row)).collect();
                let (loss, _) = network.train_batch(&batch, &mut optimizer);
                epoch_loss += loss;
                n_batches += 1;
            }
            epoch_losses.push(epoch_loss / n_batches.max(1) as f32);
        }

        // 5. Collect reconstruction-error statistics on the held-out clean
        //    slice and set the threshold at the configured percentile. The
        //    rows go through the batched inference path: parameters bound
        //    once, one matrix-level forward pass per chunk.
        let session = network.inference_session();
        let calibration_rows: Vec<&[f32]> = (0..encoded_calibration.n_rows())
            .map(|row| encoded_calibration.row(row))
            .collect();
        let calibration_errors: Vec<f32> = calibration_rows
            .chunks(config.inference_batch_size.max(1))
            .flat_map(|chunk| network.score_errors(&session, chunk).instance_errors())
            .collect();
        let threshold = percentile_f32(&calibration_errors, config.threshold_percentile);

        let summary = TrainingSummary {
            epoch_losses,
            n_train_rows: n_train,
            n_calibration_rows: n_calibration,
            threshold,
            n_weights: network.n_weights(),
            graph_edges: graph
                .edges()
                .map(|(i, j)| (graph.node_names()[i].clone(), graph.node_names()[j].clone()))
                .collect(),
        };

        let fitted_checksum = network.params().checksum();
        Ok(DquagValidator {
            config: config.clone(),
            network,
            encoder,
            graph,
            threshold,
            summary,
            telemetry: None,
            fitted_checksum,
            self_check_period: DEFAULT_SELF_CHECK_PERIOD,
            activation_fault: None,
        })
    }

    /// Export the complete fitted state — everything [`Self::from_state`]
    /// needs to reconstruct a validator that scores identically, plus a
    /// checksum over the parameter bits so loads can fail closed.
    pub fn export_state(&self) -> DquagModelState {
        DquagModelState {
            config: self.config.clone(),
            graph: self.graph.clone(),
            encoder: self.encoder.clone(),
            params: self.network.params().export(),
            param_checksum: format!("{:016x}", self.network.params().checksum()),
            threshold: self.threshold,
            summary: self.summary.clone(),
        }
    }

    /// Reconstruct a fitted validator from exported state without refitting.
    ///
    /// The network structure is rebuilt deterministically from the persisted
    /// config and feature graph, then the stored parameters overwrite the
    /// fresh initialisation. Loading fails closed: any structural mismatch
    /// (parameter names, shapes, count) or checksum mismatch returns
    /// [`CoreError::CorruptModel`] — a model that cannot prove its integrity
    /// never scores a batch.
    pub fn from_state(state: DquagModelState) -> Result<DquagValidator> {
        let config = state.config.validated()?;
        let declared = u64::from_str_radix(&state.param_checksum, 16).map_err(|_| {
            CoreError::CorruptModel(format!(
                "param_checksum `{}` is not a hexadecimal u64",
                state.param_checksum
            ))
        })?;
        // Mirror `train` step 4: the model seed is overridden by the
        // pipeline seed before construction, so structure and parameter
        // registration order match the exporting network exactly.
        let mut model_config = config.model;
        model_config.seed = config.seed;
        let mut network = DquagNetwork::new(&state.graph, model_config);
        network
            .import_params(&state.params)
            .map_err(CoreError::CorruptModel)?;
        let actual = network.params().checksum();
        if actual != declared {
            return Err(CoreError::CorruptModel(format!(
                "parameter checksum mismatch: stored {} but loaded parameters hash to {actual:016x}",
                state.param_checksum
            )));
        }
        if state.encoder.n_features() != state.graph.n_nodes() {
            return Err(CoreError::CorruptModel(format!(
                "encoder covers {} features but the feature graph has {} nodes",
                state.encoder.n_features(),
                state.graph.n_nodes()
            )));
        }
        if !state.threshold.is_finite() {
            return Err(CoreError::CorruptModel(format!(
                "detection threshold {} is not finite",
                state.threshold
            )));
        }
        Ok(DquagValidator {
            config,
            network,
            encoder: state.encoder,
            graph: state.graph,
            threshold: state.threshold,
            summary: state.summary,
            telemetry: None,
            // `actual == declared` was just verified, so the restored model's
            // self-checks anchor to the same reference the exporter had.
            fitted_checksum: actual,
            self_check_period: DEFAULT_SELF_CHECK_PERIOD,
            activation_fault: None,
        })
    }

    /// The calibrated detection threshold `e_threshold`.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The inferred feature graph.
    pub fn feature_graph(&self) -> &FeatureGraph {
        &self.graph
    }

    /// Training diagnostics.
    pub fn training_summary(&self) -> &TrainingSummary {
        &self.summary
    }

    /// The pipeline configuration in force.
    pub fn config(&self) -> &DquagConfig {
        &self.config
    }

    /// Attach a telemetry bundle: phase-2 calls time their graph-build,
    /// forward and verdict-assembly stages and count GNN forward passes into
    /// its registry. Without a bundle the hot path stays untouched.
    pub fn with_telemetry(mut self, telemetry: std::sync::Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Set the runtime self-check period in forward passes: every scoring
    /// session re-verifies the parameter checksum at that interval (and
    /// always on its first pass) and scans kernel/score outputs for NaN/Inf.
    /// `0` disables the self-checks — the knob the overhead bench uses to
    /// measure their cost. Checks are ON by default
    /// ([`DEFAULT_SELF_CHECK_PERIOD`]).
    pub fn with_self_check_period(mut self, period: u64) -> Self {
        self.self_check_period = period;
        self
    }

    /// The runtime self-check period (0 = disabled).
    pub fn self_check_period(&self) -> u64 {
        self.self_check_period
    }

    /// The parameter checksum captured when this validator was fitted or
    /// restored — the reference the runtime self-checks verify against.
    pub fn fitted_checksum(&self) -> u64 {
        self.fitted_checksum
    }

    /// Cheap integrity probe: re-hash the live parameters against the
    /// checksum captured at fit time. An `Err(`[`CoreError::Health`]`)` means some
    /// weight changed since fitting — the caller should stop trusting this
    /// replica and rebuild it from persisted state.
    pub fn health_check(&self) -> Result<()> {
        let actual = self.network.params().checksum();
        if actual != self.fitted_checksum {
            return Err(CoreError::Health(HealthError::ChecksumMismatch {
                expected: self.fitted_checksum,
                actual,
            }));
        }
        if !self.threshold.is_finite() {
            return Err(CoreError::CorruptModel(format!(
                "detection threshold {} is not finite",
                self.threshold
            )));
        }
        Ok(())
    }

    /// Fault-injection seam: expose the fitted network's parameter store for
    /// in-place corruption (bit flips, NaN poisoning). Used by `dquag-faults`
    /// to emulate hardware faults in a running replica; the corruption is
    /// exactly what [`DquagValidator::health_check`] and the armed session
    /// self-checks are built to catch. Normal code never calls this.
    pub fn corrupt_params_with(&mut self, f: impl FnOnce(&mut ParamStore)) {
        f(self.network.params_mut());
    }

    /// Install (or clear) an activation-corruption hook applied to every
    /// decoder output this validator scores — the activation-level
    /// fault-injection seam of `dquag-faults`.
    pub fn set_activation_fault(&mut self, fault: Option<ActivationFault>) {
        self.activation_fault = fault;
    }

    /// Arm a freshly opened session with this validator's self-check
    /// reference and any installed activation fault.
    fn arm_session(&self, session: &InferenceSession) {
        if self.self_check_period > 0 {
            session.arm_self_check(self.fitted_checksum, self.self_check_period);
        }
        if let Some(fault) = &self.activation_fault {
            session.set_activation_fault(Some(fault.clone()));
        }
    }

    /// Surface a session health violation as a [`CoreError::Health`].
    fn session_health(&self, session: &InferenceSession) -> Result<()> {
        match session.take_health_violation() {
            Some(violation) => Err(CoreError::Health(violation)),
            None => Ok(()),
        }
    }

    /// Record one finished stage span when a bundle is attached.
    fn observe_stage(&self, stage: Stage, started: std::time::Instant) {
        if let Some(telemetry) = &self.telemetry {
            telemetry.record_stage(stage, started.elapsed());
        }
    }

    /// Fold one inference session's counters into the registry.
    fn observe_session(&self, session: &dquag_gnn::InferenceSession) {
        if let Some(telemetry) = &self.telemetry {
            let registry = telemetry.registry();
            registry
                .counter(
                    "dquag_gnn_forward_passes_total",
                    "Matrix-level GNN forward passes (one per cache-sized tile).",
                )
                .add(session.forward_passes());
            registry
                .counter(
                    "dquag_gnn_rows_scored_total",
                    "Encoded rows scored through GNN inference sessions.",
                )
                .add(session.rows_scored());
        }
    }

    /// Per-feature squared reconstruction errors for every row, flattened
    /// row-major with stride `n_features` — the phase-2 hot path. Rows are
    /// stacked into matrix-level forward passes of up to
    /// `inference_batch_size` (1 scores every row alone), on inference
    /// sessions that bind the parameters once per worker instead of once per
    /// row. One flat buffer keeps memory at the size of the encoded input
    /// instead of one allocation per row.
    fn feature_errors_for_rows<R: AsRef<[f32]> + Sync>(&self, rows: &[R]) -> Result<Vec<f32>> {
        let stride = self.network.n_features();
        let mut results = vec![0.0f32; rows.len() * stride];
        let threads = self.config.validation_threads.max(1);
        if threads == 1 || rows.len() < 64 {
            self.score_rows_into(rows, &mut results)?;
            return Ok(results);
        }
        // Parallel phase-2 validation: forward passes are independent, the
        // network is immutable, so rows are simply split across scoped
        // threads, each with its own inference session writing a disjoint
        // range of the flat output.
        let chunk_size = rows.len().div_ceil(threads);
        let mut worker_results: Vec<Result<()>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = rows
                .chunks(chunk_size)
                .zip(results.chunks_mut(chunk_size * stride.max(1)))
                .map(|(row_chunk, out_chunk)| {
                    scope.spawn(move || self.score_rows_into(row_chunk, out_chunk))
                })
                .collect();
            worker_results = handles
                .into_iter()
                .map(|handle| handle.join().expect("validation worker panicked"))
                .collect();
        });
        // The first health violation wins; with every worker scoring the
        // same corrupt store they would all report the same mismatch anyway.
        for worker in worker_results {
            worker?;
        }
        Ok(results)
    }

    /// Score a contiguous run of rows on one inference session, writing
    /// flattened per-feature errors (stride `n_features`) into `out`.
    /// The session is armed with this validator's self-checks; a health
    /// violation aborts scoring and surfaces as [`CoreError::Health`] —
    /// scores from a corrupt model are never handed upward.
    fn score_rows_into<R: AsRef<[f32]>>(&self, rows: &[R], out: &mut [f32]) -> Result<()> {
        let stride = self.network.n_features();
        let session = self.network.inference_session();
        self.arm_session(&session);
        let mut offset = 0;
        for chunk in rows.chunks(self.config.inference_batch_size.max(1)) {
            let len = chunk.len() * stride;
            let scores = self.network.score_errors(&session, chunk);
            if let Err(violation) = self.session_health(&session) {
                self.observe_session(&session);
                return Err(violation);
            }
            scores.write_feature_errors(&mut out[offset..offset + len]);
            offset += len;
        }
        self.observe_session(&session);
        Ok(())
    }

    /// Phase 2: validate a new dataset against the learned clean patterns.
    pub fn validate(&self, df: &DataFrame) -> Result<ValidationReport> {
        let build_started = std::time::Instant::now();
        let encoded = self
            .encoder
            .transform(df)
            .map_err(|e| CoreError::SchemaMismatch(e.to_string()))?;
        let rows: Vec<&[f32]> = (0..encoded.n_rows()).map(|r| encoded.row(r)).collect();
        self.observe_stage(Stage::GraphBuild, build_started);
        let stride = self.network.n_features().max(1);
        let forward_started = std::time::Instant::now();
        let flat_feature_errors = self.feature_errors_for_rows(&rows)?;
        self.observe_stage(Stage::Forward, forward_started);
        let verdict_started = std::time::Instant::now();
        let instance_errors: Vec<f32> = flat_feature_errors
            .chunks(stride)
            .map(instance_error)
            .collect();

        let flagged_instances: Vec<usize> = instance_errors
            .iter()
            .enumerate()
            .filter(|(_, &e)| e > self.threshold)
            .map(|(i, _)| i)
            .collect();
        let error_rate = if instance_errors.is_empty() {
            0.0
        } else {
            flagged_instances.len() as f64 / instance_errors.len() as f64
        };
        let dataset_is_dirty = error_rate > self.config.dataset_error_rate_threshold();

        // Feature-level detection inside flagged instances: error > μ + kσ.
        // The per-feature errors were already produced by the batched pass
        // above — no second forward pass per flagged row.
        let mut cell_flags = Vec::new();
        for &row in &flagged_instances {
            let flags_before = cell_flags.len();
            let feature_errors = &flat_feature_errors[row * stride..(row + 1) * stride];
            let mean = feature_errors.iter().sum::<f32>() / feature_errors.len().max(1) as f32;
            let variance = feature_errors
                .iter()
                .map(|e| (e - mean).powi(2))
                .sum::<f32>()
                / feature_errors.len().max(1) as f32;
            let std_dev = variance.sqrt();
            let cutoff = mean + self.config.feature_sigma * std_dev;
            for (column, &error) in feature_errors.iter().enumerate() {
                // With a tight σ the cutoff can exceed every error; fall back
                // to flagging the dominant feature so repairs have a target.
                if error > cutoff {
                    cell_flags.push(CellFlag { row, column, error });
                }
            }
            if cell_flags.len() == flags_before {
                if let Some((column, &error)) = feature_errors
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                {
                    if error > self.threshold {
                        cell_flags.push(CellFlag { row, column, error });
                    }
                }
            }
        }

        let report = ValidationReport::new(
            instance_errors,
            flagged_instances,
            cell_flags,
            dataset_is_dirty,
            self.threshold,
        );
        self.observe_stage(Stage::Verdict, verdict_started);
        Ok(report)
    }

    /// Phase 2, repair step: return a copy of `df` in which every flagged
    /// cell has been replaced by the repair decoder's suggestion (decoded back
    /// to the original value domain). Unflagged cells are never touched.
    pub fn repair(&self, df: &DataFrame, report: &ValidationReport) -> Result<DataFrame> {
        let encoded = self
            .encoder
            .transform(df)
            .map_err(|e| CoreError::SchemaMismatch(e.to_string()))?;
        let mut repaired = df.clone();
        // Collect the rows that actually need repairs, then run the repair
        // decoder over all of them in batched forward passes.
        let mut cells_by_row: HashMap<usize, Vec<usize>> = HashMap::new();
        for cell in &report.cell_flags {
            cells_by_row.entry(cell.row).or_default().push(cell.column);
        }
        let targets: Vec<(usize, &[usize])> = report
            .flagged_instances
            .iter()
            .filter_map(|&row| cells_by_row.get(&row).map(|cells| (row, cells.as_slice())))
            .collect();
        let target_rows: Vec<&[f32]> = targets.iter().map(|&(row, _)| encoded.row(row)).collect();

        let session = self.network.inference_session();
        self.arm_session(&session);
        let batch = self.config.inference_batch_size.max(1);
        for (chunk_targets, chunk) in targets.chunks(batch).zip(target_rows.chunks(batch)) {
            let scores = self.network.score_repairs(&session, chunk);
            self.session_health(&session)?;
            for (offset, &(row, cells)) in chunk_targets.iter().enumerate() {
                let suggestions = scores.repair_values(offset);
                for &column in cells {
                    let value: Value = self.encoder.decode_cell(column, suggestions[column])?;
                    repaired.set_value(row, column, value)?;
                }
            }
        }
        Ok(repaired)
    }

    /// Convenience: validate, repair, and re-validate the repaired data.
    pub fn validate_and_repair(
        &self,
        df: &DataFrame,
    ) -> Result<(ValidationReport, DataFrame, ValidationReport)> {
        let report = self.validate(df)?;
        let repaired = self.repair(df, &report)?;
        let after = self.validate(&repaired)?;
        Ok((report, repaired, after))
    }
}

/// Instance-level error: mean of the per-feature squared errors.
fn instance_error(feature_errors: &[f32]) -> f32 {
    if feature_errors.is_empty() {
        0.0
    } else {
        feature_errors.iter().sum::<f32>() / feature_errors.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dquag_datagen::{inject_hidden, inject_ordinary, DatasetKind, HiddenError, OrdinaryError};

    fn trained_credit_validator() -> (DquagValidator, DataFrame) {
        let clean = DatasetKind::CreditCard.generate_clean(900, 3);
        let mut config = DquagConfig::fast();
        config.epochs = 15;
        let validator = DquagValidator::train(&clean, &[], &config).expect("training succeeds");
        (validator, clean)
    }

    #[test]
    fn training_produces_sane_artifacts() {
        let (validator, _) = trained_credit_validator();
        assert!(validator.threshold() > 0.0);
        let summary = validator.training_summary();
        assert_eq!(summary.epoch_losses.len(), 15);
        assert!(summary.epoch_losses[0] > *summary.epoch_losses.last().unwrap());
        assert!(summary.n_weights > 0);
        assert!(!summary.graph_edges.is_empty());
        assert!(validator.feature_graph().n_nodes() >= 10);
    }

    #[test]
    fn exported_state_round_trips_to_an_identical_validator() {
        let (validator, clean) = trained_credit_validator();
        let mut rng = dquag_datagen::rng(29);
        let mut batch = dquag_datagen::sample_fraction(&clean, 0.2, &mut rng);
        let cols = DatasetKind::CreditCard.default_ordinary_error_columns();
        inject_ordinary(
            &mut batch,
            OrdinaryError::NumericAnomalies,
            &cols,
            0.2,
            &mut rng,
        );

        let json = serde_json::to_string(&validator.export_state()).unwrap();
        let state: DquagModelState = serde_json::from_str(&json).unwrap();
        let restored = DquagValidator::from_state(state).unwrap();

        assert_eq!(restored.threshold(), validator.threshold());
        let original = validator.validate(&batch).unwrap();
        let reloaded = restored.validate(&batch).unwrap();
        // Bit-exact parameter restoration ⇒ identical reports, not just
        // statistically similar ones.
        assert_eq!(original, reloaded);
    }

    #[test]
    fn tampered_state_fails_closed() {
        let (validator, _) = trained_credit_validator();
        let pristine = validator.export_state();

        // Flip one low bit of one weight: the checksum must catch it.
        let mut bitflip = pristine.clone();
        let m = &mut bitflip.params[0].1;
        let poked = f32::from_bits(m.get(0, 0).to_bits() ^ 1);
        m.set(0, 0, poked);
        assert!(matches!(
            DquagValidator::from_state(bitflip),
            Err(CoreError::CorruptModel(_))
        ));

        // A checksum that is not hex fails before touching the network.
        let mut badsum = pristine.clone();
        badsum.param_checksum = "not-hex".to_string();
        assert!(matches!(
            DquagValidator::from_state(badsum),
            Err(CoreError::CorruptModel(_))
        ));

        // Dropping a parameter is a structural mismatch.
        let mut truncated = pristine.clone();
        truncated.params.pop();
        assert!(matches!(
            DquagValidator::from_state(truncated),
            Err(CoreError::CorruptModel(_))
        ));

        // A non-finite threshold is rejected even with intact parameters.
        let mut bad_threshold = pristine;
        bad_threshold.threshold = f32::NAN;
        assert!(matches!(
            DquagValidator::from_state(bad_threshold),
            Err(CoreError::CorruptModel(_))
        ));
    }

    #[test]
    fn clean_batches_pass_and_corrupted_batches_are_flagged() {
        let (validator, clean) = trained_credit_validator();
        let mut rng = dquag_datagen::rng(17);

        let clean_batch = dquag_datagen::sample_fraction(&clean, 0.2, &mut rng);
        let clean_report = validator.validate(&clean_batch).unwrap();
        assert!(
            clean_report.error_rate < 0.12,
            "clean error rate {} should stay near 5%",
            clean_report.error_rate
        );

        let mut dirty = dquag_datagen::sample_fraction(&clean, 0.2, &mut rng);
        let cols = DatasetKind::CreditCard.default_ordinary_error_columns();
        inject_ordinary(
            &mut dirty,
            OrdinaryError::NumericAnomalies,
            &cols,
            0.25,
            &mut rng,
        );
        inject_ordinary(
            &mut dirty,
            OrdinaryError::MissingValues,
            &cols,
            0.2,
            &mut rng,
        );
        let dirty_report = validator.validate(&dirty).unwrap();
        assert!(
            dirty_report.error_rate > clean_report.error_rate + 0.1,
            "corrupted batch error rate {} must clearly exceed clean rate {}",
            dirty_report.error_rate,
            clean_report.error_rate
        );
        assert!(dirty_report.dataset_is_dirty);
        assert!(!dirty_report.flagged_instances.is_empty());
        assert!(dirty_report.is_flagged(dirty_report.flagged_instances[0]));
    }

    #[test]
    fn hidden_credit_conflicts_are_detected() {
        let (validator, clean) = trained_credit_validator();
        let mut rng = dquag_datagen::rng(19);
        let mut conflicted = dquag_datagen::sample_fraction(&clean, 0.2, &mut rng);
        inject_hidden(
            &mut conflicted,
            HiddenError::CreditEmploymentBeforeBirth,
            0.2,
            &mut rng,
        );
        let report = validator.validate(&conflicted).unwrap();
        assert!(
            report.dataset_is_dirty,
            "employment-before-birth conflicts must be flagged (rate {})",
            report.error_rate
        );
    }

    #[test]
    fn repair_only_touches_flagged_cells_and_lowers_error_rate() {
        let (validator, clean) = trained_credit_validator();
        let mut rng = dquag_datagen::rng(23);
        let mut dirty = dquag_datagen::sample_fraction(&clean, 0.2, &mut rng);
        let cols = DatasetKind::CreditCard.default_ordinary_error_columns();
        inject_ordinary(
            &mut dirty,
            OrdinaryError::NumericAnomalies,
            &cols,
            0.25,
            &mut rng,
        );

        let (before, repaired, after) = validator.validate_and_repair(&dirty).unwrap();
        // unflagged cells are untouched
        let flagged_cells: std::collections::HashSet<(usize, usize)> = before
            .cell_flags
            .iter()
            .map(|c| (c.row, c.column))
            .collect();
        for row in 0..dirty.n_rows() {
            for col in 0..dirty.n_cols() {
                if !flagged_cells.contains(&(row, col)) {
                    assert_eq!(
                        dirty.value(row, col).unwrap(),
                        repaired.value(row, col).unwrap(),
                        "unflagged cell ({row},{col}) must not change"
                    );
                }
            }
        }
        assert!(
            after.error_rate < before.error_rate,
            "repair should reduce the error rate ({} -> {})",
            before.error_rate,
            after.error_rate
        );
    }

    #[test]
    fn parallel_validation_matches_sequential() {
        let clean = DatasetKind::HotelBooking.generate_clean(600, 5);
        let mut config = DquagConfig::fast();
        config.epochs = 8;
        let sequential = DquagValidator::train(&clean, &[], &config).unwrap();
        let mut parallel_cfg = config.clone();
        parallel_cfg.validation_threads = 4;
        let parallel = DquagValidator::train(&clean, &[], &parallel_cfg).unwrap();

        let batch = clean.split_at(200).unwrap().0;
        let seq_errors = sequential.validate(&batch).unwrap().instance_errors;
        let par_errors = parallel.validate(&batch).unwrap().instance_errors;
        assert_eq!(seq_errors.len(), par_errors.len());
        for (a, b) in seq_errors.iter().zip(par_errors.iter()) {
            assert!(
                (a - b).abs() < 1e-6,
                "parallel and sequential errors must agree"
            );
        }
    }

    /// The same fitted weights and threshold, scoring `rows` rows per
    /// forward pass.
    fn with_inference_batch_size(validator: &DquagValidator, rows: usize) -> DquagValidator {
        let mut state = validator.export_state();
        state.config.inference_batch_size = rows;
        DquagValidator::from_state(state).unwrap()
    }

    #[test]
    fn inference_batch_size_does_not_change_reports() {
        // Equivalence gate at the pipeline level: the same fitted weights
        // scored 256 rows per pass vs one row per pass must produce
        // identical reports — errors, flags, cell flags, dataset verdict — on
        // clean and corrupted data.
        let (validator, clean) = trained_credit_validator();
        let batched = with_inference_batch_size(&validator, 256);
        let per_row = with_inference_batch_size(&validator, 1);

        let mut rng = dquag_datagen::rng(29);
        let mut dirty = dquag_datagen::sample_fraction(&clean, 0.3, &mut rng);
        let cols = DatasetKind::CreditCard.default_ordinary_error_columns();
        inject_ordinary(
            &mut dirty,
            OrdinaryError::NumericAnomalies,
            &cols,
            0.2,
            &mut rng,
        );

        for (label, df) in [("clean", &clean), ("dirty", &dirty)] {
            let a = batched.validate(df).unwrap();
            let b = per_row.validate(df).unwrap();
            assert_eq!(
                a.flagged_instances, b.flagged_instances,
                "{label}: flag decisions must be identical"
            );
            assert_eq!(a.cell_flags, b.cell_flags, "{label}: cell flags");
            assert_eq!(a.dataset_is_dirty, b.dataset_is_dirty, "{label}: verdict");
            assert_eq!(a.instance_errors.len(), b.instance_errors.len());
            for (i, (x, y)) in a
                .instance_errors
                .iter()
                .zip(b.instance_errors.iter())
                .enumerate()
            {
                assert!(
                    (x - y).abs() <= 1e-5,
                    "{label}: row {i} error {x} vs {y} exceeds 1e-5"
                );
            }
        }

        // and repairs touch identical cells with identical suggestions
        let report = batched.validate(&dirty).unwrap();
        let repaired_batched = batched.repair(&dirty, &report).unwrap();
        let repaired_per_row = per_row.repair(&dirty, &report).unwrap();
        for row in 0..dirty.n_rows() {
            for col in 0..dirty.n_cols() {
                assert_eq!(
                    repaired_batched.value(row, col).unwrap(),
                    repaired_per_row.value(row, col).unwrap(),
                    "repair ({row},{col}) must not depend on batching"
                );
            }
        }
    }

    #[test]
    fn schema_mismatch_and_tiny_training_sets_are_rejected() {
        let clean = DatasetKind::CreditCard.generate_clean(200, 1);
        let other = DatasetKind::HotelBooking.generate_clean(200, 1);
        assert!(matches!(
            DquagValidator::train(&clean, &[&other], &DquagConfig::fast()),
            Err(CoreError::SchemaMismatch(_))
        ));
        let tiny = DatasetKind::CreditCard.generate_clean(5, 1);
        assert!(matches!(
            DquagValidator::train(&tiny, &[], &DquagConfig::fast()),
            Err(CoreError::InvalidTrainingData(_))
        ));

        let validator = DquagValidator::train(&clean, &[], &DquagConfig::fast()).unwrap();
        assert!(matches!(
            validator.validate(&other),
            Err(CoreError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn report_construction_sorts_flagged_instances() {
        // Regression test: `is_flagged` binary-searches `flagged_instances`,
        // so construction must sort whatever order the caller produced.
        let report = ValidationReport::new(
            vec![0.9, 0.1, 0.8, 0.1, 0.7],
            vec![4, 0, 2, 0],
            Vec::new(),
            true,
            0.5,
        );
        assert_eq!(
            report.flagged_instances,
            vec![0, 2, 4],
            "sorted and deduplicated"
        );
        for row in [0usize, 2, 4] {
            assert!(report.is_flagged(row), "row {row} must be found");
        }
        for row in [1usize, 3, 5] {
            assert!(!report.is_flagged(row), "row {row} must not be found");
        }
        assert!((report.error_rate - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn telemetry_times_stages_and_counts_forward_passes() {
        let (validator, clean) = trained_credit_validator();
        let telemetry = Telemetry::new();
        let observed = validator.with_telemetry(std::sync::Arc::clone(&telemetry));
        let batch = clean.split_at(120).unwrap().0;
        observed.validate(&batch).unwrap();

        for stage in [Stage::GraphBuild, Stage::Forward, Stage::Verdict] {
            assert_eq!(
                telemetry.stage_histogram(stage).count(),
                1,
                "one validate call must record exactly one {stage:?} span"
            );
        }
        let registry = telemetry.registry();
        assert_eq!(
            registry.counter("dquag_gnn_rows_scored_total", "").get(),
            120
        );
        assert!(registry.counter("dquag_gnn_forward_passes_total", "").get() >= 1);

        // A second call accumulates instead of resetting.
        observed.validate(&batch).unwrap();
        assert_eq!(telemetry.stage_histogram(Stage::Forward).count(), 2);
        assert_eq!(
            registry.counter("dquag_gnn_rows_scored_total", "").get(),
            240
        );
    }

    #[test]
    fn corrupted_validator_surfaces_health_errors_not_scores() {
        let (validator, clean) = trained_credit_validator();
        let batch = clean.split_at(80).unwrap().0;
        validator.health_check().expect("fresh model is healthy");
        validator.validate(&batch).expect("fresh model validates");

        // Flip one exponent bit in one fitted weight through the injection
        // seam: health_check and validate must both refuse, loudly.
        let mut corrupted = validator.clone();
        corrupted.corrupt_params_with(|store| {
            let (_, m) = store.iter_mut().next().unwrap();
            let bits = m.get(0, 0).to_bits() ^ (1 << 27);
            m.set(0, 0, f32::from_bits(bits));
        });
        assert!(matches!(
            corrupted.health_check(),
            Err(CoreError::Health(HealthError::ChecksumMismatch { .. }))
        ));
        assert!(matches!(
            corrupted.validate(&batch),
            Err(CoreError::Health(HealthError::ChecksumMismatch { .. }))
        ));
        // Repair is guarded by the same armed session path.
        let report = validator.validate(&batch).unwrap();
        assert!(matches!(
            corrupted.repair(&batch, &report),
            Err(CoreError::Health(_))
        ));

        // With self-checks disabled the corrupt model scores again — the
        // unchecked arm the fault campaign uses to measure silent drift.
        let unchecked = corrupted.with_self_check_period(0);
        assert_eq!(unchecked.self_check_period(), 0);
        unchecked
            .validate(&batch)
            .expect("unchecked scoring proceeds");

        // An activation-level fault is caught by the output scan even though
        // the parameter checksum still matches.
        let mut poisoned = validator.clone();
        poisoned.set_activation_fault(Some(ActivationFault::new(|m| m.set(0, 0, f32::NAN))));
        poisoned.health_check().expect("params are intact");
        assert!(matches!(
            poisoned.validate(&batch),
            Err(CoreError::Health(HealthError::NonFiniteScores { .. }))
        ));
    }

    #[test]
    fn parallel_validation_propagates_health_errors() {
        let clean = DatasetKind::HotelBooking.generate_clean(600, 5);
        let mut config = DquagConfig::fast();
        config.epochs = 8;
        config.validation_threads = 4;
        let mut validator = DquagValidator::train(&clean, &[], &config).unwrap();
        let batch = clean.split_at(300).unwrap().0;
        validator.validate(&batch).unwrap();
        validator.corrupt_params_with(|store| {
            let (_, m) = store.iter_mut().next().unwrap();
            m.set(0, 0, f32::NAN);
        });
        assert!(matches!(
            validator.validate(&batch),
            Err(CoreError::Health(_))
        ));
    }

    #[test]
    fn report_serialisation_round_trips() {
        let (validator, clean) = trained_credit_validator();
        let batch = clean.split_at(60).unwrap().0;
        let report = validator.validate(&batch).unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: ValidationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report.flagged_instances, back.flagged_instances);
        assert_eq!(report.n_instances(), back.n_instances());
    }
}
