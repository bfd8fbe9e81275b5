//! The complete DQuaG network: shared GNN encoder + dual decoders, plus the
//! multi-task loss that ties them together.
//!
//! The training *procedure* (epoch loop, threshold calibration, phase-2
//! validation logic) lives in `dquag-core`; this module owns the
//! differentiable part: forward passes and loss construction.

use crate::context::{BoundGraph, GraphContext};
use crate::decoder::DualDecoder;
use crate::encoder::{Encoder, EncoderKind};
use crate::health::{ActivationFault, HealthError};
use crate::params::{BoundParams, ParamStore};
use dquag_graph::FeatureGraph;
use dquag_tensor::init::InitRng;
use dquag_tensor::optim::Adam;
use dquag_tensor::{Matrix, Tape, Var};

/// Hyper-parameters of the network. Defaults reproduce the paper's §4.4
/// setting: four layers, hidden dimension 64, GAT+GIN interleaving,
/// α = β = 1.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModelConfig {
    /// Hidden embedding width `h`.
    pub hidden_dim: usize,
    /// Number of encoder layers.
    pub n_layers: usize,
    /// Encoder architecture.
    pub encoder: EncoderKind,
    /// Weight of the validation (weighted reconstruction) loss.
    pub alpha: f32,
    /// Weight of the repair loss.
    pub beta: f32,
    /// Sharpness of the normalcy weighting in the validation loss; 0 degrades
    /// to a plain (unweighted) reconstruction loss, which is the
    /// `ablation_weighted_loss` setting.
    pub weight_sharpness: f32,
    /// Seed for parameter initialisation.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 64,
            n_layers: 4,
            encoder: EncoderKind::GatGin,
            alpha: 1.0,
            beta: 1.0,
            weight_sharpness: 2.0,
            seed: 42,
        }
    }
}

impl ModelConfig {
    /// A reduced configuration for unit tests and quick experiments: smaller
    /// hidden dimension, same architecture.
    pub fn small() -> Self {
        Self {
            hidden_dim: 16,
            ..Self::default()
        }
    }
}

/// Output of a batched forward pass: `B` samples stacked vertically into
/// `(B·n) × 1` column matrices. Values still live on the forward tape; call
/// [`BatchOutput::detach`] to lift them off before truncating the tape.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// The stacked input features (`B·n × 1`).
    pub input: Var,
    /// Validation-decoder reconstruction (`B·n × 1`).
    pub reconstruction: Var,
    /// Repair-decoder output (`B·n × 1`).
    pub repair: Var,
    n_features: usize,
    batch: usize,
}

impl BatchOutput {
    /// Number of samples in the batch.
    pub fn batch_len(&self) -> usize {
        self.batch
    }

    /// Copy the values off the tape into a standalone [`BatchScores`] —
    /// per-feature errors are computed here, so only the error and repair
    /// buffers survive — and the forward tape can be truncated and reused
    /// for the next batch.
    pub fn detach(&self) -> BatchScores {
        let mut errors = Vec::new();
        extend_squared_errors(
            &self.input.value(),
            &self.reconstruction.value(),
            &mut errors,
        );
        BatchScores {
            n_features: self.n_features,
            errors,
            repair: self.repair.value().into_vec(),
        }
    }
}

/// Append element-wise `(x − r)²` — the per-feature reconstruction errors —
/// to `out`. The single definition shared by [`BatchOutput::detach`] and the
/// tiled scoring hot path.
fn extend_squared_errors(x: &Matrix, r: &Matrix, out: &mut Vec<f32>) {
    out.reserve(x.len());
    out.extend(x.as_slice().iter().zip(r.as_slice().iter()).map(|(x, r)| {
        let d = x - r;
        d * d
    }));
}

/// Tape-independent scores of a batched forward pass: per-feature squared
/// reconstruction errors and repair values, row-major with stride
/// `n_features`, plus per-sample accessors.
#[derive(Debug, Clone)]
pub struct BatchScores {
    n_features: usize,
    errors: Vec<f32>,
    repair: Vec<f32>,
}

impl BatchScores {
    fn empty(n_features: usize) -> Self {
        Self {
            n_features,
            errors: Vec::new(),
            repair: Vec::new(),
        }
    }

    /// Number of samples scored.
    pub fn len(&self) -> usize {
        self.errors
            .len()
            .max(self.repair.len())
            .checked_div(self.n_features)
            .unwrap_or(0)
    }

    /// True for the empty batch.
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty() && self.repair.is_empty()
    }

    /// Number of features per sample.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Squared reconstruction error per feature of sample `i` (the
    /// per-feature error list `e_i = [e_i1 … e_in]` of §3.2.1).
    pub fn per_feature_errors(&self, i: usize) -> Vec<f32> {
        self.errors[i * self.n_features..(i + 1) * self.n_features].to_vec()
    }

    /// Copy every sample's per-feature squared errors, row-major, into
    /// `out` (`len() × n_features` elements) — the allocation-free bulk form
    /// of [`BatchScores::per_feature_errors`] for consumers scoring large
    /// dataframes.
    pub fn write_feature_errors(&self, out: &mut [f32]) {
        out.copy_from_slice(&self.errors);
    }

    /// Mean squared reconstruction error of every sample, in batch order (the
    /// instance-level reconstruction error `e_i`).
    pub fn instance_errors(&self) -> Vec<f32> {
        if self.n_features == 0 {
            return Vec::new();
        }
        self.errors
            .chunks(self.n_features)
            .map(|errors| errors.iter().sum::<f32>() / errors.len() as f32)
            .collect()
    }

    /// The repair decoder's proposed feature values for sample `i`.
    pub fn repair_values(&self, i: usize) -> Vec<f32> {
        self.repair[i * self.n_features..(i + 1) * self.n_features].to_vec()
    }
}

/// A reusable inference context: a tape with the network parameters and
/// graph constants bound exactly once.
///
/// Binding clones every parameter matrix onto the tape; doing that per sample
/// used to dominate the phase-2 hot path. A session hoists the binding: each
/// [`DquagNetwork::score_matrix`] call runs the same forward pass training
/// does, appending O(layers) nodes per tile, reads the outputs and rewinds
/// the tape to the bound baseline, so the session never grows across
/// batches. No backward pass runs on it.
///
/// Sessions are single-threaded (the tape is `Rc`-based); parallel validation
/// workers each create their own from a shared `&DquagNetwork`.
#[derive(Debug)]
pub struct InferenceSession {
    tape: Tape,
    params: BoundParams,
    graph: BoundGraph,
    base_len: usize,
    forward_passes: std::cell::Cell<u64>,
    rows_scored: std::cell::Cell<u64>,
    self_check: std::cell::Cell<Option<SelfCheck>>,
    health: std::cell::RefCell<Option<HealthError>>,
    activation_fault: std::cell::RefCell<Option<ActivationFault>>,
}

/// Periodic self-check configuration armed on a session.
#[derive(Debug, Clone, Copy)]
struct SelfCheck {
    /// Checksum the network's parameter store hashed to at fit time.
    expected: u64,
    /// Verify the store checksum every this many forward passes. The check
    /// always fires on the *first* pass of a session, so every scoring call
    /// re-verifies the store it just bound from.
    period: u64,
}

impl InferenceSession {
    /// Current node count of the inference tape (== [`Self::base_len`]
    /// between batches; used by tape-growth regression tests).
    pub fn tape_len(&self) -> usize {
        self.tape.len()
    }

    /// Node count right after binding — the truncation baseline.
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Matrix-level forward passes (one per cache-sized tile) executed on
    /// this session since it was opened.
    pub fn forward_passes(&self) -> u64 {
        self.forward_passes.get()
    }

    /// Encoded rows scored through this session since it was opened.
    pub fn rows_scored(&self) -> u64 {
        self.rows_scored.get()
    }

    /// Arm the runtime self-checks on this session.
    ///
    /// `expected` is the parameter-store checksum captured at fit time;
    /// `period` (≥ 1) is how many forward passes may elapse between checksum
    /// re-verifications. Every scoring call on an armed session also arms
    /// the SIMD-epilogue finite guard ([`dquag_tensor::FiniteGuard`]) on the
    /// calling thread for its own duration, so a trip is attributable to
    /// this session's forward passes (sessions are single-threaded).
    pub fn arm_self_check(&self, expected: u64, period: u64) {
        self.self_check.set(Some(SelfCheck {
            expected,
            period: period.max(1),
        }));
    }

    /// Whether self-checks are armed.
    pub fn self_check_armed(&self) -> bool {
        self.self_check.get().is_some()
    }

    /// Install (or clear) an activation-corruption hook — the activation-level
    /// fault-injection seam. See [`ActivationFault`].
    pub fn set_activation_fault(&self, fault: Option<ActivationFault>) {
        *self.activation_fault.borrow_mut() = fault;
    }

    /// The first health violation recorded on this session, if any. Once a
    /// violation is recorded, further scoring through the session
    /// short-circuits to empty results, so callers must check this after
    /// every scoring call before trusting the scores.
    pub fn health_violation(&self) -> Option<HealthError> {
        self.health.borrow().clone()
    }

    /// Take (and clear) the recorded health violation.
    pub fn take_health_violation(&self) -> Option<HealthError> {
        self.health.borrow_mut().take()
    }

    fn record_health(&self, error: HealthError) {
        let mut slot = self.health.borrow_mut();
        if slot.is_none() {
            *slot = Some(error);
        }
    }
}

/// The multi-task objective `L_total = α·L_validation + β·L_repair`.
#[derive(Debug, Clone, Copy)]
pub struct MultiTaskLoss {
    /// Weight of the validation loss.
    pub alpha: f32,
    /// Weight of the repair loss.
    pub beta: f32,
}

impl MultiTaskLoss {
    /// Build the loss for a batch of samples, each given as the one-row
    /// forward output [`DquagNetwork::forward_batch`] produced for it.
    ///
    /// `weights[i]` is the normalcy weight `w_i` of sample `i` in the
    /// validation term; the repair term is always unweighted (the paper trains
    /// it directly towards the clean values).
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, a weight count that differs from the sample
    /// count, or an output holding more than one sample.
    pub fn batch_loss(&self, outputs: &[BatchOutput], weights: &[f32]) -> Var {
        assert_eq!(
            outputs.len(),
            weights.len(),
            "one weight per sample is required"
        );
        assert!(!outputs.is_empty(), "batch loss needs at least one sample");
        let n = outputs.len() as f32;
        let mut total: Option<Var> = None;
        for (out, &w) in outputs.iter().zip(weights.iter()) {
            assert_eq!(out.batch_len(), 1, "one forward output per sample");
            let diff_val = out.reconstruction.sub(&out.input).square().mean();
            let diff_rep = out.repair.sub(&out.input).square().mean();
            let sample_loss = diff_val
                .scale(self.alpha * w / n)
                .add(&diff_rep.scale(self.beta / n));
            total = Some(match total {
                Some(t) => t.add(&sample_loss),
                None => sample_loss,
            });
        }
        total.expect("non-empty batch")
    }
}

/// Normalcy weights from per-sample reconstruction errors: samples whose error
/// is below the batch mean get weights above 1, clearly abnormal samples get
/// weights pushed towards 0 (§3.1.2, validation-decoder loss).
pub fn normalcy_weights(errors: &[f32], sharpness: f32) -> Vec<f32> {
    if errors.is_empty() {
        return Vec::new();
    }
    if sharpness <= 0.0 {
        return vec![1.0; errors.len()];
    }
    let mean = errors.iter().sum::<f32>() / errors.len() as f32;
    let scale = mean.max(1e-8);
    let raw: Vec<f32> = errors
        .iter()
        .map(|&e| (-sharpness * (e / scale - 1.0)).exp().clamp(0.05, 20.0))
        .collect();
    // Renormalise to mean 1 so the loss magnitude stays comparable across
    // batches regardless of the weight distribution.
    let raw_mean = raw.iter().sum::<f32>() / raw.len() as f32;
    raw.iter().map(|w| w / raw_mean).collect()
}

/// The full DQuaG network over a fixed feature graph.
#[derive(Debug, Clone)]
pub struct DquagNetwork {
    config: ModelConfig,
    params: ParamStore,
    encoder: Encoder,
    decoder: DualDecoder,
    context: GraphContext,
    n_features: usize,
}

impl DquagNetwork {
    /// Build a network for the given feature graph.
    pub fn new(graph: &FeatureGraph, config: ModelConfig) -> Self {
        let mut params = ParamStore::new();
        let mut rng = InitRng::seeded(config.seed);
        let encoder = Encoder::new(
            config.encoder,
            graph,
            config.hidden_dim,
            config.n_layers,
            &mut params,
            &mut rng,
        );
        let decoder = DualDecoder::new(config.hidden_dim, &mut params, &mut rng);
        Self {
            config,
            params,
            encoder,
            decoder,
            context: GraphContext::new(graph),
            n_features: graph.n_nodes(),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Number of input features (graph nodes).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of scalar weights in the model.
    pub fn n_weights(&self) -> usize {
        self.params.n_weights()
    }

    /// The parameter store (read access, e.g. for checkpoint-style tests).
    pub fn params(&self) -> &ParamStore {
        &self.params
    }

    /// Mutable access to the parameter store — the fault-injection seam used
    /// by `dquag-faults` to flip bits in fitted weights. Mutating a fitted
    /// store invalidates the checksum captured at fit time, which is exactly
    /// what the session self-checks detect; normal code goes through
    /// [`DquagNetwork::import_params`] or the optimizer instead.
    pub fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.params
    }

    /// Overwrite the network's parameters with exported `(name, matrix)`
    /// pairs (see [`ParamStore::import`]).
    ///
    /// The network must have been built from the same `ModelConfig` and
    /// feature graph as the exporting network — `DquagNetwork::new` is
    /// deterministic in those inputs, so rebuild-then-import reconstructs a
    /// fitted network exactly. Structural mismatches are rejected with an
    /// error naming the offending parameter.
    pub fn import_params(&mut self, params: &[(String, Matrix)]) -> Result<(), String> {
        self.params.import(params)
    }

    /// Bind parameters and graph constants to a fresh forward tape.
    pub fn bind(&self, tape: &Tape) -> (BoundParams, BoundGraph) {
        (self.params.bind(tape), self.context.bind(tape))
    }

    /// The network's forward pass: `rows` samples stacked vertically into one
    /// `(B·n) × 1` matrix, run through encoder, GNN layers and both decoders
    /// exactly once. Training, scoring and repair all go through it. Message
    /// passing stays inside each sample's `n`-row block, so block `b` of every
    /// output equals the one-row pass over row `b` alone — the equivalence
    /// suite in `tests/batched_forward.rs` pins that.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or any row length differs from
    /// [`DquagNetwork::n_features`].
    pub fn forward_batch<R: AsRef<[f32]>>(
        &self,
        tape: &Tape,
        params: &BoundParams,
        graph: &BoundGraph,
        rows: &[R],
    ) -> BatchOutput {
        assert!(!rows.is_empty(), "forward_batch needs at least one row");
        let batch = rows.len();
        let input = tape.constant(self.stack_rows(rows));
        let z = self.encoder.forward_batch(params, graph, &input, batch);
        let reconstruction = self.decoder.reconstruct(params, &z);
        let repair = self.decoder.repair(params, &z);
        BatchOutput {
            input,
            reconstruction,
            repair,
            n_features: self.n_features,
            batch,
        }
    }

    /// Open a reusable inference session: a tape with parameters and graph
    /// constants bound once, for use with [`DquagNetwork::score_matrix`].
    pub fn inference_session(&self) -> InferenceSession {
        dquag_tensor::tune_allocator_for_inference();
        let tape = Tape::new();
        let (params, graph) = self.bind(&tape);
        let base_len = tape.len();
        InferenceSession {
            tape,
            params,
            graph,
            base_len,
            forward_passes: std::cell::Cell::new(0),
            rows_scored: std::cell::Cell::new(0),
            self_check: std::cell::Cell::new(None),
            health: std::cell::RefCell::new(None),
            activation_fault: std::cell::RefCell::new(None),
        }
    }

    /// Samples per matrix-level forward pass such that one activation matrix
    /// (`tile · n × hidden`) stays within ~128 KiB. Beyond that the stacked
    /// intermediates fall out of L2 and every elementwise pass pays
    /// last-level-cache latency — measured as a ~15% throughput loss at
    /// B = 256 on a 2 MiB-L2 part.
    fn inference_tile_rows(&self) -> usize {
        const ELEMS_BUDGET: usize = 32 * 1024; // 128 KiB of f32
        (ELEMS_BUDGET / (self.n_features * self.config.hidden_dim).max(1)).max(1)
    }

    /// Score a batch of encoded rows through matrix-level forward passes on
    /// the session's cached bindings, returning detached [`BatchScores`]
    /// with both reconstruction errors and repair values. Large batches are
    /// processed in cache-sized tiles (row results are position-independent,
    /// so tiling is invisible — see `tests/batched_forward.rs`). The session
    /// tape is rewound to its baseline before returning, so repeated calls
    /// never grow it. The empty batch yields empty scores without touching
    /// the tape.
    pub fn score_matrix<R: AsRef<[f32]>>(
        &self,
        session: &InferenceSession,
        rows: &[R],
    ) -> BatchScores {
        self.score_tiled(session, rows, true, true)
    }

    /// Like [`DquagNetwork::score_matrix`] but skips the repair decoder —
    /// the validation scoring hot path, where only reconstruction errors are
    /// consumed and the repair head would be ~8% wasted compute per row.
    /// The returned scores carry no repair values
    /// ([`BatchScores::repair_values`] would panic); use
    /// [`DquagNetwork::score_matrix`] when repairs are needed.
    pub fn score_errors<R: AsRef<[f32]>>(
        &self,
        session: &InferenceSession,
        rows: &[R],
    ) -> BatchScores {
        self.score_tiled(session, rows, true, false)
    }

    /// Like [`DquagNetwork::score_matrix`] but skips the validation decoder
    /// and the error computation — the repair hot path, where only the
    /// repair head's suggestions are consumed. The returned scores carry no
    /// reconstruction errors ([`BatchScores::per_feature_errors`] would
    /// panic).
    pub fn score_repairs<R: AsRef<[f32]>>(
        &self,
        session: &InferenceSession,
        rows: &[R],
    ) -> BatchScores {
        self.score_tiled(session, rows, false, true)
    }

    fn score_tiled<R: AsRef<[f32]>>(
        &self,
        session: &InferenceSession,
        rows: &[R],
        with_errors: bool,
        with_repair: bool,
    ) -> BatchScores {
        if rows.is_empty() || session.health.borrow().is_some() {
            // A session with a recorded health violation is poisoned: keep
            // returning empty scores until the caller notices rather than
            // hand out numbers from a model known to be corrupt.
            return BatchScores::empty(self.n_features);
        }
        let check = session.self_check.get();
        let guard = check.map(|_| dquag_tensor::FiniteGuard::arm());
        // Split into equally sized cache-resident tiles (a trailing 1-row
        // tile would pay a whole pass of fixed costs for one sample).
        let n_tiles = rows.len().div_ceil(self.inference_tile_rows());
        let tile = rows.len().div_ceil(n_tiles);
        let stacked = rows.len() * self.n_features;
        let mut errors = Vec::with_capacity(if with_errors { stacked } else { 0 });
        let mut repair = Vec::with_capacity(if with_repair { stacked } else { 0 });
        for chunk in rows.chunks(tile) {
            if let Some(check) = check {
                // Re-verify the store every `period` passes, including pass
                // zero: corruption between validate calls is caught before
                // this call's first tile is trusted.
                if session.forward_passes.get().is_multiple_of(check.period) {
                    let actual = self.params.checksum();
                    if actual != check.expected {
                        session.record_health(HealthError::ChecksumMismatch {
                            expected: check.expected,
                            actual,
                        });
                        break;
                    }
                }
            }
            let errors_before = errors.len();
            let repair_before = repair.len();
            let input = session.tape.constant(self.stack_rows(chunk));
            let z =
                self.encoder
                    .forward_batch(&session.params, &session.graph, &input, chunk.len());
            if with_errors {
                let reconstruction = self.decoder.reconstruct(&session.params, &z);
                let mut reconstruction = reconstruction.value();
                if let Some(fault) = session.activation_fault.borrow().as_ref() {
                    (fault.0)(&mut reconstruction);
                }
                extend_squared_errors(&input.value(), &reconstruction, &mut errors);
            }
            if with_repair {
                let mut proposed = self.decoder.repair(&session.params, &z).value();
                if let Some(fault) = session.activation_fault.borrow().as_ref() {
                    (fault.0)(&mut proposed);
                }
                repair.extend_from_slice(proposed.as_slice());
            }
            session.tape.truncate(session.base_len);
            session.forward_passes.set(session.forward_passes.get() + 1);
            session
                .rows_scored
                .set(session.rows_scored.get() + chunk.len() as u64);
            if let Some(guard) = &guard {
                if let Some(trip) = guard.take_trip() {
                    session.record_health(HealthError::NonFiniteKernel { index: trip.index });
                    break;
                }
                // The kernel guard cannot see poison introduced after the
                // product (activations, softmax); scan what scoring actually
                // consumes. NaN propagates through (x − r)², so one pass over
                // the tile's new error/repair elements covers both operands.
                if let Some(i) = errors[errors_before..].iter().position(|v| !v.is_finite()) {
                    session.record_health(HealthError::NonFiniteScores {
                        stage: "reconstruction_error",
                        index: errors_before + i,
                    });
                    break;
                }
                if let Some(i) = repair[repair_before..].iter().position(|v| !v.is_finite()) {
                    session.record_health(HealthError::NonFiniteScores {
                        stage: "repair",
                        index: repair_before + i,
                    });
                    break;
                }
            }
        }
        if session.health.borrow().is_some() {
            // Never hand partially scored buffers to a caller: a truncated
            // error vector would silently mis-align `write_feature_errors`.
            return BatchScores::empty(self.n_features);
        }
        BatchScores {
            n_features: self.n_features,
            errors,
            repair,
        }
    }

    /// Stack encoded rows into one `(B·n) × 1` column matrix, validating
    /// every row length.
    fn stack_rows<R: AsRef<[f32]>>(&self, rows: &[R]) -> Matrix {
        let mut stacked = Vec::with_capacity(rows.len() * self.n_features);
        for row in rows {
            let row = row.as_ref();
            assert_eq!(
                row.len(),
                self.n_features,
                "expected {} features, got {}",
                self.n_features,
                row.len()
            );
            stacked.extend_from_slice(row);
        }
        Matrix::from_vec(rows.len() * self.n_features, 1, stacked)
            .expect("stacked batch has B·n entries")
    }

    /// One optimisation step on a mini-batch of encoded samples.
    ///
    /// Every sample gets its own one-row [`DquagNetwork::forward_batch`] on a
    /// shared gradient tape, and the loss sums the samples in batch order.
    /// Fitted models depend on that op sequence bit for bit; `dquag-core`'s
    /// `tests/fit_golden.rs` pins it.
    ///
    /// Returns `(total_loss, per_sample_errors)` where the errors are the
    /// *pre-update* instance reconstruction errors (used by the trainer to
    /// collect the error statistics of §3.1.4).
    pub fn train_batch<R: AsRef<[f32]>>(
        &mut self,
        batch: &[R],
        optimizer: &mut Adam,
    ) -> (f32, Vec<f32>) {
        assert!(!batch.is_empty(), "train_batch needs at least one sample");
        let tape = Tape::new();
        let (params, graph) = self.bind(&tape);
        let outputs: Vec<BatchOutput> = batch
            .iter()
            .map(|row| self.forward_batch(&tape, &params, &graph, std::slice::from_ref(row)))
            .collect();
        let errors: Vec<f32> = outputs
            .iter()
            .flat_map(|out| out.detach().instance_errors())
            .collect();
        let weights = normalcy_weights(&errors, self.config.weight_sharpness);
        let loss = MultiTaskLoss {
            alpha: self.config.alpha,
            beta: self.config.beta,
        }
        .batch_loss(&outputs, &weights);
        let loss_value = loss.value().get(0, 0);
        tape.backward(&loss);
        self.params.apply_gradients(&params, optimizer);
        (loss_value, errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> FeatureGraph {
        let mut g = FeatureGraph::new(vec!["a", "b", "c", "d"]);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(2, 3).unwrap();
        g.add_edge(0, 3).unwrap();
        g
    }

    /// Clean samples follow the pattern b = 1 - a, c = a, d = 0.5.
    fn clean_sample(i: usize) -> Vec<f32> {
        let a = (i % 10) as f32 / 10.0;
        vec![a, 1.0 - a, a, 0.5]
    }

    #[test]
    fn network_construction_and_shapes() {
        let net = DquagNetwork::new(&small_graph(), ModelConfig::small());
        assert_eq!(net.n_features(), 4);
        assert!(net.n_weights() > 0);
        assert_eq!(net.config().hidden_dim, 16);

        let tape = Tape::new();
        let (params, graph) = net.bind(&tape);
        let out = net.forward_batch(&tape, &params, &graph, &[clean_sample(3)]);
        assert_eq!(out.batch_len(), 1);
        assert_eq!(out.reconstruction.shape(), (4, 1));
        assert_eq!(out.repair.shape(), (4, 1));
        let scores = out.detach();
        assert_eq!(scores.per_feature_errors(0).len(), 4);
        assert!(scores.instance_errors()[0].is_finite());
        assert_eq!(scores.repair_values(0).len(), 4);
    }

    #[test]
    #[should_panic(expected = "expected 4 features")]
    fn wrong_feature_count_panics() {
        let net = DquagNetwork::new(&small_graph(), ModelConfig::small());
        let tape = Tape::new();
        let (params, graph) = net.bind(&tape);
        net.forward_batch(&tape, &params, &graph, &[[0.1f32, 0.2]]);
    }

    #[test]
    fn training_reduces_reconstruction_error_on_clean_data() {
        let mut config = ModelConfig::small();
        config.n_layers = 2;
        config.hidden_dim = 12;
        let mut net = DquagNetwork::new(&small_graph(), config);
        let mut adam = Adam::with_learning_rate(0.01);
        let batch: Vec<Vec<f32>> = (0..32).map(clean_sample).collect();

        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let (loss, _) = net.train_batch(&batch, &mut adam);
            first.get_or_insert(loss);
            last = loss;
        }
        let first = first.unwrap();
        assert!(
            last < first * 0.5,
            "training should halve the loss: first {first}, last {last}"
        );
    }

    #[test]
    fn anomalous_sample_has_higher_error_after_training() {
        let mut config = ModelConfig::small();
        config.n_layers = 2;
        config.hidden_dim = 12;
        let mut net = DquagNetwork::new(&small_graph(), config);
        let mut adam = Adam::with_learning_rate(0.01);
        let batch: Vec<Vec<f32>> = (0..40).map(clean_sample).collect();
        for _ in 0..120 {
            net.train_batch(&batch, &mut adam);
        }
        let session = net.inference_session();
        let clean_rows: Vec<Vec<f32>> = (0..10).map(clean_sample).collect();
        let clean_err = net
            .score_errors(&session, &clean_rows)
            .instance_errors()
            .iter()
            .sum::<f32>()
            / 10.0;
        // violate the a/b dependency and push a value far out of range
        let dirty_err = net
            .score_errors(&session, &[[0.9f32, 0.9, 0.1, 3.0]])
            .instance_errors()[0];
        assert!(
            dirty_err > clean_err * 2.0,
            "dirty error {dirty_err} should clearly exceed clean error {clean_err}"
        );
    }

    #[test]
    fn normalcy_weights_favour_low_error_samples() {
        let errors = vec![0.01, 0.02, 0.015, 0.5];
        let w = normalcy_weights(&errors, 2.0);
        assert_eq!(w.len(), 4);
        let mean: f32 = w.iter().sum::<f32>() / 4.0;
        assert!((mean - 1.0).abs() < 1e-4, "weights renormalised to mean 1");
        assert!(w[3] < w[0], "the abnormal sample gets the smallest weight");
        assert!(w[3] < 0.5);
    }

    #[test]
    fn zero_sharpness_disables_weighting() {
        let w = normalcy_weights(&[0.1, 5.0, 0.2], 0.0);
        assert_eq!(w, vec![1.0, 1.0, 1.0]);
        assert!(normalcy_weights(&[], 2.0).is_empty());
    }

    #[test]
    fn multi_task_loss_combines_both_terms() {
        let net = DquagNetwork::new(&small_graph(), ModelConfig::small());
        let tape = Tape::new();
        let (params, graph) = net.bind(&tape);
        let out = net.forward_batch(&tape, &params, &graph, &[clean_sample(1)]);
        let only_val = MultiTaskLoss {
            alpha: 1.0,
            beta: 0.0,
        }
        .batch_loss(std::slice::from_ref(&out), &[1.0])
        .value()
        .get(0, 0);
        let only_rep = MultiTaskLoss {
            alpha: 0.0,
            beta: 1.0,
        }
        .batch_loss(std::slice::from_ref(&out), &[1.0])
        .value()
        .get(0, 0);
        let both = MultiTaskLoss {
            alpha: 1.0,
            beta: 1.0,
        }
        .batch_loss(std::slice::from_ref(&out), &[1.0])
        .value()
        .get(0, 0);
        assert!((both - (only_val + only_rep)).abs() < 1e-5);
    }

    #[test]
    fn armed_session_scores_identically_and_detects_corruption() {
        let net = DquagNetwork::new(&small_graph(), ModelConfig::small());
        let fitted = net.params().checksum();
        let rows: Vec<Vec<f32>> = (0..8).map(clean_sample).collect();

        // A healthy armed session returns exactly what an unarmed one does.
        let unarmed = net.inference_session();
        let clean = net.score_matrix(&unarmed, &rows);
        let armed = net.inference_session();
        armed.arm_self_check(fitted, 4);
        assert!(armed.self_check_armed());
        let checked = net.score_matrix(&armed, &rows);
        assert_eq!(checked.instance_errors(), clean.instance_errors());
        assert_eq!(armed.health_violation(), None);

        // A single flipped weight bit fails the checksum re-verification; the
        // poisoned session returns empty scores instead of wrong ones.
        let mut flipped = net.clone();
        let (_, m) = flipped.params_mut().iter_mut().next().unwrap();
        let bits = m.get(0, 0).to_bits() ^ (1 << 30);
        m.set(0, 0, f32::from_bits(bits));
        let session = flipped.inference_session();
        session.arm_self_check(fitted, 4);
        let scores = flipped.score_matrix(&session, &rows);
        assert!(scores.is_empty());
        assert!(matches!(
            session.health_violation(),
            Some(HealthError::ChecksumMismatch { expected, .. }) if expected == fitted
        ));
        // Further scoring through the poisoned session stays empty.
        assert!(flipped.score_matrix(&session, &rows).is_empty());
        assert!(session.take_health_violation().is_some());
        assert_eq!(session.health_violation(), None);
    }

    #[test]
    fn armed_session_surfaces_nan_weights_via_kernel_guard() {
        // Poison a *decoder* weight with NaN and arm against the poisoned
        // store's own checksum, so the checksum check passes and detection
        // must come from the finite guards instead.
        let mut net = DquagNetwork::new(&small_graph(), ModelConfig::small());
        let (_, m) = net.params_mut().iter_mut().last().unwrap();
        m.set(0, 0, f32::NAN);
        let poisoned_checksum = net.params().checksum();
        let rows: Vec<Vec<f32>> = (0..4).map(clean_sample).collect();
        let session = net.inference_session();
        session.arm_self_check(poisoned_checksum, 4);
        let scores = net.score_matrix(&session, &rows);
        assert!(scores.is_empty());
        assert!(matches!(
            session.health_violation(),
            Some(HealthError::NonFiniteKernel { .. } | HealthError::NonFiniteScores { .. })
        ));
    }

    #[test]
    fn armed_scoring_reports_the_kernel_guard_trip_first() {
        // A NaN decoder weight poisons that decoder's product, so the kernel
        // guard armed for the scoring call trips before any score scan runs.
        let mut net = DquagNetwork::new(&small_graph(), ModelConfig::small());
        let (_, m) = net.params_mut().iter_mut().last().unwrap();
        m.set(0, 0, f32::NAN);
        let rows: Vec<Vec<f32>> = (0..4).map(clean_sample).collect();
        let session = net.inference_session();
        session.arm_self_check(net.params().checksum(), 4);
        assert!(net.score_matrix(&session, &rows).is_empty());
        assert!(matches!(
            session.health_violation(),
            Some(HealthError::NonFiniteKernel { .. })
        ));
    }

    #[test]
    fn activation_fault_hook_is_caught_by_output_scan() {
        let net = DquagNetwork::new(&small_graph(), ModelConfig::small());
        let fitted = net.params().checksum();
        let rows: Vec<Vec<f32>> = (0..4).map(clean_sample).collect();
        let session = net.inference_session();
        session.arm_self_check(fitted, 4);
        session.set_activation_fault(Some(crate::health::ActivationFault::new(|m| {
            m.set(0, 0, f32::NAN)
        })));
        let scores = net.score_matrix(&session, &rows);
        assert!(scores.is_empty());
        assert!(matches!(
            session.health_violation(),
            Some(HealthError::NonFiniteScores { .. })
        ));

        // Without arming, the hook corrupts scores but nothing is recorded —
        // the knob that separates injection from detection.
        let blind = net.inference_session();
        blind.set_activation_fault(Some(crate::health::ActivationFault::new(|m| {
            m.set(0, 0, f32::NAN)
        })));
        let scores = net.score_matrix(&blind, &rows);
        assert!(!scores.is_empty());
        assert_eq!(blind.health_violation(), None);
    }

    #[test]
    fn inference_helpers_are_deterministic() {
        // Fresh sessions reproduce each other, and the error-only and
        // repair-only helpers return exactly the full pass's halves.
        let net = DquagNetwork::new(&small_graph(), ModelConfig::small());
        let rows: Vec<Vec<f32>> = (0..6).map(clean_sample).collect();
        let (first, second) = (net.inference_session(), net.inference_session());
        let full = net.score_matrix(&first, &rows);
        let errors = full.instance_errors();
        assert_eq!(errors, net.score_matrix(&second, &rows).instance_errors());
        assert_eq!(errors, net.score_errors(&second, &rows).instance_errors());
        let repairs = net.score_repairs(&second, &rows);
        for i in 0..rows.len() {
            assert_eq!(full.repair_values(i), repairs.repair_values(i));
        }
    }
}
