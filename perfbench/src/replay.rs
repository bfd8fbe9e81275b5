//! Replayed layers: after the timed window, single-threaded, each crate's
//! public entry point is timed on the workload's own frames using the
//! fitted state from `export_state()`.
//!
//! A shared machine's speed can drift by a tenth within seconds, and the
//! per-row layers are compared by subtraction (`core.self_us_per_row`), so
//! every layer is timed on the same frame back to back before moving to
//! the next frame: all layers see the same conditions.

use crate::frames::{Frame, Inputs};
use crate::report::Report;
use dquag_core::{DquagModelState, DquagValidator};
use dquag_gnn::DquagNetwork;
use dquag_graph::knowledge::{build_feature_graph, StatisticalOracle};
use dquag_sources::decode_batch;
use dquag_tabular::encode::DatasetEncoder;
use dquag_tabular::stats::percentile_f32;
use dquag_tensor::optim::Adam;
use dquag_validate::{DquagBackend, Validator};
use std::hint::black_box;
use std::time::Instant;

/// Passes over the frames; layer times are summed over all of them.
const PASSES: usize = 3;

/// Seconds taken by `f`, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// A network rebuilt from the fitted state, as `DquagValidator::from_state`
/// does it.
fn rebuilt_network(state: &DquagModelState) -> Result<DquagNetwork, String> {
    let mut network = DquagNetwork::new(&state.graph, model_config(state));
    network.import_params(&state.params)?;
    Ok(network)
}

/// The model configuration `fit` builds the network with.
fn model_config(state: &DquagModelState) -> dquag_gnn::ModelConfig {
    let mut model = state.config.model;
    model.seed = state.config.seed;
    model
}

fn validator(state: &DquagModelState) -> Result<DquagValidator, String> {
    DquagValidator::from_state(state.clone()).map_err(|e| e.to_string())
}

/// Seconds per layer, summed over every frame and pass.
#[derive(Default)]
struct Layers {
    decode: f64,
    encode: f64,
    forward: f64,
    core: f64,
    backend: f64,
}

/// Time every replayed layer and record the per-layer metrics.
pub fn layers(
    state: &DquagModelState,
    inputs: &Inputs,
    frames: &[Frame],
    report: &mut Report,
) -> Result<(), String> {
    let config = &state.config;
    let schema = inputs.kind.schema();
    let network = rebuilt_network(state)?;
    let core = validator(state)?;
    let backend = DquagBackend::from_trained(validator(state)?);
    let tiles = config.inference_batch_size.max(1);

    let mut t = Layers::default();
    for pass in 0..PASSES {
        for (index, frame) in frames.iter().enumerate() {
            let (decoded, s) = timed(|| decode_batch(inputs.format, &frame.payload, &schema));
            decoded.map_err(|e| e.to_string())?;
            t.decode += s;
            let (encoded, s) = timed(|| state.encoder.transform(&frame.data));
            let encoded = encoded.map_err(|e| e.to_string())?;
            t.encode += s;
            let rows: Vec<&[f32]> = (0..encoded.n_rows()).map(|r| encoded.row(r)).collect();
            // One session per batch, as `DquagValidator::validate` opens it.
            t.forward += timed(|| {
                let session = network.inference_session();
                for tile in rows.chunks(tiles) {
                    black_box(network.score_errors(&session, tile));
                }
            })
            .1;
            // The second call on a frame finds warmer caches; alternate
            // which of the two goes first so the difference is unbiased.
            let mut judge = |backend_first: bool| {
                if backend_first {
                    t.backend += timed(|| black_box(backend.validate(&frame.data))).1;
                } else {
                    t.core += timed(|| black_box(core.validate(&frame.data))).1;
                }
            };
            let backend_first = (pass + index) % 2 == 1;
            judge(backend_first);
            judge(!backend_first);
        }
    }
    let rows = PASSES * frames.iter().map(|f| f.data.n_rows()).sum::<usize>();
    let batches = PASSES * frames.len();
    let per_row_us = |s: f64| s * 1e6 / rows.max(1) as f64;
    let count = rows as u64;
    report.set("sources.decode_us_per_row", per_row_us(t.decode), count);
    report.set("tabular.encode_us_per_row", per_row_us(t.encode), count);
    report.set("gnn.forward_us_per_row", per_row_us(t.forward), count);
    report.set("core.validate_us_per_row", per_row_us(t.core), count);
    report.set(
        "core.self_us_per_row",
        per_row_us(t.core - t.encode - t.forward),
        count,
    );
    report.set(
        "validate.verdict_us_per_batch",
        (t.backend - t.core) * 1e6 / batches.max(1) as f64,
        batches as u64,
    );
    fit_layers(state, inputs, report)
}

/// The parts of `Validator::fit`: the feature graph, one training epoch,
/// and everything else fit does, each replayed through public functions.
fn fit_layers(state: &DquagModelState, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    let config = &state.config;
    let reference = &inputs.reference;
    let n = reference.n_rows();
    let n_calibration = ((n as f64 * config.calibration_fraction) as usize).clamp(1, n / 2);
    let (train_df, calibration_df) = reference
        .split_at(n - n_calibration)
        .map_err(|e| e.to_string())?;
    let train = state
        .encoder
        .transform(&train_df)
        .map_err(|e| e.to_string())?;
    let train_rows: Vec<Vec<f32>> = (0..train.n_rows()).map(|r| train.row(r).to_vec()).collect();
    let batch_size = config.batch_size.max(1);

    let (mut epoch_s, mut graph_s, mut self_s) = (0.0, 0.0, 0.0);
    for _ in 0..PASSES {
        let mut network = rebuilt_network(state)?;
        let mut optimizer = Adam::with_learning_rate(config.learning_rate);
        epoch_s += timed(|| {
            for batch in train_rows.chunks(batch_size) {
                black_box(network.train_batch(batch, &mut optimizer));
            }
        })
        .1;

        let oracle = StatisticalOracle::default();
        let (graph, s) =
            timed(|| build_feature_graph(reference, &oracle, config.oracle_sample_size));
        graph.map_err(|e| e.to_string())?;
        graph_s += s;

        // Fit's own work besides the graph and the training steps: encoder
        // fit, encoding, network construction, the per-epoch mini-batch row
        // copies and threshold calibration on the held-out slice.
        let (outcome, s) = timed(|| -> Result<f32, String> {
            let encoder = DatasetEncoder::fit_many(&[reference]);
            let train = encoder.transform(&train_df).map_err(|e| e.to_string())?;
            let calibration = encoder
                .transform(&calibration_df)
                .map_err(|e| e.to_string())?;
            let network = DquagNetwork::new(&state.graph, model_config(state));
            let order: Vec<usize> = (0..train.n_rows()).collect();
            for _ in 0..config.epochs {
                for chunk in order.chunks(batch_size) {
                    let batch: Vec<Vec<f32>> =
                        chunk.iter().map(|&row| train.row(row).to_vec()).collect();
                    black_box(batch);
                }
            }
            let session = network.inference_session();
            let rows: Vec<&[f32]> = (0..calibration.n_rows())
                .map(|r| calibration.row(r))
                .collect();
            let errors: Vec<f32> = rows
                .chunks(config.inference_batch_size.max(1))
                .flat_map(|chunk| network.score_errors(&session, chunk).instance_errors())
                .collect();
            Ok(percentile_f32(&errors, config.threshold_percentile))
        });
        black_box(outcome?);
        self_s += s;
    }
    let passes = PASSES as f64;
    report.set(
        "gnn.train_rows_per_s",
        train_rows.len() as f64 * passes / epoch_s,
        (PASSES * train_rows.len()) as u64,
    );
    report.set("graph.build_ms", graph_s * 1e3 / passes, PASSES as u64);
    report.set("core.fit_self_s", self_s / passes, PASSES as u64);
    Ok(())
}
