//! Per-row vs batched GNN inference throughput.
//!
//! Three variants are measured at B ∈ {1, 32, 256}:
//!
//! * `per_row` — per-row scoring on the portable kernel: one fresh tape,
//!   one parameter binding and one one-row `forward_batch` (an `n × 1`
//!   pass) per sample, on the portable scalar kernel
//!   ([`KernelMode::Portable`]). This is the baseline the gate compares
//!   against.
//! * `per_row_simd` — the same per-row loop on the auto-dispatched SIMD
//!   kernels, isolating how much of the win is kernels alone.
//! * `batched` — the inference path: one `InferenceSession` (parameters
//!   bound once), B rows stacked into matrix-level forward passes
//!   (`score_errors` — validation scoring, which is what the pipeline's
//!   verdict hot path runs), SIMD kernels. `forward_batch` always runs both
//!   decoders, so the per-row variants also pay for the repair head that
//!   scoring skips.
//!
//! Rows/s for all variants go to `BENCH_inference.json` in the workspace
//! root so the perf trajectory of the inference hot path is recorded run
//! over run. The acceptance gate — batched ≥ 3× per-row (portable kernel)
//! at B = 256 — is asserted in full runs before the file is written
//! (skipped under `DQUAG_BENCH_FAST=1`, whose sample counts are too small
//! to be stable).

use dquag_bench::harness::{
    fast_mode, feature_graph, interleave, median, median_ratio, rows, write_bench_json,
};
use dquag_gnn::{DquagNetwork, ModelConfig};
use dquag_tensor::{set_kernel_mode, KernelMode, Tape};
use std::time::Instant;

const BATCH_SIZES: [usize; 3] = [1, 32, 256];

fn network() -> DquagNetwork {
    let graph = feature_graph(12);
    let config = ModelConfig {
        hidden_dim: 64,
        n_layers: 4,
        ..ModelConfig::default()
    };
    DquagNetwork::new(&graph, config)
}

/// Per-row scoring: tape + binding + one-row forward pass per row.
fn score_per_row(net: &DquagNetwork, batch: &[Vec<f32>]) -> f32 {
    let mut total = 0.0;
    for row in batch {
        let tape = Tape::new();
        let (params, graph) = net.bind(&tape);
        total += net
            .forward_batch(&tape, &params, &graph, std::slice::from_ref(row))
            .detach()
            .instance_errors()[0];
    }
    total
}

/// Time one scoring run over `batch_rows` rows and return rows/s.
fn one_pass(batch_rows: usize, mut run: impl FnMut()) -> f64 {
    let start = Instant::now();
    run();
    batch_rows as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn main() {
    let fast = fast_mode();
    let net = network();

    // Record the trajectory: rows/s per variant per batch size, as JSON.
    // Variants are interleaved within each round, starting at a different
    // variant each round, and summarised by medians, so scheduler noise on
    // small shared runners hits all paths equally instead of biasing
    // whichever variant ran during a slow window.
    let rounds = if fast { 3 } else { 30 };
    let mut lines = Vec::new();
    let mut speedup_at_max = 0.0;
    for &batch_size in &BATCH_SIZES {
        let batch = rows(batch_size, net.n_features());
        let session = net.inference_session();
        // ~256 rows of work per variant per round, whatever the batch size
        let reps = (256 / batch_size.max(1)).clamp(1, 256);
        let rows_per_round = reps * batch_size;

        // warm-up every variant once
        set_kernel_mode(KernelMode::Portable);
        score_per_row(&net, &batch);
        set_kernel_mode(KernelMode::Auto);
        score_per_row(&net, &batch);
        net.score_errors(&session, &batch);

        // Each variant sets the kernel it runs on: the round's first
        // variant changes from round to round.
        let [per_row_samples, simd_samples, batched_samples] = interleave(
            rounds,
            [
                &mut || {
                    set_kernel_mode(KernelMode::Portable);
                    one_pass(rows_per_round, || {
                        for _ in 0..reps {
                            score_per_row(&net, &batch);
                        }
                    })
                },
                &mut || {
                    set_kernel_mode(KernelMode::Auto);
                    one_pass(rows_per_round, || {
                        for _ in 0..reps {
                            score_per_row(&net, &batch);
                        }
                    })
                },
                &mut || {
                    set_kernel_mode(KernelMode::Auto);
                    one_pass(rows_per_round, || {
                        for _ in 0..reps {
                            net.score_errors(&session, &batch);
                        }
                    })
                },
            ],
        );
        set_kernel_mode(KernelMode::Auto);
        let per_row = median(&per_row_samples);
        let per_row_simd = median(&simd_samples);
        let batched = median(&batched_samples);
        let speedup = median_ratio(&batched_samples, &per_row_samples);
        if batch_size == *BATCH_SIZES.last().unwrap() {
            speedup_at_max = speedup;
        }
        println!(
            "inference_forward B={batch_size}: per-row (portable kernel) {per_row:.0} rows/s, \
             per_row_simd {per_row_simd:.0} rows/s, batched {batched:.0} rows/s \
             ({speedup:.2}x vs per-row)"
        );
        lines.push(format!(
            "    {{\"batch_size\": {batch_size}, \"per_row_rows_per_s\": {per_row:.1}, \
             \"per_row_simd_rows_per_s\": {per_row_simd:.1}, \
             \"batched_rows_per_s\": {batched:.1}, \"speedup_vs_per_row\": {speedup:.3}}}"
        ));
    }
    if !fast {
        assert!(
            speedup_at_max >= 3.0,
            "batched inference at B={} must be at least 3x per-row scoring on the \
             portable kernel, got {speedup_at_max:.2}x",
            BATCH_SIZES.last().unwrap()
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"inference_forward\",\n  \"n_features\": {},\n  \
         \"hidden_dim\": 64,\n  \"n_layers\": 4,\n  \"fast_mode\": {},\n  \
         \"results\": [\n{}\n  ],\n  \"speedup_at_b{}\": {:.3}\n}}\n",
        net.n_features(),
        fast,
        lines.join(",\n"),
        BATCH_SIZES.last().unwrap(),
        speedup_at_max,
    );
    write_bench_json("BENCH_inference.json", &json);
}
