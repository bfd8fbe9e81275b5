//! Per-row vs batched GNN inference throughput.
//!
//! Three variants are measured at B ∈ {1, 32, 256}:
//!
//! * `per_row` — the seed hot path: one fresh tape, one parameter binding
//!   and one one-row `forward_batch` (an `n × 1` pass) per sample, running
//!   on the portable scalar kernel ([`KernelMode::Portable`]) the seed
//!   shipped with. This is the frozen baseline of the trajectory.
//! * `per_row_simd` — the same per-row loop on the auto-dispatched SIMD
//!   kernels, isolating how much of the win is kernels alone.
//! * `batched` — the inference path: one `InferenceSession` (parameters
//!   bound once), B rows stacked into matrix-level forward passes
//!   (`score_errors` — validation scoring, which is what the pipeline's
//!   verdict hot path runs), SIMD kernels. The seed per-row pass always ran
//!   both decoders, so the repair head's cost is part of what the redesign
//!   removes from scoring.
//!
//! Besides the criterion timings, rows/s for all variants go to
//! `BENCH_inference.json` in the workspace root so the perf trajectory of
//! the inference hot path is recorded run over run. The acceptance gate —
//! batched ≥ 3× the seed per-row path at B = 256 — is asserted in full runs
//! (skipped under `DQUAG_BENCH_FAST=1`, whose sample counts are too small to
//! be stable).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dquag_bench::harness::{fast_mode, median, write_bench_json};
use dquag_gnn::{DquagNetwork, ModelConfig};
use dquag_graph::FeatureGraph;
use dquag_tensor::{set_kernel_mode, KernelMode, Tape};
use std::time::Instant;

const BATCH_SIZES: [usize; 3] = [1, 32, 256];

fn feature_graph(n: usize) -> FeatureGraph {
    let names: Vec<String> = (0..n).map(|i| format!("f{i}")).collect();
    let mut graph = FeatureGraph::new(names);
    for i in 0..n {
        graph.add_edge(i, (i + 1) % n).unwrap();
        graph.add_edge(i, (i + 3) % n).unwrap();
    }
    graph
}

fn network() -> DquagNetwork {
    let graph = feature_graph(12);
    let config = ModelConfig {
        hidden_dim: 64,
        n_layers: 4,
        ..ModelConfig::default()
    };
    DquagNetwork::new(&graph, config)
}

fn rows(n: usize, n_features: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..n_features)
                .map(|f| ((i * 31 + f * 7) % 97) as f32 / 97.0)
                .collect()
        })
        .collect()
}

/// The seed hot path: tape + binding + one-row forward pass per row.
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

fn bench_inference(c: &mut Criterion) {
    let fast = fast_mode();
    let samples = if fast { 3 } else { 20 };
    let net = network();

    let mut group = c.benchmark_group("inference_forward");
    group.sample_size(samples);
    for &batch_size in &BATCH_SIZES {
        let batch = rows(batch_size, net.n_features());
        group.throughput(Throughput::Elements(batch_size as u64));
        group.bench_with_input(
            BenchmarkId::new("per_row", batch_size),
            &batch,
            |b, batch| {
                set_kernel_mode(KernelMode::Portable);
                b.iter(|| score_per_row(&net, batch));
                set_kernel_mode(KernelMode::Auto);
            },
        );
        group.bench_with_input(
            BenchmarkId::new("per_row_simd", batch_size),
            &batch,
            |b, batch| b.iter(|| score_per_row(&net, batch)),
        );
        let session = net.inference_session();
        group.bench_with_input(
            BenchmarkId::new("batched", batch_size),
            &batch,
            |b, batch| {
                b.iter(|| {
                    net.score_errors(&session, batch)
                        .instance_errors()
                        .iter()
                        .sum::<f32>()
                })
            },
        );
    }
    group.finish();

    // Record the trajectory: rows/s per variant per batch size, as JSON.
    // Variants are interleaved within each round and summarised by medians,
    // so scheduler noise on small shared runners hits all paths equally
    // instead of biasing whichever variant ran during a slow window.
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

        let mut seed_samples = Vec::with_capacity(rounds);
        let mut simd_samples = Vec::with_capacity(rounds);
        let mut batched_samples = Vec::with_capacity(rounds);
        let mut ratio_samples = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            set_kernel_mode(KernelMode::Portable);
            let seed = one_pass(rows_per_round, || {
                for _ in 0..reps {
                    score_per_row(&net, &batch);
                }
            });
            set_kernel_mode(KernelMode::Auto);
            let simd = one_pass(rows_per_round, || {
                for _ in 0..reps {
                    score_per_row(&net, &batch);
                }
            });
            let batched_run = one_pass(rows_per_round, || {
                for _ in 0..reps {
                    net.score_errors(&session, &batch);
                }
            });
            seed_samples.push(seed);
            simd_samples.push(simd);
            batched_samples.push(batched_run);
            ratio_samples.push(batched_run / seed.max(1e-9));
        }
        let per_row = median(&mut seed_samples);
        let per_row_simd = median(&mut simd_samples);
        let batched = median(&mut batched_samples);
        let speedup = median(&mut ratio_samples);
        if batch_size == *BATCH_SIZES.last().unwrap() {
            speedup_at_max = speedup;
        }
        println!(
            "inference_forward B={batch_size}: per_row(seed) {per_row:.0} rows/s, \
             per_row_simd {per_row_simd:.0} rows/s, batched {batched:.0} rows/s \
             ({speedup:.2}x vs seed)"
        );
        lines.push(format!(
            "    {{\"batch_size\": {batch_size}, \"per_row_rows_per_s\": {per_row:.1}, \
             \"per_row_simd_rows_per_s\": {per_row_simd:.1}, \
             \"batched_rows_per_s\": {batched:.1}, \"speedup_vs_seed\": {speedup:.3}}}"
        ));
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
    if !fast {
        assert!(
            speedup_at_max >= 3.0,
            "batched inference at B={} must be at least 3x the seed per-row path, \
             got {speedup_at_max:.2}x",
            BATCH_SIZES.last().unwrap()
        );
    }
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
