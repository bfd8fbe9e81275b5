//! Self-check overhead: end-to-end streaming rows/s with the runtime
//! integrity checks armed (parameter-checksum verification every
//! `DEFAULT_SELF_CHECK_PERIOD` forward passes plus the SIMD kernel's
//! NaN/Inf epilogue guard and the score scan) versus the identical pipeline
//! with the checks disabled (`with_self_check_period(0)` and the process
//! guard off).
//!
//! The checks were designed to be amortised — one FNV pass over the
//! parameters every N tiles and one finiteness scan over outputs already in
//! cache — so the measured cost must stay under 3%. Rounds are interleaved
//! and summarised by the median of per-round ratios (see
//! `telemetry_overhead.rs` for the rationale); rows/s and the ratio go to
//! `BENCH_self_check.json`, and the <3% gate is asserted in full runs only
//! (`DQUAG_BENCH_FAST=1` samples are too small to be stable).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dquag_bench::harness::{fast_mode, median, write_bench_json};
use dquag_core::{DquagConfig, DquagValidator};
use dquag_datagen::datasets::nytaxi;
use dquag_gnn::ModelConfig;
use dquag_stream::StreamEngine;
use dquag_tabular::DataFrame;
use dquag_validate::DquagBackend;
use std::time::Instant;

fn quick_config() -> DquagConfig {
    DquagConfig {
        epochs: 6,
        batch_size: 64,
        model: ModelConfig {
            hidden_dim: 24,
            n_layers: 4,
            ..ModelConfig::default()
        },
        ..DquagConfig::default()
    }
}

/// Stream every batch through a fresh one-generation engine serving a clone
/// of `trained` with the given self-check period. Returns emitted count.
fn run_pipeline(trained: &DquagValidator, batches: &[DataFrame], period: u64) -> usize {
    // The kernel guard is process-global: armed sessions switch it on, so
    // the checks-off arm must switch it off explicitly each run.
    if period == 0 {
        dquag_tensor::set_finite_guard(false);
        let _ = dquag_tensor::take_finite_guard_trip();
    }
    let validator = Box::new(DquagBackend::from_trained(
        trained.clone().with_self_check_period(period),
    ));
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .queue_capacity(batches.len())
        .start(validator)
        .expect("engine starts");
    for batch in batches {
        ingest.submit(batch.clone()).expect("engine open");
    }
    drop(ingest);
    let emitted = verdicts.count();
    engine.shutdown();
    emitted
}

/// Time one full pipeline run and return rows/s.
fn one_pass(
    trained: &DquagValidator,
    batches: &[DataFrame],
    total_rows: usize,
    period: u64,
) -> f64 {
    let start = Instant::now();
    let emitted = run_pipeline(trained, batches, period);
    assert_eq!(emitted, batches.len());
    total_rows as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn bench_self_check_overhead(c: &mut Criterion) {
    let fast = fast_mode();
    let (train_rows, batch_rows, n_batches, samples, rounds) = if fast {
        (500, 60, 6, 2, 3)
    } else {
        (1_500, 250, 24, 10, 21)
    };
    let total_rows = n_batches * batch_rows;

    let clean = nytaxi::generate_clean(train_rows, 10, 7);
    let trained = DquagValidator::train(&clean, &[], &quick_config()).expect("training");
    let batches: Vec<DataFrame> = (0..n_batches)
        .map(|i| nytaxi::generate_clean(batch_rows, 10, 100 + i as u64))
        .collect();
    let checked_period = trained.self_check_period().max(1);

    let mut group = c.benchmark_group("self_check_overhead");
    group.sample_size(samples);
    group.throughput(Throughput::Elements(total_rows as u64));
    group.bench_with_input(
        BenchmarkId::new("self_check", "off"),
        &batches,
        |b, batches| {
            b.iter(|| run_pipeline(&trained, batches, 0));
        },
    );
    group.bench_with_input(
        BenchmarkId::new("self_check", "on"),
        &batches,
        |b, batches| {
            b.iter(|| run_pipeline(&trained, batches, checked_period));
        },
    );
    group.finish();

    // Interleaved rounds, median-of-ratios: scheduler noise hits both arms.
    one_pass(&trained, &batches, total_rows, 0); // warm-up
    one_pass(&trained, &batches, total_rows, checked_period);
    let mut off_samples = Vec::with_capacity(rounds);
    let mut on_samples = Vec::with_capacity(rounds);
    let mut ratio_samples = Vec::with_capacity(rounds);
    for round in 0..rounds {
        // Alternate arm order round-to-round: under a monotonic machine
        // slowdown (thermal throttling, a co-tenant waking up) a fixed
        // off-then-on order charges the drift entirely to the checked arm.
        let (off, on) = if round % 2 == 0 {
            let off = one_pass(&trained, &batches, total_rows, 0);
            let on = one_pass(&trained, &batches, total_rows, checked_period);
            (off, on)
        } else {
            let on = one_pass(&trained, &batches, total_rows, checked_period);
            let off = one_pass(&trained, &batches, total_rows, 0);
            (off, on)
        };
        off_samples.push(off);
        on_samples.push(on);
        ratio_samples.push(on / off.max(1e-9));
    }
    // Leave the process guard the way the runtime expects it.
    dquag_tensor::set_finite_guard(true);
    let _ = dquag_tensor::take_finite_guard_trip();

    let off = median(&mut off_samples);
    let on = median(&mut on_samples);
    let ratio = median(&mut ratio_samples);
    let overhead_pct = 100.0 * (1.0 - ratio);
    println!(
        "self_check_overhead: off {off:.0} rows/s, on {on:.0} rows/s \
         ({overhead_pct:+.2}%, period {checked_period})"
    );

    let json = format!(
        "{{\n  \"bench\": \"self_check_overhead\",\n  \"fast_mode\": {fast},\n  \
         \"batch_rows\": {batch_rows},\n  \"n_batches\": {n_batches},\n  \
         \"self_check_period\": {checked_period},\n  \
         \"off_rows_per_s\": {off:.1},\n  \"on_rows_per_s\": {on:.1},\n  \
         \"throughput_ratio_on_vs_off\": {ratio:.4},\n  \
         \"overhead_pct\": {overhead_pct:.2}\n}}\n"
    );
    write_bench_json("BENCH_self_check.json", &json);
    if !fast {
        assert!(
            ratio >= 0.97,
            "self-checks must stay within 3% of the unchecked pipeline, \
             got {overhead_pct:.2}% overhead"
        );
    }
}

criterion_group!(benches, bench_self_check_overhead);
criterion_main!(benches);
