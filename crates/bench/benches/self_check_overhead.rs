//! Self-check overhead: end-to-end streaming rows/s with the runtime
//! integrity checks armed (parameter-checksum verification every
//! `DEFAULT_SELF_CHECK_PERIOD` forward passes plus the SIMD kernel's
//! NaN/Inf epilogue guard and the score scan) versus the identical pipeline
//! with the checks disabled (`with_self_check_period(0)`, under which no
//! session arms the guard).
//!
//! The checks were designed to be amortised — one FNV pass over the
//! parameters every N tiles and one finiteness scan over outputs already in
//! cache — so the measured cost must stay under 3%. Rounds are interleaved
//! with the arm order rotating (`harness::interleave`) and summarised by the
//! median of per-round ratios. The <3% gate is asserted in full runs only
//! (`DQUAG_BENCH_FAST=1` samples are too small to be stable), and only a
//! full run that passes it writes rows/s and the ratio to
//! `BENCH_self_check.json`.

use dquag_bench::harness::{
    fast_mode, interleave, median, median_ratio, quick_config, write_bench_json,
};
use dquag_core::{DquagValidator, StreamConfig};
use dquag_datagen::datasets::nytaxi;
use dquag_stream::StreamEngine;
use dquag_tabular::DataFrame;
use dquag_validate::DquagBackend;
use std::time::Instant;

/// Stream every batch through a fresh one-generation engine serving a clone
/// of `trained` with the given self-check period. Returns emitted count.
fn run_pipeline(trained: &DquagValidator, batches: &[DataFrame], period: u64) -> usize {
    let validator = Box::new(DquagBackend::from_trained(
        trained.clone().with_self_check_period(period),
    ));
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: batches.len(),
            ..StreamConfig::default()
        })
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

fn main() {
    let fast = fast_mode();
    let (train_rows, batch_rows, n_batches, rounds) = if fast {
        (500, 60, 6, 3)
    } else {
        (1_500, 250, 24, 21)
    };
    let total_rows = n_batches * batch_rows;

    let clean = nytaxi::generate_clean(train_rows, 10, 7);
    let trained = DquagValidator::train(&clean, &[], &quick_config()).expect("training");
    let batches: Vec<DataFrame> = (0..n_batches)
        .map(|i| nytaxi::generate_clean(batch_rows, 10, 100 + i as u64))
        .collect();
    let checked_period = trained.self_check_period().max(1);

    // Interleaved rounds, median-of-ratios: scheduler noise hits both arms.
    one_pass(&trained, &batches, total_rows, 0); // warm-up
    one_pass(&trained, &batches, total_rows, checked_period);
    let [off_samples, on_samples] = interleave(
        rounds,
        [
            &mut || one_pass(&trained, &batches, total_rows, 0),
            &mut || one_pass(&trained, &batches, total_rows, checked_period),
        ],
    );

    let off = median(&off_samples);
    let on = median(&on_samples);
    let ratio = median_ratio(&on_samples, &off_samples);
    let overhead_pct = 100.0 * (1.0 - ratio);
    println!(
        "self_check_overhead: off {off:.0} rows/s, on {on:.0} rows/s \
         ({overhead_pct:+.2}%, period {checked_period})"
    );
    if !fast {
        assert!(
            ratio >= 0.97,
            "self-checks must stay within 3% of the unchecked pipeline, \
             got {overhead_pct:.2}% overhead"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"self_check_overhead\",\n  \"fast_mode\": {fast},\n  \
         \"batch_rows\": {batch_rows},\n  \"n_batches\": {n_batches},\n  \
         \"self_check_period\": {checked_period},\n  \
         \"off_rows_per_s\": {off:.1},\n  \"on_rows_per_s\": {on:.1},\n  \
         \"throughput_ratio_on_vs_off\": {ratio:.4},\n  \
         \"overhead_pct\": {overhead_pct:.2}\n}}\n"
    );
    write_bench_json("BENCH_self_check.json", &json);
}
