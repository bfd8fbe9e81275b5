//! Observability overhead: end-to-end streaming rows/s with the full
//! telemetry bundle attached (engine counters + gauges + latency histogram,
//! queue-wait/emit stage spans, validator graph-build/forward/verdict spans,
//! GNN forward-pass counters, flight recorder) versus the same pipeline with
//! telemetry off — plus a third arm with the per-column data layer on
//! (drift gauges, scoreboard, crossing detection) fed by a KS/PSI drift
//! node riding in an ensemble next to the GNN backend.
//!
//! The instrumented hot path is one `Option` check plus a handful of relaxed
//! atomics per batch (the data layer adds one mutex'd scoreboard pass per
//! batch), so the measured overhead must stay under 3% for both telemetry
//! arms. Besides the criterion timings, rows/s for all variants go to
//! `BENCH_observability.json` in the workspace root; the <3% acceptance gate
//! is asserted in full runs (skipped under `DQUAG_BENCH_FAST=1`, whose
//! sample counts are too small to be stable).
//!
//! Rounds are interleaved and summarised by the median of per-round ratios,
//! so scheduler noise on small shared runners hits every variant equally
//! instead of biasing whichever ran during a slow window.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dquag_bench::harness::{fast_mode, median, write_bench_json};
use dquag_core::{DquagConfig, DquagValidator};
use dquag_datagen::datasets::nytaxi;
use dquag_gnn::ModelConfig;
use dquag_stream::StreamEngine;
use dquag_tabular::DataFrame;
use dquag_telemetry::{DataTelemetryOptions, Telemetry, TelemetryOptions};
use dquag_validate::{
    DquagBackend, DriftSpec, DriftValidator, EnsembleValidator, Validator, Voting,
};
use std::sync::Arc;
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

fn quiet_bundle() -> Arc<Telemetry> {
    Telemetry::with_options(TelemetryOptions {
        flight_recorder_capacity: 256,
        dump_on_error: false,
        ..TelemetryOptions::default()
    })
}

/// Like [`quiet_bundle`], with the per-column data layer on: drift gauges,
/// scoreboard and crossing detection all live on the hot path.
fn data_bundle() -> Arc<Telemetry> {
    Telemetry::with_options(TelemetryOptions {
        flight_recorder_capacity: 256,
        dump_on_error: false,
        data: Some(DataTelemetryOptions::default()),
    })
}

/// The serving tree every arm runs: the GNN backend next to a KS/PSI drift
/// node, so the data-telemetry arm has per-column statistics to export and
/// the other arms pay the identical validation cost.
fn serving_tree(trained: &DquagValidator, drift: &DriftValidator) -> Box<dyn Validator> {
    let members: Vec<Box<dyn Validator>> = vec![
        Box::new(DquagBackend::from_trained(trained.clone())),
        Box::new(drift.clone()),
    ];
    Box::new(EnsembleValidator::new(members, Voting::Any).expect("two members"))
}

/// Stream every batch through a fresh engine; `telemetry` instruments the
/// engine and (through the engine's attach hook) the whole validator tree
/// when set. Returns the emitted-batch count.
fn run_pipeline(
    trained: &DquagValidator,
    drift: &DriftValidator,
    batches: &[DataFrame],
    telemetry: Option<&Arc<Telemetry>>,
) -> usize {
    let mut builder = StreamEngine::builder().queue_capacity(batches.len());
    if let Some(bundle) = telemetry {
        builder = builder.telemetry(Arc::clone(bundle));
    }
    let (engine, ingest, verdicts) = builder
        .start(serving_tree(trained, drift))
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
    drift: &DriftValidator,
    batches: &[DataFrame],
    total_rows: usize,
    telemetry: Option<&Arc<Telemetry>>,
) -> f64 {
    let start = Instant::now();
    let emitted = run_pipeline(trained, drift, batches, telemetry);
    assert_eq!(emitted, batches.len());
    total_rows as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let fast = fast_mode();
    let (train_rows, batch_rows, n_batches, samples, rounds) = if fast {
        (500, 60, 6, 2, 3)
    } else {
        (1_500, 250, 24, 10, 21)
    };
    let total_rows = n_batches * batch_rows;

    let clean = nytaxi::generate_clean(train_rows, 10, 7);
    let trained = DquagValidator::train(&clean, &[], &quick_config()).expect("training");
    let mut drift = DriftValidator::new(DriftSpec::default());
    drift.fit(&clean).expect("drift profile fits");
    let batches: Vec<DataFrame> = (0..n_batches)
        .map(|i| nytaxi::generate_clean(batch_rows, 10, 100 + i as u64))
        .collect();
    let bundle = quiet_bundle();
    let data = data_bundle();

    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(samples);
    group.throughput(Throughput::Elements(total_rows as u64));
    group.bench_with_input(
        BenchmarkId::new("telemetry", "off"),
        &batches,
        |b, batches| {
            b.iter(|| run_pipeline(&trained, &drift, batches, None));
        },
    );
    group.bench_with_input(
        BenchmarkId::new("telemetry", "on"),
        &batches,
        |b, batches| {
            b.iter(|| run_pipeline(&trained, &drift, batches, Some(&bundle)));
        },
    );
    group.bench_with_input(
        BenchmarkId::new("telemetry", "data_on"),
        &batches,
        |b, batches| {
            b.iter(|| run_pipeline(&trained, &drift, batches, Some(&data)));
        },
    );
    group.finish();

    // Record the trajectory and gate the overhead on interleaved medians.
    one_pass(&trained, &drift, &batches, total_rows, None); // warm-up
    one_pass(&trained, &drift, &batches, total_rows, Some(&bundle));
    let mut off_samples = Vec::with_capacity(rounds);
    let mut on_samples = Vec::with_capacity(rounds);
    let mut data_samples = Vec::with_capacity(rounds);
    let mut ratio_samples = Vec::with_capacity(rounds);
    let mut data_ratio_samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let off = one_pass(&trained, &drift, &batches, total_rows, None);
        let on = one_pass(&trained, &drift, &batches, total_rows, Some(&bundle));
        let data_on = one_pass(&trained, &drift, &batches, total_rows, Some(&data));
        off_samples.push(off);
        on_samples.push(on);
        data_samples.push(data_on);
        ratio_samples.push(on / off.max(1e-9));
        data_ratio_samples.push(data_on / off.max(1e-9));
    }
    let off = median(&mut off_samples);
    let on = median(&mut on_samples);
    let data_on = median(&mut data_samples);
    let ratio = median(&mut ratio_samples);
    let data_ratio = median(&mut data_ratio_samples);
    let overhead_pct = 100.0 * (1.0 - ratio);
    let data_overhead_pct = 100.0 * (1.0 - data_ratio);
    println!(
        "telemetry_overhead: off {off:.0} rows/s, on {on:.0} rows/s \
         ({overhead_pct:+.2}%), data on {data_on:.0} rows/s \
         ({data_overhead_pct:+.2}%, {} series live)",
        data.registry().series_count()
    );

    let json = format!(
        "{{\n  \"bench\": \"telemetry_overhead\",\n  \"fast_mode\": {fast},\n  \
         \"batch_rows\": {batch_rows},\n  \"n_batches\": {n_batches},\n  \
         \"off_rows_per_s\": {off:.1},\n  \"on_rows_per_s\": {on:.1},\n  \
         \"data_on_rows_per_s\": {data_on:.1},\n  \
         \"throughput_ratio_on_vs_off\": {ratio:.4},\n  \
         \"throughput_ratio_data_on_vs_off\": {data_ratio:.4},\n  \
         \"overhead_pct\": {overhead_pct:.2},\n  \
         \"data_overhead_pct\": {data_overhead_pct:.2},\n  \
         \"series_count\": {}\n}}\n",
        data.registry().series_count()
    );
    write_bench_json("BENCH_observability.json", &json);
    if !fast {
        assert!(
            ratio >= 0.97,
            "telemetry-on throughput must stay within 3% of telemetry-off, \
             got {overhead_pct:.2}% overhead"
        );
        assert!(
            data_ratio >= 0.97,
            "data-telemetry-on throughput must stay within 3% of telemetry-off, \
             got {data_overhead_pct:.2}% overhead"
        );
    }
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
