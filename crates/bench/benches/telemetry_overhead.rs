//! Observability overhead: end-to-end streaming rows/s with the full
//! telemetry bundle attached (engine counters + gauges + latency histogram
//! exported, queue-wait/emit stage spans, validator graph-build/forward/
//! verdict spans, GNN forward-pass counters, flight recorder) versus the
//! same pipeline with telemetry off — plus a third arm with the per-column
//! data layer on (drift gauges, scoreboard, crossing detection) fed by a
//! KS/PSI drift node riding in an ensemble next to the GNN backend.
//!
//! The off arm keeps the engine's counters, gauges and latency histogram:
//! the engine reads its `StreamStats` from them, so it always counts. The
//! bundle adds a few `Option` checks, stage spans and relaxed atomics per
//! batch (the data layer adds one mutex'd scoreboard pass per batch), so
//! the measured overhead must stay under 3% for both telemetry arms. The
//! <3% acceptance gate is asserted in full runs (skipped under
//! `DQUAG_BENCH_FAST=1`, whose sample counts are too small to be stable),
//! and only a full run that passes it writes rows/s for all variants to
//! `BENCH_observability.json` in the workspace root.
//!
//! Rounds are interleaved, with the arm order rotating each round
//! (`harness::interleave`), and summarised by the median of per-round
//! ratios, so scheduler noise on small shared runners hits every variant
//! equally instead of biasing whichever ran during a slow window.

use dquag_bench::harness::{
    fast_mode, interleave, median, median_ratio, quick_config, write_bench_json,
};
use dquag_core::{DquagValidator, StreamConfig};
use dquag_datagen::datasets::nytaxi;
use dquag_stream::StreamEngine;
use dquag_tabular::DataFrame;
use dquag_telemetry::{Telemetry, TelemetryConfig, TelemetryDataConfig};
use dquag_validate::{
    DquagBackend, DriftSpec, DriftValidator, EnsembleValidator, Validator, Voting,
};
use std::sync::Arc;
use std::time::Instant;

fn quiet_bundle() -> Arc<Telemetry> {
    TelemetryConfig {
        flight_recorder_capacity: 256,
        dump_on_error: false,
        ..TelemetryConfig::default()
    }
    .build()
    .expect("telemetry is enabled")
}

/// Like [`quiet_bundle`], with the per-column data layer on: drift gauges,
/// scoreboard and crossing detection all live on the hot path.
fn data_bundle() -> Arc<Telemetry> {
    TelemetryConfig {
        flight_recorder_capacity: 256,
        dump_on_error: false,
        data: TelemetryDataConfig {
            enabled: true,
            ..TelemetryDataConfig::default()
        },
        ..TelemetryConfig::default()
    }
    .build()
    .expect("telemetry is enabled")
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
    let mut builder = StreamEngine::builder().stream_config(&StreamConfig {
        queue_capacity: batches.len(),
        ..StreamConfig::default()
    });
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
    let mut drift = DriftValidator::new(DriftSpec::default());
    drift.fit(&clean).expect("drift profile fits");
    let batches: Vec<DataFrame> = (0..n_batches)
        .map(|i| nytaxi::generate_clean(batch_rows, 10, 100 + i as u64))
        .collect();
    let bundle = quiet_bundle();
    let data = data_bundle();

    // Record the trajectory and gate the overhead on interleaved medians.
    one_pass(&trained, &drift, &batches, total_rows, None); // warm-up
    one_pass(&trained, &drift, &batches, total_rows, Some(&bundle));
    let [off_samples, on_samples, data_samples] = interleave(
        rounds,
        [
            &mut || one_pass(&trained, &drift, &batches, total_rows, None),
            &mut || one_pass(&trained, &drift, &batches, total_rows, Some(&bundle)),
            &mut || one_pass(&trained, &drift, &batches, total_rows, Some(&data)),
        ],
    );
    let off = median(&off_samples);
    let on = median(&on_samples);
    let data_on = median(&data_samples);
    let ratio = median_ratio(&on_samples, &off_samples);
    let data_ratio = median_ratio(&data_samples, &off_samples);
    let overhead_pct = 100.0 * (1.0 - ratio);
    let data_overhead_pct = 100.0 * (1.0 - data_ratio);
    let series_count = data.registry().series_count();
    println!(
        "telemetry_overhead: off {off:.0} rows/s, on {on:.0} rows/s \
         ({overhead_pct:+.2}%), data on {data_on:.0} rows/s \
         ({data_overhead_pct:+.2}%, {series_count} series live)"
    );
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

    let json = format!(
        "{{\n  \"bench\": \"telemetry_overhead\",\n  \"fast_mode\": {fast},\n  \
         \"batch_rows\": {batch_rows},\n  \"n_batches\": {n_batches},\n  \
         \"off_rows_per_s\": {off:.1},\n  \"on_rows_per_s\": {on:.1},\n  \
         \"data_on_rows_per_s\": {data_on:.1},\n  \
         \"throughput_ratio_on_vs_off\": {ratio:.4},\n  \
         \"throughput_ratio_data_on_vs_off\": {data_ratio:.4},\n  \
         \"overhead_pct\": {overhead_pct:.2},\n  \
         \"data_overhead_pct\": {data_overhead_pct:.2},\n  \
         \"series_count\": {series_count}\n}}\n"
    );
    write_bench_json("BENCH_observability.json", &json);
}
