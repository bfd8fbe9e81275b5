//! Streaming-engine throughput: end-to-end rows/s of the bounded-queue
//! pipeline as the validator replica count grows (the sharded-validation
//! scaling claim).
//!
//! Each iteration streams the same labelled batch set through a fresh
//! `StreamEngine` built around clones of one pre-trained DQuaG model
//! (`DquagBackend::from_trained`), so the timed quantity is pure pipeline +
//! phase-2 validation, never training. On a multi-core runner the rows/s
//! figure must grow from 1 replica to 4.
//!
//! Set `DQUAG_BENCH_FAST=1` to run a seconds-scale smoke variant (CI).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dquag_bench::harness::fast_mode;
use dquag_core::{DquagConfig, DquagValidator};
use dquag_datagen::datasets::nytaxi;
use dquag_gnn::ModelConfig;
use dquag_stream::StreamEngine;
use dquag_tabular::DataFrame;
use dquag_validate::DquagBackend;

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

fn bench_streaming(c: &mut Criterion) {
    let fast = fast_mode();
    let (train_rows, batch_rows, n_batches, samples) = if fast {
        (500, 60, 6, 2)
    } else {
        (1_500, 250, 24, 10)
    };

    let clean = nytaxi::generate_clean(train_rows, 10, 7);
    let trained = DquagValidator::train(&clean, &[], &quick_config()).expect("training");
    let batches: Vec<DataFrame> = (0..n_batches)
        .map(|i| nytaxi::generate_clean(batch_rows, 10, 100 + i as u64))
        .collect();

    let mut group = c.benchmark_group("streaming_throughput");
    group.sample_size(samples);
    group.throughput(Throughput::Elements((n_batches * batch_rows) as u64));
    for &replicas in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("replicas", replicas),
            &replicas,
            |b, &replicas| {
                b.iter(|| {
                    let backend = Box::new(DquagBackend::from_trained(trained.clone()));
                    let (engine, ingest, verdicts) = StreamEngine::builder()
                        .replicas(replicas)
                        .queue_capacity(n_batches)
                        .start(backend)
                        .expect("engine starts");
                    for batch in &batches {
                        ingest.submit(batch.clone()).expect("engine open");
                    }
                    drop(ingest);
                    let emitted = verdicts.count();
                    assert_eq!(emitted, n_batches);
                    engine.shutdown();
                    emitted
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
