//! Source-adapter ingestion throughput: end-to-end rows/s of the full
//! serving edge — loopback TCP framing + CSV decode + engine validation —
//! against direct in-process `IngestHandle` submission, so the cost of the
//! network layer itself is visible.
//!
//! Set `DQUAG_BENCH_FAST=1` to run a seconds-scale smoke variant (CI).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dquag_bench::harness::fast_mode;
use dquag_core::DquagConfig;
use dquag_datagen::DatasetKind;
use dquag_sources::{NetListenerSource, SourceRuntime};
use dquag_stream::StreamEngine;
use dquag_tabular::csv;
use dquag_validate::{build_spec, Validator, ValidatorSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

const KIND: DatasetKind = DatasetKind::NyTaxi;

/// A cheap statistics-based validator so the timed quantity is the
/// ingestion path, not model inference.
fn fitted_validator(train_rows: usize) -> Box<dyn Validator> {
    let clean = KIND.generate_clean(train_rows, 7);
    let mut validator =
        build_spec(&ValidatorSpec::backend("deequ-auto"), &DquagConfig::fast()).unwrap();
    validator.fit(&clean).expect("fitting succeeds");
    validator
}

fn bench_source_ingest(c: &mut Criterion) {
    let fast = fast_mode();
    let (train_rows, batch_rows, n_batches, samples) = if fast {
        (400, 60, 8, 2)
    } else {
        (1_000, 200, 32, 10)
    };

    let batches: Vec<String> = (0..n_batches)
        .map(|i| csv::to_csv_string(&KIND.generate_clean(batch_rows, 100 + i as u64)))
        .collect();
    let total_rows = (n_batches * batch_rows) as u64;

    let mut group = c.benchmark_group("source_ingest");
    group.sample_size(samples);
    group.throughput(Throughput::Elements(total_rows));

    group.bench_with_input(BenchmarkId::new("path", "direct"), &(), |b, ()| {
        b.iter(|| {
            let (engine, ingest, verdicts) = StreamEngine::builder()
                .queue_capacity(n_batches)
                .start(fitted_validator(train_rows))
                .expect("engine starts");
            for payload in &batches {
                let batch = csv::from_csv_str(payload, &KIND.schema()).expect("decode");
                ingest.submit(batch).expect("engine open");
            }
            drop(ingest);
            assert_eq!(verdicts.count(), n_batches);
            engine.shutdown();
        });
    });

    group.bench_with_input(BenchmarkId::new("path", "loopback_tcp"), &(), |b, ()| {
        b.iter(|| {
            let (engine, ingest, verdicts) = StreamEngine::builder()
                .queue_capacity(n_batches)
                .start(fitted_validator(train_rows))
                .expect("engine starts");
            let source =
                NetListenerSource::bind("127.0.0.1:0", KIND.schema()).expect("loopback bind");
            let addr = source.local_addr();
            let config = DquagConfig::builder()
                .source_poll_interval(Duration::from_millis(5))
                .build()
                .expect("config in range");
            let runtime = SourceRuntime::builder()
                .config(&config.source)
                .source(Box::new(source))
                .start(ingest)
                .expect("runtime starts");

            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let mut reply = String::new();
            for payload in &batches {
                let frame = format!("BATCH csv {}\n{payload}", payload.len());
                writer.write_all(frame.as_bytes()).expect("frame");
                reply.clear();
                reader.read_line(&mut reply).expect("reply");
                assert!(reply.starts_with("ACK "), "{reply}");
            }
            drop(writer);
            drop(reader);
            runtime.shutdown().expect("runtime drains");
            assert_eq!(verdicts.count(), n_batches);
            engine.shutdown();
        });
    });

    group.finish();
}

criterion_group!(benches, bench_source_ingest);
criterion_main!(benches);
