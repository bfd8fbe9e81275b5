//! Serving-edge concurrency: end-to-end rows/s of the pooled listener with
//! many simultaneously-open client connections versus a baseline holding
//! only as many connections as the pool has workers.
//!
//! The old thread-per-connection listener needed one OS thread per open
//! socket, so its sustainable concurrent-connection count *was* its thread
//! count. The worker pool must hold many times that connection count on
//! the same fixed threads at equal throughput; the acceptance gate below
//! asserts both. The trajectory lands in `BENCH_serving.json` in the
//! workspace root. Set `DQUAG_BENCH_FAST=1` for a seconds-scale smoke
//! variant (CI).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dquag_bench::harness::{fast_mode, median, write_bench_json};
use dquag_core::{DquagConfig, ServingConfig};
use dquag_datagen::DatasetKind;
use dquag_sources::{NetListenerSource, SourceRuntime};
use dquag_stream::StreamEngine;
use dquag_tabular::csv;
use dquag_validate::{build_spec, Validator, ValidatorSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const KIND: DatasetKind = DatasetKind::NyTaxi;
const WORKERS: usize = 4;

fn fitted_validator(train_rows: usize) -> Box<dyn Validator> {
    let clean = KIND.generate_clean(train_rows, 7);
    let mut validator =
        build_spec(&ValidatorSpec::backend("deequ-auto"), &DquagConfig::fast()).unwrap();
    validator.fit(&clean).expect("fitting succeeds");
    validator
}

/// Stream `payloads` through the pooled listener with `conns` concurrently
/// open client connections (each client opens one socket and keeps it open
/// for its whole share). Returns end-to-end rows/s, verdicts included.
fn run_arm(
    validator: Box<dyn Validator>,
    payloads: &[String],
    conns: usize,
    total_rows: u64,
) -> f64 {
    let n_batches = payloads.len();
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .queue_capacity(n_batches)
        .start(validator)
        .expect("engine starts");
    let source = NetListenerSource::bind("127.0.0.1:0", KIND.schema())
        .expect("loopback bind")
        .with_serving(ServingConfig {
            workers: WORKERS,
            max_connections: conns + 8,
            ..ServingConfig::default()
        });
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

    let start = Instant::now();
    let chunks: Vec<Vec<String>> = payloads
        .chunks(n_batches.div_ceil(conns))
        .map(<[String]>::to_vec)
        .collect();
    let clients: Vec<_> = chunks
        .into_iter()
        .map(|chunk| std::thread::spawn(move || client(addr, &chunk)))
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    runtime.shutdown().expect("runtime drains");
    assert_eq!(verdicts.count(), n_batches);
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    engine.shutdown();
    total_rows as f64 / elapsed
}

/// One client: a single open connection streaming its share of frames.
fn client(addr: SocketAddr, payloads: &[String]) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    for payload in payloads {
        let frame = format!("BATCH csv {}\n{payload}", payload.len());
        writer.write_all(frame.as_bytes()).expect("frame");
        reply.clear();
        reader.read_line(&mut reply).expect("reply");
        assert!(reply.starts_with("ACK "), "{reply}");
    }
}

fn bench_serving_edge(c: &mut Criterion) {
    let fast = fast_mode();
    let (train_rows, batch_rows, n_batches, scaled_conns, samples, rounds) = if fast {
        (400, 40, 32, 32, 2, 1)
    } else {
        (1_000, 100, 256, 128, 10, 5)
    };
    let baseline_conns = WORKERS;
    let total_rows = (n_batches * batch_rows) as u64;

    let payloads: Vec<String> = (0..n_batches)
        .map(|i| csv::to_csv_string(&KIND.generate_clean(batch_rows, 100 + i as u64)))
        .collect();

    let mut group = c.benchmark_group("serving_edge");
    group.sample_size(samples);
    group.throughput(Throughput::Elements(total_rows));
    for conns in [baseline_conns, scaled_conns] {
        group.bench_with_input(
            BenchmarkId::new("open_conns", conns),
            &conns,
            |b, &conns| {
                b.iter(|| run_arm(fitted_validator(train_rows), &payloads, conns, total_rows));
            },
        );
    }
    group.finish();

    // Record the trajectory and gate on interleaved medians.
    run_arm(
        fitted_validator(train_rows),
        &payloads,
        baseline_conns,
        total_rows,
    ); // warm-up
    let mut baseline_samples = Vec::with_capacity(rounds);
    let mut scaled_samples = Vec::with_capacity(rounds);
    let mut ratio_samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let baseline = run_arm(
            fitted_validator(train_rows),
            &payloads,
            baseline_conns,
            total_rows,
        );
        let scaled = run_arm(
            fitted_validator(train_rows),
            &payloads,
            scaled_conns,
            total_rows,
        );
        baseline_samples.push(baseline);
        scaled_samples.push(scaled);
        ratio_samples.push(scaled / baseline.max(1e-9));
    }
    let baseline = median(&mut baseline_samples);
    let scaled = median(&mut scaled_samples);
    let ratio = median(&mut ratio_samples);
    // The pool serves the listener with WORKERS + 1 threads (workers plus
    // the accepting supervisor); thread-per-connection needed one *per
    // open socket*.
    let server_threads = WORKERS + 1;
    let conns_per_thread = scaled_conns as f64 / server_threads as f64;
    println!(
        "serving_edge: {baseline_conns} conns {baseline:.0} rows/s, \
         {scaled_conns} conns {scaled:.0} rows/s (ratio {ratio:.3}), \
         {conns_per_thread:.1} connections per server thread"
    );

    let json = format!(
        "{{\n  \"bench\": \"serving_edge\",\n  \"fast_mode\": {fast},\n  \
         \"workers\": {WORKERS},\n  \"server_threads\": {server_threads},\n  \
         \"batch_rows\": {batch_rows},\n  \"n_batches\": {n_batches},\n  \
         \"baseline_conns\": {baseline_conns},\n  \"scaled_conns\": {scaled_conns},\n  \
         \"baseline_rows_per_s\": {baseline:.1},\n  \"scaled_rows_per_s\": {scaled:.1},\n  \
         \"throughput_ratio_scaled_vs_baseline\": {ratio:.4},\n  \
         \"conns_per_server_thread\": {conns_per_thread:.1}\n}}\n"
    );
    write_bench_json("BENCH_serving.json", &json);
    if !fast {
        assert!(
            conns_per_thread >= 4.0,
            "the pool must hold at least 4x the connections a thread-per-connection \
             listener gets per thread, got {conns_per_thread:.1}"
        );
        assert!(
            ratio >= 0.8,
            "throughput at {scaled_conns} open connections must stay within 20% of \
             the {baseline_conns}-connection baseline, got ratio {ratio:.3}"
        );
    }
}

criterion_group!(benches, bench_serving_edge);
criterion_main!(benches);
