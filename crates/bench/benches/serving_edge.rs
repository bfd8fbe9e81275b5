//! Serving-edge concurrency: end-to-end rows/s of the pooled listener with
//! many simultaneously-open client connections versus a baseline holding
//! only as many connections as the pool has workers.
//!
//! The old thread-per-connection listener needed one OS thread per open
//! socket, so its sustainable concurrent-connection count *was* its thread
//! count. The worker pool must hold many times that connection count on
//! the same fixed threads at equal throughput; the acceptance gate below
//! asserts both. The two arms alternate which runs first each round
//! (`harness::interleave`). A full run that passes the gate writes the
//! trajectory to `BENCH_serving.json` in the workspace root. Set
//! `DQUAG_BENCH_FAST=1` for a seconds-scale smoke variant (CI).

use dquag_bench::harness::{fast_mode, interleave, median, median_ratio, write_bench_json};
use dquag_core::{DquagConfig, ServingConfig, SourceConfig, StreamConfig};
use dquag_datagen::DatasetKind;
use dquag_sources::{NetListenerSource, SourceRuntime};
use dquag_stream::StreamEngine;
use dquag_tabular::csv;
use dquag_validate::{build_spec, Validator, ValidatorSpec};
use std::io::{BufRead, BufReader, Read, Write};
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

/// Post `payloads` through the pooled listener with `conns` concurrently
/// open client connections (each client opens one socket and keeps it
/// alive for its whole share). Returns end-to-end rows/s, verdicts
/// included.
fn run_arm(
    validator: Box<dyn Validator>,
    payloads: &[String],
    conns: usize,
    total_rows: u64,
) -> f64 {
    let n_batches = payloads.len();
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: n_batches,
            ..StreamConfig::default()
        })
        .start(validator)
        .expect("engine starts");
    let config = SourceConfig {
        poll_interval: Duration::from_millis(5),
        serving: ServingConfig {
            workers: WORKERS,
            max_connections: conns + 8,
            ..ServingConfig::default()
        },
        ..SourceConfig::default()
    };
    let source = NetListenerSource::from_config(&config, KIND.schema()).expect("loopback bind");
    let addr = source.local_addr();
    let runtime = SourceRuntime::builder()
        .config(&config)
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

/// One client: a single kept-alive connection posting its share of
/// batches, each reply read before the next request.
fn client(addr: SocketAddr, payloads: &[String]) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut body = Vec::new();
    for payload in payloads {
        let request = format!(
            "POST /ingest HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\
             Content-Type: text/csv\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        );
        writer.write_all(request.as_bytes()).expect("request");
        line.clear();
        reader.read_line(&mut line).expect("status line");
        assert!(line.starts_with("HTTP/1.1 202"), "{line}");
        let mut length = 0;
        loop {
            line.clear();
            assert!(reader.read_line(&mut line).expect("header") > 0, "closed");
            if line == "\r\n" {
                break;
            }
            if let Some(value) = line.strip_prefix("Content-Length:") {
                length = value.trim().parse().expect("Content-Length");
            }
        }
        body.resize(length, 0);
        reader.read_exact(&mut body).expect("body");
    }
}

fn main() {
    let fast = fast_mode();
    let (train_rows, batch_rows, n_batches, scaled_conns, rounds) = if fast {
        (400, 40, 32, 32, 1)
    } else {
        (1_000, 100, 256, 128, 5)
    };
    let baseline_conns = WORKERS;
    let total_rows = (n_batches * batch_rows) as u64;

    let payloads: Vec<String> = (0..n_batches)
        .map(|i| csv::to_csv_string(&KIND.generate_clean(batch_rows, 100 + i as u64)))
        .collect();
    let arm = |conns: usize| run_arm(fitted_validator(train_rows), &payloads, conns, total_rows);

    // Record the trajectory and gate on interleaved medians.
    arm(baseline_conns); // warm-up
    let [baseline_samples, scaled_samples] = interleave(
        rounds,
        [&mut || arm(baseline_conns), &mut || arm(scaled_conns)],
    );
    let baseline = median(&baseline_samples);
    let scaled = median(&scaled_samples);
    let ratio = median_ratio(&scaled_samples, &baseline_samples);
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
}
