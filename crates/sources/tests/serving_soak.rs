//! Many-connection soak: the worker-pool listener holds dozens of open
//! sockets and serves concurrent kept-alive clients on a *fixed* thread
//! count — the old thread-per-connection design grew one OS thread per
//! socket — while producing verdicts identical to direct in-process
//! submission, in seq order, and answering over-capacity connects with a
//! deterministic `503`.
//!
//! This is the one test in the crate that asserts on the process thread
//! count, so it lives alone in its own test binary: sibling tests spawning
//! engines would make `/proc/self/status` readings meaningless.

mod common;

use common::{post, request_once, Client};
use dquag_core::{DquagConfig, ServingConfig, SourceConfig, StreamConfig};
use dquag_datagen::DatasetKind;
use dquag_sources::{NetListenerSource, SourceRuntime};
use dquag_stream::{StreamEngine, StreamItem, StreamOutcome};
use dquag_tabular::csv;
use dquag_telemetry::{Telemetry, TelemetryConfig};
use dquag_validate::{build_spec, Validator, ValidatorSpec, Verdict};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const KIND: DatasetKind = DatasetKind::HotelBooking;
const WORKERS: usize = 4;
const MAX_CONNECTIONS: usize = 32;
const HOLDERS: usize = 24;
const CLIENT_THREADS: usize = 12;
const BATCHES_PER_CLIENT: usize = 16;
/// Requests per connection before the listener recycles it, so every
/// client churns through several kept-alive connections.
const REQUESTS_PER_CONNECTION: usize = 4;

fn fitted_validator() -> Box<dyn Validator> {
    let clean = KIND.generate_clean(400, 11);
    let config = DquagConfig::fast();
    let mut validator = build_spec(&ValidatorSpec::backend("deequ-auto"), &config).unwrap();
    validator.fit(&clean).expect("fitting succeeds");
    validator
}

/// Batches with pairwise-distinct row counts, so a verdict's `n_rows`
/// also names its batch.
fn batches() -> Vec<dquag_tabular::DataFrame> {
    (0..CLIENT_THREADS * BATCHES_PER_CLIENT)
        .map(|i| KIND.generate_clean(20 + i, 500 + i as u64))
        .collect()
}

/// OS threads in this process, from `/proc/self/status` on Linux; `None`
/// elsewhere (the soak still runs, only the thread assertions are skipped).
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|value| value.trim().parse().ok())
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("loopback connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
}

fn wait_until(what: &str, mut condition: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !condition() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn open_connections(telemetry: &Telemetry) -> f64 {
    telemetry
        .registry()
        .gauge(
            "dquag_source_open_connections",
            "Connections currently open on the network listener",
        )
        .get()
}

/// Post `indices`' payloads in order on kept-alive connections, opening
/// a new one whenever the listener closes the last (request cap) or
/// refuses it (capacity `503`), and retrying a refused batch. Returns the
/// `(seq, batch index)` of every accepted batch and the refusals absorbed.
fn submit_all(
    addr: SocketAddr,
    payloads: &[String],
    indices: &[usize],
) -> (Vec<(u64, usize)>, u64) {
    let mut accepted = Vec::new();
    let mut rejects = 0u64;
    let mut client: Option<Client> = None;
    for &index in indices {
        loop {
            let conn = client.get_or_insert_with(|| Client::connect(addr));
            let reply = conn.exchange(&post("text/csv", &payloads[index]));
            if !reply.keeps_alive() {
                client = None;
            }
            if let Some(seq) = reply.seq() {
                accepted.push((seq, index));
                break;
            }
            assert!(
                reply.status == 503 && reply.body.contains("connection capacity"),
                "only capacity refusals are retried: {reply:?}"
            );
            rejects += 1;
            assert!(rejects < 2000, "batch {index} never accepted");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    (accepted, rejects)
}

fn verdict(item: &StreamItem) -> &Verdict {
    match &item.outcome {
        StreamOutcome::Verdict(verdict) => verdict,
        other => panic!("expected a verdict, got {other}"),
    }
}

#[test]
fn soak_fixed_threads_overflow_refusals_and_verdict_parity() {
    let all_batches = batches();

    // Ground truth first, on a fully-shut-down engine, so its threads are
    // gone before any thread-count baseline is taken.
    let direct: Vec<StreamItem> = {
        let (engine, ingest, verdicts) = StreamEngine::builder()
            .stream_config(&StreamConfig {
                queue_capacity: 512,
                ..StreamConfig::default()
            })
            .start(fitted_validator())
            .expect("engine starts");
        for batch in &all_batches {
            ingest.submit(batch.clone()).expect("direct submit");
        }
        drop(ingest);
        let items: Vec<StreamItem> = verdicts.collect();
        engine.shutdown();
        items
    };
    assert_eq!(direct.len(), all_batches.len());

    let baseline_threads = thread_count();

    // Networked engine behind the pooled listener.
    let telemetry = TelemetryConfig {
        flight_recorder_capacity: 64,
        dump_on_error: false,
        ..TelemetryConfig::default()
    }
    .build()
    .expect("telemetry is enabled");
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 512,
            ..StreamConfig::default()
        })
        .start(fitted_validator())
        .expect("engine starts");
    let config = SourceConfig {
        poll_interval: Duration::from_millis(10),
        serving: ServingConfig {
            workers: WORKERS,
            max_connections: MAX_CONNECTIONS,
            max_requests_per_connection: REQUESTS_PER_CONNECTION,
            ..ServingConfig::default()
        },
        ..SourceConfig::default()
    };
    let source = NetListenerSource::from_config(&config, KIND.schema())
        .expect("loopback bind succeeds")
        .with_telemetry(Arc::clone(&telemetry));
    let addr = source.local_addr();
    let runtime = SourceRuntime::builder()
        .config(&config)
        .source(Box::new(source))
        .start(ingest)
        .expect("runtime starts");

    let serving_threads = thread_count();
    if let (Some(before), Some(after)) = (baseline_threads, serving_threads) {
        // Engine replicas + supervisor + the fixed worker pool: a small
        // constant, nowhere near one-per-connection.
        assert!(
            after - before <= WORKERS + 8,
            "server stack spawned {} threads",
            after - before
        );
    }

    // Saturate the accept cap with idle holders and demand a deterministic
    // refusal: a fast 503.
    let mut holders: Vec<TcpStream> = (0..MAX_CONNECTIONS).map(|_| connect(addr)).collect();
    wait_until("holders to register", || {
        open_connections(&telemetry) >= MAX_CONNECTIONS as f64
    });
    if let (Some(before), Some(now)) = (serving_threads, thread_count()) {
        assert!(
            now.saturating_sub(before) <= 4,
            "{MAX_CONNECTIONS} held connections grew the process by {} threads",
            now - before
        );
    }
    let refusal = request_once(addr, "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(refusal.starts_with("HTTP/1.1 503"), "{refusal:?}");

    // Free part of the cap and run the concurrent soak through what's left.
    holders.truncate(HOLDERS);
    wait_until("freed slots to drain", || {
        open_connections(&telemetry) <= HOLDERS as f64
    });

    let payloads: Arc<Vec<String>> = Arc::new(all_batches.iter().map(csv::to_csv_string).collect());
    let indices: Vec<usize> = (0..payloads.len()).collect();
    let mut clients = Vec::new();
    for chunk in indices.chunks(BATCHES_PER_CLIENT) {
        let (chunk, payloads) = (chunk.to_vec(), Arc::clone(&payloads));
        clients.push(std::thread::spawn(move || {
            submit_all(addr, &payloads, &chunk)
        }));
    }
    let mut batch_of_seq = vec![None; payloads.len()];
    let mut client_rejects = 0u64;
    for handle in clients {
        let (accepted, rejects) = handle.join().expect("client thread");
        client_rejects += rejects;
        for (seq, index) in accepted {
            let slot = &mut batch_of_seq[usize::try_from(seq).expect("seq fits")];
            assert!(slot.replace(index).is_none(), "seq {seq} assigned twice");
        }
    }

    // After the churn of ~50 kept-alive connections, the server stack is
    // still the same fixed pool — no per-connection threads were spawned.
    if let (Some(before), Some(now)) = (serving_threads, thread_count()) {
        assert!(
            now.saturating_sub(before) <= 6,
            "soak grew the process by {} threads",
            now - before
        );
    }

    drop(holders);
    runtime.shutdown().expect("runtime drains");
    let networked: Vec<StreamItem> = verdicts.collect();
    engine.shutdown();

    // Exactly-once delivery and verdict parity with direct submission: the
    // verdicts arrive in seq order 0..n, and each is the direct verdict of
    // the batch its 202 reply named.
    assert_eq!(networked.len(), all_batches.len());
    for (seq, item) in networked.iter().enumerate() {
        assert_eq!(item.seq, seq as u64, "verdicts arrive in seq order");
        let index = batch_of_seq[seq].expect("every seq was acknowledged");
        assert_eq!(item.n_rows, all_batches[index].n_rows());
        assert_eq!(verdict(item), verdict(&direct[index]), "batch {index}");
    }

    // The deterministic refusal above is counted; client-side retries (if
    // the soak ever hit the cap) are the same counter.
    let counted_rejects = telemetry
        .registry()
        .counter(
            "dquag_source_accept_rejects_total",
            "Connections refused because the listener was at max_connections",
        )
        .get();
    assert!(counted_rejects > client_rejects, "{counted_rejects}");
}
