//! Many-connection soak: the worker-pool listener holds dozens of open
//! sockets and serves concurrent clients on a *fixed* thread count — the
//! old thread-per-connection design grew one OS thread per socket — while
//! producing verdicts identical to direct in-process submission, and
//! answering over-capacity connects with a deterministic `REJECTED`/`503`.
//!
//! This is the one test in the crate that asserts on the process thread
//! count, so it lives alone in its own test binary: sibling tests spawning
//! engines would make `/proc/self/status` readings meaningless.

use dquag_core::{DquagConfig, ServingConfig, SourceConfig, StreamConfig};
use dquag_datagen::DatasetKind;
use dquag_sources::{NetListenerSource, SourceRuntime};
use dquag_stream::{StreamEngine, StreamItem, StreamOutcome};
use dquag_tabular::csv;
use dquag_telemetry::{Telemetry, TelemetryConfig};
use dquag_validate::{build_spec, Validator, ValidatorSpec, Verdict};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const KIND: DatasetKind = DatasetKind::HotelBooking;
const WORKERS: usize = 4;
const MAX_CONNECTIONS: usize = 32;
const HOLDERS: usize = 24;
const CLIENT_THREADS: usize = 12;
const BATCHES_PER_CLIENT: usize = 16;

fn fitted_validator() -> Box<dyn Validator> {
    let clean = KIND.generate_clean(400, 11);
    let config = DquagConfig::fast();
    let mut validator = build_spec(&ValidatorSpec::backend("deequ-auto"), &config).unwrap();
    validator.fit(&clean).expect("fitting succeeds");
    validator
}

/// Batches with pairwise-distinct row counts, so a verdict can be matched
/// to its batch across engines by `n_rows` alone.
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

/// Submit one batch on a fresh connection, retrying while the listener is
/// at capacity. Returns the number of `REJECTED` refusals absorbed.
fn submit_with_retry(addr: SocketAddr, payload: &str) -> u64 {
    for rejects in 0..2000u64 {
        let mut stream = connect(addr);
        let frame = format!("BATCH csv {}\n{payload}", payload.len());
        stream.write_all(frame.as_bytes()).expect("frame write");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply read");
        let reply = reply.trim_end();
        if reply.starts_with("ACK ") {
            return rejects;
        }
        assert!(
            reply.starts_with("REJECTED"),
            "only capacity refusals are retried: {reply:?}"
        );
        drop(stream);
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("batch never accepted after 2000 attempts");
}

/// Map each verdict to its batch's row count (all row counts distinct).
fn verdicts_by_rows(items: &[StreamItem]) -> BTreeMap<usize, &Verdict> {
    let mut map = BTreeMap::new();
    for item in items {
        let verdict = match &item.outcome {
            StreamOutcome::Verdict(verdict) => verdict,
            other => panic!("expected a verdict, got {other}"),
        };
        let previous = map.insert(item.n_rows, verdict);
        assert!(
            previous.is_none(),
            "duplicate delivery for the {}-row batch",
            item.n_rows
        );
    }
    map
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
    let direct_verdicts = verdicts_by_rows(&direct);

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

    // Saturate the accept cap with idle holders and demand deterministic
    // refusals: raw peers get a REJECTED line, HTTP peers a fast 503.
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
    {
        let mut raw = connect(addr);
        raw.write_all(b"STATS\n").expect("write");
        let mut reader = BufReader::new(raw.try_clone().expect("clone"));
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply read");
        assert!(reply.starts_with("REJECTED"), "{reply:?}");
    }

    // Free part of the cap and run the concurrent soak through what's left.
    holders.truncate(HOLDERS);
    wait_until("freed slots to drain", || {
        open_connections(&telemetry) <= HOLDERS as f64
    });

    let payloads: Vec<String> = all_batches.iter().map(csv::to_csv_string).collect();
    let mut clients = Vec::new();
    for chunk in payloads.chunks(BATCHES_PER_CLIENT) {
        let chunk = chunk.to_vec();
        clients.push(std::thread::spawn(move || {
            let mut rejects = 0u64;
            for payload in &chunk {
                rejects += submit_with_retry(addr, payload);
            }
            rejects
        }));
    }
    let client_rejects: u64 = clients
        .into_iter()
        .map(|handle| handle.join().expect("client thread"))
        .sum();

    // After the churn of ~200 short-lived connections, the server stack is
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

    // Exactly-once delivery and verdict parity with direct submission:
    // same row-count keys (nothing skipped, nothing replayed), and for
    // every batch the identical verdict.
    assert_eq!(networked.len(), all_batches.len());
    let networked_verdicts = verdicts_by_rows(&networked);
    assert_eq!(direct_verdicts, networked_verdicts);

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
