//! Loopback end-to-end tests: batches posted over HTTP, one request per
//! connection or many on one kept-alive connection, must produce verdicts
//! identical to direct `IngestHandle` submission, error replies must keep
//! connections usable, and `GET /stats` must serve the live engine
//! statistics.

mod common;

use common::{get, post, request_once, Client};

use dquag_core::{DquagConfig, SourceConfig, StreamConfig};
use dquag_datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag_sources::NetListenerSource;
use dquag_sources::SourceRuntime;
use dquag_stream::StreamStats;
use dquag_stream::{IngestHandle, StreamEngine, StreamItem, StreamOutcome, VerdictStream};
use dquag_tabular::{csv, DataFrame};
use dquag_validate::{build_spec, Validator, ValidatorSpec};
use std::net::SocketAddr;
use std::time::Duration;

const KIND: DatasetKind = DatasetKind::HotelBooking;

/// A fitted statistics-based validator: cheap to fit and fully
/// deterministic, so two independent fits on the same clean data judge any
/// batch identically.
fn fitted_validator() -> Box<dyn Validator> {
    let clean = KIND.generate_clean(600, 11);
    let config = DquagConfig::fast();
    let mut validator = build_spec(&ValidatorSpec::backend("deequ-auto"), &config).unwrap();
    validator.fit(&clean).expect("fitting succeeds");
    validator
}

/// A mixed clean/corrupted batch feed.
fn batches(n: usize) -> Vec<DataFrame> {
    let columns = KIND.default_ordinary_error_columns();
    (0..n)
        .map(|i| {
            let mut batch = KIND.generate_clean(40, 900 + i as u64);
            if i % 2 == 1 {
                let mut rng = dquag_datagen::rng(1_000 + i as u64);
                inject_ordinary(
                    &mut batch,
                    OrdinaryError::NumericAnomalies,
                    &columns,
                    0.4,
                    &mut rng,
                );
            }
            batch
        })
        .collect()
}

fn start_engine() -> (StreamEngine, IngestHandle, VerdictStream) {
    StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 64,
            ..StreamConfig::default()
        })
        .start(fitted_validator())
        .expect("engine starts")
}

/// Start an engine fronted by a TCP listener runtime; returns the pieces a
/// client needs.
fn start_networked() -> (StreamEngine, VerdictStream, SourceRuntime, SocketAddr) {
    let (engine, ingest, verdicts) = start_engine();
    let source = NetListenerSource::from_config(&SourceConfig::default(), KIND.schema())
        .expect("loopback bind succeeds");
    let addr = source.local_addr();
    let config = SourceConfig {
        poll_interval: Duration::from_millis(10),
        ..SourceConfig::default()
    };
    let runtime = SourceRuntime::builder()
        .config(&config)
        .source(Box::new(source))
        .start(ingest)
        .expect("runtime starts");
    (engine, verdicts, runtime, addr)
}

/// Post one CSV batch on a kept-alive connection.
fn post_csv(client: &mut Client, batch: &DataFrame) -> common::Response {
    client.exchange(&post("text/csv", &csv::to_csv_string(batch)))
}

/// The verdicts of a finished run, in submission order.
fn collect(verdicts: VerdictStream) -> Vec<StreamItem> {
    verdicts.collect()
}

fn outcome_verdicts(items: &[StreamItem]) -> Vec<&dquag_validate::Verdict> {
    items
        .iter()
        .map(|item| match &item.outcome {
            StreamOutcome::Verdict(verdict) => verdict,
            other => panic!("expected a verdict, got {other}"),
        })
        .collect()
}

#[test]
fn tcp_batches_produce_identical_verdicts_to_direct_submission() {
    let feed = batches(6);

    // Direct path: submit straight into the handle.
    let (engine, ingest, verdicts) = start_engine();
    for batch in &feed {
        assert!(ingest
            .submit(batch.clone())
            .expect("engine open")
            .is_enqueued());
    }
    drop(ingest);
    let direct = collect(verdicts);
    engine.shutdown();

    // Network path: the same batches as CSV bodies, all on one kept-alive
    // connection over loopback TCP.
    let (engine, verdicts, runtime, addr) = start_networked();
    let mut client = Client::connect(addr);
    for (i, batch) in feed.iter().enumerate() {
        let reply = post_csv(&mut client, batch);
        assert_eq!(reply.status, 202, "batch {i} reply: {reply:?}");
        assert_eq!(reply.seq(), Some(i as u64), "batch {i} reply: {reply:?}");
        assert!(reply.keeps_alive(), "{reply:?}");
    }
    // A request without keep-alive ends the conversation.
    let reply = client.exchange("GET /stats HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(reply.head.contains("Connection: close"), "{reply:?}");
    assert_eq!(client.rest(), "");
    drop(client);
    runtime.shutdown().expect("runtime drains");
    let networked = collect(verdicts);
    engine.shutdown();

    // The acceptance criterion: byte-for-byte identical verdicts, in the
    // same submission order.
    assert_eq!(direct.len(), networked.len());
    assert_eq!(outcome_verdicts(&direct), outcome_verdicts(&networked));
    for (a, b) in direct.iter().zip(&networked) {
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.n_rows, b.n_rows);
    }
}

#[test]
fn http_post_produces_identical_verdicts_and_stats_endpoint_serves_json() {
    let feed = batches(3);

    let (engine, ingest, verdicts) = start_engine();
    for batch in &feed {
        ingest.submit(batch.clone()).expect("engine open");
    }
    drop(ingest);
    let direct = collect(verdicts);
    engine.shutdown();

    let (engine, verdicts, runtime, addr) = start_networked();
    for batch in &feed {
        let body = csv::to_csv_string(batch);
        let response = request_once(
            addr,
            &format!(
                "POST /ingest HTTP/1.1\r\nHost: test\r\nContent-Type: text/csv\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(response.starts_with("HTTP/1.1 202"), "{response}");
        assert!(response.contains("\"status\": \"enqueued\""), "{response}");
    }

    // GET /stats serves the live engine statistics as StreamStats JSON.
    let response = request_once(addr, "GET /stats HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let body = response
        .split("\r\n\r\n")
        .nth(1)
        .expect("response has a body");
    let stats: StreamStats = serde_json::from_str(body).expect("stats parse");
    assert_eq!(stats.submitted, feed.len() as u64);

    runtime.shutdown().expect("runtime drains");
    let networked = collect(verdicts);
    engine.shutdown();

    assert_eq!(outcome_verdicts(&direct), outcome_verdicts(&networked));
}

#[test]
fn stats_surfaces_report_the_active_spec_and_checkpoints_record_it() {
    use dquag_core::spec::{ValidatorSpec, Voting};

    let spec = ValidatorSpec::ensemble(
        vec![ValidatorSpec::backend("deequ-auto"), ValidatorSpec::drift()],
        Voting::Any,
    );

    let (engine, ingest, verdicts) = start_engine();
    let source = NetListenerSource::from_config(&SourceConfig::default(), KIND.schema())
        .expect("loopback bind succeeds")
        .with_spec(spec.clone());
    let addr = source.local_addr();
    let config = SourceConfig {
        poll_interval: Duration::from_millis(10),
        ..SourceConfig::default()
    };
    let runtime = SourceRuntime::builder()
        .config(&config)
        .source(Box::new(source))
        .spec(spec.clone())
        .start(ingest)
        .expect("runtime starts");

    // GET /stats still parses as StreamStats (extra keys are invisible to
    // shape-typed readers) *and* carries the spec for spec-aware clients.
    let response = request_once(addr, "GET /stats HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let body = response
        .split("\r\n\r\n")
        .nth(1)
        .expect("response has a body");
    let _stats: StreamStats = serde_json::from_str(body).expect("stats parse");
    let value: serde::Value = serde_json::from_str(body).expect("body is JSON");
    let active = value
        .as_object()
        .and_then(|map| map.get("active_spec"))
        .expect("active_spec key present");
    let reported: ValidatorSpec = serde_json::from_value(active).expect("spec parses");
    assert_eq!(reported, spec);

    // A kept-alive connection reports the same document.
    let reply = Client::connect(addr).exchange(&get("/stats"));
    assert_eq!(reply.status, 200, "{reply:?}");
    assert!(reply.body.contains("active_spec"), "{reply:?}");

    // The shutdown checkpoint records which validator tree was serving.
    let checkpoint = runtime.shutdown().expect("runtime drains");
    assert_eq!(checkpoint.spec.as_ref(), Some(&spec));

    drop(verdicts);
    engine.shutdown();
}

#[test]
fn ndjson_frames_decode_to_the_same_verdicts_as_csv() {
    let batch = batches(1).remove(0);
    let csv_payload = csv::to_csv_string(&batch);
    let ndjson = common::ndjson(&batch);

    let (engine, verdicts, runtime, addr) = start_networked();
    let mut client = Client::connect(addr);
    let reply_csv = client.exchange(&post("text/csv", &csv_payload));
    assert_eq!(reply_csv.seq(), Some(0), "{reply_csv:?}");
    let reply_ndjson = client.exchange(&post("application/x-ndjson", &ndjson));
    assert_eq!(reply_ndjson.seq(), Some(1), "{reply_ndjson:?}");
    drop(client);
    runtime.shutdown().expect("runtime drains");
    let items = collect(verdicts);
    engine.shutdown();

    assert_eq!(items.len(), 2);
    let verdicts = outcome_verdicts(&items);
    assert_eq!(verdicts[0], verdicts[1], "same rows, same verdict");
}

#[test]
fn error_replies_keep_the_connection_usable_and_stats_flow() {
    let (engine, verdicts, runtime, addr) = start_networked();
    let mut client = Client::connect(addr);

    // A well-framed body with undecodable content: 400, connection kept.
    let reply = client.exchange(&post("text/csv", "not,a,hotel,booking\n1,2,3,4\n"));
    assert_eq!(reply.status, 400, "{reply:?}");
    assert!(reply.keeps_alive(), "{reply:?}");

    // An empty batch (header only) is refused without touching the engine.
    let header_only = csv::to_csv_string(&DataFrame::new(KIND.schema()));
    let reply = client.exchange(&post("text/csv", &header_only));
    assert_eq!(reply.status, 400, "{reply:?}");
    assert_eq!(reply.body, "{\"error\": \"empty batch\"}");

    // The connection still works: a valid batch is accepted…
    let reply = post_csv(&mut client, &batches(1).remove(0));
    assert_eq!(reply.status, 202, "{reply:?}");
    assert_eq!(reply.seq(), Some(0), "{reply:?}");

    // …and GET /stats reports exactly one accepted submission.
    let reply = client.exchange(&get("/stats"));
    let stats: StreamStats = serde_json::from_str(&reply.body).expect("stats parse");
    assert_eq!(stats.submitted, 1);
    drop(client);

    // An oversized body and a line that is no request line get error
    // replies, and both close the connection: where the next request
    // starts is unknowable.
    let mut client = Client::connect(addr);
    let reply = client.exchange(&format!(
        "POST /ingest HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n",
        usize::MAX
    ));
    assert_eq!(reply.status, 413, "{reply:?}");
    assert!(reply.body.contains("limit"), "{reply:?}");
    assert_eq!(client.rest(), "");

    let mut client = Client::connect(addr);
    let reply = client.exchange("NONSENSE\n");
    assert_eq!(reply.status, 400, "{reply:?}");
    assert!(reply.body.contains("request line"), "{reply:?}");
    assert_eq!(client.rest(), "");

    // One-shot requests: bad body → 400, wrong path → 404.
    let response = request_once(
        addr,
        "POST /ingest HTTP/1.1\r\nHost: t\r\nContent-Type: text/csv\r\nContent-Length: 3\r\n\r\nabc",
    );
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    let response = request_once(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");

    runtime.shutdown().expect("runtime drains");
    let items = collect(verdicts);
    engine.shutdown();
    // Only the one valid batch reached the engine.
    assert_eq!(items.len(), 1);
}

#[test]
fn shutdown_interrupts_deliveries_blocked_on_a_full_engine() {
    // Regression test: a handler blocked in a Block-policy submit (full
    // engine, consumer not draining) must not wedge runtime shutdown.
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 1,
            ..StreamConfig::default()
        })
        .start(fitted_validator())
        .expect("engine starts");
    let source = NetListenerSource::from_config(&SourceConfig::default(), KIND.schema())
        .expect("loopback bind succeeds");
    let addr = source.local_addr();
    let config = SourceConfig {
        poll_interval: Duration::from_millis(10),
        ..SourceConfig::default()
    };
    let runtime = SourceRuntime::builder()
        .config(&config)
        .source(Box::new(source))
        .start(ingest)
        .expect("runtime starts");

    // Nobody reads `verdicts`, so the engine's outstanding bound
    // (queue_capacity + replicas = 2) fills and the third delivery blocks.
    let client = std::thread::spawn(move || {
        let mut client = Client::connect(addr);
        batches(3)
            .iter()
            .map(|batch| post_csv(&mut client, batch))
            .collect::<Vec<_>>()
    });

    // Give the client time to wedge on the third batch, then shut down:
    // this must return instead of hanging on the blocked handler thread.
    std::thread::sleep(Duration::from_millis(300));
    runtime
        .shutdown()
        .expect("shutdown returns despite the blocked delivery");

    let replies = client.join().expect("client finishes");
    assert_eq!(replies[0].seq(), Some(0), "{replies:?}");
    assert_eq!(replies[1].seq(), Some(1), "{replies:?}");
    assert_eq!(replies[2].status, 503, "{replies:?}");
    assert_eq!(replies[2].body, "{\"error\": \"engine closed\"}");
    assert!(replies[2].head.contains("Connection: close"), "{replies:?}");

    // The two accepted batches are still drained and emitted.
    let items: Vec<StreamItem> = verdicts.collect();
    assert_eq!(items.len(), 2);
    engine.shutdown();
}

#[test]
fn concurrent_tcp_producers_all_get_acknowledged() {
    let (engine, verdicts, runtime, addr) = start_networked();
    let feed = batches(4);
    let producers: Vec<_> = feed
        .into_iter()
        .map(|batch| {
            std::thread::spawn(move || {
                let reply = post_csv(&mut Client::connect(addr), &batch);
                assert_eq!(reply.status, 202, "{reply:?}");
            })
        })
        .collect();
    for producer in producers {
        producer.join().expect("producer succeeds");
    }
    runtime.shutdown().expect("runtime drains");
    let items = collect(verdicts);
    let stats = engine.shutdown();
    assert_eq!(items.len(), 4);
    assert_eq!(stats.emitted, 4);
    // Re-sequencing still holds: seqs come back 0..4 in order.
    let seqs: Vec<u64> = items.iter().map(|item| item.seq).collect();
    assert_eq!(seqs, vec![0, 1, 2, 3]);
}
