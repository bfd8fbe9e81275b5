//! Loopback end-to-end tests: batches submitted over TCP and HTTP must
//! produce verdicts identical to direct `IngestHandle` submission, error
//! replies must keep connections usable, and the `STATS` surfaces must
//! serve the live engine statistics.

use dquag_core::DquagConfig;
use dquag_datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag_sources::NetListenerSource;
use dquag_sources::SourceRuntime;
use dquag_stream::StreamStats;
use dquag_stream::{IngestHandle, StreamEngine, StreamItem, StreamOutcome, VerdictStream};
use dquag_tabular::{csv, DataFrame};
use dquag_validate::{build_spec, Validator, ValidatorSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
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
        .queue_capacity(64)
        .start(fitted_validator())
        .expect("engine starts")
}

/// Start an engine fronted by a TCP listener runtime; returns the pieces a
/// client needs.
fn start_networked() -> (StreamEngine, VerdictStream, SourceRuntime, SocketAddr) {
    let (engine, ingest, verdicts) = start_engine();
    let source =
        NetListenerSource::bind("127.0.0.1:0", KIND.schema()).expect("loopback bind succeeds");
    let addr = source.local_addr();
    let config = DquagConfig::builder()
        .source_poll_interval(Duration::from_millis(10))
        .build()
        .expect("config in range");
    let runtime = SourceRuntime::builder()
        .config(&config.source)
        .source(Box::new(source))
        .start(ingest)
        .expect("runtime starts");
    (engine, verdicts, runtime, addr)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("loopback connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

fn send_frame(stream: &mut TcpStream, format: &str, payload: &[u8]) -> String {
    stream
        .write_all(format!("BATCH {format} {}\n", payload.len()).as_bytes())
        .expect("header write");
    stream.write_all(payload).expect("payload write");
    read_reply_line(stream)
}

fn read_reply_line(stream: &mut TcpStream) -> String {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply read");
    line.trim_end().to_string()
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

    // Network path: the same batches as CSV frames over loopback TCP.
    let (engine, verdicts, runtime, addr) = start_networked();
    let mut stream = connect(addr);
    for (i, batch) in feed.iter().enumerate() {
        let reply = send_frame(&mut stream, "csv", csv::to_csv_string(batch).as_bytes());
        assert!(
            reply.starts_with(&format!("ACK {i} ")),
            "batch {i} reply: {reply}"
        );
    }
    stream.write_all(b"QUIT\n").expect("quit write");
    assert_eq!(read_reply_line(&mut stream), "BYE");
    drop(stream);
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
        let response = http_request(
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
    let response = http_request(addr, "GET /stats HTTP/1.1\r\nHost: test\r\n\r\n");
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
    let source = NetListenerSource::bind("127.0.0.1:0", KIND.schema())
        .expect("loopback bind succeeds")
        .with_spec(spec.clone());
    let addr = source.local_addr();
    let config = DquagConfig::builder()
        .source_poll_interval(Duration::from_millis(10))
        .build()
        .expect("config in range");
    let runtime = SourceRuntime::builder()
        .config(&config.source)
        .source(Box::new(source))
        .spec(spec.clone())
        .start(ingest)
        .expect("runtime starts");

    // GET /stats still parses as StreamStats (extra keys are invisible to
    // shape-typed readers) *and* carries the spec for spec-aware clients.
    let response = http_request(addr, "GET /stats HTTP/1.1\r\nHost: test\r\n\r\n");
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

    // The raw-protocol STATS line reports the same document.
    let mut stream = connect(addr);
    stream.write_all(b"STATS\n").expect("stats write");
    let reply = read_reply_line(&mut stream);
    let json = reply.strip_prefix("STATS ").expect("STATS prefix");
    assert!(json.contains("active_spec"), "{json}");
    drop(stream);

    // The shutdown checkpoint records which validator tree was serving.
    let checkpoint = runtime.shutdown().expect("runtime drains");
    assert_eq!(checkpoint.spec.as_ref(), Some(&spec));

    drop(verdicts);
    engine.shutdown();
}

fn http_request(addr: SocketAddr, request: &str) -> String {
    let mut stream = connect(addr);
    stream.write_all(request.as_bytes()).expect("request write");
    let mut response = String::new();
    // Connection: close — read to EOF.
    stream.read_to_string(&mut response).expect("response read");
    response
}

#[test]
fn ndjson_frames_decode_to_the_same_verdicts_as_csv() {
    let batch = batches(1).remove(0);
    let csv_payload = csv::to_csv_string(&batch);
    // Re-encode the same rows as NDJSON.
    let schema = batch.schema().clone();
    let mut ndjson = String::new();
    for row in batch.iter_rows() {
        let mut obj = Vec::new();
        for (field, value) in schema.fields().iter().zip(row) {
            let encoded = match value {
                dquag_tabular::Value::Null => "null".to_string(),
                dquag_tabular::Value::Number(n) => serde_json::to_string(&n).unwrap(),
                dquag_tabular::Value::Text(s) => serde_json::to_string(&s).unwrap(),
            };
            obj.push(format!(
                "{}: {encoded}",
                serde_json::to_string(&field.name).unwrap()
            ));
        }
        ndjson.push_str(&format!("{{{}}}\n", obj.join(", ")));
    }

    let (engine, verdicts, runtime, addr) = start_networked();
    let mut stream = connect(addr);
    let reply_csv = send_frame(&mut stream, "csv", csv_payload.as_bytes());
    assert!(reply_csv.starts_with("ACK 0"), "{reply_csv}");
    let reply_ndjson = send_frame(&mut stream, "ndjson", ndjson.as_bytes());
    assert!(reply_ndjson.starts_with("ACK 1"), "{reply_ndjson}");
    drop(stream);
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
    let mut stream = connect(addr);

    // A decodable-length frame with undecodable content: ERR, framing kept.
    let garbage = b"not,a,hotel,booking\n1,2,3,4\n";
    let reply = send_frame(&mut stream, "csv", garbage);
    assert!(reply.starts_with("ERR "), "{reply}");

    // An empty batch (header only) is refused without touching the engine.
    let header_only = csv::to_csv_string(&DataFrame::new(KIND.schema()));
    let reply = send_frame(&mut stream, "csv", header_only.as_bytes());
    assert_eq!(reply, "ERR empty batch");

    // The connection still works: a valid frame is acknowledged…
    let batch = batches(1).remove(0);
    let reply = send_frame(&mut stream, "csv", csv::to_csv_string(&batch).as_bytes());
    assert!(reply.starts_with("ACK 0 "), "{reply}");

    // …and STATS reports exactly one accepted submission.
    stream.write_all(b"STATS\n").expect("stats write");
    let reply = read_reply_line(&mut stream);
    let json = reply.strip_prefix("STATS ").expect("STATS prefix");
    let stats: StreamStats = serde_json::from_str(json).expect("stats parse");
    assert_eq!(stats.submitted, 1);

    drop(stream);

    // Oversized frames and unknown commands get error replies on their own
    // connections (both close the connection to resynchronise framing).
    let mut stream = connect(addr);
    stream
        .write_all(format!("BATCH csv {}\n", usize::MAX).as_bytes())
        .expect("oversized header write");
    let reply = read_reply_line(&mut stream);
    assert!(reply.starts_with("ERR "), "{reply}");
    assert!(reply.contains("limit"), "{reply}");
    drop(stream);

    let mut stream = connect(addr);
    stream.write_all(b"NONSENSE\n").expect("write");
    let reply = read_reply_line(&mut stream);
    assert!(reply.starts_with("ERR unknown command"), "{reply}");
    drop(stream);

    // HTTP errors: bad body → 400, wrong path → 404.
    let response = http_request(
        addr,
        "POST /ingest HTTP/1.1\r\nHost: t\r\nContent-Type: text/csv\r\nContent-Length: 3\r\n\r\nabc",
    );
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    let response = http_request(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");

    runtime.shutdown().expect("runtime drains");
    let items = collect(verdicts);
    engine.shutdown();
    // Only the one valid frame reached the engine.
    assert_eq!(items.len(), 1);
}

#[test]
fn shutdown_interrupts_deliveries_blocked_on_a_full_engine() {
    // Regression test: a handler blocked in a Block-policy submit (full
    // engine, consumer not draining) must not wedge runtime shutdown.
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .queue_capacity(1)
        .start(fitted_validator())
        .expect("engine starts");
    let source =
        NetListenerSource::bind("127.0.0.1:0", KIND.schema()).expect("loopback bind succeeds");
    let addr = source.local_addr();
    let config = DquagConfig::builder()
        .source_poll_interval(Duration::from_millis(10))
        .build()
        .expect("config in range");
    let runtime = SourceRuntime::builder()
        .config(&config.source)
        .source(Box::new(source))
        .start(ingest)
        .expect("runtime starts");

    // Nobody reads `verdicts`, so the engine's outstanding bound
    // (queue_capacity + replicas = 2) fills and the third delivery blocks.
    let client = std::thread::spawn(move || {
        let mut stream = connect(addr);
        let feed = batches(3);
        let mut replies = Vec::new();
        for batch in &feed {
            replies.push(send_frame(
                &mut stream,
                "csv",
                csv::to_csv_string(batch).as_bytes(),
            ));
        }
        replies
    });

    // Give the client time to wedge on the third frame, then shut down:
    // this must return instead of hanging on the blocked handler thread.
    std::thread::sleep(Duration::from_millis(300));
    runtime
        .shutdown()
        .expect("shutdown returns despite the blocked delivery");

    let replies = client.join().expect("client finishes");
    assert!(replies[0].starts_with("ACK 0 "), "{replies:?}");
    assert!(replies[1].starts_with("ACK 1 "), "{replies:?}");
    assert_eq!(replies[2], "ERR engine closed", "{replies:?}");

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
                let mut stream = connect(addr);
                let reply = send_frame(&mut stream, "csv", csv::to_csv_string(&batch).as_bytes());
                assert!(reply.starts_with("ACK "), "{reply}");
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
