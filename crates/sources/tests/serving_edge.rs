//! Serving-edge behaviour tests: bounded accepts answer overflow with a
//! fast `503`/`REJECTED`, HTTP keep-alive serves sequential requests on
//! one socket (with request cap and idle timeout), malformed
//! `Content-Length` headers are `400`s that name the problem, raw frames
//! shaped like HTTP versions stay raw, and a failed worker hand-off is
//! survived instead of panicking the listener.

use dquag_core::{DquagConfig, ServingConfig, SourceConfig, StreamConfig};
use dquag_datagen::DatasetKind;
use dquag_sources::{NetListenerSource, SourceRuntime};
use dquag_stream::{StreamEngine, VerdictStream};
use dquag_tabular::csv;
use dquag_telemetry::{Telemetry, TelemetryConfig};
use dquag_validate::{build_spec, Validator, ValidatorSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const KIND: DatasetKind = DatasetKind::HotelBooking;

fn fitted_validator() -> Box<dyn Validator> {
    let clean = KIND.generate_clean(400, 11);
    let config = DquagConfig::fast();
    let mut validator = build_spec(&ValidatorSpec::backend("deequ-auto"), &config).unwrap();
    validator.fit(&clean).expect("fitting succeeds");
    validator
}

fn telemetry() -> Arc<Telemetry> {
    TelemetryConfig {
        flight_recorder_capacity: 64,
        dump_on_error: false,
        ..TelemetryConfig::default()
    }
    .build()
    .expect("telemetry is enabled")
}

/// Engine + listener with an explicit [`ServingConfig`] and shared
/// telemetry, plus the optional dispatch-failure injection.
fn start_serving(
    serving: ServingConfig,
    inject_dispatch_failures: usize,
) -> (
    Arc<Telemetry>,
    StreamEngine,
    VerdictStream,
    SourceRuntime,
    SocketAddr,
) {
    let telemetry = telemetry();
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 64,
            ..StreamConfig::default()
        })
        .start(fitted_validator())
        .expect("engine starts");
    let config = SourceConfig {
        poll_interval: Duration::from_millis(10),
        serving,
        ..SourceConfig::default()
    };
    let mut source = NetListenerSource::from_config(&config, KIND.schema())
        .expect("loopback bind succeeds")
        .with_telemetry(Arc::clone(&telemetry));
    source.inject_dispatch_failures(inject_dispatch_failures);
    let addr = source.local_addr();
    let runtime = SourceRuntime::builder()
        .config(&config)
        .source(Box::new(source))
        .start(ingest)
        .expect("runtime starts");
    (telemetry, engine, verdicts, runtime, addr)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("loopback connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

fn wait_until(what: &str, mut condition: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !condition() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The listener's open-connection gauge (shared registry handle).
fn open_connections(telemetry: &Telemetry) -> f64 {
    telemetry
        .registry()
        .gauge(
            "dquag_source_open_connections",
            "Connections currently open on the network listener",
        )
        .get()
}

/// One request/response exchange on an already-open connection, reading
/// exactly `Content-Length` body bytes so the socket stays usable for the
/// next request (keep-alive).
fn http_exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &str,
) -> (String, String) {
    stream.write_all(request.as_bytes()).expect("request write");
    let mut head = String::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("header read");
        assert!(n > 0, "connection closed mid-response; head so far: {head}");
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let content_length = head
        .lines()
        .find(|line| line.to_ascii_lowercase().starts_with("content-length:"))
        .and_then(|line| line.split_once(':'))
        .and_then(|(_, value)| value.trim().parse::<usize>().ok())
        .expect("response has Content-Length");
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body read");
    (head, String::from_utf8(body).expect("UTF-8 body"))
}

fn post_ingest_keep_alive(body: &str) -> String {
    format!(
        "POST /ingest HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\nContent-Type: text/csv\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// One-shot request on its own connection, reading to EOF
/// (`Connection: close` semantics).
fn http_request(addr: SocketAddr, request: &str) -> String {
    let mut stream = connect(addr);
    stream.write_all(request.as_bytes()).expect("request write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response read");
    response
}

fn read_reply_line(stream: &mut TcpStream) -> String {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply read");
    line.trim_end().to_string()
}

#[test]
fn overflow_connections_get_fast_503_and_rejected_replies() {
    let (telemetry, engine, verdicts, runtime, addr) = start_serving(
        ServingConfig {
            workers: 2,
            max_connections: 2,
            ..ServingConfig::default()
        },
        0,
    );

    // Fill the cap with idle holders and wait until both are registered.
    let holders: Vec<TcpStream> = (0..2).map(|_| connect(addr)).collect();
    wait_until("holders to register", || {
        open_connections(&telemetry) >= 2.0
    });

    // Raw-protocol overflow: first line answered REJECTED, then close.
    let mut raw = connect(addr);
    raw.write_all(b"STATS\n").expect("write");
    let reply = read_reply_line(&mut raw);
    assert!(
        reply.starts_with("REJECTED"),
        "overflow raw reply: {reply:?}"
    );
    drop(raw);

    // HTTP overflow: a fast 503, not a hung or reset connection.
    let response = http_request(addr, "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
    assert!(response.contains("connection capacity"), "{response}");

    let rejects = telemetry
        .registry()
        .counter(
            "dquag_source_accept_rejects_total",
            "Connections refused because the listener was at max_connections",
        )
        .get();
    assert!(rejects >= 2, "both overflow accepts counted: {rejects}");
    let overflow_events = telemetry
        .recorder()
        .dump()
        .iter()
        .filter(|event| event.kind.label() == "accept_overflow")
        .count();
    assert!(overflow_events >= 2, "flight events: {overflow_events}");

    // Freeing a slot restores service for new connections.
    drop(holders);
    wait_until("holders to drain", || open_connections(&telemetry) < 1.0);
    let mut stream = connect(addr);
    stream.write_all(b"STATS\n").expect("write");
    let reply = read_reply_line(&mut stream);
    assert!(reply.starts_with("STATS "), "{reply}");
    drop(stream);

    runtime.shutdown().expect("runtime drains");
    drop(verdicts);
    engine.shutdown();
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_socket() {
    let (telemetry, engine, verdicts, runtime, addr) = start_serving(ServingConfig::default(), 0);

    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Three requests on one socket: two ingests and a stats read.
    for (i, batch) in [KIND.generate_clean(30, 100), KIND.generate_clean(31, 101)]
        .iter()
        .enumerate()
    {
        let body = csv::to_csv_string(batch);
        let (head, body) = http_exchange(&mut stream, &mut reader, &post_ingest_keep_alive(&body));
        assert!(head.starts_with("HTTP/1.1 202"), "request {i}: {head}");
        assert!(head.contains("Connection: keep-alive"), "{head}");
        assert!(body.contains("\"status\": \"enqueued\""), "{body}");
    }
    let (head, body) = http_exchange(
        &mut stream,
        &mut reader,
        "GET /stats HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
    );
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("Connection: keep-alive"), "{head}");
    assert!(body.contains("\"submitted\""), "{body}");

    // Reuse is visible to operators.
    let reuse = telemetry
        .registry()
        .counter(
            "dquag_source_keepalive_reuse_total",
            "HTTP requests served on an already-used kept-alive connection",
        )
        .get();
    assert!(reuse >= 2, "second and third requests were reuse: {reuse}");

    // A request that does not ask for keep-alive is answered
    // `Connection: close`, and the socket then reads to EOF — exactly the
    // pre-keep-alive contract.
    stream
        .write_all(b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("request write");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read to EOF");
    assert!(rest.starts_with("HTTP/1.1 200"), "{rest}");
    assert!(rest.contains("Connection: close"), "{rest}");
    drop(stream);

    runtime.shutdown().expect("runtime drains");
    let items: Vec<_> = verdicts.collect();
    assert_eq!(items.len(), 2, "both kept-alive ingests reached the engine");
    engine.shutdown();
}

#[test]
fn request_cap_and_idle_timeout_recycle_connections() {
    let (_telemetry, engine, verdicts, runtime, addr) = start_serving(
        ServingConfig {
            max_requests_per_connection: 2,
            idle_timeout: Duration::from_millis(300),
            ..ServingConfig::default()
        },
        0,
    );

    // Request cap: the second response on a kept-alive socket announces
    // the close even though the client asked for keep-alive.
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let request = "GET /stats HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n";
    let (head, _) = http_exchange(&mut stream, &mut reader, request);
    assert!(head.contains("Connection: keep-alive"), "{head}");
    let (head, _) = http_exchange(&mut stream, &mut reader, request);
    assert!(
        head.contains("Connection: close"),
        "request cap reached: {head}"
    );
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("EOF after the cap");
    assert!(rest.is_empty(), "{rest}");
    drop(stream);

    // Idle timeout: a silent connection is closed by the server.
    let mut idle = connect(addr);
    let mut buffer = [0u8; 16];
    let started = Instant::now();
    let n = idle
        .read(&mut buffer)
        .expect("server closes the idle socket");
    assert_eq!(n, 0, "EOF, not data");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "closed by the idle timeout, not the test timeout"
    );

    runtime.shutdown().expect("runtime drains");
    drop(verdicts);
    engine.shutdown();
}

#[test]
fn malformed_content_length_is_a_400_naming_the_value() {
    let (_telemetry, engine, verdicts, runtime, addr) = start_serving(ServingConfig::default(), 0);

    // Unparsable values were previously swallowed into "no header" and
    // answered 411; they are client errors and must say what was wrong.
    for bad in ["abc", "-1", "1e3"] {
        let response = http_request(
            addr,
            &format!(
                "POST /ingest HTTP/1.1\r\nHost: t\r\nContent-Type: text/csv\r\nContent-Length: {bad}\r\n\r\n"
            ),
        );
        assert!(response.starts_with("HTTP/1.1 400"), "{bad}: {response}");
        assert!(
            response.contains(&format!("invalid Content-Length `{bad}`")),
            "{bad}: {response}"
        );
    }

    // Conflicting duplicates: refuse instead of last-one-wins.
    let response = http_request(
        addr,
        "POST /ingest HTTP/1.1\r\nHost: t\r\nContent-Length: 10\r\nContent-Length: 20\r\n\r\n",
    );
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(
        response.contains("conflicting Content-Length"),
        "{response}"
    );

    // A genuinely absent header is still 411.
    let response = http_request(
        addr,
        "POST /ingest HTTP/1.1\r\nHost: t\r\nContent-Type: text/csv\r\n\r\n",
    );
    assert!(response.starts_with("HTTP/1.1 411"), "{response}");

    runtime.shutdown().expect("runtime drains");
    let items: Vec<_> = verdicts.collect();
    assert!(items.is_empty(), "nothing reached the engine");
    engine.shutdown();
}

#[test]
fn deeply_nested_ndjson_gets_an_error_reply_and_serving_continues() {
    // 100 000 `[` is 100 KB, far under the frame cap. Without a nesting
    // limit the JSON parser recursed once per bracket and overflowed the
    // stack, aborting the whole process.
    let hostile = "[".repeat(100_000);
    let valid = csv::to_csv_string(&KIND.generate_clean(20, 102));
    let (_telemetry, engine, verdicts, runtime, addr) = start_serving(ServingConfig::default(), 0);

    // HTTP: a 400 naming the parse error, and the kept-alive socket still
    // serves the next request.
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let request = format!(
        "POST /ingest HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\nContent-Type: application/x-ndjson\r\nContent-Length: {}\r\n\r\n{hostile}",
        hostile.len()
    );
    let (head, body) = http_exchange(&mut stream, &mut reader, &request);
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    assert!(body.contains("recursion limit exceeded"), "{body}");
    let (head, _) = http_exchange(&mut stream, &mut reader, &post_ingest_keep_alive(&valid));
    assert!(head.starts_with("HTTP/1.1 202"), "{head}");
    drop(stream);

    // Raw protocol: an ERR line, then the same connection takes a batch.
    let mut raw = connect(addr);
    raw.write_all(format!("BATCH ndjson {}\n{hostile}", hostile.len()).as_bytes())
        .expect("write");
    let reply = read_reply_line(&mut raw);
    assert!(reply.starts_with("ERR "), "{reply}");
    assert!(reply.contains("recursion limit exceeded"), "{reply}");
    raw.write_all(format!("BATCH csv {}\n{valid}", valid.len()).as_bytes())
        .expect("write");
    let reply = read_reply_line(&mut raw);
    assert!(reply.starts_with("ACK "), "{reply}");
    drop(raw);

    runtime.shutdown().expect("runtime drains");
    let items: Vec<_> = verdicts.collect();
    assert_eq!(
        items.len(),
        2,
        "only the well-formed batches reached the engine"
    );
    engine.shutdown();
}

#[test]
fn raw_frames_shaped_like_http_versions_stay_raw() {
    let (_telemetry, engine, verdicts, runtime, addr) = start_serving(ServingConfig::default(), 0);

    // Ends in HTTP/1.1 but is not METHOD SP PATH SP VERSION: the old
    // suffix heuristic sent an HTTP response to a raw-protocol peer.
    let mut stream = connect(addr);
    stream.write_all(b"BATCH csv HTTP/1.1\n").expect("write");
    let reply = read_reply_line(&mut stream);
    assert!(reply.starts_with("ERR "), "raw ERR expected: {reply}");
    assert!(
        !reply.starts_with("HTTP/"),
        "must not be an HTTP response: {reply}"
    );
    drop(stream);

    runtime.shutdown().expect("runtime drains");
    drop(verdicts);
    engine.shutdown();
}

#[test]
fn dispatch_failure_is_logged_counted_and_survived() {
    // One injected hand-off failure: the old accept loop panicked the
    // whole listener on spawn failure; now the socket is dropped, the
    // failure counted, and the very next accept is served.
    let (telemetry, engine, verdicts, runtime, addr) = start_serving(ServingConfig::default(), 1);

    let mut doomed = connect(addr);
    doomed.write_all(b"STATS\n").expect("write");
    let mut reply = String::new();
    // The socket was closed without a reply (EOF) — or reset; either way,
    // no hang and no panic.
    let _ = doomed.read_to_string(&mut reply);
    assert!(reply.is_empty(), "dropped without replying: {reply:?}");
    drop(doomed);

    let errors = telemetry
        .registry()
        .counter(
            "dquag_source_accept_errors_total",
            "Accepted sockets dropped because handing them to a worker failed",
        )
        .get();
    assert_eq!(errors, 1);

    // The listener is still serving.
    let mut stream = connect(addr);
    stream.write_all(b"STATS\n").expect("write");
    let reply = read_reply_line(&mut stream);
    assert!(reply.starts_with("STATS "), "{reply}");
    drop(stream);

    runtime.shutdown().expect("runtime drains");
    drop(verdicts);
    engine.shutdown();
}
