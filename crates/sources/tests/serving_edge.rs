//! Serving-edge behaviour tests: bounded accepts answer overflow with a
//! fast `503`, HTTP keep-alive serves sequential requests on one socket
//! (with request cap and idle timeout), malformed `Content-Length`
//! headers are `400`s that name the problem, a first line that is no
//! request line or a head that is not UTF-8 is a `400`, an oversized
//! request head is a `431`, a request carrying `Transfer-Encoding` is a
//! `501` (and one hiding it behind whitespace before the colon a `400`),
//! and a failed worker hand-off is survived instead of panicking the
//! listener.

mod common;

use common::{get, post, request_once, Client};
use dquag_core::{DquagConfig, ServingConfig, SourceConfig, StreamConfig};
use dquag_datagen::DatasetKind;
use dquag_sources::{NetListenerSource, SourceRuntime};
use dquag_stream::{StreamEngine, VerdictStream};
use dquag_tabular::csv;
use dquag_telemetry::{Telemetry, TelemetryConfig};
use dquag_validate::{build_spec, Validator, ValidatorSpec};
use std::io::{Read, Write};
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

    // Overflow: a fast 503, not a hung or reset connection, whatever the
    // first line says.
    let response = request_once(addr, "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
    assert!(response.contains("connection capacity"), "{response}");
    let response = request_once(addr, "STATS\n");
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");

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
    let reply = Client::connect(addr).exchange(&get("/stats"));
    assert_eq!(reply.status, 200, "{reply:?}");

    runtime.shutdown().expect("runtime drains");
    drop(verdicts);
    engine.shutdown();
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_socket() {
    let (telemetry, engine, verdicts, runtime, addr) = start_serving(ServingConfig::default(), 0);

    let mut client = Client::connect(addr);

    // Three requests on one socket: two ingests and a stats read.
    for (i, batch) in [KIND.generate_clean(30, 100), KIND.generate_clean(31, 101)]
        .iter()
        .enumerate()
    {
        let reply = client.exchange(&post("text/csv", &csv::to_csv_string(batch)));
        assert!(
            reply.head.starts_with("HTTP/1.1 202"),
            "request {i}: {reply:?}"
        );
        assert!(reply.keeps_alive(), "{reply:?}");
        assert!(reply.body.contains("\"status\": \"enqueued\""), "{reply:?}");
    }
    let reply = client.exchange(&get("/stats"));
    assert!(reply.head.starts_with("HTTP/1.1 200"), "{reply:?}");
    assert!(reply.keeps_alive(), "{reply:?}");
    assert!(reply.body.contains("\"submitted\""), "{reply:?}");

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
    client.send(b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
    let rest = client.rest();
    assert!(rest.starts_with("HTTP/1.1 200"), "{rest}");
    assert!(rest.contains("Connection: close"), "{rest}");
    drop(client);

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
    let mut client = Client::connect(addr);
    let reply = client.exchange(&get("/stats"));
    assert!(reply.keeps_alive(), "{reply:?}");
    let reply = client.exchange(&get("/stats"));
    assert!(
        reply.head.contains("Connection: close"),
        "request cap reached: {reply:?}"
    );
    assert_eq!(client.rest(), "", "EOF after the cap");
    drop(client);

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

    // Request deadline: a request must arrive whole within the idle
    // timeout of its first byte, however steadily its bytes drip in. A
    // dripped head, and a dripped body behind a complete head, each get
    // the 408 and the close instead of holding the slot.
    let post_head = "POST /ingest HTTP/1.1\r\nHost: t\r\nContent-Type: text/csv\r\n\
                     Content-Length: 4096\r\n\r\n";
    for (what, whole, dripped) in [
        (
            "head",
            "",
            format!("GET /stats HTTP/1.1\r\nX-Drip: {}\r\n", "a".repeat(200)),
        ),
        ("body", post_head, "b".repeat(4096)),
    ] {
        let mut peer = connect(addr);
        peer.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        peer.write_all(whole.as_bytes()).expect("whole part");
        let started = Instant::now();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let dripper = {
            let mut writer = peer.try_clone().expect("clone");
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for byte in dripped.bytes() {
                    if stop.load(std::sync::atomic::Ordering::Relaxed)
                        || writer.write_all(&[byte]).is_err()
                    {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
        };
        let mut reply = Vec::new();
        let read = peer.read_to_end(&mut reply);
        let elapsed = started.elapsed();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        dripper.join().expect("dripper exits");
        let reply = String::from_utf8_lossy(&reply);
        assert!(
            read.is_ok(),
            "dripped {what}: no close after {elapsed:?} ({read:?}), reply so far {reply:?}"
        );
        assert!(reply.starts_with("HTTP/1.1 408"), "dripped {what}: {reply}");
        assert!(
            reply.contains("Connection: close"),
            "dripped {what}: {reply}"
        );
        assert!(
            elapsed < Duration::from_secs(2),
            "dripped {what}: answered after {elapsed:?}"
        );
    }

    runtime.shutdown().expect("runtime drains");
    drop(verdicts);
    engine.shutdown();
}

#[test]
fn malformed_content_length_is_a_400_naming_the_value() {
    let (_telemetry, engine, verdicts, runtime, addr) = start_serving(ServingConfig::default(), 0);

    // Unparsable values were previously swallowed into "no header" and
    // answered 411; they are client errors and must say what was wrong.
    for bad in ["abc", "-1", "1e3", "+42"] {
        let response = request_once(
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
    let response = request_once(
        addr,
        "POST /ingest HTTP/1.1\r\nHost: t\r\nContent-Length: 10\r\nContent-Length: 20\r\n\r\n",
    );
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(
        response.contains("conflicting Content-Length"),
        "{response}"
    );

    // A genuinely absent header is still 411.
    let response = request_once(
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

    // A 400 naming the parse error, and the kept-alive socket still
    // serves the next request.
    let mut client = Client::connect(addr);
    let reply = client.exchange(&post("application/x-ndjson", &hostile));
    assert_eq!(reply.status, 400, "{reply:?}");
    assert!(reply.body.contains("recursion limit exceeded"), "{reply:?}");
    let reply = client.exchange(&post("text/csv", &valid));
    assert_eq!(reply.status, 202, "{reply:?}");
    drop(client);

    runtime.shutdown().expect("runtime drains");
    let items: Vec<_> = verdicts.collect();
    assert_eq!(
        items.len(),
        1,
        "only the well-formed batch reached the engine"
    );
    engine.shutdown();
}

#[test]
fn lines_that_are_not_request_lines_get_a_400_and_close() {
    let (_telemetry, engine, verdicts, runtime, addr) = start_serving(ServingConfig::default(), 0);

    // Commands of a line protocol, a line that merely ends in HTTP/1.1, and
    // a stray non-UTF-8 byte in the request line or a header make no request
    // head: a 400 that says what was wrong, then the connection closes.
    const NOT_A_REQUEST_LINE: &str = "request line";
    const NOT_UTF8: &str = "request head is not valid UTF-8";
    for (head, error) in [
        (&b"STATS\n"[..], NOT_A_REQUEST_LINE),
        (b"BATCH csv 10\n", NOT_A_REQUEST_LINE),
        (b"BATCH csv HTTP/1.1\n", NOT_A_REQUEST_LINE),
        (b"get /stats HTTP/1.1\r\n", NOT_A_REQUEST_LINE),
        (b"GET /st\xffats HTTP/1.1\r\nHost: t\r\n\r\n", NOT_UTF8),
        (
            b"GET /stats HTTP/1.1\r\nHost: t\r\nX-Note: caf\xe9\r\n\r\n",
            NOT_UTF8,
        ),
    ] {
        let shown = String::from_utf8_lossy(head);
        let mut client = Client::connect(addr);
        client.send(head);
        let reply = client.response();
        assert_eq!(reply.status, 400, "{shown:?}: {reply:?}");
        assert!(reply.body.contains(error), "{shown:?}: {reply:?}");
        assert!(
            reply.head.contains("Connection: close"),
            "{shown:?}: {reply:?}"
        );
        assert_eq!(client.rest(), "", "{shown:?}: EOF after the reply");
    }

    // The same holds after a kept-alive request.
    for (head, error) in [
        (&b"QUIT\n"[..], NOT_A_REQUEST_LINE),
        (b"GET /\xc3 HTTP/1.1\r\n\r\n", NOT_UTF8),
    ] {
        let shown = String::from_utf8_lossy(head);
        let mut client = Client::connect(addr);
        assert_eq!(client.exchange(&get("/stats")).status, 200);
        client.send(head);
        let reply = client.response();
        assert_eq!(reply.status, 400, "{shown:?}: {reply:?}");
        assert!(reply.body.contains(error), "{shown:?}: {reply:?}");
        assert_eq!(client.rest(), "", "{shown:?}: EOF after the reply");
    }

    runtime.shutdown().expect("runtime drains");
    let items: Vec<_> = verdicts.collect();
    assert!(items.is_empty(), "nothing reached the engine");
    engine.shutdown();
}

#[test]
fn request_heads_past_64_kib_get_a_431_and_close() {
    let (_telemetry, engine, verdicts, runtime, addr) = start_serving(ServingConfig::default(), 0);

    // Repeated short headers: each line is small, but the head is not.
    // A listener that only bounds one line at a time never answers.
    let mut client = Client::connect(addr);
    client
        .stream()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut head = b"POST /ingest HTTP/1.1\r\nHost: t\r\n".to_vec();
    while head.len() <= 80 * 1024 {
        head.extend_from_slice(b"Content-Length: 1\r\n");
    }
    client.send(&head);
    let reply = client.response();
    assert_eq!(reply.status, 431, "{reply:?}");
    assert!(reply.body.contains("65536-byte limit"), "{reply:?}");
    assert!(reply.head.contains("Connection: close"), "{reply:?}");

    // One endless request line gets the same answer.
    let mut client = Client::connect(addr);
    client.send(format!("GET /{} HTTP/1.1", "a".repeat(70 * 1024)).as_bytes());
    assert_eq!(client.response().status, 431);

    // A head just under the budget is served.
    let mut request = b"GET /stats HTTP/1.1\r\n".to_vec();
    while request.len() < 60 * 1024 {
        request.extend_from_slice(b"X-Filler: 0123456789\r\n");
    }
    request.extend_from_slice(b"\r\n");
    let mut client = Client::connect(addr);
    client.send(&request);
    assert_eq!(client.response().status, 200);

    runtime.shutdown().expect("runtime drains");
    drop(verdicts);
    engine.shutdown();
}

#[test]
fn transfer_encoding_gets_a_501_and_close() {
    let (_telemetry, engine, verdicts, runtime, addr) = start_serving(ServingConfig::default(), 0);

    // A kept-alive ingest framed both ways, with a stats request pipelined
    // behind it. Framing it by Content-Length and keeping the socket open
    // would let the two framings disagree about where the next request
    // starts (RFC 9112 §6.1).
    let batch = csv::to_csv_string(&KIND.generate_clean(20, 103));
    let chunked = format!("{:x}\r\n{batch}\r\n0\r\n\r\n", batch.len());
    let mut client = Client::connect(addr);
    client.send(
        format!(
            "POST /ingest HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\
             Content-Type: text/csv\r\nTransfer-Encoding: chunked\r\n\
             Content-Length: {}\r\n\r\n{chunked}{}",
            chunked.len(),
            get("/stats")
        )
        .as_bytes(),
    );
    let reply = client.response();
    assert_eq!(reply.status, 501, "{reply:?}");
    assert!(reply.body.contains("Transfer-Encoding"), "{reply:?}");
    assert!(reply.head.contains("Connection: close"), "{reply:?}");
    assert_eq!(
        client.rest(),
        "",
        "EOF: the pipelined request is not served"
    );

    // Whitespace before the colon does not hide the header: the request is
    // a 400, and nothing behind it is served either.
    let mut client = Client::connect(addr);
    client.send(
        format!(
            "POST /ingest HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\
             Content-Type: text/csv\r\nTransfer-Encoding : chunked\r\n\
             Content-Length: {}\r\n\r\n{chunked}{}",
            chunked.len(),
            get("/stats")
        )
        .as_bytes(),
    );
    let reply = client.response();
    assert_eq!(reply.status, 400, "{reply:?}");
    assert!(reply.body.contains("header field name"), "{reply:?}");
    assert_eq!(
        client.rest(),
        "",
        "EOF: the pipelined request is not served"
    );

    // Without a Content-Length the answer is the same 501, not a 411.
    let response = request_once(
        addr,
        &format!("POST /ingest HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n{chunked}"),
    );
    assert!(response.starts_with("HTTP/1.1 501"), "{response}");

    runtime.shutdown().expect("runtime drains");
    let items: Vec<_> = verdicts.collect();
    assert!(items.is_empty(), "nothing reached the engine");
    engine.shutdown();
}

#[test]
fn dispatch_failure_is_logged_counted_and_survived() {
    // One injected hand-off failure: the old accept loop panicked the
    // whole listener on spawn failure; now the socket is dropped, the
    // failure counted, and the very next accept is served.
    let (telemetry, engine, verdicts, runtime, addr) = start_serving(ServingConfig::default(), 1);

    let mut doomed = connect(addr);
    doomed.write_all(get("/stats").as_bytes()).expect("write");
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
    let reply = Client::connect(addr).exchange(&get("/stats"));
    assert_eq!(reply.status, 200, "{reply:?}");

    runtime.shutdown().expect("runtime drains");
    drop(verdicts);
    engine.shutdown();
}
