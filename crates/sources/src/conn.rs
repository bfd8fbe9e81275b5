//! One multiplexed connection: a nonblocking HTTP/1.1 state machine the
//! worker pool drives off readiness.
//!
//! The old listener parked one thread per socket in blocking reads; here a
//! [`Conn`] owns buffered input/output and a [`State`], and every
//! [`drive`] call makes whatever progress the socket allows — read what's
//! there, advance the protocol over complete requests, flush what's queued
//! — then returns to the worker's poll loop. A request carrying
//! `Connection: keep-alive` is answered in kind and the connection returns
//! to [`State::RequestLine`] for the next request, up to the configured
//! per-connection request cap. Requests without the header are answered
//! `Connection: close`, so clients that read to EOF see one exchange per
//! socket.
//!
//! Every line a connection sends must belong to an HTTP request: a first
//! line without the `METHOD SP PATH SP VERSION` shape, a head line that is
//! not UTF-8, or a header name with whitespace before its colon is
//! answered `400 Bad Request`; a request line plus headers longer than
//! [`MAX_HEAD_BYTES`] is answered `431 Request Header Fields Too Large`; a
//! request carrying `Transfer-Encoding` is answered `501 Not Implemented`,
//! since bodies are framed by `Content-Length` only. Each then closes.
//!
//! Two clocks bound how long a peer may hold a connection. Between
//! requests, a connection with no bytes in either direction for the
//! configured idle timeout is dropped. Once a request's first byte has
//! arrived, further reads no longer restart that clock: the request must
//! arrive whole, head and body, within the idle timeout of its first byte,
//! or it is answered `408 Request Timeout` and closed, so a peer dripping
//! one byte at a time cannot hold its slot forever.
//!
//! Closes are graceful: the reply is flushed, the write side is shut down
//! (FIN), and the connection lingers briefly draining the peer's remaining
//! bytes so a close never turns into a RST that destroys a reply in
//! flight — the difference between an overflow client *seeing* its 503 and
//! seeing a reset.
//!
//! [`drive`]: Conn::drive

use crate::decode::{decode_batch, WireFormat};
use crate::source::{SourceError, SourceSink};
use dquag_stream::SubmitOutcome;
use dquag_tabular::{DataFrame, Schema};
use dquag_telemetry::{Counter, Gauge, Stage, Telemetry};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `Content-Type` of `GET /stats` (and every JSON error body).
const CONTENT_TYPE_JSON: &str = "application/json";
/// `Content-Type` of `GET /metrics` — the Prometheus text exposition
/// format version clients content-negotiate on.
pub(crate) const CONTENT_TYPE_PROMETHEUS: &str = "text/plain; version=0.0.4";

/// Budget for one request's head: the request line plus every header line.
/// A peer streaming an endless line or endless headers is answered `431`
/// and closed instead of buffering unboundedly.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// How long an over-capacity connection may wait for its first line before
/// being dropped, and how long a rejected one lingers for the peer to read
/// its refusal.
const REJECT_LINGER: Duration = Duration::from_secs(2);

/// After the write side is shut down, how long to keep draining the peer
/// before fully closing.
const CLOSE_LINGER: Duration = Duration::from_secs(1);

/// Bytes read from one socket per [`Conn::drive`] call, so a firehose peer
/// cannot starve the other connections on its worker.
const READ_BUDGET_CHUNKS: usize = 16;

/// Telemetry handles the listener resolves once at start.
pub(crate) struct NetMetrics {
    pub(crate) telemetry: Arc<Telemetry>,
    pub(crate) connections: Arc<Counter>,
    pub(crate) decode_errors: Arc<Counter>,
    pub(crate) accept_rejects: Arc<Counter>,
    pub(crate) accept_errors: Arc<Counter>,
    pub(crate) keepalive_reuse: Arc<Counter>,
    pub(crate) open_connections: Arc<Gauge>,
}

impl NetMetrics {
    pub(crate) fn new(telemetry: Arc<Telemetry>) -> Self {
        let r = telemetry.registry();
        Self {
            connections: r.counter(
                "dquag_source_connections_total",
                "TCP connections accepted by the network listener",
            ),
            decode_errors: r.counter(
                "dquag_source_decode_errors_total",
                "Payloads that failed wire-format decoding",
            ),
            accept_rejects: r.counter(
                "dquag_source_accept_rejects_total",
                "Connections refused because the listener was at max_connections",
            ),
            accept_errors: r.counter(
                "dquag_source_accept_errors_total",
                "Accepted sockets dropped because handing them to a worker failed",
            ),
            keepalive_reuse: r.counter(
                "dquag_source_keepalive_reuse_total",
                "HTTP requests served on an already-used kept-alive connection",
            ),
            open_connections: r.gauge(
                "dquag_source_open_connections",
                "Connections currently open on the network listener",
            ),
            telemetry,
        }
    }
}

/// Everything the per-connection state machines share.
pub(crate) struct ConnShared {
    pub(crate) schema: Schema,
    pub(crate) max_frame_bytes: usize,
    pub(crate) spec: Option<dquag_core::ValidatorSpec>,
    pub(crate) serving: dquag_core::ServingConfig,
    pub(crate) sink: SourceSink,
    pub(crate) metrics: Option<NetMetrics>,
}

impl ConnShared {
    /// The `GET /stats` payload: the live [`dquag_stream::StreamStats`]
    /// object, extended with an `active_spec` key naming the validator tree
    /// when the listener knows it. Extra keys are invisible to
    /// `StreamStats`-shaped readers, so pre-spec monitoring keeps parsing.
    pub(crate) fn stats_json(&self) -> String {
        let mut value = serde::Serialize::to_value(&self.sink.stats());
        if let (serde::Value::Object(map), Some(spec)) = (&mut value, &self.spec) {
            map.insert("active_spec".to_string(), serde::Serialize::to_value(spec));
        }
        serde_json::to_string(&value).expect("stats serialisation is infallible")
    }

    /// Decode one payload, timing the `decode` stage and counting failures
    /// when telemetry is attached.
    pub(crate) fn decode_observed(
        &self,
        format: WireFormat,
        payload: &[u8],
    ) -> Result<DataFrame, SourceError> {
        let started = Instant::now();
        let decoded = decode_batch(format, payload, &self.schema);
        if let Some(metrics) = &self.metrics {
            metrics
                .telemetry
                .record_stage(Stage::Decode, started.elapsed());
            if decoded.is_err() {
                metrics.decode_errors.inc();
            }
        }
        decoded
    }

    /// The Prometheus payload, or `None` when no telemetry is attached.
    pub(crate) fn prometheus(&self) -> Option<String> {
        self.metrics
            .as_ref()
            .map(|metrics| metrics.telemetry.prometheus())
    }

    /// The `GET /drift` payload: the ranked per-column drift
    /// scoreboard as JSON, or `None` when no telemetry is attached or its
    /// data layer is off.
    pub(crate) fn drift_json(&self) -> Option<String> {
        self.metrics
            .as_ref()
            .and_then(|metrics| metrics.telemetry.drift_scoreboard())
            .map(|board| board.to_json_string())
    }
}

/// Where the connection is in its protocol.
enum State {
    /// Waiting for a request line.
    RequestLine,
    /// An HTTP request line was read; accumulating headers.
    Headers {
        method: String,
        path: String,
        content_lengths: Vec<String>,
        content_type: String,
        client_keep: bool,
    },
    /// A `POST /ingest` with a valid `Content-Length`; waiting for the body.
    Body {
        len: usize,
        content_type: String,
        keep: bool,
    },
}

/// One nonblocking connection owned by a pool worker.
pub(crate) struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    state: State,
    created: Instant,
    last_activity: Instant,
    /// When the first byte of the request being read arrived; `None`
    /// between requests.
    request_started: Option<Instant>,
    half_closed_at: Instant,
    /// Completed HTTP requests on this connection (keep-alive reuse).
    http_requests: usize,
    /// Bytes of the current request's head taken so far, against
    /// [`MAX_HEAD_BYTES`].
    head_bytes: usize,
    /// Accepted over capacity: answer the first line with a refusal, close.
    reject: bool,
    eof: bool,
    closing: bool,
    half_closed: bool,
    dead: bool,
}

impl Conn {
    /// A connection the pool will serve normally.
    pub(crate) fn new(stream: TcpStream) -> Self {
        Self::build(stream, false)
    }

    /// An over-capacity connection: its first line, whatever it says, is
    /// answered with a fast `503` refusal, then the socket closes.
    pub(crate) fn reject(stream: TcpStream) -> Self {
        Self::build(stream, true)
    }

    fn build(stream: TcpStream, reject: bool) -> Self {
        let now = Instant::now();
        Self {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            state: State::RequestLine,
            created: now,
            last_activity: now,
            request_started: None,
            half_closed_at: now,
            http_requests: 0,
            head_bytes: 0,
            reject,
            eof: false,
            closing: false,
            half_closed: false,
            dead: false,
        }
    }

    /// The socket, for readiness registration.
    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Whether reply bytes are queued (the poll set should watch POLLOUT).
    pub(crate) fn wants_write(&self) -> bool {
        !self.outbuf.is_empty()
    }

    /// Whether the connection is finished and should be dropped.
    pub(crate) fn is_dead(&self) -> bool {
        self.dead
    }

    /// Whether this is an over-capacity refusal connection (not counted
    /// against the open-connection gauge).
    pub(crate) fn is_reject(&self) -> bool {
        self.reject
    }

    /// Make all progress the socket currently allows: read, advance the
    /// protocol, then settle the deadlines, the reply and the close.
    pub(crate) fn drive(&mut self, shared: &ConnShared) {
        if self.dead {
            return;
        }
        self.read_available();
        if self.dead {
            return;
        }
        if self.half_closed {
            // Only draining the peer now; its bytes have nowhere to go.
            self.inbuf.clear();
        } else {
            self.advance(shared);
        }
        self.settle(shared);
    }

    /// The deadline sweep for a connection with no I/O readiness this
    /// tick: the request deadline, idle timeout, refusal linger and close
    /// linger still apply.
    pub(crate) fn tick(&mut self, shared: &ConnShared) {
        if !self.dead {
            self.settle(shared);
        }
    }

    /// Answer an overdue request, flush, and run the close/linger/idle
    /// bookkeeping.
    fn settle(&mut self, shared: &ConnShared) {
        let timeout = shared.serving.idle_timeout;
        if !self.reject
            && !self.closing
            && self.request_started.is_some_and(|t| t.elapsed() > timeout)
        {
            self.push_http(
                "408 Request Timeout",
                CONTENT_TYPE_JSON,
                "{\"error\": \"request not received whole within the idle timeout of its first byte\"}",
                false,
            );
            self.finish_http(false);
        }
        self.flush();
        if self.eof && !self.half_closed {
            self.closing = true;
        }
        if self.closing && !self.half_closed && !self.dead && self.outbuf.is_empty() {
            // Reply delivered: send FIN but keep reading, so a peer that is
            // still mid-request gets our bytes instead of a reset.
            let _ = self.stream.shutdown(std::net::Shutdown::Write);
            self.half_closed = true;
            self.half_closed_at = Instant::now();
        }
        if self.half_closed && (self.eof || self.half_closed_at.elapsed() > CLOSE_LINGER) {
            self.dead = true;
        }
        if self.expired(shared) {
            self.dead = true;
        }
    }

    /// Blocking best-effort flush of any queued reply, for shutdown: the
    /// worker is exiting, so an engine-closed `503` must leave now or never.
    pub(crate) fn final_flush(&mut self) {
        if self.dead || self.outbuf.is_empty() {
            return;
        }
        self.stream.set_nonblocking(false).ok();
        self.stream
            .set_write_timeout(Some(Duration::from_millis(250)))
            .ok();
        let _ = self.stream.write_all(&self.outbuf);
        self.outbuf.clear();
    }

    fn expired(&self, shared: &ConnShared) -> bool {
        if self.reject {
            self.created.elapsed() > REJECT_LINGER
        } else {
            self.last_activity.elapsed() > shared.serving.idle_timeout
        }
    }

    fn read_available(&mut self) {
        let mut chunk = [0u8; 4096];
        for _ in 0..READ_BUDGET_CHUNKS {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                    self.request_started.get_or_insert(self.last_activity);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
    }

    fn flush(&mut self) {
        while !self.outbuf.is_empty() && !self.dead {
            match self.stream.write(&self.outbuf) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.outbuf.drain(..n);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
        }
    }

    /// Process every complete request sitting in `inbuf`.
    fn advance(&mut self, shared: &ConnShared) {
        loop {
            if self.dead || self.closing {
                return;
            }
            match std::mem::replace(&mut self.state, State::RequestLine) {
                State::RequestLine => {
                    if self.reject {
                        // Whatever the first line says, the answer is the
                        // refusal.
                        if self.inbuf.contains(&b'\n') || self.inbuf.len() > MAX_HEAD_BYTES {
                            self.refuse();
                        }
                        return;
                    }
                    let Some(line) = self.take_line() else {
                        return;
                    };
                    if line.is_empty() {
                        // RFC 9112 §2.2: ignore a blank line before a
                        // request line (it still counts against the head).
                        continue;
                    }
                    let Some((method, path)) = parse_http_request_line(&line) else {
                        self.push_http(
                            "400 Bad Request",
                            CONTENT_TYPE_JSON,
                            "{\"error\": \"expected an HTTP request line\"}",
                            false,
                        );
                        return self.finish_http(false);
                    };
                    if self.http_requests >= 1 {
                        if let Some(metrics) = &shared.metrics {
                            metrics.keepalive_reuse.inc();
                        }
                    }
                    self.state = State::Headers {
                        method,
                        path,
                        content_lengths: Vec::new(),
                        content_type: String::new(),
                        client_keep: false,
                    };
                }
                State::Headers {
                    method,
                    path,
                    mut content_lengths,
                    mut content_type,
                    mut client_keep,
                } => loop {
                    let Some(line) = self.take_line() else {
                        self.state = State::Headers {
                            method,
                            path,
                            content_lengths,
                            content_type,
                            client_keep,
                        };
                        return;
                    };
                    if line.is_empty() {
                        self.http_request(
                            shared,
                            &method,
                            &path,
                            &content_lengths,
                            content_type,
                            client_keep,
                        );
                        break;
                    }
                    if let Some((name, value)) = line.split_once(':') {
                        // Bodies are framed by Content-Length only, so
                        // where a request carrying Transfer-Encoding ends is
                        // unknowable (RFC 9112 §6.1); and a field name is a
                        // token (§5.1), so whitespace before the colon would
                        // slip `Transfer-Encoding : chunked` past that
                        // check. Refuse either and close.
                        let refusal = if name.contains([' ', '\t']) {
                            Some((
                                "400 Bad Request",
                                "{\"error\": \"whitespace in a header field name\"}",
                            ))
                        } else if name.eq_ignore_ascii_case("transfer-encoding") {
                            Some((
                                "501 Not Implemented",
                                "{\"error\": \"Transfer-Encoding is not supported; send Content-Length\"}",
                            ))
                        } else {
                            None
                        };
                        if let Some((status, body)) = refusal {
                            self.push_http(status, CONTENT_TYPE_JSON, body, false);
                            self.finish_http(false);
                            break;
                        }
                        let value = value.trim();
                        if name.eq_ignore_ascii_case("content-length") {
                            content_lengths.push(value.to_string());
                        } else if name.eq_ignore_ascii_case("content-type") {
                            content_type = value.to_string();
                        } else if name.eq_ignore_ascii_case("connection") {
                            client_keep = value.eq_ignore_ascii_case("keep-alive");
                        }
                    }
                },
                State::Body {
                    len,
                    content_type,
                    keep,
                } => {
                    if self.inbuf.len() < len {
                        self.state = State::Body {
                            len,
                            content_type,
                            keep,
                        };
                        return;
                    }
                    let format = WireFormat::from_content_type(&content_type);
                    let decoded = shared.decode_observed(format, &self.inbuf[..len]);
                    self.inbuf.drain(..len);
                    self.http_ingest(shared, decoded, keep);
                }
            }
        }
    }

    /// The next `\n`-terminated head line (CR stripped), or `None` when no
    /// full line is buffered yet or the connection is finished. Every line
    /// counts against the request's [`MAX_HEAD_BYTES`] budget, and so does a
    /// partial one; past it the request is answered `431`. A line that is
    /// not UTF-8 is answered `400`; both then close.
    fn take_line(&mut self) -> Option<String> {
        let Some(pos) = self.inbuf.iter().position(|&b| b == b'\n') else {
            if self.head_bytes + self.inbuf.len() > MAX_HEAD_BYTES {
                self.refuse_head();
            }
            return None;
        };
        self.head_bytes += pos + 1;
        if self.head_bytes > MAX_HEAD_BYTES {
            self.refuse_head();
            return None;
        }
        let mut line: Vec<u8> = self.inbuf.drain(..=pos).collect();
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        match String::from_utf8(line) {
            Ok(text) => Some(text),
            Err(_) => {
                self.push_http(
                    "400 Bad Request",
                    CONTENT_TYPE_JSON,
                    "{\"error\": \"request head is not valid UTF-8\"}",
                    false,
                );
                self.finish_http(false);
                None
            }
        }
    }

    /// Answer a request whose head outgrew [`MAX_HEAD_BYTES`], then close:
    /// where its headers end is unknowable.
    fn refuse_head(&mut self) {
        self.push_http(
            "431 Request Header Fields Too Large",
            CONTENT_TYPE_JSON,
            &format!("{{\"error\": \"request head exceeds the {MAX_HEAD_BYTES}-byte limit\"}}"),
            false,
        );
        self.finish_http(false);
    }

    /// Answer an over-capacity connection's first line, then close.
    fn refuse(&mut self) {
        self.push_http(
            "503 Service Unavailable",
            CONTENT_TYPE_JSON,
            "{\"error\": \"listener at connection capacity\"}",
            false,
        );
        self.closing = true;
    }

    /// Route one HTTP request whose headers are fully read.
    fn http_request(
        &mut self,
        shared: &ConnShared,
        method: &str,
        path: &str,
        content_lengths: &[String],
        content_type: String,
        client_keep: bool,
    ) {
        // Keep-alive is opt-in: the client must ask, and the request cap
        // must not be reached.
        let keep =
            client_keep && self.http_requests + 1 < shared.serving.max_requests_per_connection;
        match (method, path) {
            ("POST", "/ingest") => {
                let len = match parse_content_length(content_lengths) {
                    Ok(Some(len)) => len,
                    Ok(None) => {
                        self.push_http(
                            "411 Length Required",
                            CONTENT_TYPE_JSON,
                            "{\"error\": \"Content-Length is required\"}",
                            false,
                        );
                        return self.finish_http(false);
                    }
                    // Malformed or conflicting framing: the body boundary is
                    // unknowable, so answer 400 and close.
                    Err(message) => {
                        self.push_http(
                            "400 Bad Request",
                            CONTENT_TYPE_JSON,
                            &format!("{{\"error\": \"{message}\"}}"),
                            false,
                        );
                        return self.finish_http(false);
                    }
                };
                if len > shared.max_frame_bytes {
                    self.push_http(
                        "413 Payload Too Large",
                        CONTENT_TYPE_JSON,
                        &format!(
                            "{{\"error\": \"body of {len} bytes exceeds the {}-byte limit\"}}",
                            shared.max_frame_bytes
                        ),
                        false,
                    );
                    return self.finish_http(false);
                }
                self.state = State::Body {
                    len,
                    content_type,
                    keep,
                };
            }
            ("GET", "/stats") => {
                self.push_http("200 OK", CONTENT_TYPE_JSON, &shared.stats_json(), keep);
                self.finish_http(keep);
            }
            ("GET", "/metrics") => {
                match shared.prometheus() {
                    Some(text) => self.push_http("200 OK", CONTENT_TYPE_PROMETHEUS, &text, keep),
                    None => self.push_http(
                        "404 Not Found",
                        CONTENT_TYPE_JSON,
                        "{\"error\": \"telemetry not enabled\"}",
                        keep,
                    ),
                }
                self.finish_http(keep);
            }
            ("GET", "/drift") => {
                match shared.drift_json() {
                    Some(json) => self.push_http("200 OK", CONTENT_TYPE_JSON, &json, keep),
                    None => self.push_http(
                        "404 Not Found",
                        CONTENT_TYPE_JSON,
                        "{\"error\": \"data telemetry not enabled\"}",
                        keep,
                    ),
                }
                self.finish_http(keep);
            }
            _ => {
                self.push_http(
                    "404 Not Found",
                    CONTENT_TYPE_JSON,
                    "{\"error\": \"try POST /ingest, GET /stats, GET /metrics or GET /drift\"}",
                    keep,
                );
                self.finish_http(keep);
            }
        }
    }

    /// Deliver one decoded `POST /ingest` body, answering in HTTP.
    fn http_ingest(
        &mut self,
        shared: &ConnShared,
        decoded: Result<DataFrame, SourceError>,
        keep: bool,
    ) {
        match decoded {
            Ok(batch) if batch.is_empty() => {
                self.push_http(
                    "400 Bad Request",
                    CONTENT_TYPE_JSON,
                    "{\"error\": \"empty batch\"}",
                    keep,
                );
                self.finish_http(keep);
            }
            Ok(batch) => {
                let n_rows = batch.n_rows();
                match shared.sink.deliver(batch) {
                    Ok(SubmitOutcome::Enqueued(seq)) => {
                        self.push_http(
                            "202 Accepted",
                            CONTENT_TYPE_JSON,
                            &format!(
                                "{{\"status\": \"enqueued\", \"seq\": {seq}, \"rows\": {n_rows}}}"
                            ),
                            keep,
                        );
                        self.finish_http(keep);
                    }
                    Ok(other) => {
                        self.push_http(
                            "503 Service Unavailable",
                            CONTENT_TYPE_JSON,
                            &format!(
                                "{{\"status\": \"{}\"}}",
                                other.to_string().to_ascii_lowercase()
                            ),
                            keep,
                        );
                        self.finish_http(keep);
                    }
                    Err(_) => {
                        self.push_http(
                            "503 Service Unavailable",
                            CONTENT_TYPE_JSON,
                            "{\"error\": \"engine closed\"}",
                            false,
                        );
                        self.finish_http(false);
                    }
                }
            }
            Err(e) => {
                let message = one_line(&e.to_string()).replace('"', "'");
                self.push_http(
                    "400 Bad Request",
                    CONTENT_TYPE_JSON,
                    &format!("{{\"error\": \"{message}\"}}"),
                    keep,
                );
                self.finish_http(keep);
            }
        }
    }

    /// Book-keep one completed HTTP exchange: either rearm for the next
    /// request on the same socket or begin the graceful close.
    fn finish_http(&mut self, keep: bool) {
        self.http_requests += 1;
        self.head_bytes = 0;
        // Bytes already buffered belong to the next, pipelined request.
        self.request_started = (!self.inbuf.is_empty()).then(Instant::now);
        if keep {
            self.state = State::RequestLine;
        } else {
            self.closing = true;
        }
    }

    fn push_http(&mut self, status: &str, content_type: &str, body: &str, keep: bool) {
        let connection = if keep { "keep-alive" } else { "close" };
        let response = format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
            body.len()
        );
        self.outbuf.extend_from_slice(response.as_bytes());
    }
}

/// Interpret the `Content-Length` headers of one request: `Ok(Some(len))`
/// for exactly one well-formed length (repeats must agree), `Ok(None)` for
/// none at all, `Err(message)` for a malformed value or conflicting
/// repeats — the caller answers `400` naming the problem. A well-formed
/// length is `1*DIGIT` (RFC 9110 §8.6): no sign, no blanks.
fn parse_content_length(values: &[String]) -> Result<Option<usize>, String> {
    let mut parsed: Option<usize> = None;
    for raw in values {
        let digits = !raw.is_empty() && raw.bytes().all(|b| b.is_ascii_digit());
        let value = match raw.parse::<usize>() {
            Ok(value) if digits => value,
            _ => {
                return Err(format!(
                    "invalid Content-Length `{}`",
                    one_line(raw).replace('"', "'")
                ))
            }
        };
        match parsed {
            Some(previous) if previous != value => {
                return Err(format!(
                    "conflicting Content-Length headers ({previous} vs {value})"
                ));
            }
            _ => parsed = Some(value),
        }
    }
    Ok(parsed)
}

/// The strict request-line shape: `METHOD SP PATH SP VERSION`, with an
/// uppercase method, an origin-form path, and an `HTTP/` version. A line
/// that merely *ends* in `HTTP/1.1` is not a request line.
fn parse_http_request_line(line: &str) -> Option<(String, String)> {
    let mut parts = line.split_whitespace();
    let (method, path, version) = (parts.next()?, parts.next()?, parts.next()?);
    if parts.next().is_some() || !version.starts_with("HTTP/") {
        return None;
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return None;
    }
    if !path.starts_with('/') {
        return None;
    }
    Some((method.to_string(), path.to_string()))
}

/// Whether a line is an HTTP request line.
#[cfg(test)]
fn is_http_request_line(line: &str) -> bool {
    parse_http_request_line(line).is_some()
}

/// Error bodies are single-line JSON strings; squash any embedded line
/// breaks from error messages.
fn one_line(text: &str) -> String {
    text.replace(['\r', '\n'], " ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_request_lines_are_recognised() {
        assert!(is_http_request_line("POST /ingest HTTP/1.1"));
        assert!(is_http_request_line("GET /stats HTTP/1.0"));
        assert!(!is_http_request_line("SEND csv 99"));
        assert!(!is_http_request_line("STATS"));
    }

    #[test]
    fn request_line_requires_the_three_part_shape() {
        // The old suffix heuristic classified any line ending in HTTP/1.1 as
        // HTTP; none of these is a request line, so each gets a 400.
        assert!(!is_http_request_line("SEND csv HTTP/1.1"));
        assert!(!is_http_request_line("one two three HTTP/1.1"));
        assert!(!is_http_request_line("HTTP/1.1"));
        assert!(!is_http_request_line("GET HTTP/1.1"));
        assert!(!is_http_request_line("get /stats HTTP/1.1"));
        assert!(!is_http_request_line("GET stats HTTP/1.1"));
        assert!(!is_http_request_line("GET /stats FTP/1.1"));
        assert!(is_http_request_line("DELETE /anything HTTP/1.1"));
    }

    #[test]
    fn content_length_parsing_names_the_problem() {
        let none: &[String] = &[];
        assert_eq!(parse_content_length(none), Ok(None));
        assert_eq!(parse_content_length(&["42".to_string()]), Ok(Some(42)));
        assert_eq!(
            parse_content_length(&["42".to_string(), "42".to_string()]),
            Ok(Some(42)),
            "agreeing repeats are tolerated"
        );
        let bad = parse_content_length(&["abc".to_string()]).unwrap_err();
        assert!(bad.contains("invalid Content-Length `abc`"), "{bad}");
        for bad in ["-1", "+42", " 42", ""] {
            let message = parse_content_length(&[bad.to_string()]).unwrap_err();
            assert!(
                message.contains(&format!("invalid Content-Length `{bad}`")),
                "{message}"
            );
        }
        let conflict = parse_content_length(&["10".to_string(), "20".to_string()]).unwrap_err();
        assert!(conflict.contains("conflicting"), "{conflict}");
    }

    #[test]
    fn replies_are_single_line() {
        assert_eq!(one_line("a\nb\rc"), "a b c");
    }
}
