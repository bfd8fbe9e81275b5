//! The network source: one TCP listener serving a minimal HTTP/1.1
//! endpoint, multiplexed over a small fixed worker pool.
//!
//! ## Serving model
//!
//! Accepted sockets are made nonblocking and handed to one of
//! [`ServingConfig::workers`] pool threads, each driving its set of
//! connections off `poll(2)`-style readiness (see [`poll`](crate::poll) —
//! no async runtime). The thread budget is the pool size, independent of
//! connection count. Accepts beyond [`ServingConfig::max_connections`] are
//! refused *loudly*: the first line, whatever it says, is answered with
//! `503 Service Unavailable`, the refusal is counted
//! (`dquag_source_accept_rejects_total`) and recorded as an
//! `accept_overflow` flight event, and the socket closes. Connections idle
//! between requests longer than [`ServingConfig::idle_timeout`] are closed,
//! and a request that has not arrived whole within that timeout of its
//! first byte is answered `408` and closed.
//!
//! ## HTTP
//!
//! Four routes:
//!
//! ```text
//! POST /ingest   Content-Length body, Content-Type text/csv or
//!                application/x-ndjson → 202 {"status": "enqueued", "seq", "rows"}
//!                (503 {"status": "dropped" | "rejected" | "timeout"} under
//!                backpressure, 400 naming a decode problem)
//! GET /stats     the live StreamStats as application/json
//! GET /metrics   the telemetry registry as Prometheus text (404 without telemetry)
//! GET /drift     the per-column drift scoreboard as JSON (404 when the
//!                bundle's data layer is off)
//! ```
//!
//! The `/stats` body parses as [`StreamStats`]. Any other route is a
//! `404`. A first line that is not an HTTP request line is a `400`, and a
//! request line plus headers over 64 KiB a `431`; both close the
//! connection. A request carrying `Connection: keep-alive` is answered in
//! kind and the socket serves the next request, up to
//! [`ServingConfig::max_requests_per_connection`]; requests without the
//! header get `Connection: close`.
//!
//! [`StreamStats`]: dquag_stream::StreamStats
//! [`ServingConfig::workers`]: dquag_core::ServingConfig::workers
//! [`ServingConfig::max_connections`]: dquag_core::ServingConfig::max_connections
//! [`ServingConfig::idle_timeout`]: dquag_core::ServingConfig::idle_timeout
//! [`ServingConfig::max_requests_per_connection`]: dquag_core::ServingConfig::max_requests_per_connection

use crate::conn::{Conn, ConnShared, NetMetrics};
use crate::poll::{wake_channel, PollSet, WakeReceiver, WakeSender};
use crate::source::{PollOutcome, Source, SourceError, SourceSink};
use dquag_telemetry::{FlightEventKind, Telemetry};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a worker's readiness wait lasts before it re-checks the stop
/// flag and connection deadlines.
const POLL_TICK: Duration = Duration::from_millis(50);

/// The HTTP ingestion listener.
///
/// Binding happens eagerly in [`from_config`], so the caller can learn the
/// ephemeral port via [`local_addr`] before handing the source to the
/// runtime — and so a bad address fails at construction, not inside a
/// supervisor thread.
///
/// [`from_config`]: NetListenerSource::from_config
/// [`local_addr`]: NetListenerSource::local_addr
pub struct NetListenerSource {
    name: String,
    schema: dquag_tabular::Schema,
    max_frame_bytes: usize,
    serving: dquag_core::ServingConfig,
    spec: Option<dquag_core::ValidatorSpec>,
    telemetry: Option<Arc<Telemetry>>,
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Option<Arc<ConnShared>>,
    pool: Option<Pool>,
    /// Remaining dispatches forced to fail, for the fail-soft regression
    /// test (see [`inject_dispatch_failures`]).
    ///
    /// [`inject_dispatch_failures`]: NetListenerSource::inject_dispatch_failures
    dispatch_failures: usize,
    /// The delivered-batch count as of shutdown, so [`Source::offset`]
    /// stays truthful after the sink is released.
    final_offset: u64,
}

/// Connection tallies shared between the accept loop and the workers.
struct PoolCounts {
    /// Connections currently being served (the `max_connections` cap and
    /// the open-connection gauge).
    open: AtomicUsize,
    /// Over-capacity refusal connections currently draining; bounded so the
    /// refusal path itself cannot grow without limit.
    rejects_open: AtomicUsize,
}

/// One pool worker's handle on the accept side.
struct Worker {
    inbox: Arc<Mutex<Vec<Conn>>>,
    wake: WakeSender,
    /// Connections dispatched to (and not yet retired by) this worker —
    /// the least-loaded dispatch key.
    owned: Arc<AtomicUsize>,
    handle: Option<JoinHandle<()>>,
}

struct Pool {
    workers: Vec<Worker>,
    counts: Arc<PoolCounts>,
}

impl NetListenerSource {
    /// Bind the listener on `config.bind_addr` (port 0 = ephemeral) with
    /// the block's frame limit and connection discipline, serving batches
    /// typed by `schema`.
    pub fn from_config(
        config: &dquag_core::SourceConfig,
        schema: dquag_tabular::Schema,
    ) -> Result<Self, SourceError> {
        let addr = &config.bind_addr;
        let listener =
            TcpListener::bind(addr).map_err(|e| SourceError::Io(format!("binding {addr}: {e}")))?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        Ok(Self {
            name: "net".to_string(),
            schema,
            max_frame_bytes: config.max_frame_bytes,
            serving: config.serving.clone(),
            spec: None,
            telemetry: None,
            listener,
            local_addr,
            shared: None,
            pool: None,
            dispatch_failures: 0,
            final_offset: 0,
        })
    }

    /// Override the source name (the checkpoint key); useful when one
    /// runtime hosts several listeners.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Advertise the declarative spec of the validator behind this
    /// listener: `GET /stats` responses gain an `active_spec` key, so a
    /// monitoring client sees *what* is judging the traffic, not just how
    /// fast.
    pub fn with_spec(mut self, spec: dquag_core::ValidatorSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Attach a telemetry bundle: the listener counts connections, decode
    /// errors, accept rejects/errors and keep-alive reuse, exposes an
    /// open-connection gauge, times the `decode` stage, and serves the
    /// bundle's whole registry over `GET /metrics` (Prometheus text
    /// format). Share the same bundle with the engine so one scrape covers
    /// the full pipeline.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The bound address — ask after construction to learn an ephemeral
    /// port.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Force the next `n` accepted sockets to fail worker hand-off, so
    /// tests can prove a dispatch failure is survived (logged, counted,
    /// socket closed) rather than panicking the listener.
    #[doc(hidden)]
    pub fn inject_dispatch_failures(&mut self, n: usize) {
        self.dispatch_failures = n;
    }

    /// Hand a connection to the least-loaded worker. A failed hand-off
    /// gives the connection back with the reason, so the caller can record
    /// the failure before the socket closes.
    fn dispatch(&mut self, conn: Conn) -> Result<(), Box<(Conn, &'static str)>> {
        if self.dispatch_failures > 0 {
            self.dispatch_failures -= 1;
            return Err(Box::new((conn, "injected dispatch failure")));
        }
        let Some(pool) = self.pool.as_ref() else {
            return Err(Box::new((conn, "worker pool not running")));
        };
        let Some(worker) = pool
            .workers
            .iter()
            .min_by_key(|w| w.owned.load(Ordering::Relaxed))
        else {
            return Err(Box::new((conn, "worker pool is empty")));
        };
        let Ok(mut inbox) = worker.inbox.lock() else {
            return Err(Box::new((conn, "worker inbox poisoned")));
        };
        inbox.push(conn);
        drop(inbox);
        worker.owned.fetch_add(1, Ordering::Relaxed);
        worker.wake.wake();
        Ok(())
    }
}

impl Source for NetListenerSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn start(&mut self, sink: &SourceSink, _resume_from: u64) -> Result<(), SourceError> {
        // Network peers own redelivery (an unacknowledged frame is resent by
        // the client), so resuming needs no positioning here — the restored
        // offset already lives in the sink's counter.
        let shared = Arc::new(ConnShared {
            schema: self.schema.clone(),
            max_frame_bytes: self.max_frame_bytes,
            spec: self.spec.clone(),
            serving: self.serving.clone(),
            sink: sink.clone(),
            metrics: self.telemetry.clone().map(NetMetrics::new),
        });
        let counts = Arc::new(PoolCounts {
            open: AtomicUsize::new(0),
            rejects_open: AtomicUsize::new(0),
        });
        let mut workers = Vec::with_capacity(self.serving.workers);
        let mut spawn_errors = Vec::new();
        for index in 0..self.serving.workers {
            let inbox = Arc::new(Mutex::new(Vec::new()));
            let owned = Arc::new(AtomicUsize::new(0));
            let (wake_tx, wake_rx) = wake_channel();
            let thread_shared = Arc::clone(&shared);
            let thread_inbox = Arc::clone(&inbox);
            let thread_owned = Arc::clone(&owned);
            let thread_counts = Arc::clone(&counts);
            match std::thread::Builder::new()
                .name(format!("dquag-source-worker-{index}"))
                .spawn(move || {
                    worker_loop(
                        thread_shared,
                        thread_inbox,
                        wake_rx,
                        thread_owned,
                        thread_counts,
                    )
                }) {
                Ok(handle) => workers.push(Worker {
                    inbox,
                    wake: wake_tx,
                    owned,
                    handle: Some(handle),
                }),
                // A partially-spawned pool still serves; only a fully failed
                // one is fatal.
                Err(e) => spawn_errors.push(e.to_string()),
            }
        }
        if workers.is_empty() {
            return Err(SourceError::Io(format!(
                "spawning serving workers: {}",
                spawn_errors.join("; ")
            )));
        }
        self.shared = Some(shared);
        self.pool = Some(Pool { workers, counts });
        Ok(())
    }

    fn poll(&mut self, _sink: &SourceSink) -> Result<PollOutcome, SourceError> {
        let shared = self
            .shared
            .as_ref()
            .expect("poll is only called after start")
            .clone();
        let max_connections = self.serving.max_connections;
        let mut accepted_any = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    accepted_any = true;
                    if let Some(metrics) = &shared.metrics {
                        metrics.connections.inc();
                    }
                    // Replies are small single writes; Nagle + delayed ACK
                    // would stall the request/reply rhythm by ~40 ms.
                    stream.set_nodelay(true).ok();
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let counts = Arc::clone(
                        &self
                            .pool
                            .as_ref()
                            .expect("pool is running after start")
                            .counts,
                    );
                    let open = counts.open.load(Ordering::Relaxed);
                    if open >= max_connections {
                        if let Some(metrics) = &shared.metrics {
                            metrics.accept_rejects.inc();
                            metrics.telemetry.event(FlightEventKind::AcceptOverflow {
                                open,
                                max: max_connections,
                            });
                        }
                        // The refusal path is itself bounded: beyond a full
                        // backlog of in-flight refusals, just drop.
                        if counts.rejects_open.load(Ordering::Relaxed) >= max_connections {
                            continue;
                        }
                        counts.rejects_open.fetch_add(1, Ordering::Relaxed);
                        if self.dispatch(Conn::reject(stream)).is_err() {
                            counts.rejects_open.fetch_sub(1, Ordering::Relaxed);
                        }
                        continue;
                    }
                    counts.open.fetch_add(1, Ordering::Relaxed);
                    if let Err(failed) = self.dispatch(Conn::new(stream)) {
                        let (conn, reason) = *failed;
                        // Fail soft: losing one socket must not take down
                        // the listener (the old code panicked here).
                        counts.open.fetch_sub(1, Ordering::Relaxed);
                        if let Some(metrics) = &shared.metrics {
                            metrics.accept_errors.inc();
                            metrics.telemetry.event(FlightEventKind::SourceError {
                                source: self.name.clone(),
                                message: format!("connection hand-off failed: {reason}"),
                            });
                        }
                        // Close only once the failure is on record: a peer
                        // that sees EOF finds it counted.
                        drop(conn);
                        continue;
                    }
                    if let Some(metrics) = &shared.metrics {
                        metrics
                            .open_connections
                            .set(counts.open.load(Ordering::Relaxed) as f64);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(SourceError::Io(format!("accept: {e}"))),
            }
        }
        Ok(if accepted_any {
            PollOutcome::Progressed
        } else {
            PollOutcome::Idle
        })
    }

    fn drain(&mut self, _sink: &SourceSink) {
        // The stop flag is set; each worker notices within one poll tick,
        // flushes any queued reply (an engine-closed 503 included) and
        // exits, so joining here never hangs.
        if let Some(pool) = &mut self.pool {
            for worker in &pool.workers {
                worker.wake.wake();
            }
            for worker in &mut pool.workers {
                if let Some(handle) = worker.handle.take() {
                    let _ = handle.join();
                }
            }
        }
    }

    fn shutdown(&mut self) {
        self.final_offset = self.offset();
        self.pool = None;
        self.shared = None;
    }

    fn offset(&self) -> u64 {
        self.shared
            .as_ref()
            .map_or(self.final_offset, |s| s.sink.offset())
    }
}

/// One pool thread: drain the inbox, poll every owned socket for
/// readiness, drive each connection's state machine, retire the dead.
fn worker_loop(
    shared: Arc<ConnShared>,
    inbox: Arc<Mutex<Vec<Conn>>>,
    mut wake: WakeReceiver,
    owned: Arc<AtomicUsize>,
    counts: Arc<PoolCounts>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut poll = PollSet::new();
    loop {
        if let Ok(mut handed_off) = inbox.lock() {
            conns.append(&mut handed_off);
        }
        if shared.sink.should_stop() {
            // A connection may hold a reply its peer has not read yet —
            // an engine-closed 503 after a blocked delivery — flush those
            // before the pool disappears.
            for conn in &mut conns {
                conn.final_flush();
            }
            break;
        }
        poll.clear();
        let mut wake_slots = 0;
        if let Some(source) = wake.pollable() {
            poll.push(source, false);
            wake_slots = 1;
        }
        for conn in &conns {
            poll.push(conn.stream(), conn.wants_write());
        }
        poll.wait(POLL_TICK);
        wake.drain();
        for (index, conn) in conns.iter_mut().enumerate() {
            let ready = poll.readiness(index + wake_slots);
            if ready.readable || ready.writable || ready.closed {
                conn.drive(&shared);
            } else {
                // No I/O this tick; only the deadlines can progress.
                conn.tick(&shared);
            }
        }
        let mut died = 0usize;
        conns.retain(|conn| {
            if conn.is_dead() {
                died += 1;
                if conn.is_reject() {
                    counts.rejects_open.fetch_sub(1, Ordering::Relaxed);
                } else {
                    counts.open.fetch_sub(1, Ordering::Relaxed);
                }
                false
            } else {
                true
            }
        });
        if died > 0 {
            owned.fetch_sub(died, Ordering::Relaxed);
            if let Some(metrics) = &shared.metrics {
                metrics
                    .open_connections
                    .set(counts.open.load(Ordering::Relaxed) as f64);
            }
        }
    }
    // Pool teardown: the sockets close with the Conn drops; keep the
    // tallies truthful for anything still watching the gauge.
    for conn in &conns {
        if conn.is_reject() {
            counts.rejects_open.fetch_sub(1, Ordering::Relaxed);
        } else {
            counts.open.fetch_sub(1, Ordering::Relaxed);
        }
    }
    owned.fetch_sub(conns.len(), Ordering::Relaxed);
    if let Some(metrics) = &shared.metrics {
        metrics
            .open_connections
            .set(counts.open.load(Ordering::Relaxed) as f64);
    }
}
