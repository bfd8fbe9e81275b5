//! The served workload (`backfill`): a `DquagBackend` fitted with
//! `DquagConfig::default()` behind `StreamEngine` + `SourceRuntime` +
//! `NetListenerSource` on loopback, driven by a closed-loop client on one
//! connection.

use crate::check::{self, VerdictKey};
use crate::frames::Inputs;
use crate::report::Report;
use crate::stats::{median, minimum, quantile, tail};
use crate::trace::{unattributed_share, BusyLog, SpanLog, TimedValidator};
use crate::{model_path, reload, replay, report_reloads, Options, Reload};
use dquag_core::{DquagConfig, DquagModelState};
use dquag_sources::{NetListenerSource, SourceRuntime};
use dquag_stream::{StreamEngine, StreamOutcome, StreamStats, VerdictStream};
use dquag_validate::{DquagBackend, PersistedValidatorState, Validator};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long any single reply or verdict may take before the batch counts
/// as unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Set-ups per run; a set-up generates, fits and serves (seconds).
const SETUPS: usize = 3;

/// Fits after the window, which join the set-ups' fits in `fit_s`: a busy
/// spell of the host at the start of a run cannot slow all of them.
const LATE_FITS: usize = 2;

/// Sizes of the served workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Clean rows the validator is fitted on.
    reference_rows: usize,
    /// Distinct frames in the round-robin pool.
    frames: usize,
    /// Rows per frame.
    rows: usize,
    /// Frames replayed per layer in traced runs.
    replay_frames: usize,
}

const FULL: Shape = Shape {
    reference_rows: 500,
    frames: 64,
    rows: 1024,
    replay_frames: 16,
};

const SMOKE: Shape = Shape {
    reference_rows: 200,
    frames: 4,
    rows: 128,
    replay_frames: 2,
};

/// The complete `POST /ingest` request for every frame.
fn wire_frames(inputs: &Inputs) -> Vec<Vec<u8>> {
    inputs
        .frames
        .iter()
        .map(|frame| {
            let mut wire = format!(
                "POST /ingest HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/x-ndjson\r\n\
                 Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
                frame.payload.len()
            )
            .into_bytes();
            wire.extend_from_slice(&frame.payload);
            wire
        })
        .collect()
}

/// Fit a backend on the clean reference; returns it with the fit time.
fn fit(inputs: &Inputs, config: &DquagConfig) -> Result<(DquagBackend, f64), String> {
    let mut backend = DquagBackend::new(config.clone());
    let started = Instant::now();
    backend
        .fit(&inputs.reference)
        .map_err(|e| format!("fitting: {e}"))?;
    Ok((backend, started.elapsed().as_secs_f64()))
}

/// A running deployment; a traced one also holds the wrapper's busy log.
struct Deployment {
    engine: StreamEngine,
    runtime: SourceRuntime,
    verdicts: VerdictStream,
    addr: SocketAddr,
    busy: Option<Arc<BusyLog>>,
}

impl Deployment {
    /// Serve `validator` — wrapped in a [`TimedValidator`] when `traced` —
    /// on a fresh engine, listener and telemetry bundle.
    fn serve(
        validator: Box<dyn Validator>,
        traced: bool,
        inputs: &Inputs,
        config: &DquagConfig,
    ) -> Result<Self, String> {
        let busy = traced.then(|| Arc::new(BusyLog::default()));
        let served: Box<dyn Validator> = match &busy {
            Some(log) => Box::new(TimedValidator::new(validator, Arc::clone(log))),
            None => validator,
        };
        let telemetry = config
            .telemetry
            .build()
            .ok_or("the default configuration enables telemetry")?;
        let (engine, ingest, verdicts) = StreamEngine::builder()
            .stream_config(&config.stream)
            .telemetry(Arc::clone(&telemetry))
            .start(served)
            .map_err(|e| format!("starting the engine: {e}"))?;
        let listener = NetListenerSource::from_config(&config.source, inputs.kind.schema())
            .map_err(|e| format!("binding the listener: {e}"))?
            .with_spec(config.validator.clone())
            .with_telemetry(Arc::clone(&telemetry));
        let addr = listener.local_addr();
        let runtime = SourceRuntime::builder()
            .config(&config.source)
            .source(Box::new(listener))
            .spec(config.validator.clone())
            .telemetry(telemetry)
            .start(ingest)
            .map_err(|e| format!("starting the source runtime: {e}"))?;
        Ok(Self {
            engine,
            runtime,
            verdicts,
            addr,
            busy,
        })
    }
}

/// Stop the listener, then drain and join the engine.
fn stop(engine: StreamEngine, runtime: SourceRuntime) -> Result<StreamStats, String> {
    runtime
        .shutdown()
        .map_err(|e| format!("runtime shutdown: {e}"))?;
    Ok(engine.shutdown())
}

/// One client connection with a buffered reader.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Self {
            writer: stream,
            reader,
        })
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("reading a reply: {e}")),
        }
    }

    /// HTTP: read one response; returns (status code, keep-alive, body).
    fn http_response(&mut self) -> Result<(u16, bool, String), String> {
        let status_line = self.line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| format!("bad status line `{status_line}`"))?;
        let (mut length, mut keep) = (0usize, false);
        loop {
            let header = self.line()?;
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().map_err(|_| format!("bad length `{value}`"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    keep = value.eq_ignore_ascii_case("keep-alive");
                }
            }
        }
        let mut body = vec![0; length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| e.to_string())?;
        Ok((
            status,
            keep,
            String::from_utf8(body).map_err(|e| e.to_string())?,
        ))
    }

    fn http_get(&mut self, path: &str) -> Result<(u16, bool, String), String> {
        let request =
            format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: keep-alive\r\n\r\n");
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| e.to_string())?;
        self.http_response()
    }
}

/// One attempted batch, stamped by the generator.
#[derive(Debug, Clone)]
struct Sent {
    frame: usize,
    rows: usize,
    send: Instant,
    /// When the `202` (or refusal) was read.
    ack: Instant,
    /// The engine seq, when accepted.
    seq: Option<u64>,
    /// The reply, when refused.
    refusal: Option<String>,
}

/// One emitted verdict as read off the stream.
#[derive(Debug)]
struct Emitted {
    seq: u64,
    at: Instant,
    verdict: Result<VerdictKey, String>,
}

impl Emitted {
    fn read(item: dquag_stream::StreamItem, at: Instant) -> Self {
        Self {
            seq: item.seq,
            at,
            verdict: match item.outcome {
                StreamOutcome::Verdict(verdict) => Ok(VerdictKey::from_verdict(verdict)),
                other => Err(other.to_string()),
            },
        }
    }

    /// Compare against the direct verdict of the frame the batch carried;
    /// `tamper` flips the served dirty flag first (self-test of the check).
    fn settle(self, direct: &VerdictKey, tamper: bool) -> Outcome {
        Outcome {
            seq: self.seq,
            at: self.at,
            verdict: self.verdict.map(|mut key| {
                key.is_dirty ^= tamper;
                (key.is_dirty, &key == direct)
            }),
        }
    }
}

/// A settled verdict: when it was emitted, its dirty flag and whether it
/// equals the direct verdict.
#[derive(Debug, Clone)]
struct Outcome {
    seq: u64,
    at: Instant,
    verdict: Result<(bool, bool), String>,
}

/// What one timed window produced.
struct Window {
    t0: Instant,
    seconds: f64,
    sent: Vec<Sent>,
    /// Settled verdicts, in emission order.
    outcomes: Vec<Outcome>,
    /// Seqs in the order the stream emitted them.
    order: Vec<u64>,
    scrape: String,
    stats: StreamStats,
    /// The wrapper's `(call, start, end)` triples; empty when untraced.
    busy: Vec<(u64, Instant, Instant)>,
    /// Save → load → first verdict rounds made between batches.
    reloads: Vec<Reload>,
}

fn parse_accepted_seq(body: &str) -> Option<u64> {
    let rest = &body[body.find("\"seq\"")? + 5..];
    let digits: String = rest
        .trim_start_matches([':', ' '])
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The inputs every timed window sends.
struct Traffic<'a> {
    inputs: &'a Inputs,
    wire: &'a [Vec<u8>],
    direct: &'a [VerdictKey],
    tamper: bool,
    /// The fitted model that never serves, saved and reloaded between
    /// batches, and the file it goes to.
    model: &'a dyn Validator,
    model_file: &'a Path,
}

/// Batches sent between two reload rounds: about 15 rounds spread over a
/// 30-s window, so that one busy spell of the host cannot slow them all.
/// A round runs between two batches, when none is in flight.
const RELOAD_EVERY: usize = 50;

/// One timed window of `seconds` on `dep`: one keep-alive HTTP connection
/// that sends the next batch once the previous one's verdict is out, all
/// from the calling thread, with a reload round every `RELOAD_EVERY`
/// batches. Every accepted batch is emitted, and `/metrics` scraped,
/// before the deployment stops.
fn window(dep: Deployment, traffic: &Traffic<'_>, seconds: f64) -> Result<Window, String> {
    let Deployment {
        engine,
        runtime,
        mut verdicts,
        addr,
        busy,
    } = dep;
    let mut conn = Conn::open(addr)?;
    conn.http_get("/stats")?;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let (wire, frames) = (traffic.wire, &traffic.inputs.frames);
    let mut emitted = Vec::new();
    let mut reloads = Vec::new();

    let mut client = || -> Result<(Vec<Sent>, String), String> {
        let mut sent = Vec::new();
        let mut next = 0;
        let mut keep = true;
        while Instant::now() < deadline {
            if next % RELOAD_EVERY == 0 {
                let reference = &frames[0].data;
                reloads.push(reload(traffic.model, reference, traffic.model_file)?.0);
            }
            if !keep {
                conn = Conn::open(addr)?;
            }
            let frame = next % wire.len();
            next += 1;
            let send = Instant::now();
            conn.writer
                .write_all(&wire[frame])
                .map_err(|e| e.to_string())?;
            let (status, keep_alive, body) = conn.http_response()?;
            let ack = Instant::now();
            keep = keep_alive;
            let seq = (status == 202).then(|| parse_accepted_seq(&body)).flatten();
            sent.push(Sent {
                frame,
                rows: frames[frame].data.n_rows(),
                send,
                ack,
                seq,
                refusal: seq.is_none().then(|| format!("{status} {body}")),
            });
            // Emitted in seq order, so the next item is this batch's.
            if seq.is_some() {
                let item = verdicts.recv().ok_or("the verdict stream closed early")?;
                emitted.push(Emitted::read(item, Instant::now()));
            }
        }
        if !keep {
            conn = Conn::open(addr)?;
        }
        let (status, _, scrape) = conn.http_get("/metrics")?;
        if status != 200 {
            return Err(format!("GET /metrics answered {status}"));
        }
        Ok((sent, scrape))
    };
    let outcome = client();
    let stats = stop(engine, runtime);
    // Anything still in flight when the client stopped early.
    while let Some(item) = verdicts.recv() {
        emitted.push(Emitted::read(item, Instant::now()));
    }
    let (sent, scrape) = outcome?;
    let frame_of: HashMap<u64, usize> = sent
        .iter()
        .filter_map(|s| Some((s.seq?, s.frame)))
        .collect();
    let order = emitted.iter().map(|e| e.seq).collect();
    let outcomes = emitted
        .into_iter()
        .filter_map(|e| {
            let frame = *frame_of.get(&e.seq)?;
            let tamper = traffic.tamper && e.seq == 0;
            Some(e.settle(&traffic.direct[frame], tamper))
        })
        .collect();
    Ok(Window {
        t0,
        seconds,
        sent,
        outcomes,
        order,
        scrape,
        stats: stats?,
        busy: busy.map(|log| log.take()).unwrap_or_default(),
        reloads,
    })
}

/// The fitted state of a DQuaG validator, for the replayed layers.
pub fn dquag_state(validator: &dyn Validator) -> Result<DquagModelState, String> {
    match validator.persisted_state() {
        Some(PersistedValidatorState::Dquag(state)) => Ok(*state),
        _ => Err("the served validator exports no DQuaG state".to_string()),
    }
}

/// Whether each window of a traced run is traced. The set-up's deployment
/// serves the first, untraced window; each later window gets a fresh
/// deployment of a replica of the same model. The untraced windows run
/// exactly what an untraced run runs, and the order (untraced, traced,
/// traced, untraced) cancels a steady drift of the machine.
const TRACE_PLAN: [bool; 4] = [false, true, true, false];

/// Run `backfill` end to end and fill `report`.
pub fn run(opts: &Options, report: &mut Report) -> Result<(), String> {
    let shape = if opts.smoke { SMOKE } else { FULL };
    let config = opts.config();
    // Set-up, repeated so its time is a median: generate, fit, serve.
    let setups = opts.setups(SETUPS);
    let (mut setup_times, mut fit_times) = (Vec::new(), Vec::new());
    let mut kept = None;
    for round in 0..setups {
        let started = Instant::now();
        let inputs =
            crate::frames::backfill(opts.seed, shape.frames, shape.rows, shape.reference_rows);
        let wire = wire_frames(&inputs);
        let (backend, fit_s) = fit(&inputs, &config)?;
        // A replica taken before serving never sees traffic or telemetry.
        let model = backend
            .replicate()
            .ok_or("a fitted DQuaG backend replicates")?;
        let dep = Deployment::serve(Box::new(backend), false, &inputs, &config)?;
        setup_times.push(started.elapsed().as_secs_f64());
        fit_times.push(fit_s);
        if round + 1 < setups {
            stop(dep.engine, dep.runtime)?;
        } else {
            kept = Some((inputs, wire, dep, model));
        }
    }
    let (inputs, wire, dep, model) = kept.expect("at least one set-up");
    report.set("setup_s", median(&setup_times), setup_times.len() as u64);

    // The oracle runs before the window (and after set-up is timed): the
    // replica that never serves judges every frame directly.
    let direct = check::direct_verdicts(&*model, &inputs.frames)?;
    let model_file = model_path(opts.workload.name());
    let traffic = Traffic {
        inputs: &inputs,
        wire: &wire,
        direct: &direct,
        tamper: opts.tamper,
        model: &*model,
        model_file: &model_file,
    };
    let windows = if opts.trace {
        let seconds = opts.seconds / TRACE_PLAN.len() as f64;
        let mut windows = vec![window(dep, &traffic, seconds)?];
        for traced in TRACE_PLAN.into_iter().skip(1) {
            let replica = model.replicate().ok_or("the model replicates")?;
            let dep = Deployment::serve(replica, traced, &inputs, &config)?;
            windows.push(window(dep, &traffic, seconds)?);
        }
        windows
    } else {
        vec![window(dep, &traffic, opts.seconds)?]
    };

    let _ = std::fs::remove_file(&model_file);

    // Everything below is outside the timed windows.
    for _ in 0..opts.setups(LATE_FITS) {
        fit_times.push(fit(&inputs, &config)?.1);
    }
    report.set_noted(
        "fit_s",
        minimum(&fit_times),
        fit_times.len() as u64,
        "fastest fit".to_string(),
    );
    judge(&windows, report);
    let rounds: Vec<Reload> = windows.iter().flat_map(|w| w.reloads.clone()).collect();
    if rounds.iter().any(|r| r.first != direct[0]) {
        report.problem("the reloaded model's verdict differs from the served model's");
        report.correct = false;
    }
    report_reloads(&rounds, report);
    if opts.trace {
        traced(&windows, opts, report)?;
        let state = dquag_state(&*model)?;
        let frames = &inputs.frames[..shape.replay_frames.min(inputs.frames.len())];
        replay::layers(&state, &inputs, frames, report)?;
    } else {
        end_to_end(&windows[0], &inputs, report);
    }
    Ok(())
}

/// Correctness and failure accounting over every window.
fn judge(windows: &[Window], report: &mut Report) {
    let (mut failed, mut refusals, mut mismatches, mut batches) = (0u64, 0u64, 0u64, 0u64);
    let (mut passes, mut quarantines, mut dropped, mut deadline) = (0.0, 0.0, 0u64, 0u64);
    let mut consistent = true;
    for window in windows {
        let by_seq: HashMap<u64, &Outcome> = window.outcomes.iter().map(|o| (o.seq, o)).collect();
        let mut rows_accepted = 0u64;
        let mut acked = Vec::with_capacity(window.sent.len());
        for sent in &window.sent {
            let Some(seq) = sent.seq else {
                refusals += 1;
                failed += 1;
                if refusals <= 3 {
                    report.problem(format!(
                        "batch refused: {}",
                        sent.refusal.as_deref().unwrap_or("")
                    ));
                }
                continue;
            };
            acked.push(seq);
            rows_accepted += sent.rows as u64;
            match by_seq.get(&seq).map(|o| &o.verdict) {
                Some(Ok((_, true))) => {}
                Some(Ok((_, false))) => {
                    mismatches += 1;
                    failed += 1;
                }
                Some(Err(outcome)) => {
                    failed += 1;
                    report.problem(format!("seq {seq}: {outcome}"));
                }
                None => {
                    failed += 1;
                    report.problem(format!("seq {seq} never got a verdict"));
                }
            }
        }
        if let Err(problem) = check::exactly_once_in_order(&window.order, &acked) {
            report.problem(problem);
            consistent = false;
        }
        let scored = check::prometheus_counter(&window.scrape, "dquag_gnn_rows_scored_total");
        if scored != Some(rows_accepted as f64) {
            report.problem(format!(
                "dquag_gnn_rows_scored_total is {scored:?}, but {rows_accepted} rows were accepted"
            ));
            consistent = false;
        }
        passes += check::prometheus_counter(&window.scrape, "dquag_gnn_forward_passes_total")
            .unwrap_or(f64::NAN);
        quarantines += check::prometheus_counter(&window.scrape, "dquag_replica_quarantines_total")
            .unwrap_or(0.0);
        dropped += window.stats.dropped;
        deadline += window.stats.deadline_exceeded;
        batches += acked.len() as u64;
    }
    if mismatches > 0 {
        report.problem(format!(
            "{mismatches} served verdicts differ from the direct verdict of their frame"
        ));
    }
    let attempted = windows.iter().map(|w| w.sent.len() as u64).sum();
    report.set(
        "gnn.forward_passes_per_batch",
        passes / batches.max(1) as f64,
        batches,
    );
    report.set("sources.error_replies", refusals as f64, attempted);
    report.set("stream.dropped", dropped as f64, batches);
    report.set("stream.deadline_exceeded", deadline as f64, batches);
    report.set("stream.quarantines", quarantines, batches);
    report.attempted = attempted;
    report.failed = failed;
    report.set(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        attempted,
    );
    // Engine counters are not consulted: each batch's own outcome above is
    // authoritative, and a Block-policy wait longer than the listener's
    // 50 ms submit slice counts as `timed_out` in `StreamStats` even though
    // the listener retries and the batch is accepted.
    report.correct = failed == 0 && consistent;
}

/// Each pool frame's fastest send-to-verdict time (ms) in the window, with
/// its rows. Every frame is sent many times; the fastest time is best-of-N,
/// which a busy spell of the shared host cannot raise unless it covers
/// every send of that frame.
fn fastest_per_frame(window: &Window) -> Vec<(usize, f64)> {
    let by_seq: HashMap<u64, &Outcome> = window.outcomes.iter().map(|o| (o.seq, o)).collect();
    let mut fastest: BTreeMap<usize, (usize, f64)> = BTreeMap::new();
    for sent in &window.sent {
        let Some(outcome) = sent.seq.and_then(|seq| by_seq.get(&seq)) else {
            continue;
        };
        if outcome.verdict.is_ok() {
            let ms = outcome.at.duration_since(sent.send).as_secs_f64() * 1e3;
            let entry = fastest.entry(sent.frame).or_insert((sent.rows, ms));
            entry.1 = entry.1.min(ms);
        }
    }
    fastest.into_values().collect()
}

/// Rows per second of the client sending the whole pool once, each frame
/// at its fastest time.
fn pool_rate(fastest: &[(usize, f64)]) -> f64 {
    let rows: usize = fastest.iter().map(|f| f.0).sum();
    rows as f64 * 1e3 / fastest.iter().map(|f| f.1).sum::<f64>()
}

/// Throughput, latency and accuracy of the untraced window.
fn end_to_end(window: &Window, inputs: &Inputs, report: &mut Report) {
    let fastest = fastest_per_frame(window);
    let sends = window.sent.len() / fastest.len().max(1);
    report.set_noted(
        "rows_per_s",
        pool_rate(&fastest),
        fastest.iter().map(|f| f.0 as u64).sum(),
        format!("the pool's frames at their fastest of ~{sends} sends"),
    );
    let latencies: Vec<f64> = fastest.iter().map(|f| f.1).collect();
    let p50 = quantile(&latencies, 0.5);
    report.set_noted(
        "batch_latency_p50_ms",
        p50.value,
        p50.n as u64,
        format!("over frames, each the fastest of ~{sends} sends"),
    );
    let p99 = tail(&latencies, 0.99, 10);
    report.set_noted(
        "batch_latency_p99_ms",
        p99.value,
        p99.n as u64,
        format!(
            "p{:.1} of {} frames, {} beyond, each the fastest of ~{sends} sends",
            100.0 * p99.q,
            p99.n,
            p99.beyond
        ),
    );
    let by_seq: HashMap<u64, &Outcome> = window.outcomes.iter().map(|o| (o.seq, o)).collect();
    let (mut judged, mut right) = (0u64, 0u64);
    for sent in &window.sent {
        if let Some(Ok((dirty, _))) = sent
            .seq
            .and_then(|seq| by_seq.get(&seq))
            .map(|o| &o.verdict)
        {
            judged += 1;
            right += u64::from(*dirty == inputs.frames[sent.frame].dirty);
        }
    }
    report.set(
        "verdict_accuracy",
        right as f64 / judged.max(1) as f64,
        judged,
    );
}

/// Seq-linked spans of the traced windows, the served per-layer metrics
/// and the trace's own checks.
fn traced(windows: &[Window], opts: &Options, report: &mut Report) -> Result<(), String> {
    let mut log = SpanLog::default();
    let (mut served_s, mut staged) = (0.0, Vec::new());
    // Rows per second of the untraced (0) and traced (1) windows.
    let mut rates = [Vec::new(), Vec::new()];
    for (window, traced) in windows.iter().zip(TRACE_PLAN) {
        rates[usize::from(traced)].push(pool_rate(&fastest_per_frame(window)));
        if !traced {
            continue;
        }
        let calls: HashMap<u64, (Instant, Instant)> = window
            .busy
            .iter()
            .map(|&(call, start, end)| (call, (start, end)))
            .collect();
        let by_seq: HashMap<u64, &Outcome> = window.outcomes.iter().map(|o| (o.seq, o)).collect();
        let end = window.t0 + Duration::from_secs_f64(window.seconds);
        let root = log.push("window", window.t0, end, None, None);
        for sent in &window.sent {
            let Some(seq) = sent.seq else { continue };
            let (Some(outcome), Some(&(busy_start, busy_end))) =
                (by_seq.get(&seq), calls.get(&seq))
            else {
                continue;
            };
            served_s += outcome.at.duration_since(sent.send).as_secs_f64();
            let batch = log.push("batch", sent.send, outcome.at, Some(root), Some(seq));
            log.push("sources.ack", sent.send, sent.ack, Some(batch), Some(seq));
            // With one batch in flight the worker often starts before the
            // client has read the `202`: the batch did not wait at all.
            log.push(
                "stream.queue_wait",
                sent.ack.min(busy_start),
                busy_start,
                Some(batch),
                Some(seq),
            );
            log.push(
                "validate.busy",
                busy_start,
                busy_end,
                Some(batch),
                Some(seq),
            );
            log.push("stream.emit", busy_end, outcome.at, Some(batch), Some(seq));
        }
        staged.push(window.scrape.as_str());
    }
    for (metric, span) in [
        ("sources.ack_ms_p50", "sources.ack"),
        ("validate.busy_ms_p50", "validate.busy"),
        ("stream.queue_wait_ms_p50", "stream.queue_wait"),
        ("stream.emit_ms_p50", "stream.emit"),
    ] {
        let p50 = quantile(&log.durations_ms(span), 0.5);
        report.set(metric, p50.value, p50.n as u64);
    }
    for (metric, span) in [
        ("sources.ack_ms_p99", "sources.ack"),
        ("validate.busy_ms_p99", "validate.busy"),
        ("stream.queue_wait_ms_p99", "stream.queue_wait"),
    ] {
        let t = tail(&log.durations_ms(span), 0.99, 10);
        report.set_noted(
            metric,
            t.value,
            t.n as u64,
            format!("p{:.1}, {} beyond", 100.0 * t.q, t.beyond),
        );
    }
    // Served latency as the generator measured it, against the stage spans
    // the listener, engine and validator recorded for the same batches.
    let batches = log.named("batch").count() as u64;
    report.set_noted(
        "trace.unattributed_share",
        unattributed_share(served_s, &staged),
        batches,
        format!("of {served_s:.2} s of served latency, against the program's stage spans"),
    );
    let mean = |values: &[f64]| values.iter().sum::<f64>() / values.len().max(1) as f64;
    let (untraced, traced) = (mean(&rates[0]), mean(&rates[1]));
    report.set_noted(
        "trace.overhead",
        traced / untraced,
        windows.len() as u64,
        format!("traced rows/s {traced:.0} over untraced rows/s {untraced:.0}"),
    );
    let path = crate::out_dir().join(format!(
        "trace-{}-{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    log.write_jsonl(&path, windows[0].t0)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(())
}
