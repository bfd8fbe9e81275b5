//! The network gate with its instruments on: one shared telemetry bundle
//! wired through the validator, the streaming engine, and the serving edge,
//! then scraped back out of the gate's own `GET /metrics` endpoint.
//!
//! The flow mirrors a real deployment: build the bundle from the
//! `telemetry` block of [`DquagConfig`], hand one `Arc` to every subsystem,
//! POST CSV batches at the listener, and let Prometheus (here: a loopback
//! HTTP client) scrape the same port the data arrives on. At the end the
//! flight recorder replays the run's lifecycle.
//!
//! ```bash
//! cargo run --release --example observed_gate
//! ```

use dquag::core::{DquagConfig, SourceConfig, TelemetryConfig};
use dquag::datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag::gnn::ModelConfig;
use dquag::sources::{NetListenerSource, SourceRuntime};
use dquag::stream::StreamEngine;
use dquag::tabular::csv;
use dquag::tabular::DataFrame;
use dquag::validate::{DquagBackend, Validator};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const N_BATCHES: usize = 5;

/// The simulated upstream feed: the middle batch is corrupted.
fn feed(kind: DatasetKind) -> Vec<DataFrame> {
    let columns = kind.default_ordinary_error_columns();
    (0..N_BATCHES)
        .map(|i| {
            let mut batch = kind.generate_clean(120, 700 + i as u64);
            if i == N_BATCHES / 2 {
                let mut rng = dquag::datagen::rng(800 + i as u64);
                inject_ordinary(
                    &mut batch,
                    OrdinaryError::NumericAnomalies,
                    &columns,
                    0.3,
                    &mut rng,
                );
            }
            batch
        })
        .collect()
}

/// One blocking HTTP exchange over loopback; returns (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to the gate");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: gate\r\n\r\n").as_bytes())
        .expect("HTTP request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("HTTP response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

fn main() {
    let kind = DatasetKind::HotelBooking;
    let clean = kind.generate_clean(1_000, 52);

    // One config block describes the whole deployment, observability
    // included: a 64-event flight recorder alongside the model and serving
    // knobs.
    let config = DquagConfig {
        model: ModelConfig {
            hidden_dim: 12,
            n_layers: 2,
            ..ModelConfig::default()
        },
        epochs: 8,
        source: SourceConfig {
            bind_addr: "127.0.0.1:0".to_string(),
            poll_interval: Duration::from_millis(25),
            ..SourceConfig::default()
        },
        telemetry: TelemetryConfig {
            flight_recorder_capacity: 64,
            ..TelemetryConfig::default()
        },
        ..DquagConfig::default()
    }
    .validated()
    .expect("configuration in range");
    let telemetry = config
        .telemetry
        .build()
        .expect("telemetry enabled by default");

    // The same Arc goes to all three layers: the engine counts batches and
    // queue depth and attaches the bundle to the validator, which times its
    // graph-build/forward/verdict stages; the listener counts connections
    // and decode errors.
    let mut backend = DquagBackend::new(config.clone());
    let fit = backend.fit(&clean).expect("training");
    println!("fitted {} on {} rows", fit.validator, fit.n_rows);

    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&config.stream)
        .telemetry(Arc::clone(&telemetry))
        .start(Box::new(backend))
        .expect("stream configuration in range");
    let listener = NetListenerSource::from_config(&config.source, kind.schema())
        .expect("loopback bind")
        .with_telemetry(Arc::clone(&telemetry));
    let addr = listener.local_addr();
    let runtime = SourceRuntime::builder()
        .config(&config.source)
        .source(Box::new(listener))
        .telemetry(Arc::clone(&telemetry))
        .start(ingest)
        .expect("runtime starts");
    println!("observed gate listening on {addr}\n");

    // Producer: each batch arrives over HTTP, like a collector would POST.
    for batch in feed(kind) {
        let body = csv::to_csv_string(&batch);
        let mut stream = TcpStream::connect(addr).expect("connect for HTTP");
        stream
            .write_all(
                format!(
                    "POST /ingest HTTP/1.1\r\nHost: gate\r\nContent-Type: text/csv\r\n\
                     Content-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .expect("HTTP POST");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("HTTP response");
        assert!(
            response.starts_with("HTTP/1.1 202"),
            "batch accepted, got: {}",
            response.lines().next().unwrap_or("")
        );
    }

    let mut dirty = 0usize;
    for item in verdicts.take(N_BATCHES) {
        if item.outcome.verdict().is_some_and(|v| v.is_dirty) {
            dirty += 1;
        }
        println!("{item}");
    }
    println!("\ngate quarantined {dirty}/{N_BATCHES} batches");

    // The scrape: Prometheus text format from the same port the data uses.
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK", "metrics endpoint answers");
    let series: Vec<&str> = metrics
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect();
    assert!(
        series.len() >= 12,
        "a full pipeline exposes at least 12 series, got {}",
        series.len()
    );
    println!("scraped {} series from GET /metrics, e.g.:", series.len());
    for line in series.iter().filter(|l| {
        l.starts_with("dquag_stream_batches_")
            || l.starts_with("dquag_gnn_")
            || l.contains("stage=\"forward\"} ") && l.contains("_count")
    }) {
        println!("  {line}");
    }

    // The black box: every lifecycle event of the run, oldest first.
    runtime.shutdown().expect("runtime drains");
    let final_stats = engine.shutdown();
    println!("\n{}", telemetry.recorder().render());
    assert_eq!(final_stats.emitted, N_BATCHES as u64, "nothing lost");
}
