//! The drift observatory: per-column drift gauges and the ranked
//! scoreboard on a wide table where only two of sixteen columns drift.
//!
//! The cardinality policy is the point of this example. The table has 16
//! numeric columns, but the bundle's data layer is budgeted at 4 gauge
//! slots (`telemetry.data.top_k = 4`), so a Prometheus scrape stays small
//! no matter how wide the schema grows — while the in-memory scoreboard
//! served by `GET /drift` still ranks every column. Two columns (`price`
//! and `latency`) are pushed off-profile mid-run; the gauges, the
//! scoreboard and the flight recorder's drift-crossing events all name
//! them.
//!
//! ```bash
//! cargo run --release --example drift_observatory
//! ```

use dquag::core::{DquagConfig, SourceConfig, TelemetryConfig, TelemetryDataConfig};
use dquag::sources::{NetListenerSource, SourceRuntime};
use dquag::stream::StreamEngine;
use dquag::tabular::{csv, DataFrame, Field, Schema, Value};
use dquag::validate::{DriftSpec, DriftValidator, Validator};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const N_COLUMNS: usize = 16;
const DRIFTERS: [&str; 2] = ["price", "latency"];
const CLEAN_BATCHES: usize = 2;
const DRIFTED_BATCHES: usize = 3;

fn wide_schema() -> Schema {
    let fields = (0..N_COLUMNS)
        .map(|i| match i {
            3 => Field::numeric("price", "unit price"),
            7 => Field::numeric("latency", "request latency"),
            _ => {
                let name = format!("col_{i:02}");
                Field::numeric(&name, "")
            }
        })
        .collect();
    Schema::new(fields)
}

/// One batch of the wide table; `drifted` shoves the two drifter columns
/// far off the fitted profile while the other fourteen stay put.
fn batch(seed: u64, rows: usize, drifted: bool) -> DataFrame {
    let schema = wide_schema();
    let mut df = DataFrame::new(schema.clone());
    for row in 0..rows {
        let values = (0..N_COLUMNS)
            .map(|col| {
                let base = ((row as u64 * 31 + col as u64 * 17 + seed * 7) % 23) as f64;
                let name = &schema.fields()[col].name;
                if drifted && DRIFTERS.contains(&name.as_str()) {
                    Value::Number(400.0 + 3.0 * base)
                } else {
                    Value::Number(base)
                }
            })
            .collect();
        df.push_row(values).expect("row matches schema");
    }
    df
}

fn post_csv(addr: SocketAddr, frame: &DataFrame) {
    let body = csv::to_csv_string(frame);
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

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to the gate");
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
    // The data layer is off by default; one config block turns it on and
    // budgets the gauges at 4 slots for a 16-column table.
    let config = DquagConfig {
        source: SourceConfig {
            bind_addr: "127.0.0.1:0".to_string(),
            poll_interval: Duration::from_millis(20),
            ..SourceConfig::default()
        },
        telemetry: TelemetryConfig {
            flight_recorder_capacity: 64,
            data: TelemetryDataConfig {
                enabled: true,
                top_k: 4,
            },
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

    // A KS/PSI drift detector fitted on the clean profile; the engine
    // attaches the bundle, so every validated batch feeds the data layer.
    let mut validator = DriftValidator::new(DriftSpec::default());
    validator
        .fit(&batch(1, 400, false))
        .expect("fitting on clean data");
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&config.stream)
        .telemetry(Arc::clone(&telemetry))
        .start(Box::new(validator))
        .expect("engine starts");
    let listener = NetListenerSource::from_config(&config.source, wide_schema())
        .expect("loopback bind")
        .with_telemetry(Arc::clone(&telemetry));
    let addr = listener.local_addr();
    let runtime = SourceRuntime::builder()
        .config(&config.source)
        .source(Box::new(listener))
        .telemetry(Arc::clone(&telemetry))
        .start(ingest)
        .expect("runtime starts");
    println!("drift observatory listening on {addr}\n");

    // Clean traffic first, then `price` and `latency` walk off-profile.
    for i in 0..CLEAN_BATCHES {
        post_csv(addr, &batch(100 + i as u64, 80, false));
    }
    for i in 0..DRIFTED_BATCHES {
        post_csv(addr, &batch(200 + i as u64, 80, true));
    }
    let mut dirty = 0usize;
    for item in verdicts.take(CLEAN_BATCHES + DRIFTED_BATCHES) {
        if item.outcome.verdict().is_some_and(|v| v.is_dirty) {
            dirty += 1;
        }
        println!("{item}");
    }
    println!(
        "\ngate flagged {dirty}/{} batches as drifted",
        CLEAN_BATCHES + DRIFTED_BATCHES
    );

    // Scrape 1: the bounded gauge family. 16 columns, at most 4 slots.
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK", "metrics endpoint answers");
    let drift_series: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("dquag_column_drift") && !l.starts_with('#'))
        .collect();
    let ratio_series = drift_series
        .iter()
        .filter(|l| l.starts_with("dquag_column_drift_threshold_ratio{"))
        .count();
    assert!(
        (1..=4).contains(&ratio_series),
        "gauge slots must respect the top-K budget, got {ratio_series}"
    );
    for name in DRIFTERS {
        assert!(
            drift_series
                .iter()
                .any(|l| l.contains(&format!("column=\"{name}\""))),
            "drifted column `{name}` should hold a gauge slot"
        );
    }
    println!("\nper-column series from GET /metrics ({ratio_series} slots in use):");
    for line in &drift_series {
        println!("  {line}");
    }

    // Scrape 2: the ranked scoreboard covers all 16 columns.
    let (status, scoreboard) = http_get(addr, "/drift");
    assert_eq!(status, "HTTP/1.1 200 OK", "drift endpoint answers");
    for name in DRIFTERS {
        assert!(scoreboard.contains(name), "scoreboard should rank `{name}`");
    }
    println!("\nGET /drift scoreboard:\n{scoreboard}");

    // The flight recorder journaled the moment each column crossed its
    // threshold, alongside the usual lifecycle events.
    runtime.shutdown().expect("runtime drains");
    engine.shutdown();
    let crossings: Vec<String> = telemetry
        .recorder()
        .dump()
        .iter()
        .filter(|e| e.kind.label() == "drift_crossing")
        .map(|e| e.kind.to_string())
        .collect();
    assert!(
        crossings.iter().any(|c| c.contains("price"))
            && crossings.iter().any(|c| c.contains("latency")),
        "both drifters cross their thresholds: {crossings:?}"
    );
    println!("\nflight-recorder drift crossings:");
    for crossing in &crossings {
        println!("  {crossing}");
    }
}
