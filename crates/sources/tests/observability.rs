//! Loopback tests for the observability surfaces: correct `Content-Type` /
//! `Content-Length` headers on `GET /stats` and `GET /metrics`, a parseable
//! Prometheus exposition covering the full pipeline (≥ 12 series), the
//! `GET /drift` scoreboard, and clean refusals when telemetry is off.

mod common;

use common::{get, request_once, Client};

use dquag_core::{DquagConfig, SourceConfig, StreamConfig};
use dquag_datagen::DatasetKind;
use dquag_sources::{NetListenerSource, SourceRuntime};
use dquag_stream::{StreamEngine, StreamStats, VerdictStream};
use dquag_tabular::{csv, DataFrame, Field, Schema, Value};
use dquag_telemetry::{Telemetry, TelemetryConfig, TelemetryDataConfig};
use dquag_validate::{build_spec, DriftSpec, DriftValidator, Validator, ValidatorSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const KIND: DatasetKind = DatasetKind::HotelBooking;

fn fitted_validator() -> Box<dyn Validator> {
    let clean = KIND.generate_clean(400, 11);
    let config = DquagConfig::fast();
    let mut validator = build_spec(&ValidatorSpec::backend("deequ-auto"), &config).unwrap();
    validator.fit(&clean).expect("fitting succeeds");
    validator
}

/// A full telemetry-enabled stack: engine, listener and runtime sharing one
/// bundle, so a single scrape covers the whole pipeline.
fn start_observed() -> (
    Arc<Telemetry>,
    StreamEngine,
    VerdictStream,
    SourceRuntime,
    SocketAddr,
) {
    let telemetry = TelemetryConfig {
        flight_recorder_capacity: 64,
        dump_on_error: false,
        ..TelemetryConfig::default()
    }
    .build()
    .expect("telemetry is enabled");
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 64,
            ..StreamConfig::default()
        })
        .telemetry(Arc::clone(&telemetry))
        .start(fitted_validator())
        .expect("engine starts");
    let source = NetListenerSource::from_config(&SourceConfig::default(), KIND.schema())
        .expect("loopback bind succeeds")
        .with_telemetry(Arc::clone(&telemetry));
    let addr = source.local_addr();
    let config = SourceConfig {
        poll_interval: Duration::from_millis(10),
        ..SourceConfig::default()
    };
    let runtime = SourceRuntime::builder()
        .config(&config)
        .source(Box::new(source))
        .telemetry(Arc::clone(&telemetry))
        .start(ingest)
        .expect("runtime starts");
    (telemetry, engine, verdicts, runtime, addr)
}

/// Split an HTTP/1.1 response into (status line, headers, body).
fn parse_response(response: &str) -> (&str, Vec<(String, String)>, &str) {
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let mut lines = head.split("\r\n");
    let status = lines.next().expect("status line");
    let headers = lines
        .map(|line| {
            let (name, value) = line.split_once(':').expect("header line");
            (name.trim().to_ascii_lowercase(), value.trim().to_string())
        })
        .collect();
    (status, headers, body)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> &'a str {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("missing header {name}"))
}

/// Minimal Prometheus text-format 0.0.4 parser: validates comment and
/// sample lines, returns (family names, full series identifiers).
fn parse_prometheus(text: &str) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut families = BTreeSet::new();
    let mut series = BTreeSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            let mut parts = comment.splitn(3, ' ');
            let keyword = parts.next().expect("comment keyword");
            assert!(
                keyword == "HELP" || keyword == "TYPE",
                "unknown comment `{line}`"
            );
            let name = parts.next().expect("comment metric name");
            if keyword == "TYPE" {
                let kind = parts.next().expect("TYPE kind");
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind),
                    "bad TYPE `{line}`"
                );
                families.insert(name.to_string());
            }
            continue;
        }
        let (identifier, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparseable sample value in `{line}`"
        );
        if let Some(brace) = identifier.find('{') {
            assert!(identifier.ends_with('}'), "unbalanced labels in `{line}`");
            let labels = &identifier[brace + 1..identifier.len() - 1];
            for pair in labels.split(',') {
                let (k, v) = pair.split_once('=').expect("label pair");
                assert!(!k.is_empty(), "empty label name in `{line}`");
                assert!(
                    v.starts_with('"') && v.ends_with('"'),
                    "unquoted label value in `{line}`"
                );
            }
        }
        series.insert(identifier.to_string());
    }
    (families, series)
}

fn post_frame(addr: SocketAddr, batch: &DataFrame) {
    let body = csv::to_csv_string(batch);
    let response = request_once(
        addr,
        &format!(
            "POST /ingest HTTP/1.1\r\nHost: test\r\nContent-Type: text/csv\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(response.starts_with("HTTP/1.1 202"), "{response}");
}

fn post_batches(addr: SocketAddr, n: usize) {
    for i in 0..n {
        post_frame(addr, &KIND.generate_clean(30, 700 + i as u64));
    }
}

/// `GET path`, asserting a `200`; returns the body.
fn get_body(addr: SocketAddr, path: &str) -> String {
    let response = request_once(addr, &format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n"));
    let (status, _headers, body) = parse_response(&response);
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    body.to_string()
}

/// Every sample line of a scrape, as identifier → value.
fn samples(body: &str) -> BTreeMap<String, f64> {
    body.lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let (identifier, value) = line.rsplit_once(' ').expect("sample line");
            (identifier.to_string(), value.parse().expect("value"))
        })
        .collect()
}

#[test]
fn stats_and_metrics_send_correct_content_type_and_length() {
    let (_telemetry, engine, verdicts, runtime, addr) = start_observed();

    let response = request_once(addr, "GET /stats HTTP/1.1\r\nHost: test\r\n\r\n");
    let (status, headers, body) = parse_response(&response);
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert_eq!(header(&headers, "content-type"), "application/json");
    assert_eq!(
        header(&headers, "content-length"),
        body.len().to_string(),
        "Content-Length must match the body byte count"
    );

    let response = request_once(addr, "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
    let (status, headers, body) = parse_response(&response);
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert_eq!(
        header(&headers, "content-type"),
        "text/plain; version=0.0.4"
    );
    assert_eq!(header(&headers, "content-length"), body.len().to_string());

    runtime.shutdown().expect("runtime drains");
    drop(verdicts);
    engine.shutdown();
}

#[test]
fn metrics_endpoint_covers_the_pipeline_and_parses_as_prometheus() {
    let (_telemetry, engine, mut verdicts, runtime, addr) = start_observed();

    post_batches(addr, 4);
    // Drain the four verdicts so emission-side series move too.
    for _ in 0..4 {
        verdicts.recv().expect("verdict arrives");
    }
    // A hot swap, so the generation gauge and swap event are live.
    engine
        .swap_validator(fitted_validator())
        .expect("swap succeeds");

    let response = request_once(addr, "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
    let (status, _headers, body) = parse_response(&response);
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");

    let (families, series) = parse_prometheus(body);
    assert!(
        series.len() >= 12,
        "expected ≥ 12 series, got {}: {series:?}",
        series.len()
    );
    for required in [
        "dquag_stage_duration_seconds_count{stage=\"decode\"}",
        "dquag_stage_duration_seconds_count{stage=\"queue_wait\"}",
        "dquag_stage_duration_seconds_count{stage=\"emit\"}",
        "dquag_stream_batches_submitted_total",
        "dquag_stream_batches_emitted_total",
        "dquag_stream_queue_depth",
        "dquag_stream_in_flight",
        "dquag_stream_generation",
        "dquag_stream_drops_total{policy=\"reject\"}",
        "dquag_stream_batch_latency_seconds_count",
        "dquag_source_connections_total",
        "dquag_source_decode_errors_total",
    ] {
        assert!(series.contains(required), "missing series `{required}`");
    }
    assert!(families.contains("dquag_stage_duration_seconds"));

    // The moving parts moved: 4 decodes, 4 submissions, generation 1.
    assert!(body.contains("dquag_stage_duration_seconds_count{stage=\"decode\"} 4"));
    assert!(body.contains("dquag_stream_batches_submitted_total 4"));
    assert!(body.contains("dquag_stream_generation 1"));

    runtime.shutdown().expect("runtime drains");
    drop(verdicts);
    engine.shutdown();
}

/// For every histogram family in a scrape, the `+Inf` bucket must equal
/// `_count` — the invariant Prometheus rate() math relies on.
#[test]
fn every_histogram_family_has_inf_bucket_equal_to_count() {
    let (_telemetry, engine, mut verdicts, runtime, addr) = start_observed();
    post_batches(addr, 3);
    for _ in 0..3 {
        verdicts.recv().expect("verdict arrives");
    }

    let samples = samples(&get_body(addr, "/metrics"));
    let mut histograms_checked = 0;
    for (identifier, inf_value) in &samples {
        let Some(bucket_at) = identifier.find("_bucket{") else {
            continue;
        };
        let labels = &identifier[bucket_at + "_bucket{".len()..identifier.len() - 1];
        if !labels.split(',').any(|pair| pair == "le=\"+Inf\"") {
            continue;
        }
        // Rebuild the matching `_count` identifier by dropping the `le`
        // label (and the braces entirely if `le` was the only one).
        let rest: Vec<&str> = labels
            .split(',')
            .filter(|pair| !pair.starts_with("le="))
            .collect();
        let name = &identifier[..bucket_at];
        let count_identifier = if rest.is_empty() {
            format!("{name}_count")
        } else {
            format!("{name}_count{{{}}}", rest.join(","))
        };
        let count = samples
            .get(&count_identifier)
            .unwrap_or_else(|| panic!("no `{count_identifier}` for `{identifier}`"));
        assert_eq!(
            inf_value, count,
            "+Inf bucket of `{identifier}` disagrees with `{count_identifier}`"
        );
        histograms_checked += 1;
    }
    assert!(
        histograms_checked >= 3,
        "expected ≥ 3 histogram series, checked {histograms_checked}"
    );

    runtime.shutdown().expect("runtime drains");
    drop(verdicts);
    engine.shutdown();
}

/// `GET /stats` reads the engine's counters from the series `GET /metrics`
/// renders, so once every verdict is in the two surfaces agree.
#[test]
fn stats_and_metrics_report_the_same_counts() {
    let (_telemetry, engine, mut verdicts, runtime, addr) = start_observed();
    post_batches(addr, 2);
    for i in 0..2 {
        post_frame(addr, &KIND.generate_dirty(30, 800 + i));
    }
    for _ in 0..4 {
        verdicts.recv().expect("verdict arrives");
    }

    let stats: StreamStats = serde_json::from_str(&get_body(addr, "/stats")).expect("stats");
    let samples = samples(&get_body(addr, "/metrics"));
    let series = |identifier: &str| samples[identifier] as u64;
    assert_eq!(stats.emitted, 4);
    assert!(stats.dirty > 0, "the dirty batches were flagged: {stats}");
    let counts = (
        stats.submitted,
        stats.emitted,
        stats.rows_validated,
        stats.dirty,
    );
    let exported = (
        series("dquag_stream_batches_submitted_total"),
        series("dquag_stream_batches_emitted_total"),
        series("dquag_stream_rows_validated_total"),
        series("dquag_verdict_outcomes_total{outcome=\"dirty\"}"),
    );
    assert_eq!(counts, exported);

    runtime.shutdown().expect("runtime drains");
    drop(verdicts);
    engine.shutdown();
}

fn drift_schema() -> Schema {
    Schema::new(vec![
        Field::numeric("amount", ""),
        Field::numeric("delay", ""),
    ])
}

fn drift_frame(shift: f64, n: usize) -> DataFrame {
    let mut df = DataFrame::new(drift_schema());
    for i in 0..n {
        df.push_row(vec![
            Value::Number(shift + (i % 17) as f64),
            Value::Number((i % 5) as f64),
        ])
        .expect("row matches schema");
    }
    df
}

/// A telemetry stack with the data layer on and a drift validator serving,
/// so per-column gauges and the scoreboard have something to say.
fn start_drift_observed() -> (
    Arc<Telemetry>,
    StreamEngine,
    VerdictStream,
    SourceRuntime,
    SocketAddr,
) {
    let telemetry = TelemetryConfig {
        flight_recorder_capacity: 64,
        dump_on_error: false,
        data: TelemetryDataConfig {
            enabled: true,
            top_k: 4,
        },
        ..TelemetryConfig::default()
    }
    .build()
    .expect("telemetry is enabled");
    let mut validator = DriftValidator::new(DriftSpec::default());
    validator.fit(&drift_frame(0.0, 160)).expect("fit succeeds");
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 64,
            ..StreamConfig::default()
        })
        .telemetry(Arc::clone(&telemetry))
        .start(Box::new(validator))
        .expect("engine starts");
    let source = NetListenerSource::from_config(&SourceConfig::default(), drift_schema())
        .expect("loopback bind succeeds")
        .with_telemetry(Arc::clone(&telemetry));
    let addr = source.local_addr();
    let config = SourceConfig {
        poll_interval: Duration::from_millis(10),
        ..SourceConfig::default()
    };
    let runtime = SourceRuntime::builder()
        .config(&config)
        .source(Box::new(source))
        .telemetry(Arc::clone(&telemetry))
        .start(ingest)
        .expect("runtime starts");
    (telemetry, engine, verdicts, runtime, addr)
}

fn post_drift_batch(addr: SocketAddr, shift: f64) {
    let body = csv::to_csv_string(&drift_frame(shift, 40));
    let response = request_once(
        addr,
        &format!(
            "POST /ingest HTTP/1.1\r\nHost: test\r\nContent-Type: text/csv\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(response.starts_with("HTTP/1.1 202"), "{response}");
}

#[test]
fn drift_scoreboard_is_served_over_http() {
    let (_telemetry, engine, mut verdicts, runtime, addr) = start_drift_observed();

    // One clean batch, then two with `amount` shifted far off-profile.
    post_drift_batch(addr, 0.0);
    post_drift_batch(addr, 500.0);
    post_drift_batch(addr, 500.0);
    for _ in 0..3 {
        verdicts.recv().expect("verdict arrives");
    }

    // The scoreboard names `amount` first, past its threshold.
    let response = request_once(addr, "GET /drift HTTP/1.1\r\nHost: test\r\n\r\n");
    let (status, headers, body) = parse_response(&response);
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert_eq!(header(&headers, "content-type"), "application/json");
    let first_column = body
        .split_once("\"column\": ")
        .or_else(|| body.split_once("\"column\":"))
        .map(|(_, rest)| rest.trim_start())
        .expect("scoreboard has columns");
    assert!(
        first_column.starts_with("\"amount\""),
        "`amount` should rank first: {body}"
    );
    assert!(body.contains("\"drifted\""), "{body}");

    // The gauges stay inside the cardinality budget and name the drifter.
    let response = request_once(addr, "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
    let (_status, _headers, metrics_body) = parse_response(&response);
    let (_families, series) = parse_prometheus(metrics_body);
    assert!(
        series
            .iter()
            .any(|s| s.starts_with("dquag_column_drift{") && s.contains("column=\"amount\"")),
        "no drift gauge for `amount`: {series:?}"
    );
    let ratio_series = series
        .iter()
        .filter(|s| s.starts_with("dquag_column_drift_threshold_ratio{"))
        .count();
    assert!(
        (1..=4).contains(&ratio_series),
        "ratio gauges outside the top-K budget: {ratio_series}"
    );

    // A kept-alive connection serves the same scoreboard, request after
    // request.
    let mut client = Client::connect(addr);
    for _ in 0..2 {
        let reply = client.exchange(&get("/drift"));
        assert_eq!((reply.status, reply.body.as_str()), (200, body));
    }

    runtime.shutdown().expect("runtime drains");
    drop(verdicts);
    engine.shutdown();
}

/// A bundle without the data layer refuses `/drift` with a distinct
/// message, while `/metrics` keeps serving.
#[test]
fn drift_surfaces_refuse_when_the_data_layer_is_off() {
    let (_telemetry, engine, verdicts, runtime, addr) = start_observed();

    let response = request_once(addr, "GET /drift HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");
    assert!(
        response.contains("data telemetry not enabled"),
        "{response}"
    );

    let response = request_once(addr, "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");

    runtime.shutdown().expect("runtime drains");
    drop(verdicts);
    engine.shutdown();
}

#[test]
fn without_telemetry_the_surfaces_refuse_cleanly() {
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 8,
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

    let response = request_once(addr, "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");
    assert!(response.contains("telemetry not enabled"), "{response}");

    let response = request_once(addr, "GET /drift HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");
    assert!(
        response.contains("data telemetry not enabled"),
        "{response}"
    );

    runtime.shutdown().expect("runtime drains");
    drop(verdicts);
    engine.shutdown();
}
