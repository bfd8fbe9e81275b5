//! Telemetry integration: an engine with a bundle attached exports its
//! counters/gauges/latency series, times the queue-wait and emit stages,
//! and journals lifecycle events in the flight recorder — while an engine
//! without one behaves identically and exports nothing. Its `StreamStats`
//! are read from the same series, so both views agree.

use dquag_core::{BackpressurePolicy, StreamConfig};
use dquag_stream::{StreamEngine, StreamStats, SubmitOutcome};
use dquag_tabular::{DataFrame, Field, Schema, Value};
use dquag_telemetry::{FlightEventKind, MetricsRegistry, Stage, Telemetry, TelemetryConfig};
use dquag_validate::{Capabilities, FitReport, ValidateError, Validator, Verdict};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// A deterministic instant validator; telemetry tests need event ordering,
/// not model quality.
struct InstantValidator {
    dirty: bool,
}

impl Validator for InstantValidator {
    fn name(&self) -> &str {
        "Instant"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::dataset_level()
    }

    fn fit(&mut self, clean: &DataFrame) -> dquag_validate::Result<FitReport> {
        Ok(FitReport {
            validator: self.name().to_string(),
            n_rows: clean.n_rows(),
            n_columns: clean.n_cols(),
            threshold: None,
            n_parameters: None,
            notes: vec![],
        })
    }

    fn validate(&self, batch: &DataFrame) -> dquag_validate::Result<Verdict> {
        Ok(Verdict::dataset_level(
            self.name(),
            self.dirty,
            if self.dirty { 1.0 } else { 0.0 },
            batch.n_rows(),
            vec![],
        ))
    }
}

fn tiny_batch(rows: usize) -> DataFrame {
    let schema = Schema::new(vec![Field::numeric("x", "")]);
    let mut df = DataFrame::new(schema);
    for i in 0..rows {
        df.push_row(vec![Value::Number(i as f64)]).unwrap();
    }
    df
}

fn quiet_telemetry() -> std::sync::Arc<Telemetry> {
    TelemetryConfig {
        flight_recorder_capacity: 64,
        dump_on_error: false,
        ..TelemetryConfig::default()
    }
    .build()
    .expect("telemetry is enabled")
}

#[test]
fn engine_exports_counters_stages_and_lifecycle_events() {
    let telemetry = quiet_telemetry();
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 8,
            replicas: 2,
            ..StreamConfig::default()
        })
        .telemetry(std::sync::Arc::clone(&telemetry))
        .start(Box::new(InstantValidator { dirty: true }))
        .expect("engine starts");

    for _ in 0..5 {
        assert!(matches!(
            ingest.submit(tiny_batch(10)).expect("accepted"),
            SubmitOutcome::Enqueued(_)
        ));
    }
    ingest.close();
    let items: Vec<_> = verdicts.collect();
    assert_eq!(items.len(), 5);
    engine.shutdown();

    let registry = telemetry.registry();
    assert_eq!(
        registry
            .counter("dquag_stream_batches_submitted_total", "")
            .get(),
        5
    );
    assert_eq!(
        registry
            .counter("dquag_stream_batches_emitted_total", "")
            .get(),
        5
    );
    assert_eq!(
        registry
            .counter_with("dquag_verdict_outcomes_total", "", &[("outcome", "dirty")])
            .get(),
        5
    );
    assert_eq!(
        registry
            .counter("dquag_stream_rows_validated_total", "")
            .get(),
        50
    );
    // Both engine-owned stages saw every batch.
    assert_eq!(telemetry.stage_histogram(Stage::QueueWait).count(), 5);
    assert_eq!(telemetry.stage_histogram(Stage::Emit).count(), 5);
    assert_eq!(
        registry
            .histogram("dquag_stream_batch_latency_seconds", "")
            .count(),
        5
    );
    // Occupancy gauges drained back to zero.
    assert_eq!(registry.gauge("dquag_stream_queue_depth", "").get(), 0.0);
    assert_eq!(registry.gauge("dquag_stream_in_flight", "").get(), 0.0);

    let events = telemetry.recorder().dump();
    let labels: Vec<&str> = events.iter().map(|e| e.kind.label()).collect();
    assert_eq!(labels.first(), Some(&"engine_started"));
    assert!(labels.contains(&"engine_closed"), "events: {labels:?}");
}

#[test]
fn swap_sets_generation_gauge_and_records_event() {
    let telemetry = quiet_telemetry();
    let (engine, ingest, mut verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 4,
            replicas: 1,
            ..StreamConfig::default()
        })
        .telemetry(std::sync::Arc::clone(&telemetry))
        .start(Box::new(InstantValidator { dirty: false }))
        .expect("engine starts");

    ingest.submit(tiny_batch(3)).expect("accepted");
    verdicts.recv().expect("one verdict");
    let generation = engine
        .swap_validator(Box::new(InstantValidator { dirty: true }))
        .expect("swap succeeds");
    assert_eq!(generation, 1);
    assert_eq!(
        telemetry
            .registry()
            .gauge("dquag_stream_generation", "")
            .get(),
        1.0
    );
    assert!(telemetry
        .recorder()
        .dump()
        .iter()
        .any(|e| e.kind == FlightEventKind::SwapGeneration { generation: 1 }));
    drop(ingest);
    engine.shutdown();
}

#[test]
fn verdict_scores_and_outcome_counters_are_exported() {
    let telemetry = quiet_telemetry();
    let (engine, ingest, mut verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 8,
            replicas: 1,
            ..StreamConfig::default()
        })
        .telemetry(std::sync::Arc::clone(&telemetry))
        .start(Box::new(InstantValidator { dirty: false }))
        .expect("engine starts");

    for _ in 0..3 {
        ingest.submit(tiny_batch(4)).expect("accepted");
    }
    for _ in 0..3 {
        verdicts.recv().expect("clean verdict");
    }
    engine
        .swap_validator(Box::new(InstantValidator { dirty: true }))
        .expect("swap succeeds");
    for _ in 0..2 {
        ingest.submit(tiny_batch(4)).expect("accepted");
    }
    for _ in 0..2 {
        verdicts.recv().expect("dirty verdict");
    }
    ingest.close();
    engine.shutdown();

    let registry = telemetry.registry();
    // Every emitted verdict lands in the score histogram…
    assert_eq!(registry.histogram("dquag_verdict_score", "").count(), 5);
    // …and in exactly one outcome counter.
    let outcome = |kind: &str| {
        registry
            .counter_with("dquag_verdict_outcomes_total", "", &[("outcome", kind)])
            .get()
    };
    assert_eq!(outcome("clean"), 3);
    assert_eq!(outcome("dirty"), 2);
    assert_eq!(outcome("failed"), 0);
    assert_eq!(outcome("deadline_exceeded"), 0);
}

#[test]
fn backpressure_drops_are_counted_by_policy_and_journaled() {
    let telemetry = quiet_telemetry();
    let (validator, release) = scripted();
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 1,
            replicas: 1,
            backpressure: BackpressurePolicy::Reject,
            ..StreamConfig::default()
        })
        .telemetry(std::sync::Arc::clone(&telemetry))
        .start(validator)
        .expect("engine starts");

    // Hold the only worker, fill the outstanding bound (queue 1 + 1
    // worker), then overflow it.
    ingest.submit(tiny_batch(4)).expect("accepted");
    let mut rejected = 0;
    for _ in 0..12 {
        if matches!(
            ingest.submit(tiny_batch(2)).expect("engine open"),
            SubmitOutcome::Rejected
        ) {
            rejected += 1;
        }
    }
    assert_eq!(rejected, 11, "all but the first overflowed the bound");
    assert_eq!(
        telemetry
            .registry()
            .counter_with("dquag_stream_drops_total", "", &[("policy", "reject")])
            .get(),
        rejected
    );
    assert!(telemetry.recorder().dump().iter().any(|e| e.kind
        == FlightEventKind::BackpressureDrop {
            policy: "reject".into()
        }));
    release.send(()).expect("the worker holds the batch");
    drop(ingest);
    drop(verdicts);
    engine.shutdown();
}

/// Judges each batch by its row count: 1 row is clean, 2 dirty, 3 an
/// error, and 4 clean once the test sends on the returned channel.
struct ScriptedValidator {
    release: Mutex<mpsc::Receiver<()>>,
}

fn scripted() -> (Box<ScriptedValidator>, mpsc::Sender<()>) {
    let (sender, receiver) = mpsc::channel();
    let release = Mutex::new(receiver);
    (Box::new(ScriptedValidator { release }), sender)
}

impl Validator for ScriptedValidator {
    fn name(&self) -> &str {
        "Scripted"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::dataset_level()
    }

    fn fit(&mut self, _clean: &DataFrame) -> dquag_validate::Result<FitReport> {
        unreachable!("tests start from a fitted stub")
    }

    fn validate(&self, batch: &DataFrame) -> dquag_validate::Result<Verdict> {
        match batch.n_rows() {
            3 => return Err(ValidateError::InvalidBatch("scripted failure".into())),
            4 => self
                .release
                .lock()
                .expect("release mutex")
                .recv()
                .expect("the test releases the held batch"),
            _ => {}
        }
        let dirty = batch.n_rows() == 2;
        Ok(Verdict::dataset_level(
            self.name(),
            dirty,
            if dirty { 1.0 } else { 0.0 },
            batch.n_rows(),
            vec![],
        ))
    }
}

/// Each `StreamStats` count next to the series it is read from.
fn counts_and_series(stats: &StreamStats, registry: &MetricsRegistry) -> Vec<(u64, u64)> {
    let counter =
        |name: &str, labels: &[(&str, &str)]| registry.counter_with(name, "", labels).get();
    let total = |name: &str| counter(&format!("dquag_stream_{name}_total"), &[]);
    let drops = |policy| counter("dquag_stream_drops_total", &[("policy", policy)]);
    let outcome = |kind| counter("dquag_verdict_outcomes_total", &[("outcome", kind)]);
    vec![
        (stats.submitted, total("batches_submitted")),
        (stats.emitted, total("batches_emitted")),
        (stats.rows_validated, total("rows_validated")),
        (stats.late_discarded, total("late_discarded")),
        (stats.dropped, drops("drop_newest")),
        (stats.rejected, drops("reject")),
        (stats.timed_out, drops("timeout")),
        (stats.dirty, outcome("dirty")),
        (stats.failed, outcome("failed")),
        (stats.deadline_exceeded, outcome("deadline_exceeded")),
    ]
}

/// One engine run that produces every outcome: a clean and a dirty
/// verdict, a validator error, a deadline miss whose verdict is discarded
/// as late, a withdrawn queued batch and a `Reject` drop. Returns the final
/// stats and the engine's bundle.
fn every_outcome_run(restored: Option<StreamStats>) -> (StreamStats, Arc<Telemetry>) {
    let telemetry = quiet_telemetry();
    let (validator, release) = scripted();
    let mut builder = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 1,
            replicas: 1,
            backpressure: BackpressurePolicy::Reject,
            batch_deadline: Some(Duration::from_millis(250)),
        })
        .telemetry(Arc::clone(&telemetry));
    if let Some(stats) = restored {
        builder = builder.restore_stats(stats);
    }
    let (engine, ingest, mut verdicts) = builder.start(validator).expect("engine starts");

    // A clean verdict, a dirty verdict and a validator error, one at a time.
    for rows in [1, 2, 3] {
        ingest.submit(tiny_batch(rows)).expect("accepted");
        verdicts.recv().expect("outcome arrives");
    }
    // The held batch keeps the only worker busy while the next one waits in
    // the queue: the outstanding bound (queue 1 + 1 worker) is full, so a
    // third submission is rejected. Nothing is emitted until `recv` runs.
    ingest.submit(tiny_batch(4)).expect("accepted");
    ingest.submit(tiny_batch(1)).expect("accepted");
    assert_eq!(
        ingest.submit(tiny_batch(1)).expect("engine open"),
        SubmitOutcome::Rejected
    );
    // Both blow the deadline: the queued one is withdrawn, and the held
    // one's verdict, released only now, is discarded as late.
    for _ in 0..2 {
        let item = verdicts.recv().expect("outcome arrives");
        assert!(item.outcome.is_deadline_exceeded(), "{item}");
    }
    release.send(()).expect("the worker holds the batch");
    drop(ingest);
    (engine.shutdown(), telemetry)
}

#[test]
fn stats_equal_their_series_for_every_outcome() {
    let (stats, telemetry) = every_outcome_run(None);
    let counts = (stats.submitted, stats.rejected, stats.emitted);
    assert_eq!(counts, (5, 1, 5));
    let outcomes = (stats.dirty, stats.failed, stats.deadline_exceeded);
    assert_eq!(outcomes, (1, 1, 2));
    assert_eq!(stats.late_discarded, 1);
    // The clean, dirty and held batches completed validation.
    assert_eq!(stats.rows_validated, 1 + 2 + 4);

    let registry = telemetry.registry();
    for (count, series) in counts_and_series(&stats, registry) {
        assert_eq!(count, series);
    }
    let latency = registry.histogram("dquag_stream_batch_latency_seconds", "");
    assert_eq!(stats.p50_latency, latency.percentile(0.50));
    assert_eq!(stats.p99_latency, latency.percentile(0.99));
}

#[test]
fn restored_stats_add_to_this_engines_series() {
    let (first, _) = every_outcome_run(None);
    let (stats, telemetry) = every_outcome_run(Some(first.clone()));

    // The restored counts plus this engine's own, while its series count
    // only its own batches: the same scenario as the first run's.
    let registry = telemetry.registry();
    let restored = counts_and_series(&first, registry);
    for ((before, series), (count, _)) in restored
        .into_iter()
        .zip(counts_and_series(&stats, registry))
    {
        assert_eq!(series, before);
        assert_eq!(count, before + series);
    }
    assert!(stats.uptime > first.uptime);
    // The percentiles cover only this engine's five batches.
    let latency = registry.histogram("dquag_stream_batch_latency_seconds", "");
    assert_eq!(latency.count(), 5);
    assert_eq!(stats.p50_latency, latency.percentile(0.50));
    assert_eq!(stats.p99_latency, latency.percentile(0.99));
}
