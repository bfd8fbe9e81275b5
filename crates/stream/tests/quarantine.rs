//! Replica quarantine: a validator that fails a health self-check is
//! retired, counted and flight-recorded; with a rebuild source the engine
//! hot-swaps a fresh validator in and retries the batch, so no batch is
//! lost to — or judged by — a corrupted replica. Panicking validators are
//! caught: the batch fails, the worker survives. Bad input is not a health
//! violation: a non-finite cell gets a verdict, not a quarantine.

use dquag_core::{BackpressurePolicy, DquagConfig, HealthError, StreamConfig};
use dquag_datagen::DatasetKind;
use dquag_stream::{StreamEngine, StreamOutcome, SubmitOutcome};
use dquag_tabular::{DataFrame, Field, Schema, Value};
use dquag_telemetry::{Telemetry, TelemetryConfig};
use dquag_validate::{Capabilities, DquagBackend, FitReport, ValidateError, Validator, Verdict};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A stub replica whose health is a shared switch: while `corrupt` is set,
/// `validate` reports a checksum-mismatch health violation instead of a
/// verdict — the same shape a real corrupted DQuaG replica produces.
struct Switchable {
    label: &'static str,
    corrupt: Arc<AtomicBool>,
    panic_on_marker: bool,
}

impl Switchable {
    fn healthy(label: &'static str) -> Box<Self> {
        Box::new(Self {
            label,
            corrupt: Arc::new(AtomicBool::new(false)),
            panic_on_marker: false,
        })
    }
}

impl Validator for Switchable {
    fn name(&self) -> &str {
        self.label
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::dataset_level()
    }

    fn fit(&mut self, clean: &DataFrame) -> dquag_validate::Result<FitReport> {
        Ok(FitReport {
            validator: self.label.to_string(),
            n_rows: clean.n_rows(),
            n_columns: clean.n_cols(),
            threshold: None,
            n_parameters: None,
            notes: vec![],
        })
    }

    fn validate(&self, batch: &DataFrame) -> dquag_validate::Result<Verdict> {
        if self.panic_on_marker && batch.n_rows() == MARKER_ROWS {
            panic!("deliberate validator panic on the marker batch");
        }
        if self.corrupt.load(Ordering::SeqCst) {
            return Err(ValidateError::Health(HealthError::ChecksumMismatch {
                expected: 0x1,
                actual: 0x2,
            }));
        }
        Ok(Verdict::dataset_level(
            self.label.to_string(),
            false,
            0.0,
            batch.n_rows(),
            vec![],
        ))
    }

    fn replicate(&self) -> Option<Box<dyn Validator>> {
        // Replicas share the corruption switch, mirroring a fault that hits
        // the shared fitted state.
        Some(Box::new(Switchable {
            label: self.label,
            corrupt: Arc::clone(&self.corrupt),
            panic_on_marker: self.panic_on_marker,
        }))
    }

    fn health_check(&self) -> dquag_validate::Result<()> {
        if self.corrupt.load(Ordering::SeqCst) {
            return Err(ValidateError::Health(HealthError::ChecksumMismatch {
                expected: 0x1,
                actual: 0x2,
            }));
        }
        Ok(())
    }
}

/// Batches with this many rows make a `panic_on_marker` validator panic.
const MARKER_ROWS: usize = 7;

fn batch(rows: usize) -> DataFrame {
    let schema = Schema::new(vec![Field::numeric("x", "")]);
    let mut df = DataFrame::new(schema);
    for i in 0..rows {
        df.push_row(vec![Value::Number(i as f64)]).unwrap();
    }
    df
}

fn quiet_telemetry() -> Arc<Telemetry> {
    TelemetryConfig {
        flight_recorder_capacity: 64,
        dump_on_error: false,
        ..TelemetryConfig::default()
    }
    .build()
    .expect("telemetry is enabled")
}

#[test]
fn health_violation_quarantines_rebuilds_and_retries_the_batch() {
    let telemetry = quiet_telemetry();
    let corrupt = Arc::new(AtomicBool::new(false));
    let primary = Box::new(Switchable {
        label: "gen-sick",
        corrupt: Arc::clone(&corrupt),
        panic_on_marker: false,
    });
    let (engine, ingest, mut verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 8,
            replicas: 1,
            backpressure: BackpressurePolicy::Block,
            ..StreamConfig::default()
        })
        .telemetry(Arc::clone(&telemetry))
        .rebuild_source(|| Some(Switchable::healthy("gen-rebuilt") as Box<dyn Validator>))
        .start(primary)
        .expect("engine starts");

    // A healthy batch first, then corrupt the replica, then more traffic.
    ingest.submit(batch(2)).expect("accepted");
    let first = verdicts.recv().expect("first outcome");
    assert!(
        matches!(&first.outcome, StreamOutcome::Verdict(v) if v.validator == "gen-sick"),
        "{first:?}"
    );
    corrupt.store(true, Ordering::SeqCst);
    for _ in 0..3 {
        assert!(matches!(
            ingest.submit(batch(2)).unwrap(),
            SubmitOutcome::Enqueued(_)
        ));
    }
    drop(ingest);

    // Every post-corruption batch is retried on the rebuilt replica: no
    // outcome is Failed and none carries the sick generation's name.
    let rest: Vec<_> = (&mut verdicts).collect();
    assert_eq!(rest.len(), 3);
    for item in &rest {
        match &item.outcome {
            StreamOutcome::Verdict(verdict) => assert_eq!(verdict.validator, "gen-rebuilt"),
            other => panic!("expected a rebuilt-generation verdict, got {other:?}"),
        }
    }

    // Exactly one quarantine: the first corrupt validate retired the
    // replica, and the swap left nothing else to trip.
    assert_eq!(
        telemetry
            .registry()
            .counter("dquag_replica_quarantines_total", "")
            .get(),
        1
    );
    assert!(telemetry
        .recorder()
        .dump()
        .iter()
        .any(|e| e.kind.label() == "replica_quarantined"));
    assert_eq!(engine.generation(), 1, "the rebuild bumped the generation");
    let stats = engine.shutdown();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.emitted, 4);
    assert_eq!(stats.failed, 0);
}

#[test]
fn health_violation_without_rebuild_source_fails_the_batch_loudly() {
    let telemetry = quiet_telemetry();
    let corrupt = Arc::new(AtomicBool::new(true));
    let primary = Box::new(Switchable {
        label: "gen-sick",
        corrupt,
        panic_on_marker: false,
    });
    let (engine, ingest, mut verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 4,
            replicas: 1,
            ..StreamConfig::default()
        })
        .telemetry(Arc::clone(&telemetry))
        .start(primary)
        .expect("engine starts");

    ingest.submit(batch(2)).expect("accepted");
    let item = verdicts.recv().expect("outcome");
    match &item.outcome {
        StreamOutcome::Failed(error) => assert!(error.is_health(), "{error}"),
        other => panic!("expected a health failure, got {other:?}"),
    }
    // Quarantine was still recorded — the operator sees the sick replica
    // even though the engine cannot heal it.
    assert_eq!(
        telemetry
            .registry()
            .counter("dquag_replica_quarantines_total", "")
            .get(),
        1
    );
    drop(ingest);
    engine.shutdown();
}

#[test]
fn panicking_validator_fails_the_batch_but_the_worker_survives() {
    let telemetry = quiet_telemetry();
    let primary = Box::new(Switchable {
        label: "gen-a",
        corrupt: Arc::new(AtomicBool::new(false)),
        panic_on_marker: true,
    });
    let (engine, ingest, mut verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 8,
            replicas: 1,
            backpressure: BackpressurePolicy::Block,
            ..StreamConfig::default()
        })
        .telemetry(Arc::clone(&telemetry))
        .start(primary)
        .expect("engine starts");

    // ok, panic, ok — all through the single worker.
    ingest.submit(batch(2)).expect("accepted");
    ingest.submit(batch(MARKER_ROWS)).expect("accepted");
    ingest.submit(batch(3)).expect("accepted");
    drop(ingest);

    let items: Vec<_> = verdicts.by_ref().collect();
    assert_eq!(items.len(), 3, "the worker survived the panic");
    assert!(matches!(&items[0].outcome, StreamOutcome::Verdict(_)));
    match &items[1].outcome {
        StreamOutcome::Failed(ValidateError::Panicked(reason)) => {
            assert!(reason.contains("deliberate validator panic"), "{reason}");
        }
        other => panic!("expected a panic failure, got {other:?}"),
    }
    assert!(matches!(&items[2].outcome, StreamOutcome::Verdict(_)));

    // The panic counts as a quarantine so the flaky replica is visible.
    assert_eq!(
        telemetry
            .registry()
            .counter("dquag_replica_quarantines_total", "")
            .get(),
        1
    );
    let stats = engine.shutdown();
    assert_eq!(stats.emitted, 3);
    assert_eq!(stats.failed, 1);
}

#[test]
fn non_finite_csv_cells_get_a_dirty_verdict_without_a_quarantine() {
    let clean = DatasetKind::CreditCard.generate_clean(400, 5);
    let mut backend = DquagBackend::new(DquagConfig::fast());
    backend.fit(&clean).expect("fits");
    let spare = backend.replicate().expect("DQuaG replicates");

    // Five rows of a 50-row CSV batch carry a raw number the decoder
    // accepts but no scaler range holds: 10% of rows, above the 6% line.
    // `NaN` reads as a missing cell; the others clamp far out of range.
    let column = clean.schema().index_of("CNT_CHILDREN").expect("column");
    let tokens = ["NaN", "inf", "-inf", "1e999", "1e39"];
    let poisoned = [3usize, 11, 19, 27, 35];
    let mut frame = clean.select_rows(&(0..50).collect::<Vec<_>>()).unwrap();
    for (i, &row) in poisoned.iter().enumerate() {
        let marker = 987_654_300.0 + i as f64;
        frame.set_value(row, column, Value::Number(marker)).unwrap();
    }
    let mut text = dquag_tabular::csv::to_csv_string(&frame);
    for (i, token) in tokens.iter().enumerate() {
        text = text.replace(&format!("9876543{:02}", i), token);
    }
    let batch = dquag_tabular::csv::from_csv_str(&text, clean.schema()).expect("decodes");

    let telemetry = quiet_telemetry();
    let (engine, ingest, mut verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 4,
            replicas: 1,
            backpressure: BackpressurePolicy::Block,
            ..StreamConfig::default()
        })
        .telemetry(Arc::clone(&telemetry))
        .rebuild_source(move || spare.replicate())
        .start(Box::new(backend))
        .expect("engine starts");
    ingest.submit(batch).expect("accepted");
    drop(ingest);

    let item = verdicts.recv().expect("outcome");
    match &item.outcome {
        StreamOutcome::Verdict(verdict) => {
            assert!(verdict.is_dirty, "{verdict:?}");
            let flagged = verdict.flagged_instances.as_ref().expect("row detail");
            for row in &poisoned[1..] {
                assert!(flagged.contains(row), "row {row} not in {flagged:?}");
            }
            let errors = verdict.instance_errors.as_ref().expect("row detail");
            assert!(errors.iter().all(|e| e.is_finite()), "{errors:?}");
        }
        other => panic!("expected a verdict, got {other:?}"),
    }
    assert_eq!(
        telemetry
            .registry()
            .counter("dquag_replica_quarantines_total", "")
            .get(),
        0
    );
    assert_eq!(engine.generation(), 0, "no rebuild happened");
    let stats = engine.shutdown();
    assert_eq!((stats.emitted, stats.failed), (1, 0));
}
