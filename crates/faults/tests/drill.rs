//! The end-to-end fault drill, in-process and deterministic: a seeded bit
//! flip strikes a fitted replica under live streaming traffic; the armed
//! self-check refuses to score with corrupt parameters; the engine
//! quarantines the replica, rebuilds it from the persisted model on disk and
//! retries the batch — and the final verdict stream is identical to one
//! from an engine that was never faulted.

use dquag_core::{BackpressurePolicy, DquagConfig, StreamConfig};
use dquag_datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag_faults::{FaultHandle, FaultKind, FaultSite, FaultedValidator};
use dquag_persist::{load_validator, save_validator};
use dquag_stream::{StreamEngine, StreamOutcome};
use dquag_tabular::DataFrame;
use dquag_telemetry::TelemetryConfig;
use dquag_validate::{DquagBackend, Validator, Verdict};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

fn unique_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dquag-drill-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fitted_backend() -> DquagBackend {
    let config = DquagConfig {
        epochs: 15,
        ..DquagConfig::default()
    }
    .validated()
    .unwrap();
    let clean = DatasetKind::CreditCard.generate_clean(900, 3);
    let mut backend = DquagBackend::new(config);
    backend.fit(&clean).expect("training succeeds");
    backend
}

fn traffic() -> Vec<DataFrame> {
    (0..5u64)
        .map(|i| {
            let mut batch = DatasetKind::CreditCard.generate_clean(120, 500 + i);
            if i % 2 == 1 {
                let mut rng = StdRng::seed_from_u64(900 + i);
                inject_ordinary(
                    &mut batch,
                    OrdinaryError::NumericAnomalies,
                    &[0, 1, 2],
                    0.3,
                    &mut rng,
                );
            }
            batch
        })
        .collect()
}

/// Serve `batches` on a one-replica engine, scheduling `fault` (if any) on
/// the handle after the first verdict lands. Returns the verdicts plus the
/// quarantine count.
fn serve(
    validator: Box<dyn Validator>,
    rebuild_from: Option<PathBuf>,
    fault: Option<(&FaultHandle, FaultKind)>,
    batches: &[DataFrame],
) -> (Vec<Verdict>, u64) {
    let telemetry = TelemetryConfig {
        flight_recorder_capacity: 64,
        dump_on_error: false,
        ..TelemetryConfig::default()
    }
    .build()
    .expect("telemetry is enabled");
    let mut builder = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: batches.len(),
            replicas: 1,
            backpressure: BackpressurePolicy::Block,
            ..StreamConfig::default()
        })
        .telemetry(Arc::clone(&telemetry));
    if let Some(path) = rebuild_from {
        builder = builder.rebuild_source(move || load_validator(&path).ok());
    }
    let (engine, ingest, mut verdicts) = builder.start(validator).expect("engine starts");

    // First batch judged healthy, then the fault strikes mid-stream.
    ingest.submit(batches[0].clone()).expect("accepted");
    let first = verdicts.recv().expect("first outcome");
    let mut collected = vec![match first.outcome {
        StreamOutcome::Verdict(v) => v,
        other => panic!("expected a verdict, got {other:?}"),
    }];
    if let Some((handle, kind)) = fault {
        handle.schedule(kind);
    }
    for batch in &batches[1..] {
        ingest.submit(batch.clone()).expect("accepted");
    }
    drop(ingest);
    for item in &mut verdicts {
        match item.outcome {
            StreamOutcome::Verdict(v) => collected.push(v),
            other => panic!("expected a verdict, got {other:?}"),
        }
    }
    engine.shutdown();
    let quarantines = telemetry
        .registry()
        .counter("dquag_replica_quarantines_total", "")
        .get();
    (collected, quarantines)
}

#[test]
fn bit_flipped_replica_is_quarantined_rebuilt_and_verdict_parity_restored() {
    let dir = unique_dir("parity");
    let model_path = dir.join("model.json");
    let backend = fitted_backend();
    save_validator(&model_path, &backend).expect("model persists");
    let batches = traffic();

    // Control run: the same persisted model, never faulted.
    let (expected, control_quarantines) =
        serve(load_validator(&model_path).unwrap(), None, None, &batches);
    assert_eq!(expected.len(), batches.len());
    assert_eq!(control_quarantines, 0);
    assert!(expected.iter().any(|v| v.is_dirty), "dirty batches trip");
    assert!(expected.iter().any(|v| !v.is_dirty), "clean batches pass");

    // Drill run: an exponent bit flip strikes the live replica after the
    // first batch. Every subsequent batch must still come back as a
    // verdict — the corrupt replica is never allowed to judge one.
    let handle = FaultHandle::new();
    let faulted = Box::new(FaultedValidator::new(backend, handle.clone(), 0xFA17));
    let (drilled, drill_quarantines) = serve(
        faulted,
        Some(model_path.clone()),
        Some((
            &handle,
            FaultKind::BitFlips {
                site: FaultSite::Exponent,
                count: 4,
            },
        )),
        &batches,
    );

    assert_eq!(drill_quarantines, 1, "exactly one replica was retired");
    assert_eq!(
        drilled, expected,
        "post-rebuild verdicts match the never-faulted engine verdict-for-verdict"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn activation_poison_is_also_caught_and_healed() {
    let dir = unique_dir("activation");
    let model_path = dir.join("model.json");
    let backend = fitted_backend();
    save_validator(&model_path, &backend).expect("model persists");
    let batches = traffic();

    let (expected, _) = serve(load_validator(&model_path).unwrap(), None, None, &batches);

    let handle = FaultHandle::new();
    let faulted = Box::new(FaultedValidator::new(backend, handle.clone(), 0xBEEF));
    let (drilled, quarantines) = serve(
        faulted,
        Some(model_path.clone()),
        Some((&handle, FaultKind::ActivationNan { count: 6 })),
        &batches,
    );

    assert_eq!(quarantines, 1);
    assert_eq!(drilled, expected);

    std::fs::remove_dir_all(&dir).ok();
}
