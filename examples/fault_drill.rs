//! The fault drill: a seeded bit flip corrupts the live replica's fitted
//! weights mid-stream; the armed self-check catches it before a verdict
//! escapes; the engine quarantines the replica, rebuilds it from the
//! persisted model on disk and retries the batch — and the verdict stream
//! comes out identical to a deployment that was never hit.
//!
//! Traffic arrives the way it would in production: CSV batches posted over
//! one kept-alive HTTP connection to a loopback listener from
//! `dquag-sources`.
//!
//! ```bash
//! cargo run --release --example fault_drill
//! ```

mod http_client;

use dquag::core::{DquagConfig, SourceConfig, StreamConfig};
use dquag::datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag::faults::{FaultHandle, FaultKind, FaultSite, FaultedValidator};
use dquag::gnn::ModelConfig;
use dquag::persist::{load_validator, save_validator};
use dquag::sources::{NetListenerSource, SourceRuntime};
use dquag::stream::{StreamEngine, StreamOutcome};
use dquag::tabular::DataFrame;
use dquag::telemetry::TelemetryConfig;
use dquag::validate::{DquagBackend, Validator, Verdict};
use std::sync::Arc;
use std::time::Instant;

const KIND: DatasetKind = DatasetKind::HotelBooking;
const BATCH_ROWS: usize = 250;
const N_BATCHES: usize = 6;

fn traffic() -> Vec<DataFrame> {
    (0..N_BATCHES as u64)
        .map(|i| {
            let mut batch = KIND.generate_clean(BATCH_ROWS, 300 + i);
            if i % 2 == 1 {
                let mut rng = dquag::datagen::rng(9000 + i);
                inject_ordinary(
                    &mut batch,
                    OrdinaryError::NumericAnomalies,
                    &KIND.default_ordinary_error_columns(),
                    0.35,
                    &mut rng,
                );
            }
            batch
        })
        .collect()
}

/// Serve the whole traffic over loopback HTTP. When `fault` is set, it is
/// scheduled right after the first verdict lands — a bit flip striking a
/// replica that is mid-stream. Returns the verdicts and the quarantine
/// count.
fn serve(
    config: &DquagConfig,
    validator: Box<dyn Validator>,
    rebuild_from: Option<std::path::PathBuf>,
    fault: Option<(FaultHandle, FaultKind)>,
    batches: &[DataFrame],
) -> (Vec<Verdict>, u64) {
    let telemetry = TelemetryConfig {
        flight_recorder_capacity: 64,
        ..TelemetryConfig::default()
    }
    .build()
    .expect("telemetry is enabled");
    let mut builder = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: batches.len(),
            replicas: 1,
            ..StreamConfig::default()
        })
        .telemetry(Arc::clone(&telemetry));
    if let Some(path) = rebuild_from {
        builder = builder.rebuild_source(move || load_validator(&path).ok());
    }
    let (engine, ingest, mut verdicts) = builder.start(validator).expect("engine starts");
    let listener =
        NetListenerSource::from_config(&config.source, KIND.schema()).expect("loopback bind");
    let addr = listener.local_addr();
    let runtime = SourceRuntime::builder()
        .config(&config.source)
        .source(Box::new(listener))
        .start(ingest)
        .expect("runtime starts");

    // The first batch is judged by a healthy replica; then the fault hits.
    http_client::send_batches(addr, &batches[..1]);
    let first = verdicts.recv().expect("first outcome");
    let mut collected = vec![match first.outcome {
        StreamOutcome::Verdict(v) => v,
        other => panic!("expected a verdict, got {other:?}"),
    }];
    if let Some((handle, kind)) = fault {
        println!("  !! injecting {kind:?} into the live replica");
        handle.schedule(kind);
    }
    http_client::send_batches(addr, &batches[1..]);
    while collected.len() < batches.len() {
        let item = verdicts.recv().expect("an outcome per batch");
        match item.outcome {
            StreamOutcome::Verdict(v) => {
                println!(
                    "  seq {:>2}: {} dirty={}",
                    item.seq, v.validator, v.is_dirty
                );
                collected.push(v);
            }
            other => panic!("expected a verdict, got {other:?}"),
        }
    }
    runtime.shutdown().expect("runtime drains");
    drop(verdicts);
    engine.shutdown();
    let quarantines = telemetry
        .registry()
        .counter("dquag_replica_quarantines_total", "")
        .get();
    for event in telemetry.recorder().dump() {
        if event.kind.label() == "replica_quarantined" {
            println!("  flight recorder: {}", event.kind);
        }
    }
    (collected, quarantines)
}

fn main() {
    let work_dir = std::env::temp_dir().join(format!("dquag_fault_drill_{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).expect("work dir");
    let model_path = work_dir.join("model.json");

    let config = DquagConfig {
        model: ModelConfig {
            hidden_dim: 12,
            n_layers: 2,
            ..ModelConfig::default()
        },
        epochs: 8,
        dataset_flag_factor: 2.5,
        source: SourceConfig {
            bind_addr: "127.0.0.1:0".to_string(),
            ..SourceConfig::default()
        },
        ..DquagConfig::default()
    }
    .validated()
    .expect("configuration in range");

    // Train once, persist: the file on disk is what the engine heals from.
    let clean = KIND.generate_clean(1_500, 51);
    let start = Instant::now();
    let mut backend = DquagBackend::new(config.clone());
    backend.fit(&clean).expect("training succeeds");
    println!(
        "trained on {} rows in {:.1}s; persisting -> {}",
        clean.n_rows(),
        start.elapsed().as_secs_f64(),
        model_path.display()
    );
    save_validator(&model_path, &backend).expect("model persists");
    let batches = traffic();

    // Control: the persisted model, never faulted.
    println!("\ncontrol run (never faulted):");
    let (expected, control_quarantines) = serve(
        &config,
        load_validator(&model_path).expect("model loads"),
        None,
        None,
        &batches,
    );
    assert_eq!(control_quarantines, 0);

    // Drill: exponent bit flips strike the live replica after batch 0. The
    // self-check refuses to score, the engine quarantines the replica,
    // rebuilds from disk and retries — no batch is lost, none is judged by
    // a corrupt model.
    println!("\ndrill run (bit flip after the first verdict):");
    let handle = FaultHandle::new();
    let faulted = Box::new(FaultedValidator::new(backend, handle.clone(), 0xFA17));
    let (drilled, quarantines) = serve(
        &config,
        faulted,
        Some(model_path.clone()),
        Some((
            handle,
            FaultKind::BitFlips {
                site: FaultSite::Exponent,
                count: 4,
            },
        )),
        &batches,
    );

    assert_eq!(quarantines, 1, "exactly one replica was retired");
    assert_eq!(
        drilled, expected,
        "post-rebuild verdicts match the never-faulted control verdict-for-verdict"
    );
    println!(
        "\ndrill passed: 1 quarantine, {} verdicts, parity with the never-faulted control",
        drilled.len()
    );

    std::fs::remove_dir_all(&work_dir).ok();
}
