//! Acceptance: kill the process, restart from the persisted model, and the
//! restarted deployment is indistinguishable from one that never went down —
//! verdict-for-verdict identical on the same traffic, with zero refit.
//!
//! The "kill" is simulated the only way a test can: the fitted validator the
//! first engine served is never shared with the second — the restarted
//! engine sees nothing but the bytes on disk.

use dquag_core::spec::ValidatorSpec;
use dquag_core::{BackpressurePolicy, DquagConfig, StreamConfig};
use dquag_datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag_persist::{
    load_validator, registry_with_persistence, save_validator, PersistError, PERSISTED_DQUAG,
};
use dquag_stream::{StreamEngine, StreamOutcome};
use dquag_tabular::DataFrame;
use dquag_validate::{build_spec, Validator, Verdict};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn unique_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dquag-restart-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Train a small but real DQuaG validator (GNN and all) on clean traffic.
fn fit_dquag(clean: &DataFrame) -> Box<dyn Validator> {
    let config = DquagConfig {
        epochs: 15,
        ..DquagConfig::default()
    }
    .validated()
    .unwrap();
    let mut validator = build_spec(&ValidatorSpec::backend("dquag"), &config).unwrap();
    validator.fit(clean).unwrap();
    validator
}

/// The traffic both deployments judge: clean batches interleaved with
/// batches carrying injected ordinary errors.
fn traffic() -> Vec<DataFrame> {
    let mut batches = Vec::new();
    for seed in 0..6u64 {
        let mut batch = DatasetKind::CreditCard.generate_clean(120, 100 + seed);
        if seed % 2 == 1 {
            let mut rng = StdRng::seed_from_u64(777 + seed);
            inject_ordinary(
                &mut batch,
                OrdinaryError::NumericAnomalies,
                &[0, 1, 2],
                0.3,
                &mut rng,
            );
        }
        batches.push(batch);
    }
    batches
}

/// Run every batch through a one-replica engine and return the verdicts in
/// submission order.
fn serve(validator: Box<dyn Validator>, batches: &[DataFrame]) -> Vec<Verdict> {
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 8,
            replicas: 1,
            backpressure: BackpressurePolicy::Block,
            ..StreamConfig::default()
        })
        .start(validator)
        .expect("engine starts");
    let collector = std::thread::spawn(move || verdicts.collect::<Vec<_>>());
    for batch in batches {
        ingest.submit(batch.clone()).unwrap();
    }
    drop(ingest);
    let items = collector.join().unwrap();
    engine.shutdown();
    items
        .into_iter()
        .map(|item| match item.outcome {
            StreamOutcome::Verdict(verdict) => verdict,
            other => panic!("expected a verdict, got {other:?}"),
        })
        .collect()
}

#[test]
fn restart_from_disk_serves_identical_verdicts_with_zero_refit() {
    let dir = unique_dir("accept");
    let model_path = dir.join("model.json");

    // Deployment 1: train once, persist, serve.
    let clean = DatasetKind::CreditCard.generate_clean(900, 3);
    let live = fit_dquag(&clean);
    save_validator(&model_path, live.as_ref()).unwrap();
    let batches = traffic();
    let before_restart = serve(live, &batches);
    assert_eq!(before_restart.len(), batches.len());
    assert!(
        before_restart.iter().any(|v| v.is_dirty),
        "injected batches should trip the model"
    );
    assert!(
        before_restart.iter().any(|v| !v.is_dirty),
        "clean batches should pass"
    );

    // "Kill": deployment 1 is gone; nothing survives but the file. The
    // restarted engine loads the fitted model — `fit` is never called, so
    // the restart cost is file I/O, not training.
    let restarted = load_validator(&model_path).unwrap();
    let after_restart = serve(restarted, &batches);

    // Verdict-for-verdict identical: scores, flags, violations, thresholds.
    assert_eq!(after_restart, before_restart);

    std::fs::remove_dir_all(&dir).ok();
}

/// Flip one digit inside the envelope's payload so the JSON still parses
/// but the declared checksum no longer matches the bytes — the smallest
/// corruption a crashing writer or a bad disk can produce.
fn flip_payload_digit(encoded: &str) -> Vec<u8> {
    let mut bytes = encoded.as_bytes().to_vec();
    let payload_at = encoded.find("\"payload\"").expect("envelope has a payload");
    let digit = (payload_at..bytes.len())
        .find(|&i| bytes[i].is_ascii_digit())
        .expect("payload contains a digit");
    bytes[digit] = if bytes[digit] == b'9' {
        b'8'
    } else {
        bytes[digit] + 1
    };
    bytes
}

#[test]
fn bit_flipped_model_is_quarantined_on_load() {
    let dir = unique_dir("bitflip");
    let model_path = dir.join("model.json");

    let clean = DatasetKind::CreditCard.generate_clean(600, 17);
    let live = fit_dquag(&clean);
    save_validator(&model_path, live.as_ref()).unwrap();

    let pristine = std::fs::read_to_string(&model_path).unwrap();
    let corrupted = flip_payload_digit(&pristine);
    std::fs::write(&model_path, &corrupted).unwrap();

    // Fail-closed path: the flipped payload must never be served. The load
    // errors naming the checksum mismatch, and the file is moved aside so a
    // retry loop cannot re-read the same corrupt bytes as a model.
    match load_validator(&model_path).map(|validator| validator.name().to_string()) {
        Err(PersistError::Corrupt {
            reason,
            quarantined,
        }) => {
            assert!(reason.contains("checksum"), "reason was: {reason}");
            let parked = quarantined.expect("the corrupt file was quarantined");
            assert!(
                parked.exists(),
                "quarantine file missing: {}",
                parked.display()
            );
            assert!(
                !model_path.exists(),
                "the corrupt original must not be left in place"
            );
        }
        other => panic!("expected a Corrupt error, got {other:?}"),
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn declarative_restart_through_the_registry_matches_too() {
    let dir = unique_dir("registry");
    let model_path = dir.join("model.json");

    let clean = DatasetKind::CreditCard.generate_clean(600, 9);
    let live = fit_dquag(&clean);
    save_validator(&model_path, live.as_ref()).unwrap();

    // The restart flow a checkpoint drives: a Backend("persisted-dquag")
    // spec pointing at the model file, built through the registry.
    let spec = ValidatorSpec::backend_with_options(
        PERSISTED_DQUAG,
        [("path".to_string(), model_path.display().to_string())],
    );
    let rebuilt = registry_with_persistence()
        .build(&spec, &DquagConfig::default())
        .unwrap();

    let mut batch = DatasetKind::CreditCard.generate_clean(150, 42);
    let mut rng = StdRng::seed_from_u64(4242);
    inject_ordinary(
        &mut batch,
        OrdinaryError::MissingValues,
        &[0, 1, 2],
        0.25,
        &mut rng,
    );
    assert_eq!(
        rebuilt.validate(&batch).unwrap(),
        live.validate(&batch).unwrap()
    );

    std::fs::remove_dir_all(&dir).ok();
}
