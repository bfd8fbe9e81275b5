//! The full deployment loop: train once, persist the fitted model, restart
//! from disk with zero refit, and when drift arrives let a background
//! supervisor refit on recent clean traffic and hot-swap the new model into
//! the live engine — all without dropping or reordering a batch.
//!
//! Traffic arrives the way it would in production: CSV batches posted over
//! one kept-alive HTTP connection to a loopback listener from
//! `dquag-sources`.
//!
//! ```bash
//! cargo run --release --example self_adapting_gate
//! ```

mod http_client;

use dquag::core::spec::{ValidatorSpec, Voting};
use dquag::core::{DquagConfig, SourceConfig};
use dquag::datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag::gnn::ModelConfig;
use dquag::persist::{
    registry_with_persistence, save_validator, RefitOutcome, RefitSupervisor, SupervisorConfig,
    PERSISTED_DQUAG,
};
use dquag::sources::{NetListenerSource, SourceRuntime};
use dquag::stream::StreamEngine;
use dquag::tabular::DataFrame;
use dquag::validate::build_spec;
use std::time::{Duration, Instant};

const KIND: DatasetKind = DatasetKind::HotelBooking;
const BATCH_ROWS: usize = 250;
const N_WARM: usize = 4; // clean batches that stock the refit reservoir
const N_DRIFTED: usize = 3; // sustained drift that triggers the refit
const N_AFTER: usize = 2; // clean traffic served by the swapped-in model

fn clean_batch(seed: u64) -> DataFrame {
    KIND.generate_clean(BATCH_ROWS, seed)
}

fn drifted_batch(seed: u64) -> DataFrame {
    let mut batch = clean_batch(seed);
    let mut rng = dquag::datagen::rng(9000 + seed);
    inject_ordinary(
        &mut batch,
        OrdinaryError::NumericAnomalies,
        &KIND.default_ordinary_error_columns(),
        0.35,
        &mut rng,
    );
    batch
}

fn main() {
    let work_dir = std::env::temp_dir().join(format!("dquag_self_adapting_{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).expect("work dir");
    let model_path = work_dir.join("model.json");

    // The serving validator: the paper's GNN model plus a drift detector,
    // dirty when either flags. A lighter-than-paper model keeps the example
    // fast; the decision rules are the paper's.
    let spec = ValidatorSpec::ensemble(
        vec![ValidatorSpec::backend("dquag"), ValidatorSpec::drift()],
        Voting::Any,
    );
    let config = DquagConfig {
        model: ModelConfig {
            hidden_dim: 12,
            n_layers: 2,
            ..ModelConfig::default()
        },
        epochs: 8,
        // The small model's clean error rate hovers near the paper's n=1.2
        // gate; a wider factor keeps the example's clean/drifted split crisp.
        dataset_flag_factor: 2.5,
        source: SourceConfig {
            bind_addr: "127.0.0.1:0".to_string(),
            poll_interval: Duration::from_millis(25),
            ..SourceConfig::default()
        },
        ..DquagConfig::default()
    }
    .validated()
    .expect("configuration in range");

    // ── Act 1: train once, persist the fitted model ─────────────────────
    let clean = KIND.generate_clean(1_500, 51);
    let start = Instant::now();
    let mut validator = build_spec(&spec, &config).expect("spec is valid");
    validator.fit(&clean).expect("training succeeds");
    println!(
        "trained {} on {} rows in {:.1}s",
        validator.name(),
        clean.n_rows(),
        start.elapsed().as_secs_f64()
    );
    save_validator(&model_path, validator.as_ref()).expect("model persists");
    println!("persisted fitted model -> {}", model_path.display());
    drop(validator); // "kill" the process: nothing survives but the file

    // ── Act 2: restart from disk — zero refit ───────────────────────────
    let start = Instant::now();
    let restore = ValidatorSpec::backend_with_options(
        PERSISTED_DQUAG,
        [("path".to_string(), model_path.display().to_string())],
    );
    let restored = registry_with_persistence()
        .build(&restore, &config)
        .expect("model loads");
    println!(
        "restarted from disk in {:.0} ms (no refit — the checksummed file *is* the model)\n",
        start.elapsed().as_secs_f64() * 1e3
    );

    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&config.stream)
        .start(restored)
        .expect("stream configuration in range");
    let listener =
        NetListenerSource::from_config(&config.source, KIND.schema()).expect("loopback bind");
    let addr = listener.local_addr();
    let runtime = SourceRuntime::builder()
        .config(&config.source)
        .source(Box::new(listener))
        .start(ingest)
        .expect("runtime starts");
    println!("gate listening on {addr}");

    // ── Act 3: drift triggers a background refit + hot swap ─────────────
    let factory_spec = spec.clone();
    let factory_config = config.clone();
    let mut supervisor = RefitSupervisor::new(
        engine.swap_handle(),
        SupervisorConfig {
            reservoir_capacity: N_WARM,
            patience: 2,
            min_fit_rows: 2 * BATCH_ROWS,
            model_path: Some(model_path.clone()),
        },
        move || build_spec(&factory_spec, &factory_config).expect("spec is valid"),
    );

    // Upstream traffic: clean batches, then a sustained distribution shift.
    let mut sent: Vec<DataFrame> = (0..N_WARM).map(|i| clean_batch(300 + i as u64)).collect();
    sent.extend((0..N_DRIFTED).map(|i| drifted_batch(400 + i as u64)));
    http_client::send_batches(addr, &sent);

    let mut verdicts = verdicts.into_iter();
    for item in verdicts.by_ref().take(sent.len()) {
        println!("{item}");
        let batch = &sent[item.seq as usize];
        let verdict = item.outcome.verdict().expect("a verdict per batch");
        if supervisor.observe(batch, verdict) {
            println!(
                "  drift persisted for {} batches -> background refit launched on {} banked clean rows",
                2,
                supervisor.reservoir_rows()
            );
        }
    }

    // Block until the refit lands (fit -> persist -> hot swap).
    let outcomes = supervisor.wait_idle();
    match outcomes.as_slice() {
        [RefitOutcome::Swapped {
            generation,
            fit_rows,
            fit_batches,
            persisted_to,
            ..
        }] => println!(
            "\nhot swap complete: generation {generation} (refit on {fit_rows} rows / \
             {fit_batches} batches, persisted to {})\n",
            persisted_to.as_deref().expect("configured path").display()
        ),
        other => panic!("expected exactly one swapped refit, got {other:?}"),
    }
    assert_eq!(engine.generation(), 1, "the engine serves the new model");

    // Post-swap traffic is judged by the refitted model, nothing lost.
    let after: Vec<DataFrame> = (0..N_AFTER).map(|i| clean_batch(500 + i as u64)).collect();
    http_client::send_batches(addr, &after);
    for item in verdicts.by_ref().take(after.len()) {
        println!("{item}");
    }

    runtime.shutdown().expect("runtime drains");
    drop(verdicts);
    let stats = engine.shutdown();
    println!("\nfinal: {stats}");
    let expected = (N_WARM + N_DRIFTED + N_AFTER) as u64;
    assert_eq!(stats.emitted, expected, "nothing lost across the swap");
    assert_eq!(stats.dropped + stats.rejected + stats.failed, 0);

    std::fs::remove_dir_all(&work_dir).ok();
}
