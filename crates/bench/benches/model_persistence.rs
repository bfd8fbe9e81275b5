//! Model persistence: what a restart actually costs. Measures the
//! save/load round-trip latency of a fitted DQuaG model, then the number
//! the operator cares about — time-to-first-verdict after a restart — for
//! the two restart strategies: cold refit (train from scratch, then score)
//! vs `persisted-dquag` (load the fitted model from disk, then score).
//!
//! The trajectory lands in `BENCH_persistence.json` in the workspace root.
//! Set `DQUAG_BENCH_FAST=1` to run a seconds-scale smoke variant (CI).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dquag_bench::harness::{fast_mode, median, write_bench_json};
use dquag_core::DquagConfig;
use dquag_datagen::DatasetKind;
use dquag_persist::{load_validator, save_validator};
use dquag_tabular::DataFrame;
use dquag_validate::{build_spec, Validator, ValidatorSpec};
use std::path::PathBuf;
use std::time::Instant;

const KIND: DatasetKind = DatasetKind::CreditCard;

fn train_config(fast: bool) -> DquagConfig {
    DquagConfig {
        epochs: if fast { 8 } else { 15 },
        ..DquagConfig::default()
    }
    .validated()
    .expect("config in range")
}

fn fit_dquag(clean: &DataFrame, fast: bool) -> Box<dyn Validator> {
    let mut validator = build_spec(&ValidatorSpec::backend("dquag"), &train_config(fast)).unwrap();
    validator.fit(clean).expect("fitting succeeds");
    validator
}

fn bench_model_persistence(c: &mut Criterion) {
    let fast = fast_mode();
    let (train_rows, samples, rounds) = if fast { (400, 10, 3) } else { (900, 10, 10) };

    let dir = std::env::temp_dir().join(format!("dquag-bench-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let model_path: PathBuf = dir.join("model.json");

    let clean = KIND.generate_clean(train_rows, 3);
    let fitted = fit_dquag(&clean, fast);
    let batch = KIND.generate_clean(120, 42);

    // Round-trip latency of the store itself.
    let mut group = c.benchmark_group("model_persistence");
    group.sample_size(samples);
    group.bench_function(BenchmarkId::new("store", "save"), |b| {
        b.iter(|| save_validator(&model_path, fitted.as_ref()).expect("save succeeds"));
    });
    save_validator(&model_path, fitted.as_ref()).expect("save succeeds");
    group.bench_function(BenchmarkId::new("store", "load"), |b| {
        b.iter(|| {
            load_validator(&model_path)
                .expect("load succeeds")
                .name()
                .len()
        });
    });
    group.finish();

    // Time-to-first-verdict after a restart: the same fitted behaviour,
    // reached by refitting vs by loading the persisted model. Interleaved
    // rounds, summarised by medians, so scheduler noise hits both equally.
    let mut cold_samples = Vec::with_capacity(rounds);
    let mut persisted_samples = Vec::with_capacity(rounds);
    let mut ratio_samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        let refit = fit_dquag(&clean, fast);
        refit.validate(&batch).expect("scores");
        let cold = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let loaded = load_validator(&model_path).expect("load succeeds");
        loaded.validate(&batch).expect("scores");
        let persisted = start.elapsed().as_secs_f64();

        cold_samples.push(cold * 1e3);
        persisted_samples.push(persisted * 1e3);
        ratio_samples.push(cold / persisted.max(1e-9));
    }
    let cold_ms = median(&mut cold_samples);
    let persisted_ms = median(&mut persisted_samples);
    let speedup = median(&mut ratio_samples);
    println!(
        "model_persistence: time-to-first-verdict cold refit {cold_ms:.1} ms, \
         persisted load {persisted_ms:.1} ms ({speedup:.1}x faster restart)"
    );

    let json = format!(
        "{{\n  \"bench\": \"model_persistence\",\n  \"train_rows\": {train_rows},\n  \
         \"batch_rows\": 120,\n  \"fast_mode\": {fast},\n  \
         \"cold_refit_first_verdict_ms\": {cold_ms:.2},\n  \
         \"persisted_load_first_verdict_ms\": {persisted_ms:.2},\n  \
         \"restart_speedup\": {speedup:.2}\n}}\n"
    );
    write_bench_json("BENCH_persistence.json", &json);
    std::fs::remove_dir_all(&dir).ok();

    // Loading a fitted model must beat retraining one by a wide margin —
    // that is the entire point of persisting it. (Skipped in fast mode:
    // tiny training budgets make the ratio noisy.)
    if !fast {
        assert!(
            speedup >= 3.0,
            "persisted restart must be at least 3x faster to first verdict \
             than a cold refit, got {speedup:.2}x"
        );
    }
}

criterion_group!(benches, bench_model_persistence);
criterion_main!(benches);
