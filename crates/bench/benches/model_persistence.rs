//! Model persistence: what a restart actually costs. Measures the number
//! the operator cares about — time-to-first-verdict after a restart — for
//! the two restart strategies: cold refit (train from scratch, then score)
//! vs `persisted-dquag` (load the fitted model from disk, then score).
//!
//! A full run asserts that the persisted restart is at least 3× faster,
//! then writes the trajectory to `BENCH_persistence.json` in the workspace
//! root. Set `DQUAG_BENCH_FAST=1` to run a seconds-scale smoke variant
//! (CI).

use dquag_bench::harness::{fast_mode, interleave, median, median_ratio, write_bench_json};
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

fn main() {
    let fast = fast_mode();
    let (train_rows, rounds) = if fast { (400, 3) } else { (900, 10) };

    let dir = std::env::temp_dir().join(format!("dquag-bench-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let model_path: PathBuf = dir.join("model.json");

    let clean = KIND.generate_clean(train_rows, 3);
    let fitted = fit_dquag(&clean, fast);
    let batch = KIND.generate_clean(120, 42);
    save_validator(&model_path, fitted.as_ref()).expect("save succeeds");

    // Time-to-first-verdict after a restart: the same fitted behaviour,
    // reached by refitting vs by loading the persisted model. Interleaved
    // rounds with the arm order rotating, summarised by medians, so
    // scheduler noise hits both equally.
    let [cold_ms_samples, persisted_ms_samples] = interleave(
        rounds,
        [
            &mut || {
                let start = Instant::now();
                let refit = fit_dquag(&clean, fast);
                refit.validate(&batch).expect("scores");
                start.elapsed().as_secs_f64() * 1e3
            },
            &mut || {
                let start = Instant::now();
                let loaded = load_validator(&model_path).expect("load succeeds");
                loaded.validate(&batch).expect("scores");
                start.elapsed().as_secs_f64() * 1e3
            },
        ],
    );
    std::fs::remove_dir_all(&dir).ok();
    let cold_ms = median(&cold_ms_samples);
    let persisted_ms = median(&persisted_ms_samples);
    let speedup = median_ratio(&cold_ms_samples, &persisted_ms_samples);
    println!(
        "model_persistence: time-to-first-verdict cold refit {cold_ms:.1} ms, \
         persisted load {persisted_ms:.1} ms ({speedup:.1}x faster restart)"
    );

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

    let json = format!(
        "{{\n  \"bench\": \"model_persistence\",\n  \"train_rows\": {train_rows},\n  \
         \"batch_rows\": 120,\n  \"fast_mode\": {fast},\n  \
         \"cold_refit_first_verdict_ms\": {cold_ms:.2},\n  \
         \"persisted_load_first_verdict_ms\": {persisted_ms:.2},\n  \
         \"restart_speedup\": {speedup:.2}\n}}\n"
    );
    write_bench_json("BENCH_persistence.json", &json);
}
