//! Checkpoint durability tests: seeded randomized write→restore round
//! trips, corrupted/truncated-checkpoint recovery, and the kill/restart
//! test proving a restarted engine resumes from the persisted checkpoint
//! without reprocessing or skipping a batch.

use dquag_core::DquagConfig;
use dquag_datagen::DatasetKind;
use dquag_sources::{Checkpoint, DirWatcherSource, SourceRuntime};
use dquag_stream::{StreamEngine, StreamStats};
use dquag_tabular::csv;
use dquag_validate::{build_spec, Validator, ValidatorSpec};
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

const KIND: DatasetKind = DatasetKind::CreditCard;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dquag_ckpt_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn random_stats(rng: &mut rand::rngs::StdRng) -> StreamStats {
    StreamStats {
        submitted: rng.gen_range(0..100_000u64),
        dropped: rng.gen_range(0..1_000u64),
        rejected: rng.gen_range(0..1_000u64),
        timed_out: rng.gen_range(0..100u64),
        emitted: rng.gen_range(0..100_000u64),
        dirty: rng.gen_range(0..50_000u64),
        failed: rng.gen_range(0..100u64),
        deadline_exceeded: rng.gen_range(0..100u64),
        late_discarded: rng.gen_range(0..100u64),
        queue_depth: rng.gen_range(0..64usize),
        in_flight: rng.gen_range(0..16usize),
        rows_validated: rng.gen_range(0..10_000_000u64),
        rows_per_sec: rng.gen_range(0.0..1e6f64),
        p50_latency: Duration::from_nanos(rng.gen_range(0..10_000_000_000u64)),
        p99_latency: Duration::from_nanos(rng.gen_range(0..60_000_000_000u64)),
        uptime: Duration::from_nanos(rng.gen_range(0..86_400_000_000_000u64)),
        replicas: rng.gen_range(1..32usize),
    }
}

#[test]
fn randomized_checkpoints_round_trip_through_disk() {
    // Seeded property test: any offsets map + any stats snapshot must
    // survive save → load bit-exactly.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
    let dir = temp_dir("roundtrip");
    let path = dir.join("state.json");
    for case in 0..50 {
        let n_sources = rng.gen_range(0..5usize);
        let mut offsets = BTreeMap::new();
        for s in 0..n_sources {
            // The JSON data model stores numbers as f64 (like JavaScript),
            // so exact round trips hold up to 2^53 — far beyond any real
            // batch count.
            offsets.insert(format!("source-{s}"), rng.gen_range(0..1u64 << 53));
        }
        let checkpoint = Checkpoint::new(offsets, random_stats(&mut rng));
        checkpoint.save(&path).expect("save succeeds");
        let restored = Checkpoint::load(&path).expect("load succeeds");
        assert_eq!(restored, checkpoint, "case {case}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_and_truncated_checkpoints_recover_to_fresh_start() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let dir = temp_dir("corrupt");
    let path = dir.join("state.json");
    let mut offsets = BTreeMap::new();
    offsets.insert("net".to_string(), 42);
    let checkpoint = Checkpoint::new(offsets, random_stats(&mut rng));
    checkpoint.save(&path).expect("save succeeds");
    let full = std::fs::read_to_string(&path).unwrap();

    // Truncation at any byte boundary must never yield a bogus checkpoint:
    // either the parse fails (recover → None) or — for the zero-length
    // prefix of a valid document — there is no way to truncate into another
    // valid checkpoint, since JSON objects need their closing brace.
    for cut in [0, 1, full.len() / 4, full.len() / 2, full.len() - 1] {
        std::fs::write(&path, &full[..cut]).unwrap();
        assert!(
            Checkpoint::load(&path).is_err(),
            "cut at {cut} must not parse"
        );
        assert_eq!(Checkpoint::recover(&path).unwrap(), None, "cut at {cut}");
    }

    // Arbitrary garbage and a wrong-shaped document also recover to None.
    std::fs::write(&path, "you have been hacked").unwrap();
    assert_eq!(Checkpoint::recover(&path).unwrap(), None);
    std::fs::write(&path, "{\"version\": 1}").unwrap();
    assert_eq!(Checkpoint::recover(&path).unwrap(), None);

    // A missing file is simply a fresh start.
    std::fs::remove_file(&path).unwrap();
    assert_eq!(Checkpoint::recover(&path).unwrap(), None);
    std::fs::remove_dir_all(&dir).ok();
}

// --- the kill/restart test -------------------------------------------------

/// A cheap deterministic validator for the resume test.
fn fitted_validator() -> Box<dyn Validator> {
    let clean = KIND.generate_clean(400, 5);
    let mut validator =
        build_spec(&ValidatorSpec::backend("deequ-auto"), &DquagConfig::fast()).unwrap();
    validator.fit(&clean).expect("fitting succeeds");
    validator
}

/// Write `count` uniquely-sized CSV drops into the inbox, starting at
/// sequence number `start`. The distinct row counts let the test tell
/// exactly which files were validated.
fn drop_files(inbox: &Path, start: usize, count: usize) -> Vec<usize> {
    let mut row_counts = Vec::new();
    for i in start..start + count {
        let n_rows = 20 + i; // unique per file
        let batch = KIND.generate_clean(n_rows, 3_000 + i as u64);
        // Atomic drop: write beside the inbox, then rename in.
        let tmp = inbox.join(format!("batch_{i:03}.csv.writing"));
        csv::write_csv(&batch, &tmp).expect("write drop");
        std::fs::rename(&tmp, inbox.join(format!("batch_{i:03}.csv"))).expect("rename drop");
        row_counts.push(n_rows);
    }
    row_counts
}

/// One engine+runtime incarnation over the inbox: consume `expect_items`
/// verdicts, shut down (which checkpoints), and return the observed batch
/// sizes and the final engine stats.
fn run_incarnation(
    inbox: &Path,
    checkpoint_path: &Path,
    expect_items: usize,
) -> (Vec<usize>, StreamStats, Checkpoint) {
    let config = DquagConfig::builder()
        .source_poll_interval(Duration::from_millis(10))
        .checkpoint_path(checkpoint_path)
        .checkpoint_interval(Duration::from_millis(50))
        .build()
        .expect("config in range");

    let restored = Checkpoint::recover(checkpoint_path).expect("no version rollback in this test");
    let mut engine_builder = StreamEngine::builder().queue_capacity(32);
    if let Some(checkpoint) = &restored {
        engine_builder = engine_builder.restore_stats(checkpoint.stats.clone());
    }
    let (engine, ingest, mut verdicts) = engine_builder
        .start(fitted_validator())
        .expect("engine starts");

    let mut runtime_builder = SourceRuntime::builder()
        .config(&config.source)
        .source(Box::new(DirWatcherSource::new(inbox, KIND.schema())));
    if let Some(checkpoint) = restored {
        runtime_builder = runtime_builder.restore(checkpoint);
    }
    let runtime = runtime_builder.start(ingest).expect("runtime starts");

    let mut sizes = Vec::new();
    for _ in 0..expect_items {
        let item = verdicts.recv().expect("stream stays open while waiting");
        sizes.push(item.n_rows);
    }
    // "Kill": stop the incarnation. Shutdown drains the watcher and writes
    // the final checkpoint.
    let checkpoint = runtime.shutdown().expect("shutdown checkpoints");
    let stats = engine.shutdown();
    (sizes, stats, checkpoint)
}

#[test]
fn restarted_engine_resumes_from_checkpoint_without_reprocessing_or_skipping() {
    let inbox = temp_dir("resume_inbox");
    let state = temp_dir("resume_state");
    let checkpoint_path = state.join("dquag.ckpt.json");

    // First incarnation: three drops, all validated, then killed.
    let first_sizes = drop_files(&inbox, 0, 3);
    let (seen_first, stats_first, checkpoint_first) = run_incarnation(&inbox, &checkpoint_path, 3);
    assert_eq!(
        seen_first, first_sizes,
        "first run validates each drop once"
    );
    assert_eq!(stats_first.emitted, 3);
    assert_eq!(checkpoint_first.offset_for("dir"), 3);
    assert!(checkpoint_path.exists(), "kill leaves a checkpoint behind");

    // Between incarnations: three new drops arrive.
    let second_sizes = drop_files(&inbox, 3, 3);

    // Second incarnation restores the checkpoint.
    let (seen_second, stats_second, checkpoint_second) =
        run_incarnation(&inbox, &checkpoint_path, 3);

    // No batch reprocessed: only the three new files are validated…
    assert_eq!(seen_second, second_sizes, "second run sees only new drops");
    // …and none skipped: every drop of both runs is in done/, exactly once.
    let mut done: Vec<String> = std::fs::read_dir(inbox.join("done"))
        .expect("done dir exists")
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    done.sort();
    let expected: Vec<String> = (0..6).map(|i| format!("batch_{i:03}.csv")).collect();
    assert_eq!(done, expected);

    // Offsets continue across the restart instead of restarting from zero.
    assert_eq!(checkpoint_second.offset_for("dir"), 6);

    // Restored statistics continue too: the second engine's counters include
    // the first incarnation's traffic.
    assert_eq!(stats_second.emitted, 6);
    assert_eq!(stats_second.submitted, 6);
    assert_eq!(
        stats_second.rows_validated,
        (first_sizes.iter().sum::<usize>() + second_sizes.iter().sum::<usize>()) as u64
    );
    assert!(
        stats_second.uptime >= stats_first.uptime,
        "uptime accumulates across incarnations"
    );

    std::fs::remove_dir_all(&inbox).ok();
    std::fs::remove_dir_all(&state).ok();
}

#[test]
fn watcher_quarantines_poison_files_and_keeps_the_feed_alive() {
    let inbox = temp_dir("poison_inbox");
    std::fs::write(inbox.join("bad.csv"), "this,is\nnot,matching,anything\n").unwrap();
    let good_sizes = drop_files(&inbox, 0, 2);

    let config = DquagConfig::builder()
        .source_poll_interval(Duration::from_millis(10))
        .build()
        .expect("config in range");
    let (engine, ingest, mut verdicts) = StreamEngine::builder()
        .queue_capacity(8)
        .start(fitted_validator())
        .expect("engine starts");
    let runtime = SourceRuntime::builder()
        .config(&config.source)
        .source(Box::new(DirWatcherSource::new(&inbox, KIND.schema())))
        .start(ingest)
        .expect("runtime starts");

    let mut sizes = vec![
        verdicts.recv().expect("first verdict").n_rows,
        verdicts.recv().expect("second verdict").n_rows,
    ];
    sizes.sort_unstable();
    let mut expected = good_sizes.clone();
    expected.sort_unstable();
    assert_eq!(sizes, expected);

    let checkpoint = runtime.shutdown().expect("shutdown");
    engine.shutdown();
    assert_eq!(checkpoint.offset_for("dir"), 2);
    assert!(
        inbox.join("failed").join("bad.csv").exists(),
        "poison file is quarantined, not retried forever"
    );
    std::fs::remove_dir_all(&inbox).ok();
}
