//! Kill/restart exactly-once delivery for the directory watcher.
//!
//! The inbox journal records a file as delivered *before* it is moved to
//! `done/`, so a crash in the window between those two steps (the worst
//! case: the batch already reached the engine but the file still sits in
//! the inbox) must not replay the file on restart. This test injects that
//! exact crash and asserts that across both process generations every
//! file is delivered exactly once — zero replayed, zero skipped.

use dquag_core::DquagConfig;
use dquag_datagen::DatasetKind;
use dquag_sources::{DirWatcherSource, SourceRuntime};
use dquag_stream::{StreamEngine, StreamItem, StreamOutcome};
use dquag_tabular::csv;
use dquag_validate::{build_spec, Validator, ValidatorSpec};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const KIND: DatasetKind = DatasetKind::HotelBooking;
const FILES: usize = 5;
const CRASH_AFTER: u64 = 3;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dquag_journal_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn fitted_validator() -> Box<dyn Validator> {
    let clean = KIND.generate_clean(400, 11);
    let config = DquagConfig::fast();
    let mut validator = build_spec(&ValidatorSpec::backend("deequ-auto"), &config).unwrap();
    validator.fit(&clean).expect("fitting succeeds");
    validator
}

fn csv_names(dir: &Path) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            if name.ends_with(".csv") {
                names.insert(name);
            }
        }
    }
    names
}

fn delivered_rows(items: &[StreamItem]) -> Vec<usize> {
    items
        .iter()
        .map(|item| {
            assert!(
                matches!(item.outcome, StreamOutcome::Verdict(_)),
                "expected a verdict, got {}",
                item.outcome
            );
            item.n_rows
        })
        .collect()
}

/// Run one "process generation": engine + dirwatch source over `inbox`,
/// optionally crashing after `crash_after` deliveries. Waits until
/// `settled` reports the filesystem has reached its terminal state for
/// this generation, then tears everything down (the runtime's drain
/// flushes in-flight batches) and returns the delivered row counts.
fn run_generation(
    inbox: &Path,
    crash_after: Option<u64>,
    settled: impl Fn() -> bool,
) -> Vec<usize> {
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .queue_capacity(64)
        .start(fitted_validator())
        .expect("engine starts");
    let mut source = DirWatcherSource::new(inbox, KIND.schema());
    if let Some(n) = crash_after {
        source = source.with_crash_between_journal_and_rename(n);
    }
    let config = DquagConfig::builder()
        .source_poll_interval(Duration::from_millis(10))
        .build()
        .expect("config in range");
    let runtime = SourceRuntime::builder()
        .config(&config.source)
        .source(Box::new(source))
        .start(ingest)
        .expect("runtime starts");

    let deadline = Instant::now() + Duration::from_secs(20);
    while !settled() {
        assert!(
            Instant::now() < deadline,
            "generation never reached its terminal filesystem state"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Grace period so the batch delivered right at the settle point has
    // been handed to the engine before we start draining.
    std::thread::sleep(Duration::from_millis(100));

    runtime.shutdown().expect("runtime drains");
    let items: Vec<StreamItem> = verdicts.collect();
    engine.shutdown();
    delivered_rows(&items)
}

#[test]
fn kill_between_journal_and_rename_replays_nothing_and_skips_nothing() {
    let inbox = temp_dir("exactly_once").join("inbox");
    std::fs::create_dir_all(&inbox).expect("inbox dir");
    let done = inbox.join("done");
    let journal = inbox.join("inbox.journal.json");

    // Five drops with pairwise-distinct row counts. The watcher replays in
    // file-name order, so the crash lands on a known file.
    let mut expected_rows = BTreeSet::new();
    for i in 0..FILES {
        let rows = 40 + i;
        let batch = KIND.generate_clean(rows, 900 + i as u64);
        csv::write_csv(&batch, &inbox.join(format!("drop_{i}.csv"))).expect("drop written");
        expected_rows.insert(rows);
    }

    // Generation 1 crashes after the third delivery, in the window where
    // the journal already records the file but it still sits in the inbox.
    let first = run_generation(&inbox, Some(CRASH_AFTER), || {
        csv_names(&done).len() == CRASH_AFTER as usize - 1
            && std::fs::read_to_string(&journal)
                .map(|text| text.contains("drop_2.csv"))
                .unwrap_or(false)
    });
    assert_eq!(
        first.len(),
        CRASH_AFTER as usize,
        "crashed after {CRASH_AFTER} deliveries: {first:?}"
    );

    // The crash left drop_2.csv behind in the inbox (journal written,
    // rename never ran) — the poisoned state a plain watcher would replay.
    assert!(csv_names(&inbox).contains("drop_2.csv"));
    assert_eq!(csv_names(&inbox).len(), FILES - CRASH_AFTER as usize + 1);
    assert_eq!(csv_names(&done).len(), CRASH_AFTER as usize - 1);

    // Generation 2: a fresh source over the same directory. Recovery moves
    // the journaled file to done/ WITHOUT redelivering it, then the two
    // untouched files flow normally.
    let second = run_generation(&inbox, None, || {
        csv_names(&done).len() == FILES && csv_names(&inbox).is_empty()
    });
    assert_eq!(
        second.len(),
        FILES - CRASH_AFTER as usize,
        "only the never-journaled files are delivered: {second:?}"
    );

    // Exactly once across the kill/restart: the union covers all five row
    // counts, the intersection is empty.
    let first_set: BTreeSet<usize> = first.iter().copied().collect();
    let second_set: BTreeSet<usize> = second.iter().copied().collect();
    assert_eq!(first_set.len(), first.len(), "no duplicates in gen 1");
    assert_eq!(second_set.len(), second.len(), "no duplicates in gen 2");
    assert!(
        first_set.is_disjoint(&second_set),
        "replayed across restart: {:?}",
        first_set.intersection(&second_set).collect::<Vec<_>>()
    );
    let union: BTreeSet<usize> = first_set.union(&second_set).copied().collect();
    assert_eq!(union, expected_rows, "every drop delivered exactly once");

    // Terminal filesystem state: all five in done/, inbox clean, journal
    // empty of entries.
    assert_eq!(csv_names(&done).len(), FILES);
    assert!(csv_names(&inbox).is_empty(), "{:?}", csv_names(&inbox));
    let journal_text = std::fs::read_to_string(&journal).expect("journal readable");
    assert!(
        !journal_text.contains("drop_"),
        "journal still lists deliveries: {journal_text}"
    );
}
