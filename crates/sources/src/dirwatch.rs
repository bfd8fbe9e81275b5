//! The polling directory watcher: replays CSV file drops through the
//! engine, moving each processed file out of the inbox so the filesystem
//! itself is the durable record of what has been ingested.

use crate::source::{PollOutcome, Source, SourceError, SourceSink};
use dquag_core::write_atomic;
use dquag_stream::SubmitOutcome;
use dquag_tabular::{csv, Schema};
use std::fs;
use std::path::{Path, PathBuf};

/// Schema version of the inbox journal, bumped on incompatible change.
const JOURNAL_VERSION: u32 = 1;

/// The journal's file name inside the inbox directory (not `*.csv`, so the
/// drop scan never sees it).
const JOURNAL_FILE: &str = "inbox.journal.json";

/// Watches an inbox directory for `*.csv` drops (the Deequ-style batch
/// arrival model), decodes each via `dquag-tabular`, delivers it to the
/// engine and moves the file to `done/` — or to `failed/` when it cannot be
/// decoded, so one poisoned file never wedges the feed.
///
/// Durability: delivery is **exactly-once per file across kill/restart**.
/// After the engine accepts a batch, the file's name is recorded in an
/// inbox journal (`inbox.journal.json`, written atomically via tmp+rename,
/// the same discipline as `checkpoint.rs`) *before* the file is renamed to
/// `done/`; the journal entry is cleared after the rename. A crash in the
/// journal→rename window — the window that used to replay a file — is
/// healed at the next [`start`]: journaled files still in the inbox are
/// moved straight to `done/` without redelivery (counted by
/// [`recovered_files`]). Only a crash in the tiny deliver→journal window
/// can still replay a file, and no crash can skip one. Producers should
/// drop files atomically (write to a temp name, then rename into the
/// inbox), the standard contract for file-drop ingestion.
///
/// [`start`]: Source::start
/// [`recovered_files`]: DirWatcherSource::recovered_files
pub struct DirWatcherSource {
    name: String,
    inbox: PathBuf,
    done: PathBuf,
    failed: PathBuf,
    schema: Schema,
    sink: Option<SourceSink>,
    journal: Option<InboxJournal>,
    /// Files moved to `failed/` so far (exposed for tests and ops).
    failed_files: u64,
    /// Journaled files healed to `done/` without redelivery at the last
    /// [`Source::start`].
    recovered_files: u64,
    /// Batches delivered by this instance (drives the crash hook).
    deliveries: u64,
    /// Test hook: simulate a crash between the journal record and the
    /// `done/` rename after this many deliveries.
    crash_after: Option<u64>,
    /// Once the hook fires the "process" stays down: every poll errors.
    crashed: bool,
    /// The delivered-batch count as of shutdown, so [`Source::offset`]
    /// stays truthful after the sink is released.
    final_offset: u64,
}

impl DirWatcherSource {
    /// Watch `inbox`, with `done/` and `failed/` created inside it.
    pub fn new(inbox: impl Into<PathBuf>, schema: Schema) -> Self {
        let inbox = inbox.into();
        let done = inbox.join("done");
        let failed = inbox.join("failed");
        Self {
            name: "dir".to_string(),
            inbox,
            done,
            failed,
            schema,
            sink: None,
            journal: None,
            failed_files: 0,
            recovered_files: 0,
            deliveries: 0,
            crash_after: None,
            crashed: false,
            final_offset: 0,
        }
    }

    /// Override the source name (the checkpoint key).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Simulate the process dying between a file's journal record and its
    /// `done/` rename, after `after_deliveries` batches have been
    /// delivered. The failure is sticky — every later poll errors too, as
    /// a dead process would — so only a *new* source instance (a restart)
    /// can make further progress. For the exactly-once regression test.
    #[doc(hidden)]
    pub fn with_crash_between_journal_and_rename(mut self, after_deliveries: u64) -> Self {
        self.crash_after = Some(after_deliveries);
        self
    }

    /// The watched inbox directory.
    pub fn inbox(&self) -> &Path {
        &self.inbox
    }

    /// Files that failed to decode and were quarantined so far.
    pub fn failed_files(&self) -> u64 {
        self.failed_files
    }

    /// Journaled files healed to `done/` without redelivery when this
    /// source last started — each one is a replay the journal prevented.
    pub fn recovered_files(&self) -> u64 {
        self.recovered_files
    }

    /// Pending `*.csv` drops, sorted by file name so replay order is
    /// deterministic (producers that need strict ordering use sortable
    /// names, e.g. zero-padded sequence numbers).
    fn pending_files(&self) -> Result<Vec<PathBuf>, SourceError> {
        let entries = fs::read_dir(&self.inbox)
            .map_err(|e| SourceError::Io(format!("scanning {:?}: {e}", self.inbox)))?;
        let mut files = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| SourceError::Io(format!("reading dir entry: {e}")))?;
            let path = entry.path();
            let is_csv = path
                .extension()
                .is_some_and(|ext| ext.eq_ignore_ascii_case("csv"));
            if path.is_file() && is_csv {
                files.push(path);
            }
        }
        files.sort();
        Ok(files)
    }

    fn move_to(&self, path: &Path, target_dir: &Path) -> Result<(), SourceError> {
        let file_name = path
            .file_name()
            .ok_or_else(|| SourceError::Io(format!("{path:?} has no file name")))?;
        let mut target = target_dir.join(file_name);
        // A replayed name must not clobber an earlier file's record.
        let mut attempt = 1u32;
        while target.exists() {
            target = target_dir.join(format!("{}.{attempt}", file_name.to_string_lossy()));
            attempt += 1;
        }
        fs::rename(path, &target)
            .map_err(|e| SourceError::Io(format!("moving {path:?} to {target:?}: {e}")))
    }
}

impl Source for DirWatcherSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn start(&mut self, sink: &SourceSink, _resume_from: u64) -> Result<(), SourceError> {
        // Position is carried by the filesystem (processed files live in
        // done/), so resuming needs no seeking; the restored offset keeps
        // the delivered-batch count continuous across restarts.
        for dir in [&self.inbox, &self.done, &self.failed] {
            fs::create_dir_all(dir)
                .map_err(|e| SourceError::Io(format!("creating {dir:?}: {e}")))?;
        }
        // Heal the journal→rename crash window: a journaled file was
        // already delivered, so finish its rename instead of replaying it.
        let mut journal = InboxJournal::load(&self.inbox)?;
        self.recovered_files = 0;
        for file_name in journal.delivered() {
            let path = self.inbox.join(&file_name);
            if path.is_file() {
                self.move_to(&path, &self.done)?;
                self.recovered_files += 1;
            }
            // Entries whose file is already gone (crash after the rename,
            // before the journal clear) are simply stale; sweep them.
            journal.clear(&file_name)?;
        }
        self.journal = Some(journal);
        self.sink = Some(sink.clone());
        Ok(())
    }

    fn poll(&mut self, sink: &SourceSink) -> Result<PollOutcome, SourceError> {
        if self.crashed {
            return Err(SourceError::Io(
                "injected crash: process is down".to_string(),
            ));
        }
        let files = self.pending_files()?;
        if files.is_empty() {
            return Ok(PollOutcome::Idle);
        }
        let mut progressed = false;
        for path in files {
            if sink.should_stop() {
                break;
            }
            match csv::read_csv(&path, &self.schema) {
                Ok(batch) if !batch.is_empty() => match sink.deliver(batch)? {
                    SubmitOutcome::Enqueued(_) => {
                        let file_name = path
                            .file_name()
                            .map(|name| name.to_string_lossy().into_owned())
                            .ok_or_else(|| SourceError::Io(format!("{path:?} has no file name")))?;
                        // Journal first: from here on a crash heals to
                        // "already delivered" instead of replaying.
                        self.journal
                            .as_mut()
                            .expect("poll is only called after start")
                            .record(&file_name)?;
                        self.deliveries += 1;
                        if self.crash_after.is_some_and(|n| self.deliveries >= n) {
                            self.crashed = true;
                            return Err(SourceError::Io(
                                "injected crash between journal record and done/ rename"
                                    .to_string(),
                            ));
                        }
                        self.move_to(&path, &self.done)?;
                        self.journal
                            .as_mut()
                            .expect("poll is only called after start")
                            .clear(&file_name)?;
                        progressed = true;
                    }
                    // The engine is shedding load; leave the file in the
                    // inbox and back off — it will be retried next poll.
                    SubmitOutcome::Dropped | SubmitOutcome::Rejected | SubmitOutcome::TimedOut => {
                        return Ok(PollOutcome::Idle)
                    }
                },
                Ok(_empty) => {
                    self.move_to(&path, &self.failed)?;
                    self.failed_files += 1;
                    progressed = true;
                }
                Err(_) => {
                    self.move_to(&path, &self.failed)?;
                    self.failed_files += 1;
                    progressed = true;
                }
            }
        }
        Ok(if progressed {
            PollOutcome::Progressed
        } else {
            PollOutcome::Idle
        })
    }

    fn drain(&mut self, _sink: &SourceSink) {
        // poll() is synchronous — nothing is in flight between calls.
    }

    fn shutdown(&mut self) {
        self.final_offset = self.offset();
        self.sink = None;
    }

    fn offset(&self) -> u64 {
        self.sink.as_ref().map_or(self.final_offset, |s| s.offset())
    }
}

/// On-disk shape of the inbox journal.
#[derive(serde::Serialize, serde::Deserialize)]
struct JournalState {
    version: u32,
    /// File names delivered to the engine but not yet renamed to `done/`.
    delivered: Vec<String>,
}

/// The delivered-but-not-yet-renamed record, persisted atomically on every
/// change so its on-disk state is always a consistent snapshot.
struct InboxJournal {
    path: PathBuf,
    delivered: Vec<String>,
}

impl InboxJournal {
    /// Load the journal from `inbox`, or start empty. A missing file is
    /// the normal first run; an unreadable or corrupt one degrades to the
    /// pre-journal at-least-once behaviour (replay, never skip) rather
    /// than wedging the source.
    fn load(inbox: &Path) -> Result<Self, SourceError> {
        let path = inbox.join(JOURNAL_FILE);
        let delivered = match fs::read_to_string(&path) {
            Ok(text) => match serde_json::from_str::<JournalState>(&text) {
                Ok(state) if state.version == JOURNAL_VERSION => state.delivered,
                _ => Vec::new(),
            },
            Err(_) => Vec::new(),
        };
        Ok(Self { path, delivered })
    }

    /// Snapshot of the journaled names (recovery iterates while clearing).
    fn delivered(&self) -> Vec<String> {
        self.delivered.clone()
    }

    /// Record `file_name` as delivered; idempotent.
    fn record(&mut self, file_name: &str) -> Result<(), SourceError> {
        if self.delivered.iter().any(|name| name == file_name) {
            return Ok(());
        }
        self.delivered.push(file_name.to_string());
        self.persist()
    }

    /// Forget `file_name` (its rename to `done/` is complete).
    fn clear(&mut self, file_name: &str) -> Result<(), SourceError> {
        let before = self.delivered.len();
        self.delivered.retain(|name| name != file_name);
        if self.delivered.len() == before {
            return Ok(());
        }
        self.persist()
    }

    /// Atomic write ([`write_atomic`]): readers only ever see the old or
    /// the new snapshot, never a torn one.
    fn persist(&self) -> Result<(), SourceError> {
        let state = JournalState {
            version: JOURNAL_VERSION,
            delivered: self.delivered.clone(),
        };
        let json = serde_json::to_string_pretty(&state)
            .map_err(|e| SourceError::Io(format!("encoding inbox journal: {e}")))?;
        write_atomic(&self.path, json)
            .map_err(|e| SourceError::Io(format!("publishing inbox journal: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_round_trips_and_sweeps() {
        let dir = std::env::temp_dir().join(format!("dquag-journal-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();

        let mut journal = InboxJournal::load(&dir).unwrap();
        assert!(journal.delivered().is_empty(), "first run starts empty");
        journal.record("a.csv").unwrap();
        journal.record("b.csv").unwrap();
        journal.record("a.csv").unwrap(); // idempotent

        let reloaded = InboxJournal::load(&dir).unwrap();
        assert_eq!(reloaded.delivered(), vec!["a.csv", "b.csv"]);

        journal.clear("a.csv").unwrap();
        let reloaded = InboxJournal::load(&dir).unwrap();
        assert_eq!(reloaded.delivered(), vec!["b.csv"]);

        // Corrupt journal degrades to empty (at-least-once), not an error.
        fs::write(dir.join(JOURNAL_FILE), "{not json").unwrap();
        let recovered = InboxJournal::load(&dir).unwrap();
        assert!(recovered.delivered().is_empty());

        fs::remove_dir_all(&dir).ok();
    }
}
