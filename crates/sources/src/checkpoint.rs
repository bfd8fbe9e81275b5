//! Durable checkpoints: per-source offsets plus engine statistics, written
//! atomically as JSON and restored on startup.

use crate::SourceError;
use dquag_core::{write_atomic, ValidatorSpec};
use dquag_stream::StreamStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Current checkpoint format version; bumped on incompatible layout changes
/// so a restore can refuse files from a future format instead of
/// mis-reading them.
pub const CHECKPOINT_VERSION: u64 = 1;

/// The durable state of a serving deployment: how far every source has
/// delivered, and the engine's cumulative statistics.
///
/// Serialised as JSON via the workspace serde; the `stats` block is the
/// exact same shape [`StreamStats`] uses on the wire (`STATS` command,
/// `GET /stats`), so checkpoints, monitoring responses and logs all read
/// one format.
///
/// Writes are atomic — the file is fully written to a `.tmp` sibling and
/// renamed into place — so a crash mid-write leaves the previous checkpoint
/// intact rather than a truncated one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version, for forward-compatibility checks on restore.
    pub version: u64,
    /// Batches durably delivered, per source name.
    pub offsets: BTreeMap<String, u64>,
    /// Engine statistics at checkpoint time, restored into a new engine via
    /// `StreamEngineBuilder::restore_stats` so counters continue across
    /// restarts.
    pub stats: StreamStats,
    /// The declarative spec of the validator serving this deployment, when
    /// the runtime was told it ([`crate::SourceRuntimeBuilder::spec`]). A
    /// restart rebuilds the *same* validator tree from the checkpoint alone
    /// — and an operator reading the file sees what was judging their data.
    /// Absent in pre-spec checkpoints, which still load.
    pub spec: Option<ValidatorSpec>,
    /// Where the fitted model was persisted (`dquag_persist::save_validator`),
    /// when the deployment persists one. A restart can rebuild the *fitted*
    /// validator straight from this file — zero refit — instead of training
    /// from scratch. Absent in pre-persistence checkpoints, which still
    /// load.
    pub model_path: Option<PathBuf>,
}

/// A structured warning about capabilities a restored checkpoint cannot
/// offer because it was written by an older layout (or a deployment that
/// never recorded the field). Surfaced by [`Checkpoint::warnings`] so
/// restart flows can log exactly what degraded instead of silently
/// refitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointWarning {
    /// No validator spec: the restart cannot rebuild the validator tree
    /// declaratively and must be configured out of band.
    MissingSpec,
    /// No persisted-model path: the restart cannot reload the fitted model
    /// from disk and will refit from scratch before serving.
    MissingModelPath,
}

impl std::fmt::Display for CheckpointWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingSpec => write!(
                f,
                "checkpoint predates validator specs (no `spec`): the restart \
                 cannot rebuild the validator tree from the checkpoint alone"
            ),
            Self::MissingModelPath => write!(
                f,
                "checkpoint predates persisted models (no `model_path`): the \
                 restart will refit from scratch instead of loading the \
                 fitted model from disk"
            ),
        }
    }
}

impl Checkpoint {
    /// A checkpoint of the given offsets and statistics.
    pub fn new(offsets: BTreeMap<String, u64>, stats: StreamStats) -> Self {
        Self {
            version: CHECKPOINT_VERSION,
            offsets,
            stats,
            spec: None,
            model_path: None,
        }
    }

    /// Record the validator spec serving this deployment.
    pub fn with_spec(mut self, spec: ValidatorSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Record where the fitted model is persisted, so a restart reloads it
    /// instead of refitting.
    pub fn with_model_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.model_path = Some(path.into());
        self
    }

    /// Structured warnings about restore capabilities this checkpoint lacks
    /// — empty for a fully-populated current-layout checkpoint. Legacy files
    /// (pre-spec, pre-model-path) load fine; this names what degraded.
    pub fn warnings(&self) -> Vec<CheckpointWarning> {
        let mut warnings = Vec::new();
        if self.spec.is_none() {
            warnings.push(CheckpointWarning::MissingSpec);
        }
        if self.model_path.is_none() {
            warnings.push(CheckpointWarning::MissingModelPath);
        }
        warnings
    }

    /// The restored offset for one source (0 when the source is new).
    pub fn offset_for(&self, source: &str) -> u64 {
        self.offsets.get(source).copied().unwrap_or(0)
    }

    /// Serialise to pretty JSON (what [`save`] writes).
    ///
    /// [`save`]: Checkpoint::save
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("checkpoint serialisation is infallible")
    }

    /// Parse a checkpoint from JSON text, rejecting future format versions
    /// with the distinct [`SourceError::CheckpointVersion`].
    pub fn from_json(text: &str) -> Result<Self, SourceError> {
        let checkpoint: Checkpoint =
            serde_json::from_str(text).map_err(|e| SourceError::Checkpoint(e.to_string()))?;
        if checkpoint.version > CHECKPOINT_VERSION {
            return Err(SourceError::CheckpointVersion {
                found: checkpoint.version,
                supported: CHECKPOINT_VERSION,
            });
        }
        Ok(checkpoint)
    }

    /// Write atomically: the JSON goes in full to a temp sibling unique to
    /// this call (so concurrent writers — the interval checkpointer racing
    /// a manual `write_checkpoint` — can never interleave into one file),
    /// then a rename moves it into place. Last rename wins, and the file at
    /// `path` is always a complete document.
    pub fn save(&self, path: &Path) -> Result<(), SourceError> {
        write_atomic(path, self.to_json()).map_err(|e| SourceError::Checkpoint(e.to_string()))
    }

    /// Load a checkpoint, erroring on unreadable or corrupt files. Use
    /// [`recover`] for the lenient startup path.
    ///
    /// [`recover`]: Checkpoint::recover
    pub fn load(path: &Path) -> Result<Self, SourceError> {
        let text = fs::read_to_string(path)
            .map_err(|e| SourceError::Checkpoint(format!("reading {path:?}: {e}")))?;
        Self::from_json(&text)
    }

    /// The lenient startup path: a missing, truncated or otherwise corrupt
    /// checkpoint yields `Ok(None)` — the deployment starts fresh instead
    /// of refusing to boot over a damaged file. (The atomic [`save`] makes
    /// corruption unlikely; this guards against operator edits and partial
    /// disks.)
    ///
    /// One failure is *not* forgiven: a checkpoint written by a newer build
    /// ([`SourceError::CheckpointVersion`]) propagates as an error. Starting
    /// fresh there would soon overwrite the newer deployment's durable
    /// offsets — a rollback must be an explicit operator decision.
    ///
    /// [`save`]: Checkpoint::save
    pub fn recover(path: &Path) -> Result<Option<Self>, SourceError> {
        match Self::load(path) {
            Ok(checkpoint) => Ok(Some(checkpoint)),
            Err(version @ SourceError::CheckpointVersion { .. }) => Err(version),
            Err(_) => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut offsets = BTreeMap::new();
        offsets.insert("net".to_string(), 17);
        offsets.insert("dir".to_string(), 4);
        let stats_json = serde_json::to_string(&StreamStats {
            submitted: 21,
            dropped: 0,
            rejected: 0,
            timed_out: 0,
            emitted: 21,
            dirty: 6,
            failed: 0,
            deadline_exceeded: 0,
            late_discarded: 0,
            queue_depth: 0,
            in_flight: 0,
            rows_validated: 2_100,
            rows_per_sec: 350.5,
            p50_latency: std::time::Duration::from_millis(12),
            p99_latency: std::time::Duration::from_millis(40),
            uptime: std::time::Duration::from_secs(6),
            replicas: 2,
        })
        .unwrap();
        Checkpoint::new(offsets, serde_json::from_str(&stats_json).unwrap())
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let checkpoint = sample();
        let back = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(back, checkpoint);
        assert_eq!(back.offset_for("net"), 17);
        assert_eq!(back.offset_for("unknown"), 0);
    }

    #[test]
    fn validator_spec_rides_the_checkpoint_and_old_files_still_load() {
        use dquag_core::spec::{ValidatorSpec, Voting};
        let spec = ValidatorSpec::ensemble(
            vec![ValidatorSpec::backend("dquag"), ValidatorSpec::drift()],
            Voting::Majority,
        );
        let checkpoint = sample().with_spec(spec.clone());
        let back = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(back.spec.as_ref(), Some(&spec));

        // A pre-spec checkpoint (no `spec` key at all) loads with `None`.
        let mut legacy = serde_json::to_value(&sample());
        if let serde::Value::Object(map) = &mut legacy {
            assert!(map.remove("spec").is_some());
        }
        let legacy_text = serde_json::to_string(&legacy).unwrap();
        let restored = Checkpoint::from_json(&legacy_text).unwrap();
        assert_eq!(restored.spec, None);
        assert_eq!(restored.offset_for("net"), 17);
    }

    #[test]
    fn legacy_layouts_load_with_structured_warnings() {
        use dquag_core::spec::ValidatorSpec;

        // A fully-populated current-layout checkpoint: nothing degraded.
        let full = sample()
            .with_spec(ValidatorSpec::drift())
            .with_model_path("/var/lib/dquag/model.json");
        let back = Checkpoint::from_json(&full.to_json()).unwrap();
        assert_eq!(
            back.model_path.as_deref(),
            Some(Path::new("/var/lib/dquag/model.json"))
        );
        assert!(back.warnings().is_empty());

        // Spec-era fixture (specs existed, persisted models did not): the
        // `model_path` key is absent from the file entirely.
        let mut spec_era = serde_json::to_value(&full);
        if let serde::Value::Object(map) = &mut spec_era {
            assert!(map.remove("model_path").is_some());
        }
        let text = serde_json::to_string(&spec_era).unwrap();
        let restored = Checkpoint::from_json(&text).unwrap();
        assert_eq!(restored.model_path, None);
        assert_eq!(
            restored.warnings(),
            vec![CheckpointWarning::MissingModelPath]
        );
        assert!(restored.warnings()[0]
            .to_string()
            .contains("refit from scratch"));

        // Pre-spec fixture (the oldest layout): neither key exists. Offsets
        // and stats still restore; both capabilities are reported missing.
        let mut pre_spec = serde_json::to_value(&full);
        if let serde::Value::Object(map) = &mut pre_spec {
            assert!(map.remove("spec").is_some());
            assert!(map.remove("model_path").is_some());
        }
        let text = serde_json::to_string(&pre_spec).unwrap();
        let restored = Checkpoint::from_json(&text).unwrap();
        assert_eq!(
            restored.warnings(),
            vec![
                CheckpointWarning::MissingSpec,
                CheckpointWarning::MissingModelPath
            ]
        );
        assert_eq!(restored.offset_for("net"), 17);
    }

    #[test]
    fn future_versions_are_refused_even_by_recover() {
        let mut checkpoint = sample();
        checkpoint.version = CHECKPOINT_VERSION + 1;
        let err = Checkpoint::from_json(&checkpoint.to_json()).unwrap_err();
        assert!(matches!(
            err,
            crate::SourceError::CheckpointVersion { found, supported }
                if found == CHECKPOINT_VERSION + 1 && supported == CHECKPOINT_VERSION
        ));
        assert!(err.to_string().contains("newer"));

        // The lenient path forgives corruption, never a version rollback:
        // starting fresh would overwrite the newer deployment's offsets.
        let dir = std::env::temp_dir().join("dquag_checkpoint_version");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        std::fs::write(&path, checkpoint.to_json()).unwrap();
        assert!(Checkpoint::recover(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_is_atomic_and_load_round_trips() {
        let dir = std::env::temp_dir().join("dquag_checkpoint_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        let checkpoint = sample();
        checkpoint.save(&path).unwrap();
        // No temp-file residue.
        assert!(!path.with_extension("tmp").exists());
        assert_eq!(Checkpoint::load(&path).unwrap(), checkpoint);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_saves_never_corrupt_the_file() {
        let dir = std::env::temp_dir().join("dquag_checkpoint_concurrent");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        let checkpoint = sample();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        checkpoint.save(&path).expect("save succeeds");
                        // Whatever writer last renamed, the file is complete.
                        assert_eq!(Checkpoint::load(&path).unwrap(), checkpoint);
                    }
                });
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_tolerates_missing_and_corrupt_files() {
        let dir = std::env::temp_dir().join("dquag_checkpoint_recover");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(Checkpoint::recover(&dir.join("nope.json")).unwrap(), None);
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"version\": 1, \"offse").unwrap();
        assert_eq!(Checkpoint::recover(&bad).unwrap(), None);
        assert!(Checkpoint::load(&bad).is_err());
        std::fs::remove_file(&bad).ok();
    }
}
