//! The on-disk model store: a versioned, self-describing, checksummed JSON
//! envelope around a [`PersistedValidatorState`], written atomically.
//!
//! ## File format
//!
//! ```json
//! {
//!   "format":   "dquag-model",
//!   "version":  1,
//!   "kind":     "dquag",           // root of the state tree, for tooling
//!   "checksum": "9f4e…16 hex…",    // FNV-1a 64 over the payload JSON
//!   "payload":  { … }              // the PersistedValidatorState tree
//! }
//! ```
//!
//! Numbers survive exactly: the vendored `serde_json` prints every finite
//! `f64` in shortest round-trip form (including `-0.0`), so the payload a
//! load re-serialises is byte-identical to the payload that was hashed at
//! save time — which is what makes the envelope checksum meaningful.
//!
//! ## Guarantees
//!
//! * **Atomic writes** — the envelope is fully written to a unique `.tmp`
//!   sibling and renamed into place; a crash mid-write leaves the previous
//!   model intact and at worst a stray `.tmp` file.
//! * **Fail closed** — [`load_model`] verifies format, version, envelope
//!   checksum and payload decode before returning; anything inconsistent is
//!   an error *and* the file is moved aside to `<file>.quarantined` so it
//!   cannot be re-read as a model on the next boot loop.
//! * **Strict vs lenient** — [`load_model`] errors on problems;
//!   [`recover_model`] degrades them to structured warnings and reports
//!   whether (and where) the file was quarantined, for callers that prefer
//!   a cold refit over a crash.

use crate::error::PersistError;
use dquag_core::{fnv1a, write_atomic, FNV_OFFSET};
use dquag_validate::{rebuild_validator, PersistedValidatorState, Validator};
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};

/// Magic string identifying a DQuaG model file.
pub const MODEL_FORMAT: &str = "dquag-model";

/// Current model file format version.
pub const MODEL_FORMAT_VERSION: u64 = 1;

/// Result alias for persistence operations.
pub type Result<T> = std::result::Result<T, PersistError>;

/// The envelope as stored on disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ModelEnvelope {
    format: String,
    version: u64,
    kind: String,
    checksum: String,
    payload: serde_json::Value,
}

/// Serialise a payload value and checksum it. One code path for save and
/// load keeps the two sides byte-identical by construction.
fn payload_json_and_checksum(payload: &serde_json::Value) -> (String, String) {
    let json = serde_json::to_string(payload)
        .expect("serde_json::Value serialisation is infallible for tree values");
    let checksum = format!("{:016x}", fnv1a(FNV_OFFSET, json.as_bytes()));
    (json, checksum)
}

/// Save a fitted validator's state to `path` atomically.
///
/// The file is fully written to a unique `.tmp` sibling (pid + sequence
/// number, so concurrent savers never collide) and renamed into place;
/// readers see either the old complete model or the new complete model,
/// never a torn write.
pub fn save_model(path: &Path, state: &PersistedValidatorState) -> Result<()> {
    let payload = state.to_value();
    let (_, checksum) = payload_json_and_checksum(&payload);
    let envelope = ModelEnvelope {
        format: MODEL_FORMAT.to_string(),
        version: MODEL_FORMAT_VERSION,
        kind: state.kind().to_string(),
        checksum,
        payload,
    };
    let json = serde_json::to_string(&envelope.to_value())
        .expect("envelope serialisation is infallible for tree values");
    write_atomic(path, json).map_err(|e| PersistError::Io(e.to_string()))
}

/// Save a fitted validator to `path`, or fail with
/// [`PersistError::NotPersistable`] when it exports no state.
pub fn save_validator(path: &Path, validator: &dyn Validator) -> Result<()> {
    let state = validator
        .persisted_state()
        .ok_or_else(|| PersistError::NotPersistable(validator.name().to_string()))?;
    save_model(path, &state)
}

/// Move a file that failed verification aside so it can never be re-read as
/// a model. Returns the quarantine path when the rename succeeded.
fn quarantine(path: &Path) -> Option<PathBuf> {
    let mut name = path.file_name()?.to_os_string();
    name.push(".quarantined");
    let target = path.with_file_name(name);
    fs::rename(path, &target).ok()?;
    Some(target)
}

/// Everything [`load_model`] verifies, with corruption reported through
/// `Err` so strict and lenient callers can share the walk.
fn read_verified(path: &Path) -> Result<PersistedValidatorState> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return Err(PersistError::Io(format!("reading {}: {e}", path.display()))),
    };
    let corrupt = |reason: String| PersistError::Corrupt {
        reason: format!("{}: {reason}", path.display()),
        quarantined: quarantine(path),
    };

    let envelope: ModelEnvelope = match serde_json::from_str(&text) {
        Ok(envelope) => envelope,
        Err(e) => return Err(corrupt(format!("not a model envelope ({e})"))),
    };
    if envelope.format != MODEL_FORMAT {
        return Err(corrupt(format!(
            "format is `{}`, expected `{MODEL_FORMAT}`",
            envelope.format
        )));
    }
    // A newer version is not corruption — leave the file for newer code.
    if envelope.version > MODEL_FORMAT_VERSION {
        return Err(PersistError::Unsupported(format!(
            "{}: model format version {} is newer than this build's {MODEL_FORMAT_VERSION}",
            path.display(),
            envelope.version
        )));
    }
    let (_, actual) = payload_json_and_checksum(&envelope.payload);
    if actual != envelope.checksum {
        return Err(corrupt(format!(
            "payload checksum {actual} does not match the declared {}",
            envelope.checksum
        )));
    }
    let state = match PersistedValidatorState::from_value(&envelope.payload) {
        Ok(state) => state,
        Err(e) => return Err(corrupt(format!("payload does not decode ({e})"))),
    };
    if state.kind() != envelope.kind {
        return Err(corrupt(format!(
            "envelope says kind `{}` but the payload is `{}`",
            envelope.kind,
            state.kind()
        )));
    }
    Ok(state)
}

/// Strictly load a persisted model state from `path`.
///
/// Fails closed: a missing file is an I/O error; broken JSON, a checksum
/// mismatch, an undecodable payload or a kind mismatch quarantine the file
/// and return [`PersistError::Corrupt`]; a newer format version is
/// [`PersistError::Unsupported`] (and the file is left in place).
pub fn load_model(path: &Path) -> Result<PersistedValidatorState> {
    read_verified(path)
}

/// Strictly load a fitted, scoring-ready validator from `path`.
///
/// [`load_model`] plus [`rebuild_validator`]: structural verification
/// happens at both layers (envelope checksum here, parameter checksums and
/// spec validation inside the rebuild), so a validator that comes back is
/// guaranteed to score exactly as the one that was saved.
pub fn load_validator(path: &Path) -> Result<Box<dyn Validator>> {
    let state = load_model(path)?;
    rebuild_validator(state).map_err(PersistError::Rebuild)
}

/// The outcome of a lenient [`recover_model`]: at most a state, plus
/// structured warnings about anything that was wrong.
#[derive(Debug)]
pub struct RecoveredModel {
    /// The verified state, when the file was intact.
    pub state: Option<PersistedValidatorState>,
    /// Human-readable descriptions of every problem encountered.
    pub warnings: Vec<String>,
    /// Where the corrupt file was moved, when quarantining happened.
    pub quarantined: Option<PathBuf>,
}

/// Leniently recover a model from `path`.
///
/// Never fails: a missing or corrupt file yields `state: None` with the
/// problem described in `warnings` (and the corrupt file quarantined), so
/// callers can fall back to a cold refit instead of crashing. The
/// verification walk is exactly [`load_model`]'s — lenient recovery never
/// accepts a file strict loading would reject.
pub fn recover_model(path: &Path) -> RecoveredModel {
    match read_verified(path) {
        Ok(state) => RecoveredModel {
            state: Some(state),
            warnings: Vec::new(),
            quarantined: None,
        },
        Err(PersistError::Corrupt {
            reason,
            quarantined,
        }) => RecoveredModel {
            state: None,
            warnings: vec![format!("corrupt model file: {reason}")],
            quarantined,
        },
        Err(e) => RecoveredModel {
            state: None,
            warnings: vec![e.to_string()],
            quarantined: None,
        },
    }
}

/// As [`recover_model`], additionally recording what went wrong in a
/// telemetry bundle: a quarantined file bumps
/// `dquag_model_quarantines_total` and journals a
/// [`dquag_telemetry::FlightEventKind::Quarantine`] event (error-class, so
/// it triggers the flight-recorder dump when that is enabled); any other
/// warning is journaled as a source error against the model path.
pub fn recover_model_observed(
    path: &Path,
    telemetry: &dquag_telemetry::Telemetry,
) -> RecoveredModel {
    let recovered = recover_model(path);
    if let Some(quarantined) = &recovered.quarantined {
        telemetry
            .registry()
            .counter(
                "dquag_model_quarantines_total",
                "Corrupt model envelopes moved aside on load.",
            )
            .inc();
        telemetry.event(dquag_telemetry::FlightEventKind::Quarantine {
            path: quarantined.display().to_string(),
        });
    } else if recovered.state.is_none() {
        for warning in &recovered.warnings {
            telemetry.event(dquag_telemetry::FlightEventKind::SourceError {
                source: format!("model:{}", path.display()),
                message: warning.clone(),
            });
        }
    }
    recovered
}

#[cfg(test)]
mod tests {
    use super::*;
    use dquag_core::spec::DriftSpec;
    use dquag_tabular::{DataFrame, Field, Schema, Value};
    use dquag_validate::DriftValidator;

    fn unique_dir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dquag-persist-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn frames() -> (DataFrame, DataFrame) {
        let schema = Schema::new(vec![Field::numeric("amount", "")]);
        let mut clean = DataFrame::new(schema.clone());
        for i in 0..60 {
            clean.push_row(vec![Value::Number(i as f64 / 7.0)]).unwrap();
        }
        let mut drifted = DataFrame::new(schema);
        for i in 0..15 {
            drifted
                .push_row(vec![Value::Number(900.0 + i as f64)])
                .unwrap();
        }
        (clean, drifted)
    }

    fn fitted_drift(clean: &DataFrame) -> DriftValidator {
        let mut d = DriftValidator::new(DriftSpec::default());
        d.fit(clean).unwrap();
        d
    }

    #[test]
    fn save_load_round_trips_to_identical_verdicts() {
        let dir = unique_dir("roundtrip");
        let path = dir.join("model.json");
        let (clean, drifted) = frames();
        let detector = fitted_drift(&clean);

        save_validator(&path, &detector).unwrap();
        assert!(path.exists());
        // No stray tmp files after an atomic save.
        let strays = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .to_string_lossy()
                    .contains(".tmp")
            })
            .count();
        assert_eq!(strays, 0);

        let loaded = load_validator(&path).unwrap();
        assert_eq!(loaded.name(), detector.name());
        for batch in [&clean, &drifted] {
            assert_eq!(
                loaded.validate(batch).unwrap(),
                detector.validate(batch).unwrap()
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unfitted_validators_refuse_to_save() {
        let dir = unique_dir("unfitted");
        let path = dir.join("model.json");
        let unfitted = DriftValidator::new(DriftSpec::default());
        match save_validator(&path, &unfitted) {
            Err(PersistError::NotPersistable(name)) => assert!(name.contains("drift")),
            other => panic!("unfitted save must fail NotPersistable, got {other:?}"),
        }
        assert!(!path.exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_files_are_quarantined_and_fail_closed() {
        let (clean, _) = frames();

        // A flipped payload byte breaks the envelope checksum.
        let dir = unique_dir("bitflip");
        let path = dir.join("model.json");
        save_validator(&path, &fitted_drift(&clean)).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let at = text.find("\"proportions\"").expect("payload field present");
        // Corrupt a digit inside the payload without breaking the JSON.
        let digit = text[at..]
            .find(|c: char| c.is_ascii_digit())
            .map(|off| at + off)
            .unwrap();
        let mut bytes = text.into_bytes();
        bytes[digit] = if bytes[digit] == b'9' {
            b'8'
        } else {
            bytes[digit] + 1
        };
        fs::write(&path, String::from_utf8(bytes).unwrap()).unwrap();

        match load_validator(&path).map(|v| v.name().to_string()) {
            Err(PersistError::Corrupt {
                reason,
                quarantined,
            }) => {
                assert!(reason.contains("checksum"), "got `{reason}`");
                let q = quarantined.expect("file is quarantined");
                assert!(q.exists());
                assert!(!path.exists(), "corrupt file must be moved aside");
            }
            other => panic!("checksum mismatch must fail Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();

        // Truncated JSON is quarantined too.
        let dir = unique_dir("truncated");
        let path = dir.join("model.json");
        save_validator(&path, &fitted_drift(&clean)).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        match load_model(&path) {
            Err(PersistError::Corrupt { quarantined, .. }) => {
                assert!(quarantined.is_some());
                assert!(!path.exists());
            }
            other => panic!("truncated file must fail Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn newer_versions_are_unsupported_but_left_in_place() {
        let dir = unique_dir("version");
        let path = dir.join("model.json");
        let (clean, _) = frames();
        save_validator(&path, &fitted_drift(&clean)).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let bumped = text.replace("\"version\":1", "\"version\":999");
        assert_ne!(bumped, text, "version field must be present to bump");
        fs::write(&path, bumped).unwrap();

        match load_model(&path) {
            Err(PersistError::Unsupported(msg)) => assert!(msg.contains("999"), "got `{msg}`"),
            other => panic!("future version must be Unsupported, got {other:?}"),
        }
        // The file is someone else's valid model; it stays.
        assert!(path.exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_degrades_problems_to_warnings() {
        let dir = unique_dir("recover");
        let path = dir.join("model.json");
        let (clean, _) = frames();

        // Missing file: no state, a warning, nothing quarantined.
        let missing = recover_model(&path);
        assert!(missing.state.is_none());
        assert_eq!(missing.warnings.len(), 1);
        assert!(missing.quarantined.is_none());

        // Intact file: state, no warnings.
        save_validator(&path, &fitted_drift(&clean)).unwrap();
        let good = recover_model(&path);
        assert!(good.state.is_some());
        assert!(good.warnings.is_empty());

        // Garbage file: no state, warning, quarantined.
        fs::write(&path, "not json at all").unwrap();
        let bad = recover_model(&path);
        assert!(bad.state.is_none());
        assert!(
            bad.warnings[0].contains("corrupt"),
            "got {:?}",
            bad.warnings
        );
        assert!(bad.quarantined.is_some());
        assert!(!path.exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn observed_recovery_journals_quarantines() {
        use dquag_telemetry::{FlightEventKind, TelemetryConfig};
        let telemetry = TelemetryConfig {
            flight_recorder_capacity: 16,
            dump_on_error: false,
            ..TelemetryConfig::default()
        }
        .build()
        .expect("telemetry is enabled");
        let dir = unique_dir("observed");
        let path = dir.join("model.json");
        let (clean, _) = frames();

        // An intact file records nothing.
        save_validator(&path, &fitted_drift(&clean)).unwrap();
        let good = recover_model_observed(&path, &telemetry);
        assert!(good.state.is_some());
        assert!(telemetry.recorder().is_empty());

        // A corrupt file bumps the counter and journals the quarantine path.
        fs::write(&path, "not json at all").unwrap();
        let bad = recover_model_observed(&path, &telemetry);
        let quarantined = bad.quarantined.expect("garbage is quarantined");
        assert_eq!(
            telemetry
                .registry()
                .counter("dquag_model_quarantines_total", "")
                .get(),
            1
        );
        assert!(telemetry.recorder().dump().iter().any(|e| e.kind
            == FlightEventKind::Quarantine {
                path: quarantined.display().to_string(),
            }));

        // A merely missing file is a source error, not a quarantine.
        let missing = recover_model_observed(&dir.join("absent.json"), &telemetry);
        assert!(missing.state.is_none());
        assert_eq!(
            telemetry
                .registry()
                .counter("dquag_model_quarantines_total", "")
                .get(),
            1
        );
        assert!(telemetry
            .recorder()
            .dump()
            .iter()
            .any(|e| e.kind.label() == "source_error"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn envelope_kind_must_match_the_payload() {
        let dir = unique_dir("kind");
        let path = dir.join("model.json");
        let (clean, _) = frames();
        save_validator(&path, &fitted_drift(&clean)).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let lied = text.replace("\"kind\":\"drift\"", "\"kind\":\"dquag\"");
        assert_ne!(lied, text);
        fs::write(&path, lied).unwrap();
        match load_model(&path) {
            Err(PersistError::Corrupt { reason, .. }) => {
                assert!(reason.contains("kind"), "got `{reason}`")
            }
            other => panic!("kind mismatch must fail Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn envelope_checksum_of_a_fixed_payload_is_pinned() {
        // FNV-1a 64 of the payload text, recorded before the envelope and
        // the tensor checksums shared one FNV-1a: model files saved then
        // must still verify.
        let payload: serde_json::Value = serde_json::from_str(
            r#"{"kind": "dquag", "threshold": 0.161, "weights": [0.5, -0.0, 1e-7, -3], "note": "ünï"}"#,
        )
        .unwrap();
        let (json, checksum) = payload_json_and_checksum(&payload);
        assert_eq!(
            json,
            r#"{"kind":"dquag","note":"ünï","threshold":0.161,"weights":[0.5,-0.0,0.0000001,-3]}"#
        );
        assert_eq!(checksum, "65caf3404f5a0ab7");
    }
}
