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
//! * **Fail closed** — [`load_validator`] verifies format, version, envelope
//!   checksum and payload decode before rebuilding; anything inconsistent
//!   is a [`PersistError::Corrupt`] *and* the file is moved aside to
//!   `<file>.quarantined` so it cannot be re-read as a model on the next
//!   boot loop. A caller that prefers a cold refit over a crash matches
//!   that error and fits from scratch.

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

/// Save a fitted validator's state to `path` atomically, or fail with
/// [`PersistError::NotPersistable`] when it exports no state.
///
/// The file is fully written to a unique `.tmp` sibling (pid + sequence
/// number, so concurrent savers never collide) and renamed into place;
/// readers see either the old complete model or the new complete model,
/// never a torn write.
pub fn save_validator(path: &Path, validator: &dyn Validator) -> Result<()> {
    let state = validator
        .persisted_state()
        .ok_or_else(|| PersistError::NotPersistable(validator.name().to_string()))?;
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

/// Move a file that failed verification aside so it can never be re-read as
/// a model. Returns the quarantine path when the rename succeeded.
fn quarantine(path: &Path) -> Option<PathBuf> {
    let mut name = path.file_name()?.to_os_string();
    name.push(".quarantined");
    let target = path.with_file_name(name);
    fs::rename(path, &target).ok()?;
    Some(target)
}

/// The envelope half of [`load_validator`]: read `path` and verify it down
/// to a decoded state.
fn load_model(path: &Path) -> Result<PersistedValidatorState> {
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

/// Strictly load a fitted, scoring-ready validator from `path`.
///
/// Fails closed: a missing file is [`PersistError::Io`]; broken JSON, a
/// checksum mismatch, an undecodable payload or a kind mismatch quarantine
/// the file and return [`PersistError::Corrupt`]; a newer format version is
/// [`PersistError::Unsupported`] and the file stays in place. Verification
/// happens at both layers (envelope checksum here, parameter checksums and
/// spec validation inside [`rebuild_validator`]), so a validator that comes
/// back is guaranteed to score exactly as the one that was saved.
pub fn load_validator(path: &Path) -> Result<Box<dyn Validator>> {
    let state = load_model(path)?;
    rebuild_validator(state).map_err(PersistError::Rebuild)
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
    fn dquag_models_saved_with_spec_params_load_in_place() {
        // Builds whose spec leaves still had `params` saved them inside the
        // model's `config.validator`, with the overrides already applied to
        // the config's fields. Such a file is intact: it loads, scores as
        // saved, and is not quarantined.
        let dir = unique_dir("spec-params");
        let path = dir.join("model.json");
        let clean = dquag_datagen::DatasetKind::CreditCard.generate_clean(200, 11);
        let mut fitted = dquag_validate::DquagBackend::new(dquag_core::DquagConfig::fast());
        fitted.fit(&clean).unwrap();
        save_validator(&path, &fitted).unwrap();

        let mut envelope: ModelEnvelope =
            serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        let mut leaf = &mut envelope.payload;
        for key in ["Dquag", "config", "validator", "Backend"] {
            leaf = match leaf {
                serde_json::Value::Object(map) => map.get_mut(key).expect(key),
                other => panic!("expected an object above `{key}`, got {}", other.kind()),
            };
        }
        let serde_json::Value::Object(leaf) = leaf else {
            panic!("a backend leaf is an object");
        };
        let params = serde_json::from_str(r#"{"epochs": 12}"#).unwrap();
        assert!(leaf.insert("params".to_string(), params).is_none());
        envelope.checksum = payload_json_and_checksum(&envelope.payload).1;
        fs::write(&path, serde_json::to_string(&envelope).unwrap()).unwrap();

        let loaded = load_validator(&path).unwrap();
        assert!(path.exists());
        assert!(!dir.join("model.json.quarantined").exists());
        assert_eq!(
            loaded.validate(&clean).unwrap(),
            fitted.validate(&clean).unwrap()
        );
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
