//! The unified [`Validator`] trait and its error type.

use crate::verdict::Capabilities;
use crate::{FitReport, Result, Verdict};
use dquag_core::{CoreError, HealthError};
use dquag_tabular::DataFrame;
use dquag_telemetry::Telemetry;
use std::fmt;
use std::sync::Arc;

/// Errors surfaced by the unified validator API.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidateError {
    /// `validate` (or `repair`) was called before `fit`.
    NotFitted(String),
    /// An error bubbled up from the DQuaG core pipeline.
    Core(CoreError),
    /// The batch is unusable for this validator (wrong schema, empty, …).
    InvalidBatch(String),
    /// A configuration value is out of its legal range.
    InvalidConfig(String),
    /// The *validator itself* failed a runtime self-check (checksum drift,
    /// non-finite kernel output, poisoned activations). Unlike the other
    /// variants this does not indict the batch: the replica is corrupt and
    /// should be quarantined and rebuilt, then the batch retried.
    Health(HealthError),
    /// The validator panicked while judging a batch. The streaming engine
    /// catches the unwind, fails the batch with this error, and records a
    /// replica quarantine instead of letting the worker thread die.
    Panicked(String),
}

impl ValidateError {
    /// True for health violations — the signal the streaming engine uses to
    /// quarantine a replica instead of merely failing the batch.
    pub fn is_health(&self) -> bool {
        matches!(self, ValidateError::Health(_))
    }
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::NotFitted(name) => {
                write!(f, "validator `{name}` must be fitted before validating")
            }
            ValidateError::Core(e) => write!(f, "pipeline error: {e}"),
            ValidateError::InvalidBatch(msg) => write!(f, "invalid batch: {msg}"),
            ValidateError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ValidateError::Health(violation) => {
                write!(f, "validator health violation: {violation}")
            }
            ValidateError::Panicked(msg) => write!(f, "validator panicked: {msg}"),
        }
    }
}

impl std::error::Error for ValidateError {}

impl From<CoreError> for ValidateError {
    fn from(e: CoreError) -> Self {
        match e {
            // Health violations keep their structure so callers can match on
            // them without string-parsing a Core wrapper.
            CoreError::Health(violation) => ValidateError::Health(violation),
            other => ValidateError::Core(other),
        }
    }
}

/// A data-quality validator behind the unified API: fit once on a clean
/// reference dataset, then judge incoming batches.
///
/// The paper's five systems (DQuaG, Deequ, TFDV, ADQV, Gate) all answer the
/// same question — "is this incoming batch dirty?" — with different amounts
/// of detail. This trait is the single seam they plug into: benches,
/// examples, the [`crate::ValidationSession`] and future backends all program
/// against `dyn Validator` and construct instances from a
/// [`crate::ValidatorSpec`] through [`crate::build_spec`].
///
/// Implementations must be `Send + Sync`: a fitted validator is immutable
/// during validation, and the session fans batches out across threads.
pub trait Validator: Send + Sync {
    /// Display name used in tables and verdicts (e.g. `"DQuaG"`,
    /// `"Deequ expert"`).
    fn name(&self) -> &str;

    /// How much detail this backend can produce.
    fn capabilities(&self) -> Capabilities;

    /// Fit on the clean reference dataset. May be called again to refit.
    fn fit(&mut self, clean: &DataFrame) -> Result<FitReport>;

    /// Judge a batch of new data. Errors with [`ValidateError::NotFitted`]
    /// when called before [`Validator::fit`].
    fn validate(&self, batch: &DataFrame) -> Result<Verdict>;

    /// Propose a repaired copy of `batch` for the problems named in
    /// `verdict`. Backends without [`Capabilities::repair`] return
    /// `Ok(None)` (the default).
    fn repair(&self, batch: &DataFrame, verdict: &Verdict) -> Result<Option<DataFrame>> {
        let _ = (batch, verdict);
        Ok(None)
    }

    /// Produce an independent fitted replica of this validator for
    /// data-parallel sharding, or `None` when the backend cannot copy its
    /// fitted state.
    ///
    /// The streaming engine shards heavy traffic across replicas; backends
    /// that return `None` are shared behind an `Arc` instead (sound, since
    /// [`Validator::validate`] takes `&self`), replicas merely avoid any
    /// cross-worker sharing. Must only be called on a fitted validator, and
    /// the replica must produce verdicts identical to the original's.
    fn replicate(&self) -> Option<Box<dyn Validator>> {
        None
    }

    /// Attach a shared telemetry bundle so this validator reports
    /// data-plane observations (per-column drift, backend scores) as it
    /// validates. The default is a no-op; composites recurse into their
    /// members so any spec containing an observing node reports. The
    /// streaming engine calls this automatically on start and on every
    /// hot swap when it was built with telemetry.
    fn attach_telemetry(&mut self, telemetry: &Arc<Telemetry>) {
        let _ = telemetry;
    }

    /// Verify this validator's own integrity: re-hash fitted parameters
    /// against the checksum recorded at fit time, scan for non-finite
    /// weights, and so on. Backends without fitted state (or without a
    /// cheap integrity proof) return `Ok(())` — the default.
    ///
    /// The streaming engine calls this when deciding whether a replica that
    /// produced a [`ValidateError::Health`] should be quarantined; external
    /// supervisors may call it periodically. Composites recurse into their
    /// members and surface the first violation.
    fn health_check(&self) -> Result<()> {
        Ok(())
    }

    /// Export this validator's complete fitted state for persistence, or
    /// `None` when the backend does not support it (the default) or has not
    /// been fitted yet.
    ///
    /// This is the *Persistable* capability: a returned state, fed through
    /// [`crate::rebuild_validator`], yields a scoring-ready validator whose
    /// verdicts are identical to this one's — across process restarts, with
    /// no refit. Composites (ensemble, gated) are persistable exactly when
    /// every member is.
    fn persisted_state(&self) -> Option<crate::PersistedValidatorState> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        assert!(ValidateError::NotFitted("Gate".into())
            .to_string()
            .contains("Gate"));
        assert!(ValidateError::InvalidConfig("epochs = 0".into())
            .to_string()
            .contains("epochs"));
        let core: ValidateError = CoreError::SchemaMismatch("col".into()).into();
        assert!(core.to_string().contains("col"));
    }

    #[test]
    fn health_violations_keep_their_structure_across_the_core_boundary() {
        let violation = HealthError::ChecksumMismatch {
            expected: 0xdead,
            actual: 0xbeef,
        };
        let err: ValidateError = CoreError::Health(violation.clone()).into();
        assert_eq!(err, ValidateError::Health(violation));
        assert!(err.is_health());
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        let plain: ValidateError = CoreError::SchemaMismatch("col".into()).into();
        assert!(!plain.is_health());
    }
}
