//! # dquag-validate
//!
//! The unified validator API of the DQuaG reproduction.
//!
//! The paper's central claim is that DQuaG and its four baselines (Deequ,
//! TFDV, ADQV, Gate) answer the *same* question — "is this incoming batch
//! dirty?" — so this crate gives them one first-class abstraction:
//!
//! * [`Validator`] — fit once on clean reference data, then judge incoming
//!   batches, with [`Capabilities`] describing how much detail a backend can
//!   produce;
//! * [`Verdict`] — a unified, serde-serialisable result carrying graded
//!   detail: dataset verdict + anomaly score + violation messages for every
//!   backend, plus optional instance errors and cell flags where the backend
//!   supports them (DQuaG);
//! * [`ValidatorRegistry`] + [`ValidatorSpec`] — an **open registry** of
//!   named backend builders and a declarative, serde-round-trippable spec
//!   tree: `Backend` leaves compose under `Ensemble` voting, `Drift`
//!   detection and `Gated` escalation nodes, and downstream code
//!   [`register`]s custom backends without touching this crate;
//! * [`DriftValidator`] — a KS/PSI drift-detector backend: per-column
//!   empirical-CDF and population-stability tests against the fitted
//!   reference;
//! * [`EnsembleValidator`] / [`GatedValidator`] — composite validators that
//!   fit, validate and [`replicate`] *compositionally*, so the streaming
//!   engine shards any spec tree unchanged;
//! * [`ValidationSession`] — owns a fitted validator and streams incoming
//!   batches: `push_batch`/iterator ingestion, verdict history, rolling
//!   error rate, and parallel multi-batch validation honouring
//!   `DquagConfig::validation_threads`.
//!
//! [`register`]: ValidatorRegistry::register
//! [`replicate`]: Validator::replicate
//!
//! ## Quickstart
//!
//! ```no_run
//! use dquag_validate::{build_spec, ValidationSession, ValidatorSpec};
//! use dquag_core::DquagConfig;
//! # fn get_clean() -> dquag_tabular::DataFrame { unimplemented!() }
//! # fn get_batches() -> Vec<dquag_tabular::DataFrame> { unimplemented!() }
//!
//! let config = DquagConfig::builder().epochs(15).build().unwrap();
//! let validator = build_spec(&ValidatorSpec::backend("dquag"), &config).unwrap();
//! let mut session = ValidationSession::fit(validator, &get_clean())
//!     .unwrap()
//!     .with_threads(config.validation_threads);
//! for verdict in session.push_batches(&get_batches()).unwrap() {
//!     println!("{}: dirty={} score={:.4}", verdict.validator, verdict.is_dirty, verdict.score);
//! }
//! println!("rolling error rate: {:.2}%", 100.0 * session.rolling_error_rate(5));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod backends;
mod combinators;
mod drift;
mod persist_state;
mod registry;
mod session;
pub mod spec;
mod validator;
mod verdict;

pub use backends::{BaselineBackend, DquagBackend};
pub use combinators::{EnsembleValidator, GatedValidator};
pub use drift::{ColumnDrift, DriftValidator};
pub use persist_state::{
    rebuild_validator, CategoricalProfileState, CategoryProportion, DriftColumnState, DriftState,
    EnsembleState, GatedState, NumericProfileState, PersistedValidatorState,
};
pub use registry::{build_spec, default_registry, BackendBuilder, ValidatorRegistry};
pub use session::{SessionSummary, ValidationSession};
pub use spec::{
    BackendSpec, DriftSpec, DriftTest, EnsembleSpec, EscalateWhen, GatedSpec, ValidatorSpec, Voting,
};
pub use validator::{ValidateError, Validator};
pub use verdict::{Capabilities, FitReport, Verdict};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, ValidateError>;
