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
//!   engine shards any spec tree unchanged.
//!
//! A fitted validator is called directly — [`Validator::validate`] judges
//! one batch, [`Validator::repair`] proposes fixes for what it flagged — or
//! served by the `dquag-stream` engine, whose `stream.replicas` setting
//! spreads batches across cores.
//!
//! [`register`]: ValidatorRegistry::register
//! [`replicate`]: Validator::replicate
//!
//! ## Quickstart
//!
//! ```no_run
//! use dquag_validate::{build_spec, ValidatorSpec, Verdict};
//! use dquag_core::DquagConfig;
//! # fn get_clean() -> dquag_tabular::DataFrame { unimplemented!() }
//! # fn get_batches() -> Vec<dquag_tabular::DataFrame> { unimplemented!() }
//!
//! let config = DquagConfig {
//!     epochs: 15,
//!     ..DquagConfig::default()
//! }
//! .validated()
//! .unwrap();
//! let mut validator = build_spec(&ValidatorSpec::backend("dquag"), &config).unwrap();
//! validator.fit(&get_clean()).unwrap();
//! let mut history: Vec<Verdict> = Vec::new();
//! for batch in get_batches() {
//!     let verdict = validator.validate(&batch).unwrap();
//!     println!("{}: dirty={} score={:.4}", verdict.validator, verdict.is_dirty, verdict.score);
//!     history.push(verdict);
//! }
//! let dirty = history.iter().filter(|verdict| verdict.is_dirty).count();
//! println!("{dirty} of {} batches dirty", history.len());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod backends;
mod combinators;
mod drift;
mod persist_state;
mod registry;
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
pub use spec::{
    BackendSpec, DriftSpec, DriftTest, EnsembleSpec, EscalateWhen, GatedSpec, ValidatorSpec, Voting,
};
pub use validator::{ValidateError, Validator};
pub use verdict::{Capabilities, FitReport, Verdict};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, ValidateError>;
