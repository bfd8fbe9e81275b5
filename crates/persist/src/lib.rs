//! # dquag-persist
//!
//! Persisted fitted models for the DQuaG deployment loop: train once, save,
//! restart from disk with zero refit, hot-swap a newer model into a live
//! stream, and let drift trigger the refit that produces it.
//!
//! Three layers:
//!
//! * **Model store** ([`save_validator`] / [`load_validator`]) — a
//!   versioned, self-describing JSON envelope around a
//!   [`dquag_validate::PersistedValidatorState`], checksummed end to end and
//!   written atomically (tmp + rename). Loading fails closed and
//!   quarantines corrupt files; a caller that prefers a cold refit over a
//!   crash matches the [`PersistError::Corrupt`] it returns.
//! * **Registry restore** ([`registry_with_persistence`]) — the
//!   `persisted-dquag` backend turns
//!   `Backend("persisted-dquag", options={path})` into a fitted,
//!   scoring-ready validator straight from disk, so restart flows stay
//!   declarative.
//! * **Refit supervision** ([`RefitSupervisor`]) — watches drift verdicts on
//!   a live stream, accumulates recent clean batches in a bounded reservoir,
//!   refits in a background thread, persists the result and hot-swaps it
//!   into the running [`dquag_stream::StreamEngine`] without dropping or
//!   reordering a single batch.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod registry;
mod store;
mod supervisor;

pub use error::PersistError;
pub use registry::{register_persistence, registry_with_persistence, PERSISTED_DQUAG};
pub use store::{load_validator, save_validator, Result, MODEL_FORMAT, MODEL_FORMAT_VERSION};
pub use supervisor::{RefitOutcome, RefitSupervisor, SupervisorConfig};
