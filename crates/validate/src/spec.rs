//! Spec-tree construction helpers: re-exports of the `dquag-core` data
//! model.
//!
//! The [`ValidatorSpec`] *data model* lives in `dquag-core` so it can embed
//! in `DquagConfig` and in source-layer checkpoints without a dependency
//! cycle; this module is the `dquag-validate`-side front door. Everything a
//! caller needs to author a spec — node types, voting policies, drift tests
//! — is re-exported here.

pub use dquag_core::spec::{
    normalize_backend_name, BackendSpec, DriftSpec, DriftTest, EnsembleSpec, EscalateWhen,
    GatedSpec, ValidatorSpec, Voting,
};
