//! # dquag-core
//!
//! DQuaG — *Data Quality Graph* — the end-to-end data-quality validation and
//! repair framework of "Automated Data Quality Validation in an End-to-End
//! GNN Framework" (EDBT 2025), reproduced in Rust.
//!
//! The pipeline has two phases, mirroring §3 of the paper:
//!
//! **Phase 1 — training on clean data** ([`DquagValidator::train`]):
//! 1. categorical features are label-encoded and numeric features min-max
//!    normalised (`dquag-tabular`), with the encoder fitted over the clean
//!    data and any known future data;
//! 2. a knowledge-based feature graph is built over the columns
//!    (`dquag-graph`; the ChatGPT-4 oracle of the paper is replaced by a
//!    statistical relationship oracle — see [`dquag_graph::knowledge`]);
//! 3. the GAT+GIN encoder and the dual decoders (`dquag-gnn`) are trained
//!    with Adam on the multi-task loss `α·L_validation + β·L_repair`;
//! 4. the reconstruction errors of (held-out) clean instances are collected
//!    and the detection threshold is set at their 95th percentile.
//!
//! **Phase 2 — validation and repair of new data**
//! ([`DquagValidator::validate`], [`DquagValidator::repair`]):
//! instances whose reconstruction error exceeds the threshold are flagged;
//! the dataset as a whole is declared *problematic* when more than `5% × n`
//! of its instances are flagged (`n = 1.2`); within a flagged instance the
//! features whose error exceeds `μ + 5σ` are flagged; and the repair decoder
//! proposes replacement values for exactly those cells.
//!
//! ```no_run
//! use dquag_core::{DquagConfig, DquagValidator};
//! use dquag_datagen::DatasetKind;
//!
//! let clean = DatasetKind::CreditCard.generate_clean(5_000, 7);
//! let dirty = DatasetKind::CreditCard.generate_dirty(1_000, 8);
//!
//! let validator = DquagValidator::train(&clean, &[&dirty], &DquagConfig::default()).unwrap();
//! let report = validator.validate(&dirty).unwrap();
//! println!("dataset dirty: {} ({}% of instances flagged)",
//!          report.dataset_is_dirty, 100.0 * report.error_rate);
//! let repaired = validator.repair(&dirty, &report).unwrap();
//! assert_eq!(repaired.n_rows(), dirty.n_rows());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod atomic_write;
mod config;
mod error;
mod pipeline;

pub mod metrics;
pub mod spec;

pub use atomic_write::write_atomic;
pub use config::{
    BackpressurePolicy, CheckpointConfig, DquagConfig, ServingConfig, SourceConfig, StreamConfig,
};
pub use error::CoreError;
pub use pipeline::{
    CellFlag, DquagModelState, DquagValidator, TrainingSummary, ValidationReport,
    DEFAULT_SELF_CHECK_PERIOD,
};
// Re-exported so layers above `dquag-core` (validate, stream, faults) can
// match on health violations without depending on `dquag-gnn` directly.
pub use dquag_gnn::{ActivationFault, HealthError};
/// The deployment's `telemetry` block, declared by the crate that builds
/// the bundle from it.
pub use dquag_telemetry::{TelemetryConfig, TelemetryDataConfig};
/// The workspace's one FNV-1a, re-exported for the model-file envelope in
/// `dquag-persist`, which checksums its payload text with it.
pub use dquag_tensor::{fnv1a, FNV_OFFSET};
pub use spec::{
    BackendSpec, DriftSpec, DriftTest, EnsembleSpec, EscalateWhen, GatedSpec, ValidatorSpec, Voting,
};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
