//! # DQuaG — Data Quality Graph
//!
//! Facade crate for the Rust reproduction of *"Automated Data Quality
//! Validation in an End-to-End GNN Framework"* (EDBT 2025). It re-exports the
//! workspace crates under one roof so that examples, integration tests and
//! downstream users can depend on a single `dquag` crate:
//!
//! * [`validate`] — **the unified validator API**: the `Validator` trait,
//!   graded `Verdict`s, the open `ValidatorRegistry` building declarative
//!   `ValidatorSpec` trees (ensemble voting, KS/PSI drift detection, gated
//!   escalation, custom backends). Start here.
//! * [`stream`] — the streaming ingestion engine: bounded-queue ingestion
//!   with backpressure, sharded validator replicas, per-batch deadlines,
//!   live stats and graceful shutdown.
//! * [`sources`] — source adapters feeding the engine from the outside
//!   world: an HTTP listener, a directory watcher replaying CSV drops,
//!   and durable checkpoint/restore across restarts.
//! * [`persist`] — persisted fitted models: versioned checksummed model
//!   files, the `persisted-dquag` restore-from-disk backend, and the
//!   drift-triggered background-refit supervisor that hot-swaps new models
//!   into a live stream.
//! * [`telemetry`] — observability: a lock-cheap metrics registry with
//!   log-bucketed latency histograms, per-stage pipeline spans, Prometheus
//!   text exposition, and a bounded flight recorder of lifecycle events.
//! * [`faults`] — the fault-injection harness: seeded bit flips and NaN
//!   poisoning in fitted models, a faultable validator for quarantine
//!   drills, and rate × site fault campaigns measuring how the
//!   self-checking runtime catches corrupted replicas before they emit a
//!   wrong verdict.
//! * [`core`] — the DQuaG pipeline: training, validation, repair.
//! * [`gnn`] — GAT/GIN/GCN layers, encoder stacks, dual decoders.
//! * [`graph`] — feature-graph construction and relationship inference.
//! * [`tabular`] — schemas, dataframes, encoding, statistics, CSV.
//! * [`tensor`] — dense-matrix autograd and optimizers.
//! * [`datagen`] — the six evaluation-dataset generators and error injectors.
//! * [`baselines`] — Deequ / TFDV / ADQV / Gate re-implementations (the
//!   low-level SPI wrapped by [`validate`]).
//!
//! ## Quickstart
//!
//! Every backend — DQuaG and the four baselines — is constructed, fitted and
//! queried through the same API. A fitted validator judges each incoming
//! batch directly; the [`stream`] engine serves one to a batch stream.
//!
//! ```no_run
//! use dquag::core::DquagConfig;
//! use dquag::datagen::DatasetKind;
//! use dquag::validate::build_spec;
//!
//! let clean = DatasetKind::CreditCard.generate_clean(5_000, 7);
//! let config = DquagConfig {
//!     epochs: 15,
//!     ..DquagConfig::default()
//! }
//! .validated()
//! .unwrap();
//!
//! // Builds what `config.validator` declares: DQuaG by default.
//! let mut validator = build_spec(&config.validator, &config).unwrap();
//! validator.fit(&clean).unwrap();
//! let incoming = DatasetKind::CreditCard.generate_dirty(1_000, 8);
//! let verdict = validator.validate(&incoming).unwrap();
//! println!("dirty: {} ({:.1}% of instances flagged)", verdict.is_dirty, 100.0 * verdict.score);
//! ```

#![warn(missing_docs)]

pub use dquag_baselines as baselines;
pub use dquag_core as core;
pub use dquag_datagen as datagen;
pub use dquag_faults as faults;
pub use dquag_gnn as gnn;
pub use dquag_graph as graph;
pub use dquag_persist as persist;
pub use dquag_sources as sources;
pub use dquag_stream as stream;
pub use dquag_tabular as tabular;
pub use dquag_telemetry as telemetry;
pub use dquag_tensor as tensor;
pub use dquag_validate as validate;
