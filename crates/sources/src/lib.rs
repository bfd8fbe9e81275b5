//! # dquag-sources
//!
//! Source adapters connecting the streaming engine (`dquag-stream`) to the
//! outside world — the layer that turns the in-process pipeline into a
//! deployable monitoring *service*. The paper frames DQuaG as the
//! validation stage of a serving pipeline; this crate supplies the serving
//! edge: restartable, offset-tracked ingestion from sockets and file drops,
//! with durable checkpoints so a restarted deployment resumes exactly where
//! it left off.
//!
//! * **[`Source`]** — the adapter trait: `start`/`poll`/`drain`/`shutdown`
//!   plus durable offset reporting. Batches enter through a [`SourceSink`],
//!   which couples engine submission with offset accounting.
//! * **[`SourceRuntime`]** — the supervisor: multiplexes N sources into one
//!   `IngestHandle` (one supervisor thread each), survives per-source
//!   errors, checkpoints on an interval and on drain.
//! * **[`NetListenerSource`]** — one TCP listener speaking minimal
//!   HTTP/1.1 (`POST /ingest` → `202 {"status": "enqueued", "seq": 0, …}`,
//!   `GET /stats`, `GET /metrics`, `GET /drift`) with keep-alive,
//!   multiplexing all connections over a small fixed worker pool with a
//!   bounded accept policy (`ServingConfig`): overflow is answered with a
//!   fast `503`, never an unbounded thread.
//! * **[`DirWatcherSource`]** — a polling directory watcher replaying CSV
//!   file drops via `dquag-tabular`, moving processed files to `done/`
//!   (and undecodable ones to `failed/`), with an inbox journal making
//!   delivery exactly-once per file across kill/restart.
//! * **[`Checkpoint`]** — per-source offsets + the engine's cumulative
//!   [`StreamStats`](dquag_stream::StreamStats), written atomically as
//!   JSON; restored through [`SourceRuntimeBuilder::restore`] and
//!   `StreamEngineBuilder::restore_stats`.
//!
//! ## Quickstart
//!
//! ```no_run
//! use dquag_core::{CheckpointConfig, DquagConfig, SourceConfig};
//! use dquag_sources::{Checkpoint, DirWatcherSource, NetListenerSource, SourceRuntime};
//! use dquag_stream::StreamEngine;
//! use dquag_validate::build_spec;
//! # fn get_clean() -> dquag_tabular::DataFrame { unimplemented!() }
//!
//! let clean = get_clean();
//! let config = DquagConfig {
//!     source: SourceConfig {
//!         bind_addr: "127.0.0.1:7431".to_string(),
//!         checkpoint: CheckpointConfig {
//!             path: Some("state/dquag.ckpt.json".into()),
//!             ..CheckpointConfig::default()
//!         },
//!         ..SourceConfig::default()
//!     },
//!     ..DquagConfig::default()
//! }
//! .validated()
//! .unwrap();
//! let mut validator = build_spec(&config.validator, &config).unwrap();
//! validator.fit(&clean).unwrap();
//!
//! // Restore: a prior checkpoint resumes offsets and statistics.
//! let restored = Checkpoint::recover(std::path::Path::new("state/dquag.ckpt.json")).unwrap();
//! let mut engine_builder = StreamEngine::builder().stream_config(&config.stream);
//! if let Some(checkpoint) = &restored {
//!     engine_builder = engine_builder.restore_stats(checkpoint.stats.clone());
//! }
//! let (engine, ingest, verdicts) = engine_builder.start(validator).unwrap();
//!
//! let mut runtime_builder = SourceRuntime::builder()
//!     .config(&config.source)
//!     .source(Box::new(
//!         NetListenerSource::from_config(&config.source, clean.schema().clone()).unwrap(),
//!     ))
//!     .source(Box::new(DirWatcherSource::new("drops", clean.schema().clone())));
//! if let Some(checkpoint) = restored {
//!     runtime_builder = runtime_builder.restore(checkpoint);
//! }
//! let runtime = runtime_builder.start(ingest).unwrap();
//!
//! for item in verdicts {
//!     println!("{item}");
//! }
//! let final_checkpoint = runtime.shutdown().unwrap();
//! println!("checkpointed at offsets {:?}", final_checkpoint.offsets);
//! engine.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod checkpoint;
mod conn;
mod decode;
mod dirwatch;
mod net;
mod poll;
mod runtime;
mod source;

pub use checkpoint::{Checkpoint, CHECKPOINT_VERSION};
pub use decode::{decode_batch, ndjson_to_frame, WireFormat};
pub use dirwatch::DirWatcherSource;
pub use net::NetListenerSource;
pub use runtime::{SourceRuntime, SourceRuntimeBuilder};
pub use source::{PollOutcome, Source, SourceError, SourceSink};
