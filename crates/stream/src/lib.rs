//! # dquag-stream
//!
//! A streaming validation engine over the unified [`Validator`] API: the
//! piece that turns the one-shot library ("validate this slice of batches")
//! into a continuous monitoring service the paper's introduction describes —
//! batches arrive from producers around the clock and each one must be
//! judged against the clean reference distribution without anything
//! stalling.
//!
//! Built entirely on `std` (`Mutex`/`Condvar` + threads — this environment
//! has no async runtime), the engine provides:
//!
//! * **Bounded ingestion with explicit backpressure** — producers
//!   [`submit`] into a bounded pipeline (at most `queue_capacity + replicas`
//!   batches accepted but unemitted, so even a slow *consumer* pushes back);
//!   when it is full, the configured [`BackpressurePolicy`] decides whether
//!   the producer blocks (lossless), the batch is dropped (freshness wins)
//!   or the submission is rejected (fail fast).
//! * **Sharded validator replicas** — N workers each hold a fitted replica
//!   of the validator ([`Validator::replicate`], falling back to sharing),
//!   so heavy traffic spreads across cores while the [`VerdictStream`]
//!   re-sequences outcomes into submission order: replica count never
//!   changes *what* the consumer sees, only how fast.
//! * **Per-batch deadlines** — a batch that exceeds its validation budget is
//!   reported as [`StreamOutcome::DeadlineExceeded`] the moment the budget
//!   lapses; a straggling batch never stalls the verdicts behind it.
//! * **Zero-downtime hot swap** — [`StreamEngine::swap_validator`] (or a
//!   cloneable [`SwapHandle`] from another thread) replaces the fitted model
//!   under live traffic: fresh replicas spin up on the next model
//!   generation, old workers retire as they drain, and the re-sequenced
//!   stream loses and reorders nothing — every batch is judged by exactly
//!   one generation.
//! * **Self-checking replicas with quarantine and rebuild** — a replica
//!   whose validator reports a health violation (parameter checksum drift,
//!   a NaN escaping a kernel) is quarantined: the event is counted
//!   (`dquag_replica_quarantines_total`) and flight-recorded, and when the
//!   engine was built with a
//!   [`rebuild_source`](StreamEngineBuilder::rebuild_source) a fresh
//!   validator is hot-swapped in and the batch retried — a corrupted model
//!   never silently judges traffic. Panicking validators are caught the
//!   same way ([`StreamOutcome::Failed`], worker survives).
//! * **Live statistics** — [`StreamStats`] (throughput, queue depth,
//!   in-flight count, dirty rate, drops, p50/p99 latency) snapshotable from
//!   any handle while the engine runs, read from the same counters the
//!   engine exports as telemetry series.
//! * **Graceful shutdown** — closing ingestion drains every accepted batch;
//!   [`StreamEngine::shutdown`] joins the workers and returns the final
//!   stats. No accepted batch is ever lost.
//!
//! ## Quickstart
//!
//! ```no_run
//! use dquag_core::{BackpressurePolicy, DquagConfig, StreamConfig};
//! use dquag_stream::StreamEngine;
//! use dquag_validate::build_spec;
//! use std::time::Duration;
//! # fn get_clean() -> dquag_tabular::DataFrame { unimplemented!() }
//! # fn next_batch() -> dquag_tabular::DataFrame { unimplemented!() }
//!
//! let config = DquagConfig {
//!     epochs: 15,
//!     stream: StreamConfig {
//!         replicas: 4,
//!         queue_capacity: 32,
//!         backpressure: BackpressurePolicy::Block,
//!         batch_deadline: Some(Duration::from_secs(2)),
//!     },
//!     ..DquagConfig::default()
//! }
//! .validated()
//! .unwrap();
//! let mut validator = build_spec(&config.validator, &config).unwrap();
//! validator.fit(&get_clean()).unwrap();
//!
//! let (engine, ingest, verdicts) = StreamEngine::builder()
//!     .stream_config(&config.stream)
//!     .start(validator)
//!     .unwrap();
//!
//! // Producer side (any number of threads):
//! ingest.submit(next_batch()).unwrap();
//! drop(ingest); // last handle dropped ⇒ ingestion closes, engine drains
//!
//! // Consumer side: outcomes in submission order.
//! for item in verdicts {
//!     println!("{item}");
//! }
//! println!("final: {}", engine.shutdown());
//! ```
//!
//! [`Validator`]: dquag_validate::Validator
//! [`Validator::replicate`]: dquag_validate::Validator::replicate
//! [`submit`]: IngestHandle::submit
//! [`BackpressurePolicy`]: dquag_core::BackpressurePolicy

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
mod metrics;
mod outcome;
mod stats;

pub use engine::{
    IngestHandle, RebuildSource, StreamEngine, StreamEngineBuilder, SwapHandle, VerdictStream,
};
pub use outcome::{EngineClosed, StreamItem, StreamOutcome, SubmitOutcome};
pub use stats::StreamStats;
