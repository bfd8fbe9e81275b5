//! The [`Source`] trait, the [`SourceSink`] delivery handle and the shared
//! error type.

use dquag_stream::{IngestHandle, StreamStats, SubmitOutcome};
use dquag_tabular::DataFrame;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Errors surfaced by the source-adapter layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// An I/O problem (socket, filesystem) the source could not recover from.
    Io(String),
    /// A payload could not be decoded into a batch (bad CSV, bad NDJSON,
    /// schema mismatch).
    Decode(String),
    /// The streaming engine's ingestion side is closed; the source cannot
    /// deliver anything anymore.
    EngineClosed,
    /// A checkpoint could not be written or parsed.
    Checkpoint(String),
    /// A checkpoint was written by a newer build than this one supports.
    /// Deliberately distinct from [`Checkpoint`]: the lenient recovery path
    /// treats corruption as a fresh start but must *refuse* to run (and
    /// eventually overwrite the file) on a version rollback.
    ///
    /// [`Checkpoint`]: SourceError::Checkpoint
    CheckpointVersion {
        /// Version found in the file.
        found: u64,
        /// Newest version this build can read.
        supported: u64,
    },
    /// A checkpoint's offsets and stats read, but this build refuses its
    /// validator spec (a backend leaf that still sets the retired `params`,
    /// say). Distinct from [`Checkpoint`] for the same reason as
    /// [`CheckpointVersion`]: the lenient recovery path must refuse to run
    /// rather than drop the file's offsets and overwrite it.
    ///
    /// [`Checkpoint`]: SourceError::Checkpoint
    /// [`CheckpointVersion`]: SourceError::CheckpointVersion
    CheckpointSpec(String),
    /// The runtime was configured inconsistently (duplicate source names,
    /// out-of-range settings).
    InvalidConfig(String),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Io(msg) => write!(f, "source I/O error: {msg}"),
            SourceError::Decode(msg) => write!(f, "batch decode error: {msg}"),
            SourceError::EngineClosed => {
                f.write_str("the stream engine's ingestion side is closed")
            }
            SourceError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            SourceError::CheckpointVersion { found, supported } => write!(
                f,
                "checkpoint version {found} is newer than this build supports ({supported}); \
                 refusing to overwrite it — upgrade the build or move the file aside"
            ),
            SourceError::CheckpointSpec(msg) => write!(
                f,
                "checkpoint spec cannot be read by this build: {msg}; refusing to \
                 overwrite the checkpoint — fix its spec or move the file aside"
            ),
            SourceError::InvalidConfig(msg) => write!(f, "invalid source configuration: {msg}"),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<std::io::Error> for SourceError {
    fn from(e: std::io::Error) -> Self {
        SourceError::Io(e.to_string())
    }
}

/// What one [`Source::poll`] call accomplished; the supervisor uses this to
/// decide between polling again immediately and backing off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollOutcome {
    /// Work was done (batches delivered, connections accepted); poll again
    /// right away.
    Progressed,
    /// Nothing to do right now; sleep one poll interval before the next call.
    Idle,
}

/// A source's delivery handle: the one way batches enter the engine.
///
/// The sink couples submission with offset accounting — every batch accepted
/// by the engine advances this source's durable offset, which is what the
/// checkpointer persists. Cloneable, so listener-style sources can hand it
/// to per-connection handler threads.
#[derive(Clone)]
pub struct SourceSink {
    name: Arc<str>,
    ingest: IngestHandle,
    offset: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
}

impl SourceSink {
    pub(crate) fn new(
        name: &str,
        ingest: IngestHandle,
        offset: Arc<AtomicU64>,
        stop: Arc<AtomicBool>,
    ) -> Self {
        Self {
            name: Arc::from(name),
            ingest,
            offset,
            stop,
        }
    }

    /// The owning source's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Submit one batch to the engine under its backpressure policy. On
    /// acceptance the source's durable offset advances by one; a dropped or
    /// rejected submission does not move the offset (the batch produced no
    /// outcome, so a restart must not believe it was delivered).
    ///
    /// Under the `Block` policy this waits for queue space like a direct
    /// `submit` would, but cancellably: when the runtime raises the stop
    /// flag mid-wait, the call gives up with [`SourceError::EngineClosed`]
    /// instead of parking the thread in an uninterruptible Condvar wait that
    /// shutdown could never join. The batch moves into the engine once; a
    /// wait that ends in acceptance is not counted as a loss. The
    /// undelivered batch stays with the caller (a watched file remains in
    /// the inbox; a network client gets an error reply and retries).
    pub fn deliver(&self, batch: DataFrame) -> Result<SubmitOutcome, SourceError> {
        if self.should_stop() {
            return Err(SourceError::EngineClosed);
        }
        match self.ingest.submit_cancellable(batch, &self.stop) {
            // Only a Block wait cut short by the stop flag times out.
            Ok(SubmitOutcome::TimedOut) | Err(_) => Err(SourceError::EngineClosed),
            Ok(outcome) => {
                if outcome.is_enqueued() {
                    self.offset.fetch_add(1, Ordering::SeqCst);
                }
                Ok(outcome)
            }
        }
    }

    /// Batches this source has successfully delivered, including those
    /// restored from a checkpoint.
    pub fn offset(&self) -> u64 {
        self.offset.load(Ordering::SeqCst)
    }

    /// Live engine statistics (served by `GET /stats`).
    pub fn stats(&self) -> StreamStats {
        self.ingest.stats()
    }

    /// True once the runtime has asked every source to wind down. Handler
    /// threads and long poll loops must check this regularly.
    pub fn should_stop(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// One adapter feeding the streaming engine from the outside world.
///
/// A source's lifecycle, driven by its [`crate::SourceRuntime`] supervisor
/// thread:
///
/// 1. [`start`] — bring the source up (store the sink, create directories,
///    arm the listener). Called once, synchronously, before the runtime
///    returns from `start`, so a failure here fails deployment startup
///    loudly instead of inside a background thread.
/// 2. [`poll`] — repeatedly: make progress without blocking for long.
/// 3. [`drain`] — stop requested: finish in-flight work (join connection
///    handlers, let the last accepted frame be delivered).
/// 4. [`shutdown`] — release resources.
///
/// Offset reporting: [`offset`] returns how many batches the source has
/// durably delivered (its sink advances the counter on every accepted
/// submission, so this is the same counter the runtime's checkpointer
/// reads — there is one offset per source, not two). The runtime persists
/// these offsets in the [`crate::Checkpoint`] and seeds them back through
/// `start`'s `resume_from` on restart. Implementations must keep reporting
/// the final value after [`shutdown`].
///
/// [`start`]: Source::start
/// [`poll`]: Source::poll
/// [`drain`]: Source::drain
/// [`shutdown`]: Source::shutdown
/// [`offset`]: Source::offset
pub trait Source: Send {
    /// Unique name of this source within its runtime: the checkpoint key.
    fn name(&self) -> &str;

    /// Bring the source up. `resume_from` is the offset restored from the
    /// checkpoint (`0` on a fresh start); the sink's offset counter is
    /// already seeded with it.
    fn start(&mut self, sink: &SourceSink, resume_from: u64) -> Result<(), SourceError>;

    /// Make progress: accept connections, replay files, deliver batches.
    /// Must return promptly (the supervisor handles sleeping between calls).
    fn poll(&mut self, sink: &SourceSink) -> Result<PollOutcome, SourceError>;

    /// Finish in-flight work ahead of shutdown. Called after the stop flag
    /// is set, so `sink.should_stop()` is already true.
    fn drain(&mut self, sink: &SourceSink);

    /// Release resources. The source will not be polled again.
    fn shutdown(&mut self);

    /// Batches durably delivered so far (see the trait docs).
    fn offset(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use dquag_core::{BackpressurePolicy, StreamConfig};
    use dquag_stream::StreamEngine;
    use dquag_tabular::{Field, Schema, Value};
    use dquag_telemetry::{FlightEventKind, TelemetryConfig};
    use dquag_validate::{Capabilities, FitReport, Validator, Verdict};
    use std::sync::{mpsc, Mutex};
    use std::time::{Duration, Instant};

    /// Holds each batch until the test sends on the paired channel.
    struct HeldValidator {
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl Validator for HeldValidator {
        fn name(&self) -> &str {
            "Held"
        }

        fn capabilities(&self) -> Capabilities {
            Capabilities::dataset_level()
        }

        fn fit(&mut self, _clean: &DataFrame) -> dquag_validate::Result<FitReport> {
            unreachable!("the test starts from a fitted stub")
        }

        fn validate(&self, batch: &DataFrame) -> dquag_validate::Result<Verdict> {
            self.release
                .lock()
                .expect("release mutex")
                .recv()
                .expect("the test releases every batch");
            Ok(Verdict::dataset_level(
                self.name(),
                false,
                0.0,
                batch.n_rows(),
                vec![],
            ))
        }
    }

    fn one_row() -> DataFrame {
        let mut df = DataFrame::new(Schema::new(vec![Field::numeric("x", "")]));
        df.push_row(vec![Value::Number(1.0)]).expect("numeric cell");
        df
    }

    #[test]
    fn a_blocked_delivery_that_is_accepted_counts_no_loss() {
        let telemetry = TelemetryConfig {
            flight_recorder_capacity: 64,
            dump_on_error: false,
            ..TelemetryConfig::default()
        }
        .build()
        .expect("telemetry is enabled");
        let (release, held) = mpsc::channel();
        let (engine, ingest, mut verdicts) = StreamEngine::builder()
            .stream_config(&StreamConfig {
                queue_capacity: 1,
                replicas: 1,
                backpressure: BackpressurePolicy::Block,
                ..StreamConfig::default()
            })
            .telemetry(Arc::clone(&telemetry))
            .start(Box::new(HeldValidator {
                release: Mutex::new(held),
            }))
            .expect("engine starts");
        let sink = SourceSink::new(
            "held",
            ingest,
            Arc::new(AtomicU64::new(0)),
            Arc::new(AtomicBool::new(false)),
        );
        // One batch in the worker's hands and one queued fill the engine.
        for seq in 0..2 {
            assert_eq!(sink.deliver(one_row()), Ok(SubmitOutcome::Enqueued(seq)));
        }
        let (waiting_tx, waiting) = mpsc::channel();
        let (outcome, waited) = std::thread::scope(|scope| {
            let delivery = scope.spawn(|| {
                waiting_tx.send(()).expect("the test waits for the signal");
                let started = Instant::now();
                let outcome = sink.deliver(one_row());
                (outcome, started.elapsed())
            });
            waiting.recv().expect("the delivery starts");
            std::thread::sleep(Duration::from_millis(200));
            for _ in 0..3 {
                release.send(()).expect("the worker is alive");
            }
            for _ in 0..3 {
                verdicts.recv().expect("each accepted batch is emitted");
            }
            delivery.join().expect("the delivery returns")
        });
        assert_eq!(outcome, Ok(SubmitOutcome::Enqueued(2)));
        assert!(
            waited >= Duration::from_millis(100),
            "the delivery should wait out two 50 ms slices, waited {waited:?}"
        );
        assert_eq!(sink.offset(), 3);
        drop(sink);
        let stats = engine.shutdown();
        assert_eq!(stats.timed_out, 0, "an accepted wait is not a loss");
        assert_eq!(stats.dropped + stats.rejected, 0);
        assert_eq!(stats.submitted, 3);
        let journal = telemetry.recorder().dump();
        assert!(
            !journal
                .iter()
                .any(|event| matches!(event.kind, FlightEventKind::BackpressureDrop { .. })),
            "no loss is journaled"
        );
    }

    #[test]
    fn error_display_is_informative() {
        assert!(SourceError::Io("refused".into())
            .to_string()
            .contains("refused"));
        assert!(SourceError::Decode("bad csv".into())
            .to_string()
            .contains("bad csv"));
        assert!(SourceError::EngineClosed.to_string().contains("closed"));
        let io: SourceError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
    }
}
