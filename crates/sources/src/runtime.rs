//! The [`SourceRuntime`]: a supervisor multiplexing N sources into one
//! [`IngestHandle`], with background checkpointing and a graceful,
//! checkpoint-on-drain shutdown.

use crate::checkpoint::Checkpoint;
use crate::source::{PollOutcome, Source, SourceError, SourceSink};
use dquag_core::{SourceConfig, ValidatorSpec};
use dquag_stream::IngestHandle;
use dquag_telemetry::{Counter, FlightEventKind, Telemetry};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sleep granularity for stop-aware waits: how quickly supervisors notice
/// shutdown while idling through a poll interval.
const STOP_CHECK: Duration = Duration::from_millis(10);

/// Per-source bookkeeping the runtime keeps after handing the source itself
/// to its supervisor thread.
struct SourceSlot {
    name: String,
    offset: Arc<AtomicU64>,
}

/// State shared between the runtime handle, the supervisors and the
/// checkpointer.
struct RuntimeShared {
    /// The same flag every [`SourceSink`] carries: one raise stops sinks,
    /// supervisors and the checkpointer together.
    stop: Arc<AtomicBool>,
    slots: Vec<SourceSlot>,
    /// Used for statistics snapshots in checkpoints; also keeps the engine's
    /// ingestion side open for the runtime's whole lifetime.
    ingest: IngestHandle,
    config: SourceConfig,
    /// The declarative spec of the validator the engine runs, recorded into
    /// every checkpoint when known.
    spec: Option<ValidatorSpec>,
    metrics: Option<RuntimeMetrics>,
}

/// Telemetry handles the runtime resolves once at start.
struct RuntimeMetrics {
    telemetry: Arc<Telemetry>,
    checkpoint_writes: Arc<Counter>,
}

impl RuntimeMetrics {
    fn new(telemetry: Arc<Telemetry>) -> Self {
        Self {
            checkpoint_writes: telemetry.registry().counter(
                "dquag_checkpoint_writes_total",
                "Durable source-offset checkpoints written",
            ),
            telemetry,
        }
    }
}

impl RuntimeShared {
    /// Journal an error a supervisor or the checkpointer survived (decode
    /// failures are handled inside the sources; what lands here is
    /// I/O-level trouble) in the flight recorder, when telemetry is
    /// attached.
    fn record_error(&self, source: &str, error: &SourceError) {
        if let Some(metrics) = &self.metrics {
            metrics.telemetry.event(FlightEventKind::SourceError {
                source: source.to_string(),
                message: error.to_string(),
            });
        }
    }

    fn snapshot(&self) -> Checkpoint {
        let offsets: BTreeMap<String, u64> = self
            .slots
            .iter()
            .map(|slot| (slot.name.clone(), slot.offset.load(Ordering::SeqCst)))
            .collect();
        let checkpoint = Checkpoint::new(offsets, self.ingest.stats());
        match &self.spec {
            Some(spec) => checkpoint.with_spec(spec.clone()),
            None => checkpoint,
        }
    }

    fn write_checkpoint(&self) -> Result<Option<Checkpoint>, SourceError> {
        let Some(path) = &self.config.checkpoint.path else {
            return Ok(None);
        };
        let checkpoint = self.snapshot();
        checkpoint.save(path)?;
        if let Some(metrics) = &self.metrics {
            metrics.checkpoint_writes.inc();
            metrics.telemetry.event(FlightEventKind::CheckpointWrite {
                path: path.display().to_string(),
            });
        }
        Ok(Some(checkpoint))
    }
}

/// Configures and starts a [`SourceRuntime`].
#[derive(Default)]
pub struct SourceRuntimeBuilder {
    config: SourceConfig,
    sources: Vec<Box<dyn Source>>,
    restored: Option<Checkpoint>,
    spec: Option<ValidatorSpec>,
    telemetry: Option<Arc<Telemetry>>,
}

impl SourceRuntimeBuilder {
    /// Adopt a whole source-layer configuration block (typically
    /// `DquagConfig::source`).
    pub fn config(mut self, config: &SourceConfig) -> Self {
        self.config = config.clone();
        self
    }

    /// Register one source. Names must be unique within the runtime — they
    /// key the checkpoint.
    pub fn source(mut self, source: Box<dyn Source>) -> Self {
        self.sources.push(source);
        self
    }

    /// Resume from a restored checkpoint: every registered source starts at
    /// its persisted offset. Pair this with
    /// `StreamEngineBuilder::restore_stats(checkpoint.stats)` on the engine
    /// side so the statistics continue too. A spec recorded in the
    /// checkpoint carries over unless [`spec`] overrides it.
    ///
    /// [`spec`]: SourceRuntimeBuilder::spec
    pub fn restore(mut self, checkpoint: Checkpoint) -> Self {
        if self.spec.is_none() {
            self.spec = checkpoint.spec.clone();
        }
        self.restored = Some(checkpoint);
        self
    }

    /// Record the declarative spec of the validator the engine runs, so
    /// every checkpoint (and the listener's stats surfaces) names the
    /// active validator tree.
    pub fn spec(mut self, spec: ValidatorSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Attach a telemetry bundle: the runtime counts checkpoint writes and
    /// journals checkpoint writes and the errors its sources and
    /// checkpointer survive in the flight recorder, the one place those
    /// errors are kept. Share the engine's bundle so the whole pipeline
    /// lands in one registry.
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Start every source (synchronously, so bind/scan failures surface
    /// here) and spawn the supervisor and checkpointer threads.
    pub fn start(self, ingest: IngestHandle) -> Result<SourceRuntime, SourceError> {
        let config = self
            .config
            .validated()
            .map_err(|e| SourceError::InvalidConfig(e.to_string()))?;
        if self.sources.is_empty() {
            return Err(SourceError::InvalidConfig(
                "a source runtime needs at least one source".to_string(),
            ));
        }
        for (i, source) in self.sources.iter().enumerate() {
            if self.sources[..i].iter().any(|s| s.name() == source.name()) {
                return Err(SourceError::InvalidConfig(format!(
                    "duplicate source name `{}`",
                    source.name()
                )));
            }
        }

        let stop = Arc::new(AtomicBool::new(false));
        let mut slots = Vec::new();
        let mut started: Vec<(Box<dyn Source>, SourceSink)> = Vec::new();
        for mut source in self.sources {
            let resume_from = self
                .restored
                .as_ref()
                .map_or(0, |checkpoint| checkpoint.offset_for(source.name()));
            let offset = Arc::new(AtomicU64::new(resume_from));
            let sink = SourceSink::new(
                source.name(),
                ingest.clone(),
                Arc::clone(&offset),
                Arc::clone(&stop),
            );
            if let Err(e) = source.start(&sink, resume_from) {
                // Unwind the sources already started so no listener leaks.
                for (mut other, _sink) in started {
                    other.shutdown();
                }
                return Err(e);
            }
            slots.push(SourceSlot {
                name: source.name().to_string(),
                offset,
            });
            started.push((source, sink));
        }

        let shared = Arc::new(RuntimeShared {
            stop,
            slots,
            ingest,
            config,
            spec: self.spec,
            metrics: self.telemetry.map(RuntimeMetrics::new),
        });

        let supervisors = started
            .into_iter()
            .map(|(source, sink)| {
                let shared = Arc::clone(&shared);
                let name = source.name().to_string();
                std::thread::Builder::new()
                    .name(format!("dquag-source-{name}"))
                    .spawn(move || supervise(source, sink, &shared))
                    .expect("spawning a source supervisor succeeds")
            })
            .collect();

        let checkpointer = shared.config.checkpoint.path.is_some().then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("dquag-checkpointer".to_string())
                .spawn(move || {
                    let interval = shared.config.checkpoint.interval;
                    loop {
                        if !sleep_unless(&shared.stop, interval) {
                            // Final write happens in shutdown(), with the
                            // sources already drained.
                            return;
                        }
                        if let Err(e) = shared.write_checkpoint() {
                            shared.record_error("checkpointer", &e);
                        }
                    }
                })
                .expect("spawning the checkpointer succeeds")
        });

        Ok(SourceRuntime {
            shared,
            supervisors,
            checkpointer,
            finished: false,
        })
    }
}

/// Sleep up to `duration` in stop-aware increments; false when stopped.
fn sleep_unless(stop: &AtomicBool, duration: Duration) -> bool {
    let deadline = Instant::now() + duration;
    loop {
        if stop.load(Ordering::SeqCst) {
            return false;
        }
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        std::thread::sleep(STOP_CHECK.min(deadline - now));
    }
}

/// One supervisor thread: drive a source through its lifecycle.
fn supervise(mut source: Box<dyn Source>, sink: SourceSink, shared: &RuntimeShared) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match source.poll(&sink) {
            Ok(PollOutcome::Progressed) => {}
            Ok(PollOutcome::Idle) => {
                sleep_unless(&shared.stop, shared.config.poll_interval);
            }
            // Nothing left to deliver into; retire the source.
            Err(SourceError::EngineClosed) => break,
            Err(e) => {
                // Transient trouble (a failing disk, a hostile peer) must
                // not kill the whole source: log it and back off.
                shared.record_error(source.name(), &e);
                sleep_unless(&shared.stop, shared.config.poll_interval);
            }
        }
    }
    source.drain(&sink);
    source.shutdown();
}

/// The running source layer: N supervised sources feeding one engine, plus
/// the background checkpointer.
///
/// [`shutdown`] stops every source, lets each drain (the network listener
/// finishes in-flight frames, the directory watcher completes its current
/// file), writes a final checkpoint and returns it. Dropping the runtime
/// does the same minus the returned value.
///
/// [`shutdown`]: SourceRuntime::shutdown
pub struct SourceRuntime {
    shared: Arc<RuntimeShared>,
    supervisors: Vec<JoinHandle<()>>,
    checkpointer: Option<JoinHandle<()>>,
    /// True once [`shutdown`] has run, so the `Drop` impl does not write a
    /// second, later-stamped checkpoint over the one shutdown returned.
    ///
    /// [`shutdown`]: SourceRuntime::shutdown
    finished: bool,
}

impl SourceRuntime {
    /// Start configuring a runtime.
    pub fn builder() -> SourceRuntimeBuilder {
        SourceRuntimeBuilder::default()
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for supervisor in self.supervisors.drain(..) {
            let _ = supervisor.join();
        }
        if let Some(checkpointer) = self.checkpointer.take() {
            let _ = checkpointer.join();
        }
    }

    /// Stop and drain every source, write the final checkpoint (when
    /// configured) and return the runtime's last snapshot.
    pub fn shutdown(mut self) -> Result<Checkpoint, SourceError> {
        self.stop_and_join();
        self.finished = true;
        match self.shared.write_checkpoint()? {
            Some(checkpoint) => Ok(checkpoint),
            None => Ok(self.shared.snapshot()),
        }
    }
}

impl Drop for SourceRuntime {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        self.stop_and_join();
        // Best effort: never panic in drop over a full disk.
        let _ = self.shared.write_checkpoint();
    }
}
