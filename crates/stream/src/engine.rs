//! The streaming engine: bounded ingestion, sharded workers, re-sequenced
//! emission.

use crate::metrics::StreamMetrics;
use crate::outcome::{EngineClosed, StreamItem, StreamOutcome, SubmitOutcome};
use crate::stats::StreamStats;
use dquag_core::{BackpressurePolicy, StreamConfig};
use dquag_tabular::DataFrame;
use dquag_telemetry::{FlightEventKind, Stage, Telemetry};
use dquag_validate::{ValidateError, Validator};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a `Block`ed [`IngestHandle::submit_cancellable`] re-checks its
/// cancel flag while it waits for space.
const CANCEL_POLL: Duration = Duration::from_millis(50);

/// A batch accepted into the ingestion queue, waiting for a worker.
struct Job {
    seq: u64,
    batch: DataFrame,
    submitted_at: Instant,
    deadline_at: Option<Instant>,
    budget: Option<Duration>,
    /// Whether this job was already handed back once by a quarantined
    /// replica. A rebuilt replica that is *still* unhealthy fails the batch
    /// instead of requeueing forever.
    retried: bool,
}

/// What the consumer needs to know about a not-yet-finished batch: enough to
/// emit a deadline-exceeded outcome without the batch itself.
struct PendingMeta {
    submitted_at: Instant,
    deadline_at: Option<Instant>,
    budget: Option<Duration>,
    n_rows: usize,
}

/// A finished batch waiting to be emitted in submission order.
struct Done {
    outcome: StreamOutcome,
    submitted_at: Instant,
    /// When the worker filed the outcome — emission minus this is the
    /// `emit` stage span (re-sequencing wait plus consumer lag).
    finished_at: Instant,
    n_rows: usize,
}

/// All mutable engine state, under one mutex.
///
/// Invariants: every accepted seq below `next_emit` has been emitted exactly
/// once; every accepted seq in `next_emit..next_seq` is in exactly one of
/// `queue`, a worker's hands (counted by `in_flight`) or `done`; `pending`
/// holds the metadata of every accepted, not-yet-finished seq.
struct State {
    queue: VecDeque<Job>,
    done: BTreeMap<u64, Done>,
    pending: BTreeMap<u64, PendingMeta>,
    next_seq: u64,
    next_emit: u64,
    in_flight: usize,
    producers: usize,
    closed: bool,
    /// Current model generation. A hot swap bumps it and spawns fresh
    /// workers pinned to the new value; workers pinned to an older value
    /// retire the next time they look for work. Because both the bump and
    /// every queue pop happen under this mutex, and pops are FIFO, each
    /// accepted batch is judged by exactly one generation and the
    /// generation is monotone in submission order.
    generation: u64,
}

impl State {
    /// Accepted batches not yet emitted: queued, being validated, or parked
    /// in the re-sequencing buffer. This — not the queue alone — is what
    /// backpressure bounds, so a slow *consumer* pushes back on producers
    /// just like slow workers do (the re-sequencing buffer can never grow
    /// without limit).
    fn outstanding(&self) -> usize {
        self.queue.len() + self.in_flight + self.done.len()
    }
}

struct Shared {
    state: Mutex<State>,
    /// Producers blocked on a full queue (`Block` policy).
    not_full: Condvar,
    /// Workers waiting for queued batches.
    not_empty: Condvar,
    /// The consumer waiting for the next in-order outcome (also signalled on
    /// submission and close, so deadline tracking stays current).
    progress: Condvar,
    capacity: usize,
    policy: BackpressurePolicy,
    budget: Option<Duration>,
    replicas: usize,
    /// The engine's counters; every count `StreamStats` reads is bumped
    /// under the state lock. Stage spans and flight events are recorded
    /// only when a telemetry bundle is attached.
    metrics: StreamMetrics,
    /// How to build a fresh, known-good validator when a replica fails a
    /// health self-check (typically: reload the last persisted envelope).
    /// `None` means a quarantined replica's batch simply fails.
    rebuild: Option<RebuildSource>,
}

/// Factory for a replacement validator after a replica quarantine. Returns
/// `None` when no good state is available (e.g. the persisted envelope is
/// itself corrupt), in which case the engine degrades to failing batches.
pub type RebuildSource = Arc<dyn Fn() -> Option<Box<dyn Validator>> + Send + Sync>;

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("engine state mutex poisoned")
    }

    /// The engine holds at most `queue_capacity + replicas` unemitted
    /// batches: a full queue plus one batch per worker's hands.
    fn is_full(&self, st: &State) -> bool {
        st.outstanding() >= self.capacity + self.replicas
    }

    fn close(&self) {
        let mut st = self.lock();
        let first_close = !st.closed;
        st.closed = true;
        drop(st);
        if first_close {
            self.metrics.event(FlightEventKind::EngineClosed);
        }
        self.not_empty.notify_all();
        self.not_full.notify_all();
        self.progress.notify_all();
    }

    /// Read the statistics under the state lock, which also guards every
    /// bump of the counts they hold.
    fn snapshot(&self) -> StreamStats {
        let st = self.lock();
        self.metrics
            .snapshot(st.queue.len(), st.in_flight, self.replicas)
    }

    /// Count a batch lost to backpressure, release the state lock, then
    /// journal the loss.
    fn lose(
        &self,
        st: MutexGuard<'_, State>,
        outcome: SubmitOutcome,
    ) -> Result<SubmitOutcome, EngineClosed> {
        let (counter, policy) = match outcome {
            SubmitOutcome::Dropped => (&self.metrics.drops_drop_newest, "drop_newest"),
            SubmitOutcome::Rejected => (&self.metrics.drops_reject, "reject"),
            SubmitOutcome::TimedOut => (&self.metrics.drops_timeout, "timeout"),
            SubmitOutcome::Enqueued(_) => unreachable!("an enqueued batch is not lost"),
        };
        counter.inc();
        drop(st);
        self.metrics.event(FlightEventKind::BackpressureDrop {
            policy: policy.into(),
        });
        Ok(outcome)
    }
}

/// Configures and starts a [`StreamEngine`].
///
/// The queue, replica, backpressure and deadline settings come from one
/// [`StreamConfig`] (typically `DquagConfig::stream`) passed to
/// [`stream_config`]; without it the engine runs [`StreamConfig::default`].
///
/// [`stream_config`]: StreamEngineBuilder::stream_config
#[derive(Clone, Default)]
pub struct StreamEngineBuilder {
    config: StreamConfig,
    restored: Option<StreamStats>,
    telemetry: Option<Arc<Telemetry>>,
    rebuild: Option<RebuildSource>,
}

impl std::fmt::Debug for StreamEngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamEngineBuilder")
            .field("config", &self.config)
            .field("restored", &self.restored)
            .field("telemetry", &self.telemetry.is_some())
            .field("rebuild", &self.rebuild.is_some())
            .finish()
    }
}

impl StreamEngineBuilder {
    /// Adopt a whole streaming configuration block.
    pub fn stream_config(mut self, config: &StreamConfig) -> Self {
        self.config = config.clone();
        self
    }

    /// Resume the engine's statistics from a persisted snapshot (typically
    /// the `stats` block of a `dquag-sources` checkpoint), so a restarted
    /// deployment's cumulative counters and uptime continue instead of
    /// resetting to zero. Live quantities — queue depth, in-flight count and
    /// the latency percentiles — start fresh, and the engine's series count
    /// only its own batches.
    pub fn restore_stats(mut self, stats: StreamStats) -> Self {
        self.restored = Some(stats);
        self
    }

    /// Attach a telemetry bundle. The engine always counts: without a
    /// bundle its counters, gauges and latency histogram live in a registry
    /// of its own. The bundle adds export (its counters join the bundle's
    /// registry), times the `queue_wait`/`emit` stages, and logs lifecycle
    /// events (start, swaps, drops, deadline misses, close) in the flight
    /// recorder.
    ///
    /// [`StreamStats`] are read back from these series, so give each engine
    /// whose stats you read its own bundle: two engines sharing one would
    /// count into the same counters.
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Register a rebuild source: when a replica fails a health self-check
    /// mid-stream (parameter checksum drift, a NaN escaping a kernel), the
    /// engine quarantines it and calls `rebuild` for a fresh validator —
    /// typically reloading the last persisted envelope — hot-swapping it in
    /// and retrying the batch, so a corrupted replica never judges traffic
    /// and no batch is lost to the corruption.
    ///
    /// Without a rebuild source (the default) a health violation fails the
    /// batch with [`StreamOutcome::Failed`] and the quarantine is only
    /// recorded in telemetry.
    pub fn rebuild_source(
        mut self,
        rebuild: impl Fn() -> Option<Box<dyn Validator>> + Send + Sync + 'static,
    ) -> Self {
        self.rebuild = Some(Arc::new(rebuild));
        self
    }

    /// Start the engine over a *fitted* validator, spawning the worker pool.
    ///
    /// Worker 0 uses `validator` itself; further workers get independent
    /// fitted replicas via [`Validator::replicate`], falling back to sharing
    /// the original behind an `Arc` for backends that cannot copy their
    /// fitted state (sound — validation takes `&self`).
    ///
    /// Returns the engine (control plane: stats, shutdown), an
    /// [`IngestHandle`] (producer side, cloneable) and the [`VerdictStream`]
    /// (consumer side, emits outcomes in submission order).
    pub fn start(
        self,
        validator: Box<dyn Validator>,
    ) -> Result<(StreamEngine, IngestHandle, VerdictStream), ValidateError> {
        let config = self.config.validated().map_err(ValidateError::from)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(config.queue_capacity),
                done: BTreeMap::new(),
                pending: BTreeMap::new(),
                next_seq: 0,
                next_emit: 0,
                in_flight: 0,
                producers: 1,
                closed: false,
                generation: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            progress: Condvar::new(),
            capacity: config.queue_capacity,
            policy: config.backpressure,
            budget: config.batch_deadline,
            replicas: config.replicas,
            metrics: StreamMetrics::new(self.telemetry, self.restored),
            rebuild: self.rebuild,
        });
        let validators = replica_set(&shared, validator);
        shared.metrics.event(FlightEventKind::EngineStarted {
            replicas: config.replicas,
        });

        // The worker list exists before the workers do: each worker carries
        // a handle to it so a quarantine-triggered rebuild can spawn the
        // replacement generation from inside the pool.
        let workers = Arc::new(Mutex::new(Vec::new()));
        spawn_generation(&shared, &workers, validators, 0);

        Ok((
            StreamEngine {
                shared: Arc::clone(&shared),
                workers,
            },
            IngestHandle {
                shared: Arc::clone(&shared),
            },
            VerdictStream { shared },
        ))
    }
}

/// A generation's replica set, as [`StreamEngineBuilder::start`] describes
/// it: `validator` first, then a copy per further replica. `validator` is
/// attached to the engine's telemetry bundle, so observing validators (a
/// drift node anywhere in the spec tree) report into it; replicas inherit
/// the attachment through `replicate`. Takes no engine lock.
fn replica_set(shared: &Shared, mut validator: Box<dyn Validator>) -> Vec<Arc<dyn Validator>> {
    if let Some(telemetry) = &shared.metrics.telemetry {
        validator.attach_telemetry(telemetry);
    }
    let primary: Arc<dyn Validator> = Arc::from(validator);
    let mut validators: Vec<Arc<dyn Validator>> = vec![Arc::clone(&primary)];
    for _ in 1..shared.replicas {
        validators.push(match primary.replicate() {
            Some(replica) => Arc::from(replica),
            None => Arc::clone(&primary),
        });
    }
    validators
}

/// Spawn one worker per replica, pinned to `generation`, and file their
/// handles in the engine's worker list.
fn spawn_generation(
    shared: &Arc<Shared>,
    workers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    validators: Vec<Arc<dyn Validator>>,
    generation: u64,
) {
    let mut handles = workers.lock().expect("worker list mutex poisoned");
    for (index, validator) in validators.into_iter().enumerate() {
        let shared = Arc::clone(shared);
        let workers = Arc::clone(workers);
        handles.push(
            std::thread::Builder::new()
                .name(format!("dquag-stream-g{generation}-{index}"))
                .spawn(move || worker_loop(&shared, &workers, &*validator, generation))
                .expect("spawning a stream worker thread succeeds"),
        );
    }
}

/// One worker: pop → validate → file the outcome for re-sequencing.
///
/// `generation` pins the worker to the model it was spawned with: a hot swap
/// bumps the engine generation, and a worker that finds itself outdated
/// retires *before* taking another job — its in-flight batch (if any) still
/// finishes under the old model, so every batch is judged by exactly one
/// generation and nothing is dropped mid-swap.
///
/// Workers are self-checking: a [`ValidateError::Health`] from the
/// validator means *this replica* is corrupt, not that the batch is bad.
/// The worker quarantines the replica (telemetry counter + flight-recorder
/// event), and — when the engine has a [`RebuildSource`] — swaps in a
/// freshly rebuilt validator and hands the batch back to the queue, so the
/// batch is judged by a healthy model instead of failing. A panicking
/// validator is caught the same way: the batch fails with
/// [`ValidateError::Panicked`] and the quarantine is recorded, but the
/// worker thread survives to serve the rest of the stream.
fn worker_loop(
    shared: &Arc<Shared>,
    workers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    validator: &dyn Validator,
    generation: u64,
) {
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                // The generation check comes before the pop: once a swap has
                // happened under this same mutex, an old-generation worker
                // can never take another batch.
                if st.generation != generation {
                    break None;
                }
                if let Some(job) = st.queue.pop_front() {
                    // No not_full notify: a pop moves the batch from queued
                    // to in-flight, leaving the outstanding total unchanged.
                    st.in_flight += 1;
                    shared.metrics.stage(Stage::QueueWait, job.submitted_at);
                    shared.metrics.set_occupancy(st.queue.len(), st.in_flight);
                    break Some(job);
                }
                // Exit only once nothing is in flight either: an in-flight
                // batch may yet be requeued by a quarantined replica, and a
                // worker that left early would strand it with no one to
                // judge it.
                if st.closed && st.in_flight == 0 {
                    break None;
                }
                st = shared
                    .not_empty
                    .wait(st)
                    .expect("engine state mutex poisoned");
            }
        };
        let Some(job) = job else {
            return;
        };

        let n_rows = job.batch.n_rows();
        let mut validated = false;
        let expired = |deadline_at: Option<Instant>| {
            deadline_at.is_some_and(|deadline| Instant::now() >= deadline)
        };
        let deadline_outcome = |job: &Job| StreamOutcome::DeadlineExceeded {
            budget: job.budget.expect("a deadline implies a budget"),
            waited: job.submitted_at.elapsed(),
        };
        // A batch that expired while queued is not worth validating; a batch
        // that expires *during* validation still finishes (std threads cannot
        // be cancelled) but its verdict is degraded to the deadline outcome
        // the consumer may already have emitted. `None` means the batch was
        // handed back to the queue after a replica quarantine.
        let outcome = if expired(job.deadline_at) {
            Some(deadline_outcome(&job))
        } else {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                validator.validate(&job.batch)
            }));
            match result {
                Ok(Ok(verdict)) => {
                    validated = true;
                    if expired(job.deadline_at) {
                        Some(deadline_outcome(&job))
                    } else {
                        Some(StreamOutcome::Verdict(verdict))
                    }
                }
                Ok(Err(error)) if error.is_health() => {
                    quarantine_replica(shared, generation, &error.to_string());
                    if rebuild_after_quarantine(shared, workers, generation, &job) {
                        None
                    } else {
                        Some(StreamOutcome::Failed(error))
                    }
                }
                Ok(Err(error)) => Some(StreamOutcome::Failed(error)),
                Err(payload) => {
                    // The replica is suspect after an unwind, but the worker
                    // thread must survive — a dead worker would silently
                    // shrink the pool and, with every worker gone, wedge the
                    // stream. The batch fails loudly instead.
                    // `&*payload`, not `&payload`: the latter would unsize
                    // the Box itself into `dyn Any` and every downcast of
                    // the payload would miss.
                    let reason = panic_reason(&*payload);
                    quarantine_replica(shared, generation, &reason);
                    Some(StreamOutcome::Failed(ValidateError::Panicked(reason)))
                }
            }
        };

        let mut st = shared.lock();
        st.in_flight -= 1;
        let Some(outcome) = outcome else {
            // Quarantine handed the batch back: queued again (front, so it
            // keeps its place in line), outstanding count unchanged. This
            // worker's generation is now stale, so the next loop iteration
            // retires it and the rebuilt generation takes over.
            st.queue.push_front(Job {
                retried: true,
                ..job
            });
            shared.metrics.set_occupancy(st.queue.len(), st.in_flight);
            drop(st);
            shared.not_empty.notify_one();
            continue;
        };
        if validated {
            shared.metrics.rows_validated.add(n_rows as u64);
        }
        shared.metrics.set_occupancy(st.queue.len(), st.in_flight);
        let mut late_seq = None;
        if job.seq >= st.next_emit {
            st.pending.remove(&job.seq);
            st.done.insert(
                job.seq,
                Done {
                    outcome,
                    submitted_at: job.submitted_at,
                    finished_at: Instant::now(),
                    n_rows,
                },
            );
        } else {
            // The consumer already reported this seq as deadline-exceeded;
            // discarding it frees an outstanding slot.
            shared.metrics.late_discarded.inc();
            late_seq = Some(job.seq);
            shared.not_full.notify_one();
        }
        // Workers parked on not_empty during a drain wait for in-flight to
        // reach zero (see the exit check above); this filing may be what
        // zeroes it.
        let wake_drainers = st.closed && st.in_flight == 0;
        drop(st);
        if let Some(seq) = late_seq {
            shared.metrics.event(FlightEventKind::LateDiscard { seq });
        }
        if wake_drainers {
            shared.not_empty.notify_all();
        }
        shared.progress.notify_all();
    }
}

/// Record a replica quarantine: counter plus an error-class flight-recorder
/// event (which dumps the ring when `dump_on_error` is on).
fn quarantine_replica(shared: &Shared, generation: u64, reason: &str) {
    shared.metrics.replica_quarantines.inc();
    shared.metrics.event(FlightEventKind::ReplicaQuarantined {
        generation,
        reason: reason.to_string(),
    });
}

/// After a health quarantine, try to put a healthy generation in charge and
/// decide the batch's fate: `true` means the caller should hand the batch
/// back to the queue for the healthy generation, `false` means it must fail
/// (no rebuild source, rebuild declined, already retried once, or expired).
fn rebuild_after_quarantine(
    shared: &Arc<Shared>,
    workers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    generation: u64,
    job: &Job,
) -> bool {
    // A batch already retried once hit a second unhealthy replica — failing
    // it breaks the requeue loop; a batch past its deadline is not worth a
    // rebuilt model's time (the consumer has already reported it).
    if job.retried
        || job
            .deadline_at
            .is_some_and(|deadline| Instant::now() >= deadline)
    {
        return false;
    }
    // Another worker may have quarantined and swapped already; the fresh
    // generation is serving, so the batch just goes back to the queue.
    if shared.lock().generation != generation {
        return true;
    }
    let Some(rebuild) = &shared.rebuild else {
        return false;
    };
    let Some(fresh) = rebuild() else {
        return false;
    };
    swap_validator_impl(shared, workers, fresh, true).is_ok()
}

/// Best-effort human-readable panic payload (the common `&str` / `String`
/// cases; anything else is reported opaquely).
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// The running engine: control plane over the worker pool.
///
/// Producers talk to the [`IngestHandle`], the consumer drains the
/// [`VerdictStream`]; this handle snapshots [`StreamStats`] while traffic
/// flows and performs the graceful [`shutdown`]. Dropping the engine also
/// shuts it down (draining queued batches first).
///
/// [`shutdown`]: StreamEngine::shutdown
pub struct StreamEngine {
    shared: Arc<Shared>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Replace the engine's validator with a freshly fitted one, without
/// stopping the stream. Shared by [`StreamEngine::swap_validator`] and
/// [`SwapHandle::swap_validator`].
///
/// New replicas spin up pinned to the next generation; the old generation's
/// workers retire as they drain (each finishes its in-flight batch under the
/// old model first). Submission sequencing and re-sequenced emission are
/// untouched, so no batch is lost or reordered, and because queue pops are
/// FIFO under the same mutex as the generation bump, the judging generation
/// is monotone in submission order.
/// `allow_when_closed` is reserved for the quarantine-rebuild path: a
/// replica that corrupts *during* the shutdown drain still gets replaced so
/// the remaining queued batches are judged by a healthy model — the
/// public swap API keeps refusing once shutdown has begun.
fn swap_validator_impl(
    shared: &Arc<Shared>,
    workers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    validator: Box<dyn Validator>,
    allow_when_closed: bool,
) -> Result<u64, EngineClosed> {
    // Build the replica set before touching any lock.
    let validators = replica_set(shared, validator);

    let generation = {
        let mut st = shared.lock();
        if st.closed && !allow_when_closed {
            return Err(EngineClosed);
        }
        st.generation += 1;
        st.generation
    };
    shared.metrics.generation.set(generation as f64);
    shared
        .metrics
        .event(FlightEventKind::SwapGeneration { generation });
    // Wake retiring workers parked on the empty-queue condvar so they
    // notice the new generation and exit.
    shared.not_empty.notify_all();

    spawn_generation(shared, workers, validators, generation);
    Ok(generation)
}

/// A cloneable handle for hot-swapping the engine's validator from another
/// thread (typically a background refit supervisor), plus generation and
/// stats introspection. Obtained from [`StreamEngine::swap_handle`].
pub struct SwapHandle {
    shared: Arc<Shared>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl SwapHandle {
    /// Hot-swap a freshly fitted validator into the running engine. See
    /// [`StreamEngine::swap_validator`].
    pub fn swap_validator(&self, validator: Box<dyn Validator>) -> Result<u64, EngineClosed> {
        swap_validator_impl(&self.shared, &self.workers, validator, false)
    }

    /// The current model generation (0 until the first swap).
    pub fn generation(&self) -> u64 {
        self.shared.lock().generation
    }

    /// Snapshot the live statistics.
    pub fn stats(&self) -> StreamStats {
        self.shared.snapshot()
    }
}

impl Clone for SwapHandle {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
            workers: Arc::clone(&self.workers),
        }
    }
}

impl StreamEngine {
    /// Start configuring an engine.
    pub fn builder() -> StreamEngineBuilder {
        StreamEngineBuilder::default()
    }

    /// Snapshot the live statistics without pausing the workers.
    pub fn stats(&self) -> StreamStats {
        self.shared.snapshot()
    }

    /// Number of validator replicas (worker threads) per generation.
    pub fn replicas(&self) -> usize {
        self.shared.replicas
    }

    /// The current model generation (0 until the first swap).
    pub fn generation(&self) -> u64 {
        self.shared.lock().generation
    }

    /// Hot-swap a freshly fitted validator into the running engine with
    /// zero downtime: a new set of replicas spins up on the next model
    /// generation while the old generation's workers retire as they drain
    /// (each finishes its current in-flight batch under the old model).
    ///
    /// Guarantees, pinned by the swap-mid-stream invariance test:
    /// * no accepted batch is lost or reordered — submission sequencing and
    ///   re-sequenced emission are untouched by the swap;
    /// * every batch is judged by exactly one model generation, and the
    ///   generation is monotone in submission order (queue pops are FIFO
    ///   under the same mutex that bumps the generation).
    ///
    /// Returns the new generation number, or [`EngineClosed`] once shutdown
    /// has begun (the draining batches keep their current model).
    pub fn swap_validator(&self, validator: Box<dyn Validator>) -> Result<u64, EngineClosed> {
        swap_validator_impl(&self.shared, &self.workers, validator, false)
    }

    /// A cloneable [`SwapHandle`] for swapping from other threads (e.g. a
    /// background refit supervisor).
    pub fn swap_handle(&self) -> SwapHandle {
        SwapHandle {
            shared: Arc::clone(&self.shared),
            workers: Arc::clone(&self.workers),
        }
    }

    /// Gracefully shut down: close ingestion, let the workers drain every
    /// queued and in-flight batch, join them, and return the final
    /// statistics. Already-produced outcomes stay available on the
    /// [`VerdictStream`] — no accepted batch is lost.
    pub fn shutdown(self) -> StreamStats {
        self.shared.close();
        Self::join_workers(&self.workers);
        self.stats()
    }

    /// Join every worker thread spawned so far, across all generations.
    /// Tolerates a swap racing shutdown: handles pushed while joining are
    /// picked up by the next sweep of the loop.
    fn join_workers(workers: &Arc<Mutex<Vec<JoinHandle<()>>>>) {
        loop {
            let drained: Vec<JoinHandle<()>> = {
                let mut handles = workers.lock().expect("worker list mutex poisoned");
                handles.drain(..).collect()
            };
            if drained.is_empty() {
                return;
            }
            for worker in drained {
                let _ = worker.join();
            }
        }
    }
}

impl Drop for StreamEngine {
    fn drop(&mut self) {
        self.shared.close();
        Self::join_workers(&self.workers);
    }
}

/// Producer side of the engine. Cloneable — every producer thread gets its
/// own handle; the stream closes when the last handle drops (or when
/// [`close`] / [`StreamEngine::shutdown`] is called explicitly).
///
/// [`close`]: IngestHandle::close
pub struct IngestHandle {
    shared: Arc<Shared>,
}

impl IngestHandle {
    /// Submit a batch under the engine's backpressure policy and batch
    /// deadline. When the engine is full — `queue_capacity + replicas`
    /// batches accepted but not yet emitted, whether they are queued,
    /// in-flight or waiting for the consumer — this blocks (`Block`),
    /// discards the batch (`DropNewest`) or refuses it (`Reject`); the
    /// returned [`SubmitOutcome`] says which happened.
    pub fn submit(&self, batch: DataFrame) -> Result<SubmitOutcome, EngineClosed> {
        self.submit_inner(batch, None)
    }

    /// Like [`submit`], but a `Block`ed producer re-checks `cancel` every
    /// 50 ms while it waits and gives up once it is raised: the batch is
    /// counted as timed out and [`SubmitOutcome::TimedOut`] comes back. A
    /// wait that ends in acceptance counts only the submission. The flag is
    /// irrelevant under `DropNewest`/`Reject`, which never block.
    ///
    /// [`submit`]: IngestHandle::submit
    pub fn submit_cancellable(
        &self,
        batch: DataFrame,
        cancel: &AtomicBool,
    ) -> Result<SubmitOutcome, EngineClosed> {
        self.submit_inner(batch, Some(cancel))
    }

    fn submit_inner(
        &self,
        batch: DataFrame,
        cancel: Option<&AtomicBool>,
    ) -> Result<SubmitOutcome, EngineClosed> {
        let shared = &*self.shared;
        let mut st = shared.lock();
        if st.closed {
            return Err(EngineClosed);
        }
        if shared.is_full(&st) {
            match shared.policy {
                BackpressurePolicy::DropNewest => return shared.lose(st, SubmitOutcome::Dropped),
                BackpressurePolicy::Reject => return shared.lose(st, SubmitOutcome::Rejected),
                BackpressurePolicy::Block => {
                    while shared.is_full(&st) && !st.closed {
                        st = match cancel {
                            Some(cancel) => {
                                if cancel.load(Ordering::SeqCst) {
                                    return shared.lose(st, SubmitOutcome::TimedOut);
                                }
                                shared
                                    .not_full
                                    .wait_timeout(st, CANCEL_POLL)
                                    .expect("engine state mutex poisoned")
                                    .0
                            }
                            None => shared
                                .not_full
                                .wait(st)
                                .expect("engine state mutex poisoned"),
                        };
                    }
                    if st.closed {
                        return Err(EngineClosed);
                    }
                }
            }
        }

        let seq = st.next_seq;
        st.next_seq += 1;
        let now = Instant::now();
        let budget = shared.budget;
        let deadline_at = budget.map(|b| now + b);
        st.pending.insert(
            seq,
            PendingMeta {
                submitted_at: now,
                deadline_at,
                budget,
                n_rows: batch.n_rows(),
            },
        );
        st.queue.push_back(Job {
            seq,
            batch,
            submitted_at: now,
            deadline_at,
            budget,
            retried: false,
        });
        shared.metrics.submitted.inc();
        shared.metrics.set_occupancy(st.queue.len(), st.in_flight);
        drop(st);
        shared.not_empty.notify_one();
        // The consumer tracks the deadline of the next seq to emit, so it
        // must learn about new submissions too.
        shared.progress.notify_all();
        Ok(SubmitOutcome::Enqueued(seq))
    }

    /// Close ingestion for every producer. Queued and in-flight batches are
    /// still drained and emitted.
    pub fn close(&self) {
        self.shared.close();
    }

    /// True once the engine no longer accepts submissions.
    pub fn is_closed(&self) -> bool {
        self.shared.lock().closed
    }

    /// Snapshot the live statistics.
    pub fn stats(&self) -> StreamStats {
        self.shared.snapshot()
    }
}

impl Clone for IngestHandle {
    fn clone(&self) -> Self {
        self.shared.lock().producers += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for IngestHandle {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.producers -= 1;
        let last = st.producers == 0;
        drop(st);
        if last {
            self.shared.close();
        }
    }
}

/// Consumer side of the engine: outcomes in submission order, one per
/// accepted batch, ending once ingestion is closed and everything drained.
///
/// The stream re-sequences the sharded workers' results, so replica count
/// never changes what the consumer observes — only how fast it arrives. A
/// batch past its deadline is emitted as
/// [`StreamOutcome::DeadlineExceeded`] the moment the budget lapses; the
/// stream never waits for a straggler.
pub struct VerdictStream {
    shared: Arc<Shared>,
}

impl VerdictStream {
    /// Block until the next in-order outcome (or `None` once the engine is
    /// closed and fully drained).
    pub fn recv(&mut self) -> Option<StreamItem> {
        let shared = &*self.shared;
        let mut st = shared.lock();
        loop {
            let seq = st.next_emit;
            if let Some(done) = st.done.remove(&seq) {
                st.next_emit += 1;
                let latency = done.submitted_at.elapsed();
                shared.metrics.count_emission(seq, &done.outcome, latency);
                shared.metrics.stage(Stage::Emit, done.finished_at);
                // Emission frees an outstanding slot — a blocked producer can
                // move again (backpressure is end to end, consumer included).
                shared.not_full.notify_one();
                return Some(StreamItem {
                    seq,
                    n_rows: done.n_rows,
                    latency,
                    outcome: done.outcome,
                });
            }
            if st.closed && st.queue.is_empty() && st.in_flight == 0 && st.done.is_empty() {
                return None;
            }

            let now = Instant::now();
            match st.pending.get(&seq).and_then(|meta| meta.deadline_at) {
                // The next batch to emit has blown its budget: report it now
                // instead of stalling the stream behind it. If it is still
                // queued it is withdrawn; if a worker holds it, the eventual
                // verdict is discarded as late.
                Some(deadline_at) if now >= deadline_at => {
                    let meta = st.pending.remove(&seq).expect("meta checked above");
                    if let Some(position) = st.queue.iter().position(|job| job.seq == seq) {
                        st.queue.remove(position);
                        shared.not_full.notify_one();
                    }
                    st.next_emit += 1;
                    let waited = meta.submitted_at.elapsed();
                    let outcome = StreamOutcome::DeadlineExceeded {
                        budget: meta.budget.expect("a deadline implies a budget"),
                        waited,
                    };
                    shared.metrics.count_emission(seq, &outcome, waited);
                    return Some(StreamItem {
                        seq,
                        n_rows: meta.n_rows,
                        latency: waited,
                        outcome,
                    });
                }
                Some(deadline_at) => {
                    st = shared
                        .progress
                        .wait_timeout(st, deadline_at - now)
                        .expect("engine state mutex poisoned")
                        .0;
                }
                None => {
                    st = shared
                        .progress
                        .wait(st)
                        .expect("engine state mutex poisoned");
                }
            }
        }
    }
}

impl Iterator for VerdictStream {
    type Item = StreamItem;

    fn next(&mut self) -> Option<StreamItem> {
        self.recv()
    }
}

/// Dropping the consumer closes the engine, mirroring
/// [`std::sync::mpsc`]'s receiver-disconnect semantics: with nobody left to
/// drain outcomes, `Block`ed producers would otherwise wedge forever once
/// the outstanding bound fills — instead their next `submit` gets
/// [`EngineClosed`].
impl Drop for VerdictStream {
    fn drop(&mut self) {
        self.shared.close();
    }
}
