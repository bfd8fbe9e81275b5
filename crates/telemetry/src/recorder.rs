//! The flight recorder: an always-on bounded ring buffer of lifecycle
//! events, dumpable on demand and automatically when an error-class event
//! lands. Metrics answer "how much / how fast"; the recorder answers "what
//! happened, in what order" when a swap races a drain or a refit dies.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What happened. Variants cover every lifecycle transition a post-mortem
/// needs to sequence; error-class variants (see [`is_error`]) trigger an
/// automatic dump when `dump_on_error` is set.
///
/// [`is_error`]: FlightEventKind::is_error
#[derive(Debug, Clone, PartialEq)]
pub enum FlightEventKind {
    /// Stream engine started with this many validator replicas.
    EngineStarted { replicas: usize },
    /// Stream engine closed (drained and shut down).
    EngineClosed,
    /// A validator hot swap bumped the model generation.
    SwapGeneration { generation: u64 },
    /// A background refit fit, persisted, and swapped a new model.
    /// `trigger_columns` names the drifting columns that caused it (empty
    /// when data-plane telemetry is off or nothing was above threshold).
    RefitSwapped {
        generation: u64,
        fit_rows: usize,
        trigger_columns: Vec<String>,
    },
    /// A column's drift ratio crossed its threshold (ratio rose above 1.0)
    /// on this batch — the moment a feature started drifting, sequenced
    /// against swaps and refits.
    DriftCrossing { column: String, ratio: f64 },
    /// A background refit died at `stage` (fit / persist / swap).
    RefitFailed { stage: String, reason: String },
    /// Backpressure dropped or rejected a batch under this policy.
    BackpressureDrop { policy: String },
    /// The serving edge refused a connection because it was already at its
    /// configured connection cap — the accept queue shed load loudly
    /// (`503`) instead of growing without bound.
    AcceptOverflow {
        /// Connections open when the overflow happened.
        open: usize,
        /// The configured `max_connections` cap.
        max: usize,
    },
    /// A consumer deadline expired before the batch finished.
    DeadlineMiss { seq: u64 },
    /// A batch was discarded because its verdict arrived after the
    /// consumer had already given up on it.
    LateDiscard { seq: u64 },
    /// A source-offset checkpoint was written.
    CheckpointWrite { path: String },
    /// A *running* validator replica failed a health self-check (checksum
    /// drift, non-finite kernel output) or panicked, and was retired from
    /// the worker pool. `generation` is the model generation the replica
    /// was serving when it was pulled.
    ReplicaQuarantined { generation: u64, reason: String },
    /// A source-layer error (decode failure, I/O error).
    SourceError { source: String, message: String },
}

impl FlightEventKind {
    /// Short machine-readable tag (used in dumps and tests).
    pub fn label(&self) -> &'static str {
        match self {
            FlightEventKind::EngineStarted { .. } => "engine_started",
            FlightEventKind::EngineClosed => "engine_closed",
            FlightEventKind::SwapGeneration { .. } => "swap_generation",
            FlightEventKind::RefitSwapped { .. } => "refit_swapped",
            FlightEventKind::DriftCrossing { .. } => "drift_crossing",
            FlightEventKind::RefitFailed { .. } => "refit_failed",
            FlightEventKind::BackpressureDrop { .. } => "backpressure_drop",
            FlightEventKind::AcceptOverflow { .. } => "accept_overflow",
            FlightEventKind::DeadlineMiss { .. } => "deadline_miss",
            FlightEventKind::LateDiscard { .. } => "late_discard",
            FlightEventKind::CheckpointWrite { .. } => "checkpoint_write",
            FlightEventKind::ReplicaQuarantined { .. } => "replica_quarantined",
            FlightEventKind::SourceError { .. } => "source_error",
        }
    }

    /// Whether this event means something went wrong — these trigger the
    /// automatic dump so the ring's contents survive to stderr before they
    /// age out.
    pub fn is_error(&self) -> bool {
        matches!(
            self,
            FlightEventKind::RefitFailed { .. }
                | FlightEventKind::ReplicaQuarantined { .. }
                | FlightEventKind::SourceError { .. }
                | FlightEventKind::DeadlineMiss { .. }
        )
    }
}

impl std::fmt::Display for FlightEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlightEventKind::EngineStarted { replicas } => {
                write!(f, "engine_started replicas={replicas}")
            }
            FlightEventKind::EngineClosed => write!(f, "engine_closed"),
            FlightEventKind::SwapGeneration { generation } => {
                write!(f, "swap_generation generation={generation}")
            }
            FlightEventKind::RefitSwapped {
                generation,
                fit_rows,
                trigger_columns,
            } => write!(
                f,
                "refit_swapped generation={generation} fit_rows={fit_rows} triggers=[{}]",
                trigger_columns.join(",")
            ),
            FlightEventKind::DriftCrossing { column, ratio } => {
                write!(f, "drift_crossing column={column} ratio={ratio:.4}")
            }
            FlightEventKind::RefitFailed { stage, reason } => {
                write!(f, "refit_failed stage={stage} reason={reason:?}")
            }
            FlightEventKind::BackpressureDrop { policy } => {
                write!(f, "backpressure_drop policy={policy}")
            }
            FlightEventKind::AcceptOverflow { open, max } => {
                write!(f, "accept_overflow open={open} max={max}")
            }
            FlightEventKind::DeadlineMiss { seq } => write!(f, "deadline_miss seq={seq}"),
            FlightEventKind::LateDiscard { seq } => write!(f, "late_discard seq={seq}"),
            FlightEventKind::CheckpointWrite { path } => {
                write!(f, "checkpoint_write path={path}")
            }
            FlightEventKind::ReplicaQuarantined { generation, reason } => {
                write!(
                    f,
                    "replica_quarantined generation={generation} reason={reason:?}"
                )
            }
            FlightEventKind::SourceError { source, message } => {
                write!(f, "source_error source={source} message={message:?}")
            }
        }
    }
}

/// One recorded event, stamped with process uptime at record time.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Uptime of the owning [`Telemetry`](crate::Telemetry) when recorded.
    pub uptime: Duration,
    /// What happened.
    pub kind: FlightEventKind,
}

impl std::fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[+{:>9.3}s] {}", self.uptime.as_secs_f64(), self.kind)
    }
}

/// Bounded ring buffer of [`FlightEvent`]s. Recording is one short mutex
/// hold (push + maybe pop); lifecycle events are rare relative to the data
/// path, so this never contends with batch processing.
pub struct FlightRecorder {
    inner: Mutex<VecDeque<FlightEvent>>,
    capacity: usize,
    dump_on_error: bool,
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events (min 1).
    pub fn new(capacity: usize, dump_on_error: bool) -> Self {
        Self {
            inner: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
            dump_on_error,
            dropped: AtomicU64::new(0),
        }
    }

    /// Append an event; evicts the oldest once full. If the event is
    /// error-class and `dump_on_error` is on, the full ring is dumped to
    /// stderr immediately.
    pub fn record(&self, uptime: Duration, kind: FlightEventKind) {
        let dump = kind.is_error() && self.dump_on_error;
        {
            let mut ring = self.inner.lock().expect("flight recorder poisoned");
            if ring.len() == self.capacity {
                ring.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back(FlightEvent { uptime, kind });
        }
        if dump {
            eprintln!("{}", self.render());
        }
    }

    /// Snapshot of the ring, oldest first.
    pub fn dump(&self) -> Vec<FlightEvent> {
        let ring = self.inner.lock().expect("flight recorder poisoned");
        ring.iter().cloned().collect()
    }

    /// Events evicted so far because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("flight recorder poisoned").len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole ring as a human-readable multi-line report.
    pub fn render(&self) -> String {
        let events = self.dump();
        let mut out = format!(
            "=== flight recorder ({} events, {} evicted) ===\n",
            events.len(),
            self.evicted()
        );
        for event in &events {
            out.push_str(&format!("{event}\n"));
        }
        out.push_str("=== end flight recorder ===");
        out
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("evicted", &self.evicted())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> Duration {
        Duration::from_secs(secs)
    }

    #[test]
    fn ring_keeps_most_recent_events() {
        let recorder = FlightRecorder::new(3, false);
        for generation in 1..=5u64 {
            recorder.record(
                at(generation),
                FlightEventKind::SwapGeneration { generation },
            );
        }
        let events = recorder.dump();
        assert_eq!(events.len(), 3);
        assert_eq!(recorder.evicted(), 2);
        assert_eq!(
            events[0].kind,
            FlightEventKind::SwapGeneration { generation: 3 },
            "oldest two evicted"
        );
        assert_eq!(events[2].uptime, at(5));
    }

    #[test]
    fn render_and_display_are_greppable() {
        let recorder = FlightRecorder::new(8, false);
        recorder.record(
            at(1),
            FlightEventKind::RefitFailed {
                stage: "persist".into(),
                reason: "disk full".into(),
            },
        );
        recorder.record(
            at(2),
            FlightEventKind::BackpressureDrop {
                policy: "reject".into(),
            },
        );
        let text = recorder.render();
        assert!(text.contains("refit_failed stage=persist"));
        assert!(text.contains("backpressure_drop policy=reject"));
        assert!(text.contains("2 events"));
    }

    #[test]
    fn error_classification_matches_dump_policy() {
        assert!(FlightEventKind::RefitFailed {
            stage: "fit".into(),
            reason: "x".into()
        }
        .is_error());
        assert!(FlightEventKind::ReplicaQuarantined {
            generation: 2,
            reason: "checksum mismatch".into()
        }
        .is_error());
        assert!(FlightEventKind::DeadlineMiss { seq: 3 }.is_error());
        assert!(!FlightEventKind::SwapGeneration { generation: 1 }.is_error());
        assert!(!FlightEventKind::DriftCrossing {
            column: "age".into(),
            ratio: 1.4
        }
        .is_error());
        assert!(!FlightEventKind::CheckpointWrite {
            path: "c.json".into()
        }
        .is_error());
    }
}
