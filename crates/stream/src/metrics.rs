//! The stream engine's counters: pre-registered telemetry handles.
//!
//! Registration happens once at engine start; everything the hot path
//! touches afterwards is an `Arc`'d atomic, so counting costs a few relaxed
//! atomic ops per batch. These series are the engine's only counters:
//! [`StreamStats`] snapshots read them back, so `/stats` and `/metrics`
//! always agree.

use crate::outcome::StreamOutcome;
use crate::stats::StreamStats;
use dquag_telemetry::{
    Counter, FlightEventKind, Gauge, Histogram, MetricsRegistry, Stage, Telemetry,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every series the engine exports, resolved to handles at start time, plus
/// the snapshot its cumulative statistics resume from.
pub(crate) struct StreamMetrics {
    /// The attached bundle, which adds export, stage spans and flight
    /// events; `None` means the series live in a registry of the engine's
    /// own and nothing else is recorded.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Statistics restored from a checkpoint: their cumulative counters and
    /// uptime carry over, while the series count only this engine's work.
    restored: Option<StreamStats>,
    started_at: Instant,
    pub submitted: Arc<Counter>,
    pub emitted: Arc<Counter>,
    pub late_discarded: Arc<Counter>,
    pub rows_validated: Arc<Counter>,
    pub drops_drop_newest: Arc<Counter>,
    pub drops_reject: Arc<Counter>,
    pub drops_timeout: Arc<Counter>,
    pub queue_depth: Arc<Gauge>,
    pub in_flight: Arc<Gauge>,
    pub generation: Arc<Gauge>,
    pub latency: Arc<Histogram>,
    pub verdict_score: Arc<Histogram>,
    pub verdict_clean: Arc<Counter>,
    pub verdict_dirty: Arc<Counter>,
    pub verdict_failed: Arc<Counter>,
    pub verdict_deadline: Arc<Counter>,
    pub replica_quarantines: Arc<Counter>,
}

impl StreamMetrics {
    /// Register the engine's series in `telemetry`'s registry, or in a
    /// private registry when no bundle is attached.
    pub fn new(telemetry: Option<Arc<Telemetry>>, restored: Option<StreamStats>) -> Self {
        let own = MetricsRegistry::new();
        let r = telemetry.as_deref().map_or(&own, Telemetry::registry);
        let drops = |policy: &str| {
            r.counter_with(
                "dquag_stream_drops_total",
                "Batches lost to backpressure, by policy",
                &[("policy", policy)],
            )
        };
        let outcome = |outcome: &str| {
            r.counter_with(
                "dquag_verdict_outcomes_total",
                "Emitted outcomes by kind",
                &[("outcome", outcome)],
            )
        };
        Self {
            submitted: r.counter(
                "dquag_stream_batches_submitted_total",
                "Batches accepted into the ingestion queue",
            ),
            emitted: r.counter(
                "dquag_stream_batches_emitted_total",
                "Outcomes emitted on the verdict stream",
            ),
            late_discarded: r.counter(
                "dquag_stream_late_discarded_total",
                "Verdicts discarded because their batch was already reported late",
            ),
            rows_validated: r.counter(
                "dquag_stream_rows_validated_total",
                "Rows of all batches that completed validation",
            ),
            drops_drop_newest: drops("drop_newest"),
            drops_reject: drops("reject"),
            drops_timeout: drops("timeout"),
            queue_depth: r.gauge(
                "dquag_stream_queue_depth",
                "Batches waiting in the ingestion queue",
            ),
            in_flight: r.gauge(
                "dquag_stream_in_flight",
                "Batches currently being validated by a worker",
            ),
            generation: r.gauge(
                "dquag_stream_generation",
                "Current model generation (bumped by each hot swap)",
            ),
            latency: r.histogram(
                "dquag_stream_batch_latency_seconds",
                "Submission-to-emission latency per batch",
            ),
            verdict_score: r.histogram(
                "dquag_verdict_score",
                "Distribution of verdict scores (bucket bounds in score units)",
            ),
            verdict_clean: outcome("clean"),
            verdict_dirty: outcome("dirty"),
            verdict_failed: outcome("failed"),
            verdict_deadline: outcome("deadline_exceeded"),
            replica_quarantines: r.counter(
                "dquag_replica_quarantines_total",
                "Validator replicas retired after a failed health self-check or a panic",
            ),
            telemetry,
            restored,
            started_at: Instant::now(),
        }
    }

    /// Record a lifecycle event in the bundle's flight recorder.
    pub fn event(&self, kind: FlightEventKind) {
        if let Some(telemetry) = &self.telemetry {
            telemetry.event(kind);
        }
    }

    /// Attribute the span from `since` to now to one pipeline stage, when a
    /// bundle is attached.
    pub fn stage(&self, stage: Stage, since: Instant) {
        if let Some(telemetry) = &self.telemetry {
            telemetry.record_stage(stage, since.elapsed());
        }
    }

    /// Count one emitted outcome: emission, latency, score and outcome
    /// kind. Deadline misses also land in the flight recorder.
    ///
    /// The score histogram stores nanosecond durations; feeding the score
    /// through `Duration::from_secs_f64` makes the rendered `le` bucket
    /// bounds read directly in score units. Non-finite or negative scores
    /// are dropped rather than recorded as garbage buckets.
    pub fn count_emission(&self, seq: u64, outcome: &StreamOutcome, latency: Duration) {
        self.emitted.inc();
        self.latency.record(latency);
        match outcome {
            StreamOutcome::Verdict(verdict) => {
                if verdict.score.is_finite() && verdict.score >= 0.0 {
                    let score = Duration::from_secs_f64(verdict.score.min(1e9));
                    self.verdict_score.record(score);
                }
                if verdict.is_dirty {
                    self.verdict_dirty.inc();
                } else {
                    self.verdict_clean.inc();
                }
            }
            StreamOutcome::DeadlineExceeded { .. } => {
                self.verdict_deadline.inc();
                self.event(FlightEventKind::DeadlineMiss { seq });
            }
            StreamOutcome::Failed(_) => self.verdict_failed.inc(),
        }
    }

    /// Refresh the occupancy gauges after a queue/in-flight transition.
    pub fn set_occupancy(&self, queue_depth: usize, in_flight: usize) {
        self.queue_depth.set(queue_depth as f64);
        self.in_flight.set(in_flight as f64);
    }

    /// Read the statistics back from the series, on top of the restored
    /// snapshot. The engine bumps every counter read here under its state
    /// lock and calls this under the same lock, so the counts are mutually
    /// consistent (`dirty ≤ emitted ≤ submitted`).
    pub fn snapshot(&self, queue_depth: usize, in_flight: usize, replicas: usize) -> StreamStats {
        let restored = self.restored.as_ref();
        let carried = |field: fn(&StreamStats) -> u64, counter: &Counter| {
            restored.map_or(0, field) + counter.get()
        };
        let uptime = restored.map_or(Duration::ZERO, |s| s.uptime) + self.started_at.elapsed();
        let rows_validated = carried(|s| s.rows_validated, &self.rows_validated);
        StreamStats {
            submitted: carried(|s| s.submitted, &self.submitted),
            dropped: carried(|s| s.dropped, &self.drops_drop_newest),
            rejected: carried(|s| s.rejected, &self.drops_reject),
            timed_out: carried(|s| s.timed_out, &self.drops_timeout),
            emitted: carried(|s| s.emitted, &self.emitted),
            dirty: carried(|s| s.dirty, &self.verdict_dirty),
            failed: carried(|s| s.failed, &self.verdict_failed),
            deadline_exceeded: carried(|s| s.deadline_exceeded, &self.verdict_deadline),
            late_discarded: carried(|s| s.late_discarded, &self.late_discarded),
            queue_depth,
            in_flight,
            rows_validated,
            rows_per_sec: if uptime.is_zero() {
                0.0
            } else {
                rows_validated as f64 / uptime.as_secs_f64()
            },
            p50_latency: self.latency.percentile(0.50),
            p99_latency: self.latency.percentile(0.99),
            uptime,
            replicas,
        }
    }
}
