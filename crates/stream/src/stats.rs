//! Live operational statistics of a running [`crate::StreamEngine`].

use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// A point-in-time snapshot of a running engine, taken with
/// [`crate::StreamEngine::stats`] (or from either handle) without pausing
/// the workers.
///
/// Every count is read from one of the engine's telemetry series, named in
/// its field doc, so `GET /stats` and `GET /metrics` report the same
/// numbers. An engine resumed with
/// [`restore_stats`](crate::StreamEngineBuilder::restore_stats) adds the
/// restored counts and uptime on top of its own series.
///
/// Serde-serialisable: the same JSON shape is used by durable checkpoints
/// (`dquag-sources`) and by wire responses (the network listener's
/// `GET /stats` endpoint), so operational tooling reads one format
/// everywhere.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Batches accepted into the queue so far
    /// (`dquag_stream_batches_submitted_total`).
    pub submitted: u64,
    /// Batches discarded by the `DropNewest` policy
    /// (`dquag_stream_drops_total{policy="drop_newest"}`).
    pub dropped: u64,
    /// Submissions refused by the `Reject` policy
    /// (`dquag_stream_drops_total{policy="reject"}`).
    pub rejected: u64,
    /// `submit_cancellable` calls cancelled while waiting for a slot
    /// (`dquag_stream_drops_total{policy="timeout"}`).
    pub timed_out: u64,
    /// Outcomes emitted on the verdict stream so far
    /// (`dquag_stream_batches_emitted_total`).
    pub emitted: u64,
    /// Emitted outcomes whose verdict judged the batch dirty
    /// (`dquag_verdict_outcomes_total{outcome="dirty"}`).
    pub dirty: u64,
    /// Emitted outcomes where the backend errored
    /// (`dquag_verdict_outcomes_total{outcome="failed"}`).
    pub failed: u64,
    /// Emitted outcomes that missed their validation deadline
    /// (`dquag_verdict_outcomes_total{outcome="deadline_exceeded"}`).
    pub deadline_exceeded: u64,
    /// Verdicts that arrived after their batch had already been reported as
    /// deadline-exceeded (wasted work, discarded;
    /// `dquag_stream_late_discarded_total`).
    pub late_discarded: u64,
    /// Batches currently waiting in the ingestion queue.
    pub queue_depth: usize,
    /// Batches currently being validated by a worker.
    pub in_flight: usize,
    /// Rows of all batches that completed validation
    /// (`dquag_stream_rows_validated_total`).
    pub rows_validated: u64,
    /// Validated rows per second of engine uptime.
    pub rows_per_sec: f64,
    /// Median submission-to-emission latency over every batch this engine
    /// has emitted, reconstructed from `dquag_stream_batch_latency_seconds`
    /// to within one bucket (≤ 25%). Zero until the first emission; a
    /// restored engine's percentiles cover only its own batches.
    pub p50_latency: Duration,
    /// 99th-percentile submission-to-emission latency, over the same
    /// batches and to the same accuracy as [`p50_latency`].
    ///
    /// [`p50_latency`]: StreamStats::p50_latency
    pub p99_latency: Duration,
    /// Time since the engine started, plus the uptime of the snapshot it
    /// was restored from.
    pub uptime: Duration,
    /// Number of validator replicas (worker threads).
    pub replicas: usize,
}

impl StreamStats {
    /// Fraction of emitted verdicts that judged their batch dirty
    /// (0.0 when nothing has been emitted).
    pub fn dirty_rate(&self) -> f64 {
        if self.emitted == 0 {
            0.0
        } else {
            self.dirty as f64 / self.emitted as f64
        }
    }
}

/// `NaN`/`±inf` → `0.0`, so no display path ever prints a non-finite value.
/// Snapshots taken by a live engine are always finite, but `StreamStats` is
/// also deserialized from checkpoints and constructed by tooling, where a
/// zero-uptime division can smuggle in `NaN` or `inf`.
fn finite_or_zero(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

/// One line for dashboards and logs, e.g.
/// `12 emitted (3 dirty, 25.0%), queue 2, in-flight 4, 18432 rows/s, p50 41.2 ms, p99 97.0 ms`.
impl fmt::Display for StreamStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} emitted ({} dirty, {:.1}%), queue {}, in-flight {}, {:.0} rows/s, \
             p50 {:.1} ms, p99 {:.1} ms",
            self.emitted,
            self.dirty,
            finite_or_zero(100.0 * self.dirty_rate()),
            self.queue_depth,
            self.in_flight,
            finite_or_zero(self.rows_per_sec),
            self.p50_latency.as_secs_f64() * 1e3,
            self.p99_latency.as_secs_f64() * 1e3,
        )?;
        if self.dropped + self.rejected + self.timed_out > 0 {
            write!(
                f,
                ", {} dropped / {} rejected / {} timed out",
                self.dropped, self.rejected, self.timed_out
            )?;
        }
        if self.deadline_exceeded > 0 {
            write!(f, ", {} deadline-exceeded", self.deadline_exceeded)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::StreamMetrics;

    #[test]
    fn percentiles_over_recorded_latencies() {
        let metrics = StreamMetrics::new(None, None);
        for ms in 1..=100u64 {
            metrics.latency.record(Duration::from_millis(ms));
        }
        metrics.emitted.add(100);
        metrics.verdict_dirty.add(25);
        let stats = metrics.snapshot(3, 2, 4);
        assert_eq!(stats.queue_depth, 3);
        assert_eq!(stats.in_flight, 2);
        assert_eq!(stats.replicas, 4);
        assert!((stats.dirty_rate() - 0.25).abs() < 1e-12);
        // 1..=100 ms: the median is ~50 ms and p99 ~99 ms, each
        // reconstructed to within one histogram bucket (≤ 25%).
        let p50 = stats.p50_latency.as_secs_f64();
        let p99 = stats.p99_latency.as_secs_f64();
        assert!((p50 - 0.050).abs() / 0.050 <= 0.25, "p50 {p50}");
        assert!((p99 - 0.099).abs() / 0.099 <= 0.25, "p99 {p99}");
        let line = stats.to_string();
        assert!(line.contains("100 emitted"));
        assert!(line.contains("25 dirty"));
    }

    #[test]
    fn empty_stats_are_all_zero() {
        let stats = StreamMetrics::new(None, None).snapshot(0, 0, 1);
        assert_eq!(stats.emitted, 0);
        assert_eq!(stats.dirty_rate(), 0.0);
        assert_eq!(stats.p50_latency, Duration::ZERO);
        assert_eq!(stats.p99_latency, Duration::ZERO);
    }

    #[test]
    fn restored_counters_continue_and_live_state_resets() {
        let first = StreamMetrics::new(None, None);
        first.submitted.add(10);
        first.emitted.add(9);
        first.verdict_dirty.add(3);
        first.rows_validated.add(900);
        first.latency.record(Duration::from_millis(40));
        let snapshot = first.snapshot(2, 1, 4);

        let resumed = StreamMetrics::new(None, Some(snapshot.clone()));
        let after = resumed.snapshot(0, 0, 4);
        assert_eq!(after.submitted, 10);
        assert_eq!(after.emitted, 9);
        assert_eq!(after.dirty, 3);
        assert_eq!(after.rows_validated, 900);
        // Live quantities describe this process, not the previous one.
        assert_eq!(after.queue_depth, 0);
        assert_eq!(after.p50_latency, Duration::ZERO);
        // Uptime accumulates across incarnations.
        assert!(after.uptime >= snapshot.uptime);
    }

    #[test]
    fn snapshot_serde_round_trips() {
        let metrics = StreamMetrics::new(None, None);
        for ms in [3u64, 17, 250] {
            metrics.latency.record(Duration::from_millis(ms));
        }
        metrics.submitted.add(7);
        metrics.emitted.add(5);
        metrics.verdict_dirty.add(2);
        metrics.verdict_deadline.inc();
        metrics.rows_validated.add(421);
        let stats = metrics.snapshot(1, 2, 3);
        let json = serde_json::to_string(&stats).unwrap();
        let back: StreamStats = serde_json::from_str(&json).unwrap();
        // rows_per_sec and the latency percentiles survive only to f64/ns
        // precision; everything the checkpoint relies on must be exact.
        assert_eq!(back.submitted, stats.submitted);
        assert_eq!(back.emitted, stats.emitted);
        assert_eq!(back.dirty, stats.dirty);
        assert_eq!(back.deadline_exceeded, stats.deadline_exceeded);
        assert_eq!(back.rows_validated, stats.rows_validated);
        assert_eq!(back.p50_latency, stats.p50_latency);
        assert_eq!(back.uptime, stats.uptime);
        assert_eq!(back.replicas, stats.replicas);
    }

    #[test]
    fn display_never_prints_nan_or_inf() {
        // A snapshot from a live engine is always finite, but stats can also
        // arrive from a checkpoint or be built by tooling with zero uptime —
        // Display must print zeros, never `NaN`/`inf`.
        let mut stats = StreamMetrics::new(None, None).snapshot(0, 0, 1);
        assert_eq!(stats.emitted, 0);
        stats.rows_per_sec = f64::NAN;
        let line = stats.to_string();
        assert!(line.contains("0 dirty, 0.0%"), "dirty rate wrong: {line}");
        assert!(line.contains("0 rows/s"), "rows/s wrong: {line}");
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");

        stats.rows_per_sec = f64::INFINITY;
        let line = stats.to_string();
        assert!(line.contains("0 rows/s"), "rows/s wrong: {line}");
        assert!(!line.contains("inf"), "{line}");
    }

    #[test]
    fn display_mentions_losses_only_when_present() {
        let metrics = StreamMetrics::new(None, None);
        assert!(!metrics.snapshot(0, 0, 1).to_string().contains("dropped"));
        metrics.drops_drop_newest.add(2);
        metrics.verdict_deadline.inc();
        let line = metrics.snapshot(0, 0, 1).to_string();
        assert!(line.contains("2 dropped"));
        assert!(line.contains("1 deadline-exceeded"));
    }
}
