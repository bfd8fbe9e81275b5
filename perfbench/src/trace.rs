//! Traced runs: an in-memory span log written out when the run ends, a
//! validator wrapper that times every served `validate` call, and the
//! check of how much measured time the program's own stage spans explain.

use crate::check::prometheus_counter;
use dquag_tabular::DataFrame;
use dquag_telemetry::Telemetry;
use dquag_validate::{
    Capabilities, FitReport, PersistedValidatorState, Result, Validator, Verdict,
};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval: `parent` indexes another span of the same log,
/// `seq` links every span of one served batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Boundary name, e.g. `sources.ack`.
    pub name: &'static str,
    /// Interval start.
    pub start: Instant,
    /// Interval end (never before `start`).
    pub end: Instant,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Engine seq of the batch the span belongs to.
    pub seq: Option<u64>,
}

impl Span {
    /// Length in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// Spans kept in memory for the whole run.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Record a span (an `end` before `start` is clamped to an empty span)
    /// and return its index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        seq: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            seq,
        });
        self.spans.len() - 1
    }

    /// Set the end of an already recorded span.
    pub fn close(&mut self, index: usize, end: Instant) {
        let span = &mut self.spans[index];
        span.end = end.max(span.start);
    }

    /// Every span with the given name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |span| span.name == name)
    }

    /// Durations in milliseconds of every span with the given name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::ms).collect()
    }

    /// Write the log as JSON lines, times in microseconds since `origin`.
    pub fn write_jsonl(&self, path: &Path, origin: Instant) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let micros = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let seq = span.seq.map_or("null".to_string(), |s| s.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"seq\":{seq}}}",
                span.name,
                micros(span.start),
                micros(span.end),
            )?;
        }
        out.flush()
    }
}

/// The pipeline stages the program times itself
/// (`dquag_stage_duration_seconds`): decode in the listener, queue wait and
/// emit in the engine, encoding (`graph_build`), forward and verdict in the
/// validator. They do not overlap.
const STAGES: [&str; 6] = [
    "decode",
    "queue_wait",
    "graph_build",
    "forward",
    "verdict",
    "emit",
];

/// Seconds the program's own stage spans add up to, read from a Prometheus
/// exposition.
pub fn stage_seconds(exposition: &str) -> f64 {
    STAGES
        .iter()
        .filter_map(|stage| {
            prometheus_counter(
                exposition,
                &format!("dquag_stage_duration_seconds_sum{{stage=\"{stage}\"}}"),
            )
        })
        .sum()
}

/// Share of `measured_s` — time the benchmark measured from outside, such
/// as served latency — that the program's own stage spans, summed over
/// `expositions`, do not account for. The two clocks are independent, so
/// the share shows real gaps: framing, backpressure waits, self-checks,
/// verdict mapping.
pub fn unattributed_share(measured_s: f64, expositions: &[&str]) -> f64 {
    let staged: f64 = expositions.iter().map(|text| stage_seconds(text)).sum();
    1.0 - staged / measured_s
}

/// Start/end of served `validate` calls, indexed by call number. With one
/// engine replica the engine judges batches in seq order, so call `k` is
/// the batch with seq `k`.
#[derive(Debug, Default)]
pub struct BusyLog {
    calls: AtomicU64,
    spans: Mutex<Vec<(u64, Instant, Instant)>>,
}

impl BusyLog {
    /// The recorded `(call, start, end)` triples.
    pub fn take(&self) -> Vec<(u64, Instant, Instant)> {
        std::mem::take(&mut *self.spans.lock().expect("busy log poisoned"))
    }
}

/// Forwards every [`Validator`] method to the wrapped validator and times
/// `validate`.
pub struct TimedValidator {
    inner: Box<dyn Validator>,
    log: Arc<BusyLog>,
}

impl TimedValidator {
    /// Wrap `inner`, recording into `log`.
    pub fn new(inner: Box<dyn Validator>, log: Arc<BusyLog>) -> Self {
        Self { inner, log }
    }
}

impl Validator for TimedValidator {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn fit(&mut self, clean: &DataFrame) -> Result<FitReport> {
        self.inner.fit(clean)
    }

    fn validate(&self, batch: &DataFrame) -> Result<Verdict> {
        let call = self.log.calls.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let verdict = self.inner.validate(batch);
        let end = Instant::now();
        self.log
            .spans
            .lock()
            .expect("busy log poisoned")
            .push((call, start, end));
        verdict
    }

    fn repair(&self, batch: &DataFrame, verdict: &Verdict) -> Result<Option<DataFrame>> {
        self.inner.repair(batch, verdict)
    }

    fn replicate(&self) -> Option<Box<dyn Validator>> {
        self.inner.replicate().map(|replica| {
            Box::new(TimedValidator::new(replica, Arc::clone(&self.log))) as Box<dyn Validator>
        })
    }

    fn attach_telemetry(&mut self, telemetry: &Arc<Telemetry>) {
        self.inner.attach_telemetry(telemetry);
    }

    fn health_check(&self) -> Result<()> {
        self.inner.health_check()
    }

    fn persisted_state(&self) -> Option<PersistedValidatorState> {
        self.inner.persisted_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_clamp_inverted_intervals() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        let mut log = SpanLog::default();
        let root = log.push("batch", at(0), at(100), None, Some(0));
        log.push("a", at(0), at(30), Some(root), Some(0));
        assert_eq!(log.durations_ms("a"), vec![30.0]);
        // An inverted interval is recorded as empty, not negative.
        log.push("d", at(50), at(40), Some(root), Some(0));
        assert_eq!(log.durations_ms("d"), vec![0.0]);
        assert_eq!(log.named("batch").count(), 1);
    }

    #[test]
    fn unattributed_share_reads_the_stage_sums() {
        let exposition = "# TYPE dquag_stage_duration_seconds histogram\n\
            dquag_stage_duration_seconds_bucket{stage=\"forward\",le=\"+Inf\"} 2\n\
            dquag_stage_duration_seconds_sum{stage=\"forward\"} 0.5\n\
            dquag_stage_duration_seconds_sum{stage=\"queue_wait\"} 0.25\n\
            dquag_stage_duration_seconds_sum{stage=\"decode\"} 0.15\n\
            dquag_other_seconds_sum{stage=\"verdict\"} 9\n";
        assert!((stage_seconds(exposition) - 0.9).abs() < 1e-12);
        assert!((unattributed_share(1.0, &[exposition]) - 0.1).abs() < 1e-12);
        assert!((unattributed_share(2.0, &[exposition, exposition]) - 0.1).abs() < 1e-12);
    }
}
