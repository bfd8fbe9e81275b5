//! The metrics registry: lock-cheap counters, gauges and log-bucketed
//! histograms, with Prometheus text-format exposition.
//!
//! Registration (cold path) goes through one mutex; the handles it returns
//! are `Arc`s over atomics, so the hot path — a worker bumping a counter or
//! recording a latency — is a handful of relaxed atomic operations and never
//! blocks. Registering the same `(name, labels)` pair twice returns the
//! existing handle, so independent subsystems (an engine and the listener in
//! front of it, two generations of swap-spawned workers) can share series
//! without coordinating.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonically increasing counter (`_total` series).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that goes up and down (queue depth, generation).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the gauge to `value`.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Sub-buckets per power-of-two octave: bucket width is at most a quarter of
/// the value, so a percentile reconstructed from bucket midpoints lands
/// within one bucket width of the exact sample percentile.
const SUB_BUCKETS: u64 = 4;
/// 64 octaves (1 ns up to `u64::MAX` ns ≈ 584 years) × 4 sub-buckets.
const N_BUCKETS: usize = 64 * SUB_BUCKETS as usize;

/// A log-bucketed latency histogram over nanosecond durations.
///
/// Fixed storage (256 atomic buckets ≈ 2 KiB), lock-free recording, and
/// percentile reconstruction accurate to one bucket width — the bucket
/// boundaries sit at `2^o · (4+s)/4`, so relative resolution is ≤ 25%
/// everywhere on the latency axis, from nanoseconds to minutes.
pub struct Histogram {
    counts: Box<[AtomicU64; N_BUCKETS]>,
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // No Default for [AtomicU64; 256]; build through a Vec once.
        let counts: Vec<AtomicU64> = (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let counts: Box<[AtomicU64; N_BUCKETS]> = counts
            .into_boxed_slice()
            .try_into()
            .expect("N_BUCKETS entries were just built");
        Self {
            counts,
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one duration observation.
    pub fn record(&self, value: Duration) {
        let nanos = value.as_nanos().min(u64::MAX as u128) as u64;
        self.counts[Self::bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded observations.
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_nanos.load(Ordering::Relaxed))
    }

    /// Bucket index of a nanosecond value: octave (floor log₂) × 4 plus the
    /// linear position within the octave.
    fn bucket_index(nanos: u64) -> usize {
        let v = nanos.max(1);
        let octave = 63 - v.leading_zeros() as u64;
        let sub = if octave >= 2 {
            (v >> (octave - 2)) - SUB_BUCKETS
        } else {
            (v << (2 - octave)) - SUB_BUCKETS
        };
        (octave * SUB_BUCKETS + sub) as usize
    }

    /// `(lower, upper)` nanosecond bounds of the bucket a value falls
    /// into — the resolution limit of any percentile reconstruction at
    /// that latency.
    pub fn bucket_for(nanos: u64) -> (u64, u64) {
        Self::bucket_bounds(Self::bucket_index(nanos))
    }

    /// `(lower, upper]` nanosecond bounds of bucket `index`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        let octave = (index as u64) / SUB_BUCKETS;
        let sub = (index as u64) % SUB_BUCKETS;
        let scale = |steps: u128| -> u64 {
            let wide = (steps << octave) / SUB_BUCKETS as u128;
            wide.min(u64::MAX as u128) as u64
        };
        (
            scale((SUB_BUCKETS + sub) as u128),
            scale((SUB_BUCKETS + sub + 1) as u128),
        )
    }

    /// Reconstruct the `q`-quantile (`0.0 ..= 1.0`) from the buckets: find
    /// the bucket holding the rank-`⌊q·(n−1)⌉` observation and return its
    /// midpoint. Exact to one bucket width (≤ 25% of the value) by
    /// construction. Zero when nothing has been recorded.
    pub fn percentile(&self, q: f64) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        let rank = ((n - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (index, bucket) in self.counts.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen > rank {
                let (lower, upper) = Self::bucket_bounds(index);
                return Duration::from_nanos(lower.midpoint(upper));
            }
        }
        // Racing recorders can leave `count` ahead of the bucket sum for an
        // instant; fall back to the largest non-empty bucket.
        Duration::from_nanos(u64::MAX)
    }

    /// Non-empty buckets as `(upper_bound, cumulative_count)` pairs, the
    /// shape Prometheus `_bucket{le=…}` series need.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (index, bucket) in self.counts.iter().enumerate() {
            let c = bucket.load(Ordering::Relaxed);
            if c > 0 {
                cumulative += c;
                out.push((Self::bucket_bounds(index).1, cumulative));
            }
        }
        out
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("p50", &self.percentile(0.50))
            .field("p99", &self.percentile(0.99))
            .finish()
    }
}

/// Label pairs attached to one series, e.g. `[("policy", "reject")]`.
pub type Labels = Vec<(String, String)>;

/// What kind of metric a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum MetricHandle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One metric name: its help text, kind, and every labelled series.
struct Family {
    help: String,
    kind: MetricKind,
    series: BTreeMap<String, MetricHandle>,
}

/// The process-wide registry every subsystem registers its series into.
///
/// The header of `metrics.rs` tells the locking story. Rendering walks the
/// registry under the registration mutex but only reads atomics, so a scrape
/// never stalls a recording hot path.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Register (or look up) a labelled counter.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, MetricKind::Counter, labels, || {
            MetricHandle::Counter(Arc::new(Counter::default()))
        }) {
            MetricHandle::Counter(c) => c,
            _ => unreachable!("kind checked during registration"),
        }
    }

    /// Register (or look up) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Register (or look up) a labelled gauge.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, MetricKind::Gauge, labels, || {
            MetricHandle::Gauge(Arc::new(Gauge::default()))
        }) {
            MetricHandle::Gauge(g) => g,
            _ => unreachable!("kind checked during registration"),
        }
    }

    /// Register (or look up) an unlabelled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Register (or look up) a labelled histogram.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.register(name, help, MetricKind::Histogram, labels, || {
            MetricHandle::Histogram(Arc::new(Histogram::new()))
        }) {
            MetricHandle::Histogram(h) => h,
            _ => unreachable!("kind checked during registration"),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        build: impl FnOnce() -> MetricHandle,
    ) -> MetricHandle {
        let label_key = render_labels(labels);
        let mut families = self.families.lock().expect("metrics registry poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind,
            kind,
            "metric `{name}` registered as {} and again as {}",
            family.kind.as_str(),
            kind.as_str()
        );
        family.series.entry(label_key).or_insert_with(build).clone()
    }

    /// Remove one labelled series — and its family, once empty — so
    /// bounded-cardinality emitters can retire a series from the scrape
    /// instead of leaving a stale value behind. Returns whether the series
    /// existed. Handles already held stay usable; they just stop rendering.
    pub fn remove_series(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        let label_key = render_labels(labels);
        let mut families = self.families.lock().expect("metrics registry poisoned");
        let Some(family) = families.get_mut(name) else {
            return false;
        };
        let removed = family.series.remove(&label_key).is_some();
        if family.series.is_empty() {
            families.remove(name);
        }
        removed
    }

    /// Number of distinct series (name + label combination) registered.
    pub fn series_count(&self) -> usize {
        let families = self.families.lock().expect("metrics registry poisoned");
        families.values().map(|f| f.series.len()).sum()
    }

    /// Render the whole registry in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` comments followed by one line
    /// per series, histograms expanded into cumulative `_bucket{le=…}`,
    /// `_sum` and `_count` series with bounds in seconds.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&family.help)));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.as_str()));
            for (label_key, handle) in &family.series {
                match handle {
                    MetricHandle::Counter(c) => {
                        out.push_str(&format!("{name}{label_key} {}\n", c.get()));
                    }
                    MetricHandle::Gauge(g) => {
                        out.push_str(&format!("{name}{label_key} {}\n", format_value(g.get())));
                    }
                    MetricHandle::Histogram(h) => {
                        for (upper_nanos, cumulative) in h.cumulative_buckets() {
                            let le = format_value(upper_nanos as f64 / 1e9);
                            out.push_str(&format!(
                                "{name}_bucket{} {cumulative}\n",
                                merge_labels(label_key, &format!("le=\"{le}\""))
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_bucket{} {}\n",
                            merge_labels(label_key, "le=\"+Inf\""),
                            h.count()
                        ));
                        out.push_str(&format!(
                            "{name}_sum{label_key} {}\n",
                            format_value(h.sum().as_secs_f64())
                        ));
                        out.push_str(&format!("{name}_count{label_key} {}\n", h.count()));
                    }
                }
            }
        }
        out
    }

    /// A compact JSON snapshot of every series, for the structured-log
    /// emitter: counters and gauges as numbers, histograms as
    /// `{count, p50_s, p99_s}` objects.
    pub fn snapshot_json(&self) -> serde::Value {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut map = BTreeMap::new();
        for (name, family) in families.iter() {
            for (label_key, handle) in &family.series {
                let key = format!("{name}{label_key}");
                let value = match handle {
                    MetricHandle::Counter(c) => serde::Value::Number(c.get() as f64),
                    MetricHandle::Gauge(g) => serde::Value::Number(g.get()),
                    MetricHandle::Histogram(h) => {
                        let mut inner = BTreeMap::new();
                        inner.insert("count".to_string(), serde::Value::Number(h.count() as f64));
                        inner.insert(
                            "p50_s".to_string(),
                            serde::Value::Number(h.percentile(0.50).as_secs_f64()),
                        );
                        inner.insert(
                            "p99_s".to_string(),
                            serde::Value::Number(h.percentile(0.99).as_secs_f64()),
                        );
                        serde::Value::Object(inner)
                    }
                };
                map.insert(key, value);
            }
        }
        serde::Value::Object(map)
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("series", &self.series_count())
            .finish()
    }
}

/// `[("a","b")]` → `{a="b"}`; empty slice → empty string.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Merge a rendered label set with one extra `k="v"` pair (for `le`).
fn merge_labels(rendered: &str, extra: &str) -> String {
    if rendered.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{},{extra}}}", &rendered[..rendered.len() - 1])
    }
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Floats without the noise: integral values print without a fraction, the
/// rest keep shortest-round-trip formatting.
fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_idempotently() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("dquag_test_total", "help");
        let b = registry.counter("dquag_test_total", "help");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same handle behind both registrations");
        assert_eq!(registry.series_count(), 1);

        let g = registry.gauge_with("dquag_depth", "help", &[("side", "in")]);
        g.set(4.5);
        assert_eq!(
            registry
                .gauge_with("dquag_depth", "help", &[("side", "in")])
                .get(),
            4.5
        );
        // A different label set is a different series.
        registry.gauge_with("dquag_depth", "help", &[("side", "out")]);
        assert_eq!(registry.series_count(), 3);
    }

    #[test]
    fn removed_series_leave_the_scrape_and_can_reregister() {
        let registry = MetricsRegistry::new();
        registry
            .gauge_with("dquag_col", "help", &[("column", "a")])
            .set(1.0);
        registry
            .gauge_with("dquag_col", "help", &[("column", "b")])
            .set(2.0);
        assert!(registry.remove_series("dquag_col", &[("column", "a")]));
        assert!(
            !registry.remove_series("dquag_col", &[("column", "a")]),
            "second removal is a no-op"
        );
        assert_eq!(registry.series_count(), 1);
        let text = registry.render_prometheus();
        assert!(!text.contains("column=\"a\""));
        assert!(text.contains("dquag_col{column=\"b\"} 2"));

        // Removing the last series drops the family (no orphan HELP/TYPE).
        assert!(registry.remove_series("dquag_col", &[("column", "b")]));
        assert!(!registry.render_prometheus().contains("dquag_col"));
        assert!(!registry.remove_series("dquag_col", &[("column", "b")]));

        // A retired series can come back with a fresh handle.
        registry
            .gauge_with("dquag_col", "help", &[("column", "a")])
            .set(3.0);
        assert!(registry
            .render_prometheus()
            .contains("dquag_col{column=\"a\"} 3"));
    }

    #[test]
    #[should_panic(expected = "registered as counter")]
    fn kind_conflicts_are_rejected() {
        let registry = MetricsRegistry::new();
        registry.counter("dquag_conflict", "help");
        registry.gauge("dquag_conflict", "help");
    }

    #[test]
    fn histogram_buckets_partition_the_axis() {
        // Every nanosecond value lands in exactly one bucket whose bounds
        // contain it.
        for v in [1u64, 2, 3, 4, 5, 7, 8, 100, 1_000, 123_456, u64::MAX / 2] {
            let index = Histogram::bucket_index(v);
            let (lower, upper) = Histogram::bucket_bounds(index);
            assert!(
                lower <= v && v < upper.max(lower + 1),
                "value {v} outside bucket {index} bounds [{lower}, {upper})"
            );
        }
        // Consecutive buckets tile without gaps across several octaves.
        for index in 0..60 {
            let (_, upper) = Histogram::bucket_bounds(index);
            let (next_lower, _) = Histogram::bucket_bounds(index + 1);
            assert!(
                upper == next_lower || upper <= next_lower,
                "bucket {index} upper {upper} vs next lower {next_lower}"
            );
        }
    }

    #[test]
    fn histogram_percentiles_track_recorded_values() {
        let h = Histogram::new();
        for ms in 1..=1000u64 {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile(0.50).as_secs_f64();
        let p99 = h.percentile(0.99).as_secs_f64();
        // Bucket resolution is 25%: the reconstructions must land within
        // that of the exact percentiles (0.5 s and 0.99 s).
        assert!((p50 - 0.5).abs() / 0.5 < 0.25, "p50 {p50}");
        assert!((p99 - 0.99).abs() / 0.99 < 0.25, "p99 {p99}");
        assert!(h.percentile(0.0) <= h.percentile(1.0));
        assert_eq!(Histogram::new().percentile(0.5), Duration::ZERO);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let registry = MetricsRegistry::new();
        registry.counter("dquag_a_total", "a counter").add(7);
        registry
            .gauge_with("dquag_b", "a gauge", &[("kind", "x")])
            .set(2.5);
        let h = registry.histogram("dquag_lat_seconds", "latency");
        h.record(Duration::from_millis(3));
        h.record(Duration::from_millis(30));

        let text = registry.render_prometheus();
        assert!(text.contains("# HELP dquag_a_total a counter"));
        assert!(text.contains("# TYPE dquag_a_total counter"));
        assert!(text.contains("dquag_a_total 7"));
        assert!(text.contains("dquag_b{kind=\"x\"} 2.5"));
        assert!(text.contains("# TYPE dquag_lat_seconds histogram"));
        assert!(text.contains("dquag_lat_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("dquag_lat_seconds_count 2"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("space-separated");
            assert!(!series.is_empty());
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "unparseable value in `{line}`"
            );
        }
    }

    #[test]
    fn snapshot_json_covers_every_series() {
        let registry = MetricsRegistry::new();
        registry.counter("dquag_a_total", "a").inc();
        registry
            .histogram("dquag_lat_seconds", "l")
            .record(Duration::from_millis(5));
        let snapshot = registry.snapshot_json();
        let map = snapshot.as_object().expect("object snapshot");
        assert_eq!(map.len(), 2);
        assert!(map.contains_key("dquag_a_total"));
        let hist = map["dquag_lat_seconds"].as_object().expect("histogram");
        assert!(hist.contains_key("p99_s"));
    }
}
