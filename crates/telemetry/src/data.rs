//! Data-plane telemetry: per-column drift gauges for the top-K drifting
//! columns, and the ranked [`DriftScoreboard`] behind the listener's
//! `GET /drift` endpoint.
//!
//! Pipeline metrics say *that* batches are dirty; this module says *which
//! column* is drifting. The tension is cardinality: a 200-column table
//! must not mint 600 Prometheus series. One policy bounds it, top-K with
//! hysteresis: at most `top_k` columns hold gauge slots at a time, ranked
//! by threshold ratio, and the family is maintained on every observed
//! batch. A challenger takes the weakest incumbent's slot only when its
//! ratio exceeds the incumbent's by the hysteresis factor, so two columns
//! oscillating around the same ratio don't churn series in and out of the
//! scrape.
//!
//! The in-memory scoreboard always tracks *every* column (bounded by the
//! schema width, not by `top_k`), so `GET /drift` ranks the full table,
//! and names any column an operator asks about, even when the scrape shows
//! only the top K.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::metrics::{Counter, Gauge, MetricsRegistry};

/// Gauge family holding per-column drift statistics
/// (`{column=…,stat="ks"|"psi"}`).
pub const COLUMN_DRIFT_METRIC: &str = "dquag_column_drift";
/// Gauge family holding each tracked column's threshold ratio
/// (`max(stat / threshold)`; > 1 means drifted).
pub const COLUMN_RATIO_METRIC: &str = "dquag_column_drift_threshold_ratio";

/// A challenger must beat the weakest incumbent's ratio by this factor to
/// evict it. Keeps near-ties from flapping series in and out of the
/// registry on every batch.
const EVICTION_HYSTERESIS: f64 = 1.25;

/// One column's drift statistics for one validated batch — the
/// telemetry-side mirror of the drift validator's per-column report.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDriftSample {
    /// Column name (becomes the `column` label).
    pub column: String,
    /// Two-sample Kolmogorov–Smirnov statistic, when the KS test ran.
    pub ks: Option<f64>,
    /// Population stability index, when the PSI test ran.
    pub psi: Option<f64>,
    /// Max statistic-to-threshold ratio across the tests that ran;
    /// > 1.0 means the column drifted on this batch.
    pub ratio: f64,
}

/// A column whose drift ratio rose above 1.0 on this observation —
/// surfaced so the owning bundle can journal a flight event.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftCrossingEvent {
    /// Column that started drifting.
    pub column: String,
    /// Its threshold ratio at the crossing.
    pub ratio: f64,
}

/// One column's row in the [`DriftScoreboard`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreboardColumn {
    /// Column name.
    pub column: String,
    /// Latest KS statistic, when the KS test ran.
    pub ks: Option<f64>,
    /// Latest PSI, when the PSI test ran.
    pub psi: Option<f64>,
    /// Latest threshold ratio (> 1.0 = drifted).
    pub ratio: f64,
    /// Whether the column was above threshold on its last observation.
    pub drifted: bool,
    /// Whether the column currently holds a gauge slot in the scrape.
    pub tracked: bool,
    /// Bundle uptime when the column was last observed.
    pub last_seen: Duration,
}

/// Ranked snapshot of every column the data-plane layer has seen,
/// rendered as JSON by `GET /drift`.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftScoreboard {
    /// Batches observed so far.
    pub batches: u64,
    /// Columns currently holding gauge slots.
    pub tracked: usize,
    /// Columns evicted from gauge slots so far.
    pub evicted: u64,
    /// Every column seen, ranked by threshold ratio, highest first.
    pub columns: Vec<ScoreboardColumn>,
}

impl DriftScoreboard {
    /// The top-ranked (most drifted) column, if any.
    pub fn top(&self) -> Option<&ScoreboardColumn> {
        self.columns.first()
    }

    /// The scoreboard as a JSON value (the `GET /drift` body).
    pub fn to_json(&self) -> serde::Value {
        let columns = self
            .columns
            .iter()
            .map(|c| {
                let mut row = BTreeMap::new();
                row.insert("column".to_string(), serde::Value::String(c.column.clone()));
                row.insert("ks".to_string(), optional_number(c.ks));
                row.insert("psi".to_string(), optional_number(c.psi));
                row.insert("ratio".to_string(), serde::Value::Number(c.ratio));
                row.insert("drifted".to_string(), serde::Value::Bool(c.drifted));
                row.insert("tracked".to_string(), serde::Value::Bool(c.tracked));
                row.insert(
                    "last_seen_s".to_string(),
                    serde::Value::Number(c.last_seen.as_secs_f64()),
                );
                serde::Value::Object(row)
            })
            .collect();
        let mut obj = BTreeMap::new();
        obj.insert(
            "batches".to_string(),
            serde::Value::Number(self.batches as f64),
        );
        obj.insert(
            "tracked_series".to_string(),
            serde::Value::Number(self.tracked as f64),
        );
        obj.insert(
            "evicted_total".to_string(),
            serde::Value::Number(self.evicted as f64),
        );
        obj.insert("columns".to_string(), serde::Value::Array(columns));
        serde::Value::Object(obj)
    }

    /// The scoreboard as a single-line JSON string.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string(&self.to_json()).expect("scoreboard serializes")
    }
}

fn optional_number(v: Option<f64>) -> serde::Value {
    match v {
        Some(v) => serde::Value::Number(v),
        None => serde::Value::Null,
    }
}

/// Gauge handles a tracked column holds; dropped (and the series removed
/// from the registry) on eviction.
struct ColumnGauges {
    ks: Option<Arc<Gauge>>,
    psi: Option<Arc<Gauge>>,
    ratio: Arc<Gauge>,
}

/// Everything remembered about one column.
struct ColumnState {
    ks: Option<f64>,
    psi: Option<f64>,
    ratio: f64,
    drifted: bool,
    last_seen: Duration,
    gauges: Option<ColumnGauges>,
}

struct DataState {
    columns: BTreeMap<String, ColumnState>,
    batches: u64,
    evicted: u64,
}

/// The data-plane telemetry layer: owns the bounded gauge family and the
/// scoreboard. Lives inside a [`Telemetry`](crate::Telemetry) bundle when
/// the `data` block is enabled; feed it via
/// [`Telemetry::observe_column_drift`](crate::Telemetry::observe_column_drift).
pub struct DataTelemetry {
    top_k: usize,
    tracked_gauge: Arc<Gauge>,
    evicted_counter: Arc<Counter>,
    state: Mutex<DataState>,
}

impl DataTelemetry {
    /// Build the layer with `top_k` gauge slots (at least one) and register
    /// its two summary series.
    pub(crate) fn new(registry: &MetricsRegistry, top_k: usize) -> Self {
        Self {
            top_k: top_k.max(1),
            tracked_gauge: registry.gauge(
                "dquag_column_drift_tracked",
                "Columns currently holding per-column drift gauge slots",
            ),
            evicted_counter: registry.counter(
                "dquag_column_drift_evicted_total",
                "Columns evicted from drift gauge slots by the top-K policy",
            ),
            state: Mutex::new(DataState {
                columns: BTreeMap::new(),
                batches: 0,
                evicted: 0,
            }),
        }
    }

    /// Fold one batch's per-column statistics in: update the scoreboard,
    /// detect threshold crossings, and maintain the gauge family. Returns
    /// the columns that crossed above threshold on this observation.
    pub(crate) fn observe(
        &self,
        registry: &MetricsRegistry,
        uptime: Duration,
        samples: &[ColumnDriftSample],
    ) -> Vec<DriftCrossingEvent> {
        let mut state = self.state.lock().expect("data telemetry poisoned");
        state.batches += 1;
        let mut crossings = Vec::new();
        for sample in samples {
            let entry = state
                .columns
                .entry(sample.column.clone())
                .or_insert_with(|| ColumnState {
                    ks: None,
                    psi: None,
                    ratio: 0.0,
                    drifted: false,
                    last_seen: uptime,
                    gauges: None,
                });
            let drifted = sample.ratio > 1.0;
            if drifted && !entry.drifted {
                crossings.push(DriftCrossingEvent {
                    column: sample.column.clone(),
                    ratio: sample.ratio,
                });
            }
            entry.ks = sample.ks;
            entry.psi = sample.psi;
            entry.ratio = sample.ratio;
            entry.drifted = drifted;
            entry.last_seen = uptime;
        }

        self.maintain_gauges(registry, &mut state, samples);
        let tracked = state
            .columns
            .values()
            .filter(|c| c.gauges.is_some())
            .count();
        self.tracked_gauge.set(tracked as f64);
        crossings
    }

    /// Update tracked columns' gauges and apply top-K admission and
    /// eviction for this batch's samples.
    fn maintain_gauges(
        &self,
        registry: &MetricsRegistry,
        state: &mut DataState,
        samples: &[ColumnDriftSample],
    ) {
        // Incumbents first: refresh their values (column_drift reports
        // every reference column each batch, so evictable incumbents never
        // go stale).
        for sample in samples {
            if let Some(entry) = state.columns.get_mut(&sample.column) {
                if entry.gauges.is_some() {
                    set_gauges(entry, sample);
                }
            }
        }
        // Challengers strongest-first: fill free slots, then evict only past
        // the hysteresis guard. Once the strongest remaining challenger
        // can't beat the weakest incumbent, none can.
        let mut challengers: Vec<&ColumnDriftSample> = samples
            .iter()
            .filter(|s| {
                state
                    .columns
                    .get(&s.column)
                    .is_none_or(|c| c.gauges.is_none())
            })
            .collect();
        challengers.sort_by(|a, b| {
            b.ratio
                .partial_cmp(&a.ratio)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for sample in challengers {
            let tracked: Vec<(String, f64)> = state
                .columns
                .iter()
                .filter(|(_, c)| c.gauges.is_some())
                .map(|(name, c)| (name.clone(), c.ratio))
                .collect();
            if tracked.len() < self.top_k {
                self.admit(registry, state, sample);
                continue;
            }
            let (weakest, weakest_ratio) = tracked
                .into_iter()
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("top_k >= 1 tracked columns");
            if sample.ratio > weakest_ratio * EVICTION_HYSTERESIS {
                self.evict(registry, state, &weakest);
                self.admit(registry, state, sample);
            } else {
                break;
            }
        }
    }

    fn admit(&self, registry: &MetricsRegistry, state: &mut DataState, sample: &ColumnDriftSample) {
        let entry = state
            .columns
            .get_mut(&sample.column)
            .expect("sample folded into scoreboard above");
        entry.gauges = Some(register_gauges(registry, sample));
        set_gauges(entry, sample);
    }

    fn evict(&self, registry: &MetricsRegistry, state: &mut DataState, column: &str) {
        let entry = state
            .columns
            .get_mut(column)
            .expect("evictee is a tracked column");
        let gauges = entry.gauges.take().expect("evictee holds gauges");
        if gauges.ks.is_some() {
            registry.remove_series(COLUMN_DRIFT_METRIC, &[("column", column), ("stat", "ks")]);
        }
        if gauges.psi.is_some() {
            registry.remove_series(COLUMN_DRIFT_METRIC, &[("column", column), ("stat", "psi")]);
        }
        registry.remove_series(COLUMN_RATIO_METRIC, &[("column", column)]);
        state.evicted += 1;
        self.evicted_counter.inc();
    }

    /// Ranked snapshot of every column seen so far.
    pub fn scoreboard(&self) -> DriftScoreboard {
        let state = self.state.lock().expect("data telemetry poisoned");
        let mut columns: Vec<ScoreboardColumn> = state
            .columns
            .iter()
            .map(|(name, c)| ScoreboardColumn {
                column: name.clone(),
                ks: c.ks,
                psi: c.psi,
                ratio: c.ratio,
                drifted: c.drifted,
                tracked: c.gauges.is_some(),
                last_seen: c.last_seen,
            })
            .collect();
        columns.sort_by(|a, b| {
            b.ratio
                .partial_cmp(&a.ratio)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.column.cmp(&b.column))
        });
        DriftScoreboard {
            batches: state.batches,
            tracked: columns.iter().filter(|c| c.tracked).count(),
            evicted: state.evicted,
            columns,
        }
    }
}

impl std::fmt::Debug for DataTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let board = self.scoreboard();
        f.debug_struct("DataTelemetry")
            .field("top_k", &self.top_k)
            .field("columns", &board.columns.len())
            .field("tracked", &board.tracked)
            .field("evicted", &board.evicted)
            .finish()
    }
}

fn register_gauges(registry: &MetricsRegistry, sample: &ColumnDriftSample) -> ColumnGauges {
    let column = sample.column.as_str();
    ColumnGauges {
        ks: sample.ks.map(|_| {
            registry.gauge_with(
                COLUMN_DRIFT_METRIC,
                "Per-column drift statistic on the latest validated batch",
                &[("column", column), ("stat", "ks")],
            )
        }),
        psi: sample.psi.map(|_| {
            registry.gauge_with(
                COLUMN_DRIFT_METRIC,
                "Per-column drift statistic on the latest validated batch",
                &[("column", column), ("stat", "psi")],
            )
        }),
        ratio: registry.gauge_with(
            COLUMN_RATIO_METRIC,
            "Per-column max statistic-to-threshold ratio (> 1 = drifted)",
            &[("column", column)],
        ),
    }
}

fn set_gauges(entry: &mut ColumnState, sample: &ColumnDriftSample) {
    let gauges = entry.gauges.as_ref().expect("set_gauges on tracked column");
    if let (Some(g), Some(ks)) = (&gauges.ks, sample.ks) {
        g.set(ks);
    }
    if let (Some(g), Some(psi)) = (&gauges.psi, sample.psi) {
        g.set(psi);
    }
    gauges.ratio.set(sample.ratio);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(column: &str, ratio: f64) -> ColumnDriftSample {
        ColumnDriftSample {
            column: column.to_string(),
            ks: Some(ratio * 0.1),
            psi: None,
            ratio,
        }
    }

    fn ratio_series(registry: &MetricsRegistry) -> Vec<String> {
        registry
            .render_prometheus()
            .lines()
            .filter(|l| l.starts_with(&format!("{COLUMN_RATIO_METRIC}{{")))
            .map(|l| l.to_string())
            .collect()
    }

    fn observe(
        data: &DataTelemetry,
        registry: &MetricsRegistry,
        samples: &[ColumnDriftSample],
    ) -> Vec<DriftCrossingEvent> {
        data.observe(registry, Duration::from_secs(1), samples)
    }

    #[test]
    fn top_k_admits_by_rank_and_reports_crossings() {
        let registry = MetricsRegistry::new();
        let data = DataTelemetry::new(&registry, 2);
        let crossings = observe(
            &data,
            &registry,
            &[sample("a", 0.2), sample("b", 2.0), sample("c", 3.0)],
        );
        assert_eq!(
            crossings,
            vec![
                DriftCrossingEvent {
                    column: "b".into(),
                    ratio: 2.0
                },
                DriftCrossingEvent {
                    column: "c".into(),
                    ratio: 3.0
                },
            ]
        );
        let series = ratio_series(&registry);
        assert_eq!(series.len(), 2, "{series:?}");
        assert!(series.iter().any(|l| l.contains("column=\"b\"")));
        assert!(series.iter().any(|l| l.contains("column=\"c\"")));

        // A still-drifted column does not re-cross; a recovered-then-
        // drifted one does.
        let crossings = observe(&data, &registry, &[sample("b", 1.5), sample("c", 0.5)]);
        assert!(crossings.is_empty());
        let crossings = observe(&data, &registry, &[sample("c", 4.0)]);
        assert_eq!(crossings.len(), 1);
        assert_eq!(crossings[0].column, "c");
    }

    #[test]
    fn hysteresis_blocks_marginal_evictions() {
        let registry = MetricsRegistry::new();
        let data = DataTelemetry::new(&registry, 1);
        observe(&data, &registry, &[sample("a", 2.0)]);
        // 10% better is inside the hysteresis band: no churn.
        observe(&data, &registry, &[sample("a", 2.0), sample("b", 2.2)]);
        let series = ratio_series(&registry);
        assert_eq!(series.len(), 1);
        assert!(series[0].contains("column=\"a\""), "{series:?}");
        assert_eq!(data.scoreboard().evicted, 0);
        // Decisively better: the slot changes hands.
        observe(&data, &registry, &[sample("a", 2.0), sample("b", 3.0)]);
        let series = ratio_series(&registry);
        assert_eq!(series.len(), 1);
        assert!(series[0].contains("column=\"b\""), "{series:?}");
        assert_eq!(data.scoreboard().evicted, 1);
    }

    #[test]
    fn seeded_churn_never_exceeds_k_and_readmits_returners() {
        // 200-column table; each round a rotating window of 6 columns
        // drifts hard while everything else idles near zero. The gauge
        // family must never exceed K series, and a drifter that went
        // quiet must win a slot back when it returns.
        let registry = MetricsRegistry::new();
        const K: usize = 5;
        let data = DataTelemetry::new(&registry, K);
        let columns: Vec<String> = (0..200).map(|i| format!("col_{i:03}")).collect();
        // Deterministic xorshift so the "random" idle ratios are seeded.
        let mut rng_state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state >> 11) as f64 / (1u64 << 53) as f64
        };
        for round in 0..40usize {
            let drift_start = (round * 6) % 200;
            let samples: Vec<ColumnDriftSample> = columns
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let offset = (i + 200 - drift_start) % 200;
                    let ratio = if offset < 6 {
                        2.0 + rng() + offset as f64 * 0.3
                    } else {
                        rng() * 0.3
                    };
                    ColumnDriftSample {
                        column: name.clone(),
                        ks: Some(ratio * 0.05),
                        psi: Some(ratio * 0.02),
                        ratio,
                    }
                })
                .collect();
            observe(&data, &registry, &samples);
            let ratios = ratio_series(&registry);
            assert!(
                ratios.len() <= K,
                "round {round}: {} ratio series exceeds K={K}",
                ratios.len()
            );
            let drift_lines: Vec<String> = registry
                .render_prometheus()
                .lines()
                .filter(|l| l.starts_with(&format!("{COLUMN_DRIFT_METRIC}{{")))
                .map(String::from)
                .collect();
            assert!(
                drift_lines.len() <= 2 * K,
                "round {round}: {} stat series exceeds 2K",
                drift_lines.len()
            );
            // The current heaviest drifters hold the slots.
            let board = data.scoreboard();
            assert!(board.top().unwrap().tracked, "round {round}");
            assert!(board.tracked <= K);
        }
        assert!(data.scoreboard().evicted > 0, "rotation must have churned");

        // A long-gone drifter returns and re-takes a slot.
        let returning = "col_000";
        let mut samples: Vec<ColumnDriftSample> =
            columns.iter().map(|name| sample(name, 0.1)).collect();
        samples[0] = sample(returning, 8.0);
        observe(&data, &registry, &samples);
        let series = ratio_series(&registry);
        assert!(series.len() <= K);
        assert!(
            series.iter().any(|l| l.contains("col_000")),
            "returning drifter must be re-admitted: {series:?}"
        );
    }

    #[test]
    fn scoreboard_json_is_ranked_and_parseable() {
        let registry = MetricsRegistry::new();
        let data = DataTelemetry::new(&registry, 8);
        observe(&data, &registry, &[sample("low", 0.4), sample("high", 2.5)]);
        let json = data.scoreboard().to_json_string();
        let value: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let obj = value.as_object().expect("object");
        assert_eq!(obj["batches"].as_f64(), Some(1.0));
        let columns = obj["columns"].as_array().expect("columns array");
        assert_eq!(columns.len(), 2);
        let first = columns[0].as_object().expect("column row");
        assert_eq!(first["column"].as_str(), Some("high"));
        assert_eq!(first["drifted"], serde::Value::Bool(true));
        assert!(matches!(first["psi"], serde::Value::Null));
    }
}
