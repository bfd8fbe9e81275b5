//! # dquag-telemetry — observability for the DQuaG validation pipeline
//!
//! Hand-rolled (no external deps beyond the vendored stand-ins) and built
//! around one [`Telemetry`] bundle that every subsystem shares by `Arc`:
//!
//! - a [`MetricsRegistry`] of lock-cheap counters, gauges, and
//!   log-bucketed [`Histogram`]s with p50/p90/p99/p999 reconstruction,
//!   rendered in Prometheus text format by [`Telemetry::prometheus`];
//! - per-[`Stage`] span timing ([`Telemetry::time_stage`]) so an
//!   end-to-end p99 decomposes into decode / graph build / forward /
//!   verdict / queue wait / emit;
//! - an always-on bounded [`FlightRecorder`] of lifecycle events (swaps,
//!   refit outcomes, drops, checkpoint writes, replica quarantines,
//!   deadline misses), dumpable on demand and automatically on error;
//! - an opt-in data layer ([`TelemetryDataConfig`]): per-column drift
//!   gauges for the top-K drifting columns and the ranked
//!   [`DriftScoreboard`] behind `GET /drift`.
//!
//! Telemetry leaves the process one way: the Prometheus text of
//! [`Telemetry::prometheus`] (the listener's `GET /metrics`), beside the
//! `GET /drift` scoreboard. A deployment without a scraper prints
//! `prometheus()` on its own timer; the bundle starts no thread.
//!
//! A deployment describes its bundle in one [`TelemetryConfig`] (the
//! `telemetry` block of `DquagConfig`, which `dquag-core` re-exports) and
//! builds it with [`TelemetryConfig::build`], which returns `None` when the
//! block is disabled; [`Telemetry::new`] is the default block's bundle.
//!
//! The design rule throughout: registration and scrapes take a mutex,
//! recording on the hot path is relaxed atomics only. The stream engine
//! always counts, because its statistics are read from its own series;
//! every other integration point is an `Option<Arc<Telemetry>>` checked
//! once per batch. Attaching a bundle adds export, stage spans and flight
//! events, which the `telemetry_overhead` bench holds to <3% throughput
//! cost.
//!
//! ```
//! use dquag_telemetry::{Stage, TelemetryConfig};
//!
//! let telemetry = TelemetryConfig {
//!     flight_recorder_capacity: 64,
//!     ..TelemetryConfig::default()
//! }
//! .build()
//! .expect("the block is enabled");
//! {
//!     let _span = telemetry.time_stage(Stage::Forward);
//!     // ... score a batch ...
//! }
//! telemetry.registry().counter("dquag_batches_total", "Batches seen").inc();
//! let text = telemetry.prometheus();
//! assert!(text.contains("dquag_batches_total 1"));
//! assert!(text.contains("dquag_stage_duration_seconds_count{stage=\"forward\"} 1"));
//! ```

mod config;
mod data;
mod metrics;
mod recorder;
mod stage;

pub use config::{TelemetryConfig, TelemetryDataConfig};
pub use data::{
    ColumnDriftSample, DataTelemetry, DriftScoreboard, ScoreboardColumn, COLUMN_DRIFT_METRIC,
    COLUMN_RATIO_METRIC,
};
pub use metrics::{Counter, Gauge, Histogram, Labels, MetricsRegistry};
pub use recorder::{FlightEvent, FlightEventKind, FlightRecorder};
pub use stage::{Stage, StageSpan};

use std::sync::Arc;
use std::time::{Duration, Instant};

/// The shared observability bundle: registry + flight recorder + the six
/// pre-registered stage histograms. Cheap to clone as `Arc<Telemetry>`;
/// every subsystem that accepts one records into the same series.
pub struct Telemetry {
    registry: MetricsRegistry,
    recorder: FlightRecorder,
    stages: [Arc<Histogram>; 6],
    data: Option<DataTelemetry>,
    started: Instant,
}

impl Telemetry {
    /// The bundle [`TelemetryConfig::default`] describes.
    pub fn new() -> Arc<Self> {
        Self::from_config(&TelemetryConfig::default())
    }

    /// The bundle `config` describes, whether or not it is enabled; callers
    /// go through [`TelemetryConfig::build`].
    fn from_config(config: &TelemetryConfig) -> Arc<Self> {
        let registry = MetricsRegistry::new();
        let stages = Stage::ALL.map(|stage| {
            registry.histogram_with(
                "dquag_stage_duration_seconds",
                "Wall time per pipeline stage",
                &[("stage", stage.label())],
            )
        });
        let data = config
            .data
            .enabled
            .then(|| DataTelemetry::new(&registry, config.data.top_k));
        Arc::new(Self {
            registry,
            recorder: FlightRecorder::new(config.flight_recorder_capacity, config.dump_on_error),
            stages,
            data,
            started: Instant::now(),
        })
    }

    /// The metrics registry, for subsystems registering their own series.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Time from construction — the clock flight events are stamped with.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Record a finished stage span.
    pub fn record_stage(&self, stage: Stage, elapsed: Duration) {
        self.stages[stage.index()].record(elapsed);
    }

    /// Start a drop-guard span for `stage` (creation → drop is recorded).
    pub fn time_stage(&self, stage: Stage) -> StageSpan<'_> {
        StageSpan::new(self, stage)
    }

    /// The histogram behind one stage's spans.
    pub fn stage_histogram(&self, stage: Stage) -> &Histogram {
        &self.stages[stage.index()]
    }

    /// Record a lifecycle event, stamped with the current uptime.
    pub fn event(&self, kind: FlightEventKind) {
        self.recorder.record(self.uptime(), kind);
    }

    /// The data-plane layer, when the `data` block is enabled.
    pub fn data(&self) -> Option<&DataTelemetry> {
        self.data.as_ref()
    }

    /// Fold one validated batch's per-column drift statistics into the
    /// data-plane layer: scoreboard, bounded gauge family, and one
    /// [`FlightEventKind::DriftCrossing`] per column whose ratio rose
    /// above threshold. A no-op when the layer is off.
    pub fn observe_column_drift(&self, samples: &[ColumnDriftSample]) {
        if let Some(data) = &self.data {
            for crossing in data.observe(&self.registry, self.uptime(), samples) {
                self.event(FlightEventKind::DriftCrossing {
                    column: crossing.column,
                    ratio: crossing.ratio,
                });
            }
        }
    }

    /// Ranked per-column drift snapshot, or `None` when the data-plane
    /// layer is off.
    pub fn drift_scoreboard(&self) -> Option<DriftScoreboard> {
        self.data.as_ref().map(DataTelemetry::scoreboard)
    }

    /// Render every registered series in Prometheus text format 0.0.4.
    pub fn prometheus(&self) -> String {
        self.registry.render_prometheus()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("series", &self.registry.series_count())
            .field("flight_events", &self.recorder.len())
            .field("uptime", &self.uptime())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_histograms_are_preregistered_as_one_family() {
        let telemetry = Telemetry::new();
        assert_eq!(telemetry.registry().series_count(), 6);
        telemetry.record_stage(Stage::Decode, Duration::from_micros(80));
        telemetry.record_stage(Stage::Emit, Duration::from_micros(10));
        let text = telemetry.prometheus();
        assert!(text.contains("# TYPE dquag_stage_duration_seconds histogram"));
        assert!(text.contains("dquag_stage_duration_seconds_count{stage=\"decode\"} 1"));
        assert!(text.contains("dquag_stage_duration_seconds_count{stage=\"emit\"} 1"));
        assert!(text.contains("dquag_stage_duration_seconds_count{stage=\"forward\"} 0"));
    }

    #[test]
    fn events_are_stamped_with_uptime() {
        let telemetry = TelemetryConfig {
            flight_recorder_capacity: 4,
            dump_on_error: false,
            ..TelemetryConfig::default()
        }
        .build()
        .expect("enabled block builds a bundle");
        telemetry.event(FlightEventKind::EngineStarted { replicas: 2 });
        std::thread::sleep(Duration::from_millis(2));
        telemetry.event(FlightEventKind::EngineClosed);
        let events = telemetry.recorder().dump();
        assert_eq!(events.len(), 2);
        assert!(events[1].uptime > events[0].uptime);
    }

    fn drift_sample(column: &str, ratio: f64) -> ColumnDriftSample {
        ColumnDriftSample {
            column: column.to_string(),
            ks: Some(ratio * 0.1),
            psi: None,
            ratio,
        }
    }

    #[test]
    fn observe_column_drift_is_a_noop_without_the_data_layer() {
        let telemetry = Telemetry::new();
        assert!(telemetry.data().is_none());
        telemetry.observe_column_drift(&[drift_sample("age", 5.0)]);
        assert!(telemetry.drift_scoreboard().is_none());
        assert!(telemetry.recorder().is_empty(), "no crossing events");
        assert_eq!(telemetry.registry().series_count(), 6);
    }

    #[test]
    fn data_layer_feeds_gauges_scoreboard_and_flight_events() {
        let telemetry = TelemetryConfig {
            dump_on_error: false,
            data: TelemetryDataConfig {
                enabled: true,
                top_k: 4,
            },
            ..TelemetryConfig::default()
        }
        .build()
        .expect("enabled block builds a bundle");
        telemetry.observe_column_drift(&[drift_sample("age", 2.0), drift_sample("fare", 0.3)]);
        let text = telemetry.prometheus();
        assert!(text.contains("dquag_column_drift{column=\"age\",stat=\"ks\"}"));
        assert!(text.contains("dquag_column_drift_threshold_ratio{column=\"age\"} 2"));
        assert!(text.contains("dquag_column_drift_tracked 2"));

        let board = telemetry.drift_scoreboard().expect("data layer is on");
        assert_eq!(board.top().unwrap().column, "age");

        let crossings: Vec<_> = telemetry
            .recorder()
            .dump()
            .into_iter()
            .filter(|e| e.kind.label() == "drift_crossing")
            .collect();
        assert_eq!(crossings.len(), 1);
        assert_eq!(
            crossings[0].kind,
            FlightEventKind::DriftCrossing {
                column: "age".into(),
                ratio: 2.0
            }
        );
    }
}
