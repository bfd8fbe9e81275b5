//! The `telemetry` block of a deployment's configuration, and the bundle
//! it builds.

use crate::Telemetry;
use std::sync::Arc;

/// Observability settings: the metrics registry, per-stage span timing and
/// the bounded flight recorder.
///
/// `dquag-core` re-exports it as the `telemetry` block of `DquagConfig`:
/// one config describes a whole deployment, and whether that deployment
/// exposes `/metrics` or journals refit outcomes is part of its contract.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TelemetryConfig {
    /// Master switch. When off, no bundle is built and every instrumented
    /// hot path degrades to a single `Option` check.
    pub enabled: bool,
    /// Ring-buffer capacity of the flight recorder (events retained).
    pub flight_recorder_capacity: usize,
    /// Render the flight recorder to stderr whenever an error-class event
    /// (refit failure, quarantine, source error, deadline miss) is recorded.
    pub dump_on_error: bool,
    /// Data-plane telemetry: per-column drift gauges and the drift
    /// scoreboard.
    pub data: TelemetryDataConfig,
}

/// Data-plane telemetry settings: per-column drift gauges for the `top_k`
/// most drifted columns, plus the `GET /drift` scoreboard.
///
/// Off by default — pipeline telemetry alone carries no per-column series.
/// When enabled, the gauge family holds at most `top_k` columns, ranked by
/// drift ratio with hysteresis-guarded eviction, and is maintained on
/// every validated batch. The scoreboard ranks every column, so a column
/// outside the top K is still read at `GET /drift`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TelemetryDataConfig {
    /// Enable the data-plane layer (requires `telemetry.enabled`).
    pub enabled: bool,
    /// Gauge slots, ranked by drift ratio.
    pub top_k: usize,
}

impl Default for TelemetryDataConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            top_k: 8,
        }
    }
}

impl TelemetryDataConfig {
    /// Validate every field's range; the error names the offending field.
    pub fn validated(self) -> Result<Self, String> {
        if self.top_k == 0 {
            return Err("telemetry.data.top_k must be at least 1".to_string());
        }
        Ok(self)
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            flight_recorder_capacity: 256,
            dump_on_error: true,
            data: TelemetryDataConfig::default(),
        }
    }
}

impl TelemetryConfig {
    /// Validate every field's range; the error names the offending field.
    pub fn validated(self) -> Result<Self, String> {
        if self.flight_recorder_capacity == 0 {
            return Err("telemetry.flight_recorder_capacity must be at least 1".to_string());
        }
        let data = self.data.validated()?;
        Ok(Self { data, ..self })
    }

    /// Build the shared telemetry bundle this block describes, or `None`
    /// when disabled. One bundle is meant to be shared across the engine,
    /// sources, validators and the refit supervisor of one deployment.
    pub fn build(&self) -> Option<Arc<Telemetry>> {
        self.enabled.then(|| Telemetry::from_config(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_defaults_setters_and_build() {
        let c = TelemetryConfig::default();
        assert!(c.enabled);
        assert_eq!(c.flight_recorder_capacity, 256);
        assert!(c.dump_on_error);

        let telemetry = TelemetryConfig {
            flight_recorder_capacity: 32,
            dump_on_error: false,
            ..TelemetryConfig::default()
        }
        .validated()
        .expect("telemetry values in range");

        // The block builds the live bundle it describes — or nothing at all.
        let bundle = telemetry.build().expect("enabled block builds a bundle");
        assert_eq!(bundle.recorder().capacity(), 32);
        let off = TelemetryConfig {
            enabled: false,
            ..TelemetryConfig::default()
        };
        assert!(off.build().is_none());
    }

    #[test]
    fn telemetry_data_block_defaults_setters_and_build() {
        // Off by default: the built bundle has no data layer.
        let c = TelemetryConfig::default();
        assert!(!c.data.enabled);
        assert_eq!(c.data.top_k, 8);
        let bundle = c.build().expect("telemetry on by default");
        assert!(bundle.data().is_none());

        let telemetry = TelemetryConfig {
            data: TelemetryDataConfig {
                enabled: true,
                top_k: 3,
            },
            ..TelemetryConfig::default()
        }
        .validated()
        .expect("data values in range");
        let bundle = telemetry.build().expect("bundle builds");
        assert!(bundle.data().is_some());

        // The data block rides the config's serde round trip.
        let json = serde_json::to_string(&telemetry).unwrap();
        assert!(json.contains("\"top_k\":3"), "{json}");
        let back: TelemetryConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, telemetry);
    }
}
