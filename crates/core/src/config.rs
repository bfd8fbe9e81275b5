//! Pipeline configuration.

use dquag_gnn::ModelConfig;
use dquag_graph::FeatureGraph;
use dquag_telemetry::TelemetryConfig;
use std::path::PathBuf;
use std::time::Duration;

/// What a streaming producer experiences when the ingestion queue is full.
///
/// The policy is part of the deployment contract: a batch-ETL producer wants
/// [`Block`] (lossless, the producer absorbs the slowdown), a telemetry-style
/// producer wants [`DropNewest`] (freshness over completeness), and a
/// request/response front-end wants [`Reject`] (fail fast, let the caller
/// retry or shed load).
///
/// [`Block`]: BackpressurePolicy::Block
/// [`DropNewest`]: BackpressurePolicy::DropNewest
/// [`Reject`]: BackpressurePolicy::Reject
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum BackpressurePolicy {
    /// Block the producer until a queue slot frees up (lossless).
    #[default]
    Block,
    /// Silently drop the incoming batch and record it in the stream stats.
    DropNewest,
    /// Return immediately with a rejection the producer must handle.
    Reject,
}

/// Configuration of the streaming ingestion engine (`dquag-stream`).
///
/// Lives in the core config so one `DquagConfig` describes a whole
/// deployment: model, training, validation fan-out *and* the serving-side
/// queue discipline.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StreamConfig {
    /// Capacity of the bounded ingestion queue. The engine bounds its whole
    /// unemitted backlog — queued, in-flight and awaiting emission — at
    /// `queue_capacity + replicas`, so a slow consumer exerts backpressure
    /// just like slow workers do; submissions beyond the bound trigger the
    /// backpressure policy.
    pub queue_capacity: usize,
    /// Number of data-parallel validator replicas (worker threads) the
    /// engine shards batches across.
    pub replicas: usize,
    /// What producers experience when the queue is full.
    pub backpressure: BackpressurePolicy,
    /// Per-batch validation budget, measured from submission. A batch that
    /// misses it is reported as deadline-exceeded instead of stalling the
    /// verdict stream. `None` disables deadlines.
    pub batch_deadline: Option<Duration>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            replicas: 1,
            backpressure: BackpressurePolicy::Block,
            batch_deadline: None,
        }
    }
}

impl StreamConfig {
    /// Validate every field's range, returning the offending field on error.
    /// The single source of truth for streaming ranges: both
    /// [`DquagConfig::validated`] and the `dquag-stream` engine builder call
    /// this.
    pub fn validated(self) -> crate::Result<Self> {
        if self.queue_capacity == 0 {
            return Err(crate::CoreError::InvalidConfig(
                "stream.queue_capacity must be at least 1".to_string(),
            ));
        }
        if self.replicas == 0 {
            return Err(crate::CoreError::InvalidConfig(
                "stream.replicas must be at least 1".to_string(),
            ));
        }
        if self.batch_deadline == Some(Duration::ZERO) {
            return Err(crate::CoreError::InvalidConfig(
                "stream.batch_deadline must be nonzero when set".to_string(),
            ));
        }
        Ok(self)
    }
}

/// Durable checkpointing of the serving pipeline (`dquag-sources`).
///
/// When a path is set, the source runtime periodically serialises a
/// `Checkpoint` — per-source offsets plus the engine's cumulative
/// `StreamStats` — to that file (atomically, via a temp-file rename), and
/// again when it drains on shutdown. A restarted deployment restores the
/// checkpoint so sources resume where they left off and statistics continue
/// instead of resetting.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CheckpointConfig {
    /// Where the checkpoint JSON lives. `None` disables checkpointing.
    pub path: Option<PathBuf>,
    /// How often the background checkpointer persists a snapshot.
    pub interval: Duration,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self {
            path: None,
            interval: Duration::from_secs(5),
        }
    }
}

/// The serving edge's connection discipline (`dquag-sources`): how many
/// sockets the listener multiplexes, over how many worker threads, and how
/// long it lets them linger.
///
/// The listener is readiness-based: a small fixed pool of worker threads
/// drives every open connection off `poll(2)`-style readiness, so the
/// thread count is `workers` regardless of how many peers are connected.
/// Connections beyond [`max_connections`] are answered with a fast
/// `503 Service Unavailable` and closed — the gate degrades loudly under overload instead of growing a
/// thread per socket until something snaps.
///
/// [`max_connections`]: ServingConfig::max_connections
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServingConfig {
    /// Worker threads multiplexing all open connections. The listener's
    /// thread budget is exactly this, independent of connection count.
    pub workers: usize,
    /// Open-connection cap. Accepts beyond it are refused with a fast
    /// `503` reply and an `accept_overflow` flight event.
    pub max_connections: usize,
    /// HTTP requests served on one connection before the listener answers
    /// `Connection: close` and recycles the socket. A request that asks
    /// for `Connection: keep-alive` below the cap is answered in kind, so
    /// scrapers and producers reuse one socket for many requests; `1`
    /// serves every request on its own connection.
    pub max_requests_per_connection: usize,
    /// How long a connection may sit idle between requests (no bytes in
    /// either direction) before the listener closes it, and how long one
    /// request may take to arrive whole. From a request's first byte until
    /// its body is complete, reads do not restart the clock: a request
    /// still incomplete `idle_timeout` after its first byte is answered
    /// `408 Request Timeout` and the connection closes. At the default
    /// 30 s, a body of the default 16 MiB `max_frame_bytes` needs a client
    /// sending about 0.56 MB/s.
    pub idle_timeout: Duration,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_connections: 1024,
            max_requests_per_connection: 1000,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

impl ServingConfig {
    /// Validate every field's range, returning the offending field on error.
    pub fn validated(self) -> crate::Result<Self> {
        if self.workers == 0 {
            return Err(crate::CoreError::InvalidConfig(
                "source.serving.workers must be at least 1".to_string(),
            ));
        }
        if self.max_connections == 0 {
            return Err(crate::CoreError::InvalidConfig(
                "source.serving.max_connections must be at least 1".to_string(),
            ));
        }
        if self.max_requests_per_connection == 0 {
            return Err(crate::CoreError::InvalidConfig(
                "source.serving.max_requests_per_connection must be at least 1".to_string(),
            ));
        }
        if self.idle_timeout.is_zero() {
            return Err(crate::CoreError::InvalidConfig(
                "source.serving.idle_timeout must be nonzero".to_string(),
            ));
        }
        Ok(self)
    }
}

/// Configuration of the source-adapter layer (`dquag-sources`): the network
/// listener, the polling directory watcher and durable checkpointing.
///
/// Lives in the core config for the same reason [`StreamConfig`] does: one
/// `DquagConfig` describes a whole deployment, from model hyper-parameters
/// down to the socket the serving pipeline listens on.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SourceConfig {
    /// Address the HTTP ingestion listener binds, e.g. `127.0.0.1:7431`.
    /// Port `0` asks the OS for an ephemeral port (useful in tests).
    pub bind_addr: String,
    /// How long an idle source sleeps between polls (directory scans,
    /// accept-loop passes). Also bounds how quickly sources notice shutdown.
    pub poll_interval: Duration,
    /// Upper bound on one `POST /ingest` body, in bytes. Larger bodies
    /// are refused with `413` instead of buffering unboundedly.
    pub max_frame_bytes: usize,
    /// Connection discipline of the network listener: worker-pool size,
    /// connection cap, per-connection request cap and idle timeout.
    pub serving: ServingConfig,
    /// Durable checkpoint/restore settings.
    pub checkpoint: CheckpointConfig,
}

impl Default for SourceConfig {
    fn default() -> Self {
        Self {
            bind_addr: "127.0.0.1:0".to_string(),
            poll_interval: Duration::from_millis(200),
            max_frame_bytes: 16 * 1024 * 1024,
            serving: ServingConfig::default(),
            checkpoint: CheckpointConfig::default(),
        }
    }
}

impl SourceConfig {
    /// Validate every field's range, returning the offending field on error.
    /// The single source of truth for source-layer ranges: both
    /// [`DquagConfig::validated`] and the `dquag-sources` runtime builder
    /// call this.
    pub fn validated(self) -> crate::Result<Self> {
        if self.bind_addr.parse::<std::net::SocketAddr>().is_err() {
            return Err(crate::CoreError::InvalidConfig(format!(
                "source.bind_addr must be a literal socket address like 127.0.0.1:7431, got `{}`",
                self.bind_addr
            )));
        }
        if self.poll_interval.is_zero() {
            return Err(crate::CoreError::InvalidConfig(
                "source.poll_interval must be nonzero".to_string(),
            ));
        }
        if self.max_frame_bytes == 0 {
            return Err(crate::CoreError::InvalidConfig(
                "source.max_frame_bytes must be at least 1".to_string(),
            ));
        }
        if self.checkpoint.interval.is_zero() {
            return Err(crate::CoreError::InvalidConfig(
                "source.checkpoint.interval must be nonzero".to_string(),
            ));
        }
        let serving = self.serving.validated()?;
        Ok(Self { serving, ..self })
    }
}

/// Configuration of the end-to-end DQuaG pipeline.
///
/// Defaults reproduce the paper's experimental setting (§4.4): a four-layer
/// GAT+GIN encoder with hidden dimension 64, learning rate 0.01, batch size
/// 128, a detection threshold at the 95th percentile of clean reconstruction
/// errors and a dataset-level flagging factor of `n = 1.2`.
///
/// Every field is public: start from the paper defaults (or
/// [`DquagConfig::fast`]), override what the deployment needs, and let
/// [`DquagConfig::validated`] reject out-of-range values instead of silently
/// training a broken pipeline.
///
/// ```
/// use dquag_core::DquagConfig;
///
/// let mut config = DquagConfig {
///     epochs: 15,
///     ..DquagConfig::default()
/// };
/// config.model.hidden_dim = 24;
/// let config = config.validated().unwrap();
/// assert_eq!(config.epochs, 15);
///
/// let out_of_range = DquagConfig {
///     threshold_percentile: 1.5,
///     ..DquagConfig::default()
/// };
/// assert!(out_of_range.validated().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DquagConfig {
    /// Network architecture and loss weights.
    pub model: ModelConfig,
    /// Training epochs over the clean dataset.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Fraction of the clean data held out to calibrate the detection
    /// threshold (the paper collects error statistics on clean data; holding
    /// out a slice keeps the percentile honest on unseen rows).
    pub calibration_fraction: f64,
    /// Percentile of clean reconstruction errors used as the detection
    /// threshold (paper: 0.95).
    pub threshold_percentile: f64,
    /// Dataset-level flagging factor `n`: the dataset is problematic when
    /// more than `5% × n` of instances exceed the threshold (paper: 1.2).
    pub dataset_flag_factor: f64,
    /// Number of standard deviations above the per-instance mean feature
    /// error at which an individual feature is flagged (paper: 5).
    pub feature_sigma: f32,
    /// Rows sampled for feature-relationship inference (paper: 100).
    pub oracle_sample_size: usize,
    /// Rows handed to each `score_errors`/`score_repairs` call during
    /// scoring, calibration and repair. The network splits every call into
    /// equal cache-sized forward passes of at most
    /// ⌊32768 / (features · hidden_dim)⌋ rows: 42 at 12 features and hidden
    /// 64, so a 256-row call runs as 7 passes of at most 37 rows. 1 scores
    /// every row alone. Verdicts do not depend on it.
    pub inference_batch_size: usize,
    /// Streaming ingestion engine settings (queue, replicas, backpressure,
    /// deadlines) — consumed by `dquag-stream`.
    pub stream: StreamConfig,
    /// Source-adapter settings (network listener, directory watcher,
    /// checkpointing) — consumed by `dquag-sources`.
    pub source: SourceConfig,
    /// Observability settings (metrics registry, stage spans, flight
    /// recorder) — consumed by `dquag-telemetry`.
    pub telemetry: TelemetryConfig,
    /// The validator this deployment runs, as a declarative
    /// [`ValidatorSpec`](crate::spec::ValidatorSpec) tree built by the
    /// `dquag-validate` registry. The
    /// default is the plain DQuaG backend; ensembles, drift detectors and
    /// gated pairs compose here without any code change.
    pub validator: crate::spec::ValidatorSpec,
    /// Random seed controlling initialisation and batch shuffling.
    pub seed: u64,
    /// Bypass relationship inference and use this feature graph instead.
    /// Used by the feature-graph ablation benchmark and by users who already
    /// have a curated (or LLM-produced) relationship set.
    pub feature_graph_override: Option<FeatureGraph>,
}

impl Default for DquagConfig {
    fn default() -> Self {
        Self {
            model: ModelConfig::default(),
            epochs: 30,
            batch_size: 128,
            learning_rate: 0.01,
            calibration_fraction: 0.2,
            threshold_percentile: 0.95,
            dataset_flag_factor: 1.2,
            feature_sigma: 5.0,
            oracle_sample_size: 100,
            inference_batch_size: 256,
            stream: StreamConfig::default(),
            source: SourceConfig::default(),
            telemetry: TelemetryConfig::default(),
            validator: crate::spec::ValidatorSpec::backend("dquag"),
            seed: 42,
            feature_graph_override: None,
        }
    }
}

impl DquagConfig {
    /// A reduced configuration for unit tests and quick demos: smaller
    /// network, fewer epochs, same decision rules.
    pub fn fast() -> Self {
        Self {
            model: ModelConfig {
                hidden_dim: 16,
                n_layers: 2,
                ..ModelConfig::default()
            },
            epochs: 12,
            batch_size: 64,
            ..Self::default()
        }
    }

    /// The dataset-level error-rate threshold `5% × n`.
    pub fn dataset_error_rate_threshold(&self) -> f64 {
        (1.0 - self.threshold_percentile) * self.dataset_flag_factor
    }

    /// Validate every field's range, returning the offending field on error.
    pub fn validated(self) -> crate::Result<Self> {
        fn fail(msg: String) -> crate::Result<DquagConfig> {
            Err(crate::CoreError::InvalidConfig(msg))
        }
        if self.epochs == 0 {
            return fail("epochs must be nonzero".to_string());
        }
        if self.batch_size == 0 {
            return fail("batch_size must be nonzero".to_string());
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return fail(format!(
                "learning_rate must be positive and finite, got {}",
                self.learning_rate
            ));
        }
        if !(0.0 < self.calibration_fraction && self.calibration_fraction < 1.0) {
            return fail(format!(
                "calibration_fraction must lie in (0, 1), got {}",
                self.calibration_fraction
            ));
        }
        if !(0.0 < self.threshold_percentile && self.threshold_percentile < 1.0) {
            return fail(format!(
                "threshold_percentile must lie in (0, 1), got {}",
                self.threshold_percentile
            ));
        }
        if !(self.dataset_flag_factor.is_finite() && self.dataset_flag_factor > 0.0) {
            return fail(format!(
                "dataset_flag_factor must be positive and finite, got {}",
                self.dataset_flag_factor
            ));
        }
        if !(self.feature_sigma.is_finite() && self.feature_sigma > 0.0) {
            return fail(format!(
                "feature_sigma must be positive and finite, got {}",
                self.feature_sigma
            ));
        }
        if self.oracle_sample_size < 2 {
            return fail(format!(
                "oracle_sample_size must be at least 2, got {}",
                self.oracle_sample_size
            ));
        }
        if self.inference_batch_size == 0 {
            return fail("inference_batch_size must be at least 1".to_string());
        }
        self.stream.clone().validated()?;
        self.source.clone().validated()?;
        self.telemetry
            .clone()
            .validated()
            .map_err(crate::CoreError::InvalidConfig)?;
        self.validator.validated()?;
        if self.model.hidden_dim == 0 || self.model.n_layers == 0 {
            return fail(format!(
                "model must have nonzero hidden_dim and n_layers, got {} × {}",
                self.model.hidden_dim, self.model.n_layers
            ));
        }
        // A sharpness ≤ 0 is legal (it means an unweighted loss); a
        // non-finite loss weight makes every training loss non-finite.
        for (name, value) in [
            ("model.alpha", self.model.alpha),
            ("model.beta", self.model.beta),
            ("model.weight_sharpness", self.model.weight_sharpness),
        ] {
            if !value.is_finite() {
                return fail(format!("{name} must be finite, got {value}"));
            }
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dquag_gnn::EncoderKind;

    #[test]
    fn defaults_match_paper() {
        let c = DquagConfig::default();
        assert_eq!(c.model.hidden_dim, 64);
        assert_eq!(c.model.n_layers, 4);
        assert_eq!(c.model.encoder, EncoderKind::GatGin);
        assert_eq!(c.batch_size, 128);
        assert!((c.learning_rate - 0.01).abs() < 1e-9);
        assert!((c.threshold_percentile - 0.95).abs() < 1e-12);
        assert!((c.dataset_flag_factor - 1.2).abs() < 1e-12);
        assert!((c.feature_sigma - 5.0).abs() < 1e-9);
        assert_eq!(c.oracle_sample_size, 100);
    }

    #[test]
    fn dataset_threshold_is_six_percent_by_default() {
        let c = DquagConfig::default();
        assert!((c.dataset_error_rate_threshold() - 0.06).abs() < 1e-9);
    }

    #[test]
    fn fast_config_shrinks_the_network_only() {
        let c = DquagConfig::fast();
        assert!(c.model.hidden_dim < 64);
        assert!((c.threshold_percentile - 0.95).abs() < 1e-12);
    }

    #[test]
    fn validated_rejects_out_of_range_values() {
        use crate::CoreError;
        // Each case puts one field of the default configuration out of range.
        type PutOutOfRange = fn(&mut DquagConfig);
        let cases: [(PutOutOfRange, &str); 30] = [
            (|c| c.epochs = 0, "epochs"),
            (|c| c.batch_size = 0, "batch_size"),
            (|c| c.learning_rate = 0.0, "learning_rate"),
            (|c| c.learning_rate = f32::NAN, "learning_rate"),
            (|c| c.calibration_fraction = 0.0, "calibration_fraction"),
            (|c| c.calibration_fraction = 1.0, "calibration_fraction"),
            (|c| c.threshold_percentile = 0.0, "threshold_percentile"),
            (|c| c.threshold_percentile = 1.0, "threshold_percentile"),
            (|c| c.threshold_percentile = 1.5, "threshold_percentile"),
            (|c| c.dataset_flag_factor = 0.0, "dataset_flag_factor"),
            (|c| c.feature_sigma = -1.0, "feature_sigma"),
            (|c| c.oracle_sample_size = 1, "oracle_sample_size"),
            (|c| c.inference_batch_size = 0, "inference_batch_size"),
            (|c| c.stream.queue_capacity = 0, "queue_capacity"),
            (|c| c.stream.replicas = 0, "replicas"),
            (
                |c| c.stream.batch_deadline = Some(Duration::ZERO),
                "batch_deadline",
            ),
            (
                |c| c.source.bind_addr = "not an address".to_string(),
                "bind_addr",
            ),
            (|c| c.source.poll_interval = Duration::ZERO, "poll_interval"),
            (|c| c.source.max_frame_bytes = 0, "max_frame_bytes"),
            (
                |c| c.source.checkpoint.interval = Duration::ZERO,
                "checkpoint.interval",
            ),
            (|c| c.source.serving.workers = 0, "serving.workers"),
            (
                |c| c.source.serving.max_connections = 0,
                "serving.max_connections",
            ),
            (
                |c| c.source.serving.max_requests_per_connection = 0,
                "serving.max_requests_per_connection",
            ),
            (
                |c| c.source.serving.idle_timeout = Duration::ZERO,
                "serving.idle_timeout",
            ),
            (
                |c| c.telemetry.flight_recorder_capacity = 0,
                "flight_recorder_capacity",
            ),
            (|c| c.telemetry.data.top_k = 0, "data.top_k"),
            (|c| c.model.hidden_dim = 0, "hidden_dim"),
            (|c| c.model.alpha = f32::INFINITY, "model.alpha"),
            (|c| c.model.beta = f32::NAN, "model.beta"),
            (
                |c| c.model.weight_sharpness = f32::NAN,
                "model.weight_sharpness",
            ),
        ];
        for (put_out_of_range, field) in cases {
            let mut config = DquagConfig::default();
            put_out_of_range(&mut config);
            match config.validated() {
                Err(CoreError::InvalidConfig(msg)) => assert!(
                    msg.contains(field),
                    "error for {field} should name it, got `{msg}`"
                ),
                other => panic!("{field} out of range must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn validated_accepts_the_defaults() {
        assert!(DquagConfig::default().validated().is_ok());
        assert!(DquagConfig::fast().validated().is_ok());
        // A sharpness of zero or below means an unweighted loss, not an error.
        let mut unweighted = DquagConfig::default();
        unweighted.model.weight_sharpness = 0.0;
        assert!(unweighted.validated().is_ok());
    }

    #[test]
    fn validator_spec_defaults_and_setter() {
        use crate::spec::{ValidatorSpec, Voting};
        let c = DquagConfig::default();
        assert_eq!(c.validator, ValidatorSpec::backend("dquag"));

        let spec = ValidatorSpec::ensemble(
            vec![ValidatorSpec::backend("dquag"), ValidatorSpec::drift()],
            Voting::Majority,
        );
        DquagConfig {
            validator: spec,
            ..DquagConfig::default()
        }
        .validated()
        .expect("spec in range");

        // Spec validation rides the config's: an empty ensemble is rejected.
        let bad = DquagConfig {
            validator: ValidatorSpec::ensemble(vec![], Voting::Any),
            ..DquagConfig::default()
        }
        .validated();
        match bad {
            Err(crate::CoreError::InvalidConfig(msg)) => {
                assert!(msg.contains("member"), "got `{msg}`")
            }
            other => panic!("empty ensemble must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn source_defaults_and_setters() {
        let c = DquagConfig::default();
        assert_eq!(c.source.bind_addr, "127.0.0.1:0");
        assert_eq!(c.source.poll_interval, Duration::from_millis(200));
        assert_eq!(c.source.max_frame_bytes, 16 * 1024 * 1024);
        assert_eq!(c.source.checkpoint.path, None);
        assert_eq!(c.source.checkpoint.interval, Duration::from_secs(5));

        SourceConfig {
            bind_addr: "127.0.0.1:7431".to_string(),
            poll_interval: Duration::from_millis(25),
            max_frame_bytes: 1024,
            checkpoint: CheckpointConfig {
                path: Some("/tmp/dquag.ckpt.json".into()),
                interval: Duration::from_secs(1),
            },
            ..SourceConfig::default()
        }
        .validated()
        .expect("source values in range");
    }

    #[test]
    fn serving_defaults_and_setters() {
        let c = DquagConfig::default();
        assert_eq!(c.source.serving.workers, 4);
        assert_eq!(c.source.serving.max_connections, 1024);
        assert_eq!(c.source.serving.max_requests_per_connection, 1000);
        assert_eq!(c.source.serving.idle_timeout, Duration::from_secs(30));

        let source = SourceConfig {
            serving: ServingConfig {
                workers: 2,
                max_connections: 64,
                max_requests_per_connection: 16,
                idle_timeout: Duration::from_secs(5),
            },
            ..SourceConfig::default()
        }
        .validated()
        .expect("serving values in range");

        // The serving block rides the source block's serde round trip.
        let json = serde_json::to_string(&source).unwrap();
        assert!(json.contains("max_connections"), "{json}");
        let back: SourceConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, source);
    }

    #[test]
    fn stream_defaults_and_setters() {
        let c = DquagConfig::default();
        assert_eq!(c.stream.queue_capacity, 64);
        assert_eq!(c.stream.replicas, 1);
        assert_eq!(c.stream.backpressure, BackpressurePolicy::Block);
        assert_eq!(c.stream.batch_deadline, None);

        for stream in [
            StreamConfig {
                queue_capacity: 8,
                replicas: 4,
                backpressure: BackpressurePolicy::Reject,
                batch_deadline: Some(Duration::from_millis(250)),
            },
            StreamConfig {
                queue_capacity: 2,
                replicas: 2,
                backpressure: BackpressurePolicy::DropNewest,
                batch_deadline: None,
            },
        ] {
            stream.validated().expect("stream values in range");
        }
    }
}
