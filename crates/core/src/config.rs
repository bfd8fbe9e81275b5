//! Pipeline configuration.

use dquag_gnn::{EncoderKind, ModelConfig};
use dquag_graph::FeatureGraph;
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
/// `503 Service Unavailable` (HTTP) or `REJECTED` (raw protocol) and
/// closed — the gate degrades loudly under overload instead of growing a
/// thread per socket until something snaps.
///
/// [`max_connections`]: ServingConfig::max_connections
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServingConfig {
    /// Worker threads multiplexing all open connections. The listener's
    /// thread budget is exactly this, independent of connection count.
    pub workers: usize,
    /// Open-connection cap. Accepts beyond it are refused with a fast
    /// `503`/`REJECTED` reply and an `accept_overflow` flight event.
    pub max_connections: usize,
    /// Honor `Connection: keep-alive` on HTTP requests, letting scrapers
    /// and producers reuse one socket for many requests. Requests that do
    /// not ask for keep-alive are answered `Connection: close`, matching
    /// pre-keep-alive clients.
    pub keep_alive: bool,
    /// HTTP requests served on one kept-alive connection before the
    /// listener answers `Connection: close` and recycles the socket.
    pub max_requests_per_connection: usize,
    /// How long a connection may sit idle (no bytes in either direction)
    /// before the listener closes it.
    pub idle_timeout: Duration,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_connections: 1024,
            keep_alive: true,
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
    /// Address the TCP/HTTP ingestion listener binds, e.g. `127.0.0.1:7431`.
    /// Port `0` asks the OS for an ephemeral port (useful in tests).
    pub bind_addr: String,
    /// How long an idle source sleeps between polls (directory scans,
    /// accept-loop passes). Also bounds how quickly sources notice shutdown.
    pub poll_interval: Duration,
    /// Upper bound on one framed batch payload, in bytes. Oversized frames
    /// are refused with an error reply instead of buffering unboundedly.
    pub max_frame_bytes: usize,
    /// Connection discipline of the network listener: worker-pool size,
    /// connection cap, keep-alive and idle timeout.
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

/// Observability settings (`dquag-telemetry`): the metrics registry,
/// per-stage span timing, the bounded flight recorder and the periodic
/// structured-log emitter.
///
/// Lives in the core config for the same reason [`StreamConfig`] does: one
/// `DquagConfig` describes a whole deployment, and whether that deployment
/// exposes `/metrics` or journals refit outcomes is part of its contract.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TelemetryConfig {
    /// Master switch. When off, no bundle is built and every instrumented
    /// hot path degrades to a single `Option` check.
    pub enabled: bool,
    /// Ring-buffer capacity of the flight recorder (events retained).
    pub flight_recorder_capacity: usize,
    /// How often the structured-log emitter writes one JSON snapshot line.
    /// `None` disables the periodic emitter (scrape-only deployments).
    pub log_interval: Option<Duration>,
    /// Render the flight recorder to stderr whenever an error-class event
    /// (refit failure, quarantine, source error, deadline miss) is recorded.
    pub dump_on_error: bool,
    /// Data-plane telemetry: per-column drift gauges and the drift
    /// scoreboard.
    pub data: TelemetryDataConfig,
}

/// Data-plane telemetry settings: per-column drift gauges under a bounded
/// cardinality policy, plus the `GET /drift` scoreboard.
///
/// Off by default — pipeline telemetry alone carries no per-column series.
/// When enabled, the gauge family is bounded either by `top_k` (rank-based
/// slots with hysteresis eviction) or, when `allowlist` is set, by the
/// declared column list.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TelemetryDataConfig {
    /// Enable the data-plane layer (requires `telemetry.enabled`).
    pub enabled: bool,
    /// Gauge slots when ranking by drift ratio (ignored under an
    /// allowlist).
    pub top_k: usize,
    /// When set, only these columns ever get gauge series.
    pub allowlist: Option<Vec<String>>,
    /// Minimum wall-clock spacing between gauge-maintenance passes; the
    /// scoreboard and crossing events update every batch regardless.
    /// `None` maintains gauges on every validated batch.
    pub min_emit_interval: Option<Duration>,
}

impl Default for TelemetryDataConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            top_k: 8,
            allowlist: None,
            min_emit_interval: None,
        }
    }
}

impl TelemetryDataConfig {
    /// Validate every field's range, returning the offending field on error.
    pub fn validated(self) -> crate::Result<Self> {
        if self.top_k == 0 {
            return Err(crate::CoreError::InvalidConfig(
                "telemetry.data.top_k must be at least 1".to_string(),
            ));
        }
        if self.allowlist.as_deref() == Some(&[]) {
            return Err(crate::CoreError::InvalidConfig(
                "telemetry.data.allowlist must name at least one column when set".to_string(),
            ));
        }
        if self.min_emit_interval == Some(Duration::ZERO) {
            return Err(crate::CoreError::InvalidConfig(
                "telemetry.data.min_emit_interval must be nonzero when set".to_string(),
            ));
        }
        Ok(self)
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            flight_recorder_capacity: 256,
            log_interval: None,
            dump_on_error: true,
            data: TelemetryDataConfig::default(),
        }
    }
}

impl TelemetryConfig {
    /// Validate every field's range, returning the offending field on error.
    pub fn validated(self) -> crate::Result<Self> {
        if self.flight_recorder_capacity == 0 {
            return Err(crate::CoreError::InvalidConfig(
                "telemetry.flight_recorder_capacity must be at least 1".to_string(),
            ));
        }
        if self.log_interval == Some(Duration::ZERO) {
            return Err(crate::CoreError::InvalidConfig(
                "telemetry.log_interval must be nonzero when set".to_string(),
            ));
        }
        let data = self.data.validated()?;
        Ok(Self { data, ..self })
    }

    /// Build the shared telemetry bundle this block describes, or `None`
    /// when disabled. One bundle is meant to be shared across the engine,
    /// sources, validators and the refit supervisor of one deployment.
    pub fn build(&self) -> Option<std::sync::Arc<dquag_telemetry::Telemetry>> {
        self.enabled.then(|| {
            dquag_telemetry::Telemetry::with_options(dquag_telemetry::TelemetryOptions {
                flight_recorder_capacity: self.flight_recorder_capacity,
                dump_on_error: self.dump_on_error,
                data: self
                    .data
                    .enabled
                    .then(|| dquag_telemetry::DataTelemetryOptions {
                        top_k: self.data.top_k,
                        allowlist: self.data.allowlist.clone(),
                        min_emit_interval: self.data.min_emit_interval,
                    }),
            })
        })
    }
}

/// Configuration of the end-to-end DQuaG pipeline.
///
/// Defaults reproduce the paper's experimental setting (§4.4): a four-layer
/// GAT+GIN encoder with hidden dimension 64, learning rate 0.01, batch size
/// 128, a detection threshold at the 95th percentile of clean reconstruction
/// errors and a dataset-level flagging factor of `n = 1.2`.
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
    /// Worker threads used during phase-2 validation (1 = sequential).
    pub validation_threads: usize,
    /// Rows stacked into one matrix-level forward pass during scoring,
    /// calibration and repair; 1 scores every row alone. Larger batches
    /// amortise the per-op overhead further but grow the transient activation
    /// matrices linearly. Verdicts do not depend on it.
    pub inference_batch_size: usize,
    /// Streaming ingestion engine settings (queue, replicas, backpressure,
    /// deadlines) — consumed by `dquag-stream`.
    pub stream: StreamConfig,
    /// Source-adapter settings (network listener, directory watcher,
    /// checkpointing) — consumed by `dquag-sources`.
    pub source: SourceConfig,
    /// Observability settings (metrics registry, stage spans, flight
    /// recorder, structured-log emitter) — consumed by `dquag-telemetry`.
    pub telemetry: TelemetryConfig,
    /// The validator this deployment runs, as a declarative
    /// [`ValidatorSpec`] tree built by the `dquag-validate` registry. The
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
            validation_threads: 1,
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
    /// Start building a configuration from the paper defaults, with range
    /// validation at [`DquagConfigBuilder::build`].
    pub fn builder() -> DquagConfigBuilder {
        DquagConfigBuilder {
            config: Self::default(),
        }
    }

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

    /// The same configuration with a different encoder architecture — used by
    /// the Table 2 ablation.
    pub fn with_encoder(mut self, encoder: EncoderKind) -> Self {
        self.model.encoder = encoder;
        self
    }

    /// The dataset-level error-rate threshold `5% × n`.
    pub fn dataset_error_rate_threshold(&self) -> f64 {
        (1.0 - self.threshold_percentile) * self.dataset_flag_factor
    }

    /// Validate every field's range, returning the offending field on error.
    /// Called by [`DquagConfigBuilder::build`]; useful on hand-assembled
    /// configurations too.
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
        if self.validation_threads == 0 {
            return fail("validation_threads must be at least 1".to_string());
        }
        if self.inference_batch_size == 0 {
            return fail("inference_batch_size must be at least 1".to_string());
        }
        self.stream.clone().validated()?;
        self.source.clone().validated()?;
        self.telemetry.clone().validated()?;
        self.validator.validated()?;
        if self.model.hidden_dim == 0 || self.model.n_layers == 0 {
            return fail(format!(
                "model must have nonzero hidden_dim and n_layers, got {} × {}",
                self.model.hidden_dim, self.model.n_layers
            ));
        }
        Ok(self)
    }
}

/// Builder for [`DquagConfig`] with range validation.
///
/// The canonical construction path for user code: start from the paper
/// defaults, override what the deployment needs, and let [`build`] reject
/// out-of-range values instead of silently training a broken pipeline.
///
/// ```
/// use dquag_core::DquagConfig;
///
/// let config = DquagConfig::builder()
///     .epochs(15)
///     .hidden_dim(24)
///     .validation_threads(4)
///     .build()
///     .unwrap();
/// assert_eq!(config.epochs, 15);
/// assert!(DquagConfig::builder().threshold_percentile(1.5).build().is_err());
/// ```
///
/// [`build`]: DquagConfigBuilder::build
#[derive(Debug, Clone)]
pub struct DquagConfigBuilder {
    config: DquagConfig,
}

impl DquagConfigBuilder {
    /// Replace the whole network architecture configuration.
    pub fn model(mut self, model: ModelConfig) -> Self {
        self.config.model = model;
        self
    }

    /// Encoder hidden dimension (paper: 64).
    pub fn hidden_dim(mut self, hidden_dim: usize) -> Self {
        self.config.model.hidden_dim = hidden_dim;
        self
    }

    /// Number of encoder layers (paper: 4).
    pub fn n_layers(mut self, n_layers: usize) -> Self {
        self.config.model.n_layers = n_layers;
        self
    }

    /// Encoder architecture (paper: GAT+GIN).
    pub fn encoder(mut self, encoder: EncoderKind) -> Self {
        self.config.model.encoder = encoder;
        self
    }

    /// Training epochs over the clean dataset.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.config.epochs = epochs;
        self
    }

    /// Mini-batch size.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.batch_size = batch_size;
        self
    }

    /// Adam learning rate.
    pub fn learning_rate(mut self, learning_rate: f32) -> Self {
        self.config.learning_rate = learning_rate;
        self
    }

    /// Fraction of clean data held out for threshold calibration.
    pub fn calibration_fraction(mut self, fraction: f64) -> Self {
        self.config.calibration_fraction = fraction;
        self
    }

    /// Percentile of clean reconstruction errors used as the detection
    /// threshold (paper: 0.95).
    pub fn threshold_percentile(mut self, percentile: f64) -> Self {
        self.config.threshold_percentile = percentile;
        self
    }

    /// Dataset-level flagging factor `n` (paper: 1.2).
    pub fn dataset_flag_factor(mut self, factor: f64) -> Self {
        self.config.dataset_flag_factor = factor;
        self
    }

    /// Standard deviations above the mean feature error at which a feature
    /// is flagged (paper: 5).
    pub fn feature_sigma(mut self, sigma: f32) -> Self {
        self.config.feature_sigma = sigma;
        self
    }

    /// Rows sampled for feature-relationship inference (paper: 100).
    pub fn oracle_sample_size(mut self, sample_size: usize) -> Self {
        self.config.oracle_sample_size = sample_size;
        self
    }

    /// Worker threads used during phase-2 validation.
    pub fn validation_threads(mut self, threads: usize) -> Self {
        self.config.validation_threads = threads;
        self
    }

    /// Rows stacked into one batched forward pass.
    pub fn inference_batch_size(mut self, rows: usize) -> Self {
        self.config.inference_batch_size = rows;
        self
    }

    /// Replace the whole streaming-engine configuration block.
    pub fn stream(mut self, stream: StreamConfig) -> Self {
        self.config.stream = stream;
        self
    }

    /// Capacity of the streaming engine's bounded ingestion queue.
    pub fn stream_queue_capacity(mut self, capacity: usize) -> Self {
        self.config.stream.queue_capacity = capacity;
        self
    }

    /// Number of data-parallel validator replicas in the streaming engine.
    pub fn stream_replicas(mut self, replicas: usize) -> Self {
        self.config.stream.replicas = replicas;
        self
    }

    /// Producer-side behaviour when the streaming queue is full.
    pub fn stream_backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.config.stream.backpressure = policy;
        self
    }

    /// Per-batch validation budget in the streaming engine, measured from
    /// submission.
    pub fn stream_batch_deadline(mut self, deadline: Duration) -> Self {
        self.config.stream.batch_deadline = Some(deadline);
        self
    }

    /// Replace the whole source-adapter configuration block.
    pub fn source(mut self, source: SourceConfig) -> Self {
        self.config.source = source;
        self
    }

    /// The validator this deployment runs, as a declarative spec tree (the
    /// default is the plain `dquag` backend).
    pub fn validator_spec(mut self, spec: crate::spec::ValidatorSpec) -> Self {
        self.config.validator = spec;
        self
    }

    /// Address the TCP/HTTP ingestion listener binds (port 0 = ephemeral).
    pub fn source_bind_addr(mut self, addr: impl Into<String>) -> Self {
        self.config.source.bind_addr = addr.into();
        self
    }

    /// How long an idle source sleeps between polls.
    pub fn source_poll_interval(mut self, interval: Duration) -> Self {
        self.config.source.poll_interval = interval;
        self
    }

    /// Upper bound on one framed batch payload, in bytes.
    pub fn source_max_frame_bytes(mut self, bytes: usize) -> Self {
        self.config.source.max_frame_bytes = bytes;
        self
    }

    /// Replace the whole serving-edge configuration block.
    pub fn serving(mut self, serving: ServingConfig) -> Self {
        self.config.source.serving = serving;
        self
    }

    /// Worker threads multiplexing the listener's open connections.
    pub fn serving_workers(mut self, workers: usize) -> Self {
        self.config.source.serving.workers = workers;
        self
    }

    /// Open-connection cap; accepts beyond it are refused with a fast
    /// `503`/`REJECTED` reply.
    pub fn serving_max_connections(mut self, max: usize) -> Self {
        self.config.source.serving.max_connections = max;
        self
    }

    /// Honor `Connection: keep-alive` on HTTP requests (on by default).
    pub fn serving_keep_alive(mut self, keep_alive: bool) -> Self {
        self.config.source.serving.keep_alive = keep_alive;
        self
    }

    /// HTTP requests served on one kept-alive connection before recycling.
    pub fn serving_max_requests_per_connection(mut self, max: usize) -> Self {
        self.config.source.serving.max_requests_per_connection = max;
        self
    }

    /// How long a connection may sit idle before the listener closes it.
    pub fn serving_idle_timeout(mut self, timeout: Duration) -> Self {
        self.config.source.serving.idle_timeout = timeout;
        self
    }

    /// Enable durable checkpointing to this file.
    pub fn checkpoint_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.source.checkpoint.path = Some(path.into());
        self
    }

    /// How often the background checkpointer persists a snapshot.
    pub fn checkpoint_interval(mut self, interval: Duration) -> Self {
        self.config.source.checkpoint.interval = interval;
        self
    }

    /// Replace the whole observability configuration block.
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Master observability switch (on by default).
    pub fn telemetry_enabled(mut self, enabled: bool) -> Self {
        self.config.telemetry.enabled = enabled;
        self
    }

    /// Ring-buffer capacity of the flight recorder.
    pub fn flight_recorder_capacity(mut self, capacity: usize) -> Self {
        self.config.telemetry.flight_recorder_capacity = capacity;
        self
    }

    /// Enable the periodic structured-log emitter at this interval.
    pub fn telemetry_log_interval(mut self, interval: Duration) -> Self {
        self.config.telemetry.log_interval = Some(interval);
        self
    }

    /// Render the flight recorder to stderr on error-class events.
    pub fn telemetry_dump_on_error(mut self, dump: bool) -> Self {
        self.config.telemetry.dump_on_error = dump;
        self
    }

    /// Enable the data-plane telemetry layer (per-column drift gauges and
    /// the drift scoreboard). Off by default.
    pub fn telemetry_data_enabled(mut self, enabled: bool) -> Self {
        self.config.telemetry.data.enabled = enabled;
        self
    }

    /// Gauge slots for the top-K drifting columns (default 8).
    pub fn telemetry_data_top_k(mut self, top_k: usize) -> Self {
        self.config.telemetry.data.top_k = top_k;
        self
    }

    /// Restrict per-column drift gauges to these schema-declared columns.
    pub fn telemetry_data_allowlist(
        mut self,
        columns: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        self.config.telemetry.data.allowlist = Some(columns.into_iter().map(Into::into).collect());
        self
    }

    /// Minimum wall-clock spacing between drift-gauge maintenance passes.
    pub fn telemetry_data_min_emit_interval(mut self, interval: Duration) -> Self {
        self.config.telemetry.data.min_emit_interval = Some(interval);
        self
    }

    /// Random seed controlling initialisation and batch shuffling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Bypass relationship inference and use this feature graph.
    pub fn feature_graph_override(mut self, graph: FeatureGraph) -> Self {
        self.config.feature_graph_override = Some(graph);
        self
    }

    /// Validate every range and produce the configuration.
    pub fn build(self) -> crate::Result<DquagConfig> {
        self.config.validated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn with_encoder_overrides_architecture() {
        let c = DquagConfig::fast().with_encoder(EncoderKind::Gcn);
        assert_eq!(c.model.encoder, EncoderKind::Gcn);
    }

    #[test]
    fn builder_applies_every_setter() {
        let c = DquagConfig::builder()
            .epochs(7)
            .batch_size(32)
            .learning_rate(0.005)
            .calibration_fraction(0.25)
            .threshold_percentile(0.9)
            .dataset_flag_factor(1.5)
            .feature_sigma(3.0)
            .oracle_sample_size(50)
            .validation_threads(4)
            .inference_batch_size(64)
            .seed(9)
            .hidden_dim(12)
            .n_layers(3)
            .encoder(EncoderKind::Gcn)
            .build()
            .expect("all values in range");
        assert_eq!(c.epochs, 7);
        assert_eq!(c.batch_size, 32);
        assert!((c.learning_rate - 0.005).abs() < 1e-9);
        assert!((c.calibration_fraction - 0.25).abs() < 1e-12);
        assert!((c.threshold_percentile - 0.9).abs() < 1e-12);
        assert!((c.dataset_flag_factor - 1.5).abs() < 1e-12);
        assert!((c.feature_sigma - 3.0).abs() < 1e-9);
        assert_eq!(c.oracle_sample_size, 50);
        assert_eq!(c.validation_threads, 4);
        assert_eq!(c.inference_batch_size, 64);
        assert_eq!(c.seed, 9);
        assert_eq!(c.model.hidden_dim, 12);
        assert_eq!(c.model.n_layers, 3);
        assert_eq!(c.model.encoder, EncoderKind::Gcn);
    }

    #[test]
    fn builder_rejects_out_of_range_values() {
        use crate::CoreError;
        let cases: Vec<(DquagConfigBuilder, &str)> = vec![
            (DquagConfig::builder().epochs(0), "epochs"),
            (DquagConfig::builder().batch_size(0), "batch_size"),
            (DquagConfig::builder().learning_rate(0.0), "learning_rate"),
            (
                DquagConfig::builder().learning_rate(f32::NAN),
                "learning_rate",
            ),
            (
                DquagConfig::builder().calibration_fraction(0.0),
                "calibration_fraction",
            ),
            (
                DquagConfig::builder().calibration_fraction(1.0),
                "calibration_fraction",
            ),
            (
                DquagConfig::builder().threshold_percentile(0.0),
                "threshold_percentile",
            ),
            (
                DquagConfig::builder().threshold_percentile(1.0),
                "threshold_percentile",
            ),
            (
                DquagConfig::builder().threshold_percentile(1.5),
                "threshold_percentile",
            ),
            (
                DquagConfig::builder().dataset_flag_factor(0.0),
                "dataset_flag_factor",
            ),
            (DquagConfig::builder().feature_sigma(-1.0), "feature_sigma"),
            (
                DquagConfig::builder().oracle_sample_size(1),
                "oracle_sample_size",
            ),
            (
                DquagConfig::builder().validation_threads(0),
                "validation_threads",
            ),
            (
                DquagConfig::builder().inference_batch_size(0),
                "inference_batch_size",
            ),
            (
                DquagConfig::builder().stream_queue_capacity(0),
                "queue_capacity",
            ),
            (DquagConfig::builder().stream_replicas(0), "replicas"),
            (
                DquagConfig::builder().stream_batch_deadline(Duration::ZERO),
                "batch_deadline",
            ),
            (
                DquagConfig::builder().source_bind_addr("not an address"),
                "bind_addr",
            ),
            (
                DquagConfig::builder().source_poll_interval(Duration::ZERO),
                "poll_interval",
            ),
            (
                DquagConfig::builder().source_max_frame_bytes(0),
                "max_frame_bytes",
            ),
            (
                DquagConfig::builder().checkpoint_interval(Duration::ZERO),
                "checkpoint.interval",
            ),
            (DquagConfig::builder().serving_workers(0), "serving.workers"),
            (
                DquagConfig::builder().serving_max_connections(0),
                "serving.max_connections",
            ),
            (
                DquagConfig::builder().serving_max_requests_per_connection(0),
                "serving.max_requests_per_connection",
            ),
            (
                DquagConfig::builder().serving_idle_timeout(Duration::ZERO),
                "serving.idle_timeout",
            ),
            (
                DquagConfig::builder().flight_recorder_capacity(0),
                "flight_recorder_capacity",
            ),
            (
                DquagConfig::builder().telemetry_log_interval(Duration::ZERO),
                "log_interval",
            ),
            (DquagConfig::builder().telemetry_data_top_k(0), "data.top_k"),
            (
                DquagConfig::builder().telemetry_data_allowlist(Vec::<String>::new()),
                "data.allowlist",
            ),
            (
                DquagConfig::builder().telemetry_data_min_emit_interval(Duration::ZERO),
                "data.min_emit_interval",
            ),
            (DquagConfig::builder().hidden_dim(0), "hidden_dim"),
        ];
        for (builder, field) in cases {
            match builder.build() {
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
        let c = DquagConfig::builder()
            .validator_spec(spec.clone())
            .build()
            .expect("spec in range");
        assert_eq!(c.validator, spec);

        // Spec validation rides the config's: an empty ensemble is rejected.
        let bad = DquagConfig::builder()
            .validator_spec(ValidatorSpec::ensemble(vec![], Voting::Any))
            .build();
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

        let c = DquagConfig::builder()
            .source_bind_addr("127.0.0.1:7431")
            .source_poll_interval(Duration::from_millis(25))
            .source_max_frame_bytes(1024)
            .checkpoint_path("/tmp/dquag.ckpt.json")
            .checkpoint_interval(Duration::from_secs(1))
            .build()
            .expect("source values in range");
        assert_eq!(c.source.bind_addr, "127.0.0.1:7431");
        assert_eq!(c.source.poll_interval, Duration::from_millis(25));
        assert_eq!(c.source.max_frame_bytes, 1024);
        assert_eq!(
            c.source.checkpoint.path.as_deref(),
            Some(std::path::Path::new("/tmp/dquag.ckpt.json"))
        );
        assert_eq!(c.source.checkpoint.interval, Duration::from_secs(1));

        let block = DquagConfig::builder()
            .source(SourceConfig {
                bind_addr: "0.0.0.0:9000".to_string(),
                ..SourceConfig::default()
            })
            .build()
            .expect("source block in range");
        assert_eq!(block.source.bind_addr, "0.0.0.0:9000");
    }

    #[test]
    fn serving_defaults_and_setters() {
        let c = DquagConfig::default();
        assert_eq!(c.source.serving.workers, 4);
        assert_eq!(c.source.serving.max_connections, 1024);
        assert!(c.source.serving.keep_alive);
        assert_eq!(c.source.serving.max_requests_per_connection, 1000);
        assert_eq!(c.source.serving.idle_timeout, Duration::from_secs(30));

        let c = DquagConfig::builder()
            .serving_workers(2)
            .serving_max_connections(64)
            .serving_keep_alive(false)
            .serving_max_requests_per_connection(16)
            .serving_idle_timeout(Duration::from_secs(5))
            .build()
            .expect("serving values in range");
        assert_eq!(c.source.serving.workers, 2);
        assert_eq!(c.source.serving.max_connections, 64);
        assert!(!c.source.serving.keep_alive);
        assert_eq!(c.source.serving.max_requests_per_connection, 16);
        assert_eq!(c.source.serving.idle_timeout, Duration::from_secs(5));

        let block = DquagConfig::builder()
            .serving(ServingConfig {
                workers: 1,
                ..ServingConfig::default()
            })
            .build()
            .expect("serving block in range");
        assert_eq!(block.source.serving.workers, 1);

        // The serving block rides the source block's serde round trip.
        let json = serde_json::to_string(&c.source).unwrap();
        assert!(json.contains("max_connections"), "{json}");
        let back: SourceConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c.source);
    }

    #[test]
    fn telemetry_defaults_setters_and_build() {
        let c = DquagConfig::default();
        assert!(c.telemetry.enabled);
        assert_eq!(c.telemetry.flight_recorder_capacity, 256);
        assert_eq!(c.telemetry.log_interval, None);
        assert!(c.telemetry.dump_on_error);

        let c = DquagConfig::builder()
            .flight_recorder_capacity(32)
            .telemetry_log_interval(Duration::from_secs(10))
            .telemetry_dump_on_error(false)
            .build()
            .expect("telemetry values in range");
        assert_eq!(c.telemetry.flight_recorder_capacity, 32);
        assert_eq!(c.telemetry.log_interval, Some(Duration::from_secs(10)));
        assert!(!c.telemetry.dump_on_error);

        // The block builds the live bundle it describes — or nothing at all.
        let bundle = c.telemetry.build().expect("enabled block builds a bundle");
        assert_eq!(bundle.recorder().capacity(), 32);
        let off = DquagConfig::builder()
            .telemetry_enabled(false)
            .build()
            .expect("disabled block in range");
        assert!(off.telemetry.build().is_none());

        let block = DquagConfig::builder()
            .telemetry(TelemetryConfig {
                enabled: false,
                ..TelemetryConfig::default()
            })
            .build()
            .expect("telemetry block in range");
        assert!(!block.telemetry.enabled);
    }

    #[test]
    fn telemetry_data_block_defaults_setters_and_build() {
        // Off by default: the built bundle has no data layer.
        let c = DquagConfig::default();
        assert!(!c.telemetry.data.enabled);
        assert_eq!(c.telemetry.data.top_k, 8);
        assert_eq!(c.telemetry.data.allowlist, None);
        assert_eq!(c.telemetry.data.min_emit_interval, None);
        let bundle = c.telemetry.build().expect("telemetry on by default");
        assert!(bundle.data().is_none());

        let c = DquagConfig::builder()
            .telemetry_data_enabled(true)
            .telemetry_data_top_k(3)
            .telemetry_data_min_emit_interval(Duration::from_millis(500))
            .build()
            .expect("data values in range");
        assert!(c.telemetry.data.enabled);
        assert_eq!(c.telemetry.data.top_k, 3);
        assert_eq!(
            c.telemetry.data.min_emit_interval,
            Some(Duration::from_millis(500))
        );
        let bundle = c.telemetry.build().expect("bundle builds");
        assert!(bundle.data().is_some());

        let c = DquagConfig::builder()
            .telemetry_data_enabled(true)
            .telemetry_data_allowlist(["age", "fare"])
            .build()
            .expect("allowlist in range");
        assert_eq!(
            c.telemetry.data.allowlist,
            Some(vec!["age".to_string(), "fare".to_string()])
        );

        // The data block rides the config's serde round trip.
        let json = serde_json::to_string(&c.telemetry).unwrap();
        assert!(json.contains("allowlist"), "{json}");
        let back: TelemetryConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c.telemetry);
    }

    #[test]
    fn stream_defaults_and_setters() {
        let c = DquagConfig::default();
        assert_eq!(c.stream.queue_capacity, 64);
        assert_eq!(c.stream.replicas, 1);
        assert_eq!(c.stream.backpressure, BackpressurePolicy::Block);
        assert_eq!(c.stream.batch_deadline, None);

        let c = DquagConfig::builder()
            .stream_queue_capacity(8)
            .stream_replicas(4)
            .stream_backpressure(BackpressurePolicy::Reject)
            .stream_batch_deadline(Duration::from_millis(250))
            .build()
            .expect("stream values in range");
        assert_eq!(c.stream.queue_capacity, 8);
        assert_eq!(c.stream.replicas, 4);
        assert_eq!(c.stream.backpressure, BackpressurePolicy::Reject);
        assert_eq!(c.stream.batch_deadline, Some(Duration::from_millis(250)));

        let block = DquagConfig::builder()
            .stream(StreamConfig {
                queue_capacity: 2,
                replicas: 2,
                backpressure: BackpressurePolicy::DropNewest,
                batch_deadline: None,
            })
            .build()
            .expect("stream block in range");
        assert_eq!(block.stream.backpressure, BackpressurePolicy::DropNewest);
    }
}
