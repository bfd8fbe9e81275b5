//! Drift-triggered background refit: the closed loop of the deployment
//! story. A [`RefitSupervisor`] observes `(batch, verdict)` pairs coming off
//! a live stream, banks recent *clean* batches in a bounded reservoir, and
//! when drift persists it refits a fresh validator on that reservoir in a
//! background thread, persists the result and hot-swaps it into the running
//! engine via [`dquag_stream::SwapHandle`] — no batch lost or reordered, no
//! engine restart.
//!
//! The supervisor is deliberately passive about transport: the caller feeds
//! it verdicts (from a [`dquag_stream::VerdictStream`], a batch loop, or a
//! test), so it composes with any consumption topology without owning a
//! thread of its own. Only the refit itself runs in the background.

use crate::store::save_validator;
use dquag_stream::SwapHandle;
use dquag_tabular::DataFrame;
use dquag_telemetry::{Counter, FlightEventKind, Telemetry};
use dquag_validate::{Validator, Verdict};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Tuning knobs for a [`RefitSupervisor`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Maximum number of recent clean batches retained in the reservoir;
    /// older batches are evicted first. Bounds memory regardless of stream
    /// length.
    pub reservoir_capacity: usize,
    /// Number of *consecutive* dirty verdicts required before a refit is
    /// triggered. A single flagged batch may be an outlier; a streak is
    /// drift.
    pub patience: usize,
    /// Minimum total rows across the reservoir before a refit is allowed —
    /// refitting on a sliver of data would swap in a weaker model than the
    /// one already serving.
    pub min_fit_rows: usize,
    /// Where to persist the refitted model before swapping it in. `None`
    /// skips persistence (swap only).
    pub model_path: Option<PathBuf>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            reservoir_capacity: 32,
            patience: 2,
            min_fit_rows: 64,
            model_path: None,
        }
    }
}

/// What a completed background refit did — harvested via
/// [`RefitSupervisor::take_outcomes`] or [`RefitSupervisor::wait_idle`].
#[derive(Debug, Clone, PartialEq)]
pub enum RefitOutcome {
    /// The refit fitted, (optionally) persisted, and hot-swapped a new model.
    Swapped {
        /// The engine generation now serving (monotone; 0 is the boot model).
        generation: u64,
        /// Rows in the concatenated reservoir the new model was fitted on.
        fit_rows: usize,
        /// Batches the reservoir contributed.
        fit_batches: usize,
        /// Where the model was persisted, when configured.
        persisted_to: Option<PathBuf>,
        /// Columns past their drift threshold when the refit launched,
        /// strongest first (empty without data telemetry).
        trigger_columns: Vec<String>,
    },
    /// The refit aborted; the previous generation keeps serving.
    Failed {
        /// Which step aborted: `"fit"`, `"persist"` or `"swap"`.
        stage: &'static str,
        /// Why.
        reason: String,
    },
}

/// Watches drift verdicts and closes the loop: reservoir → background refit
/// → persist → hot swap. The header of `supervisor.rs` walks through the
/// data flow.
///
/// At most one refit is in flight at a time; further drift during a refit is
/// counted but cannot start a second one, and a completed refit resets the
/// dirty streak so the *new* model gets a chance to prove itself.
pub struct RefitSupervisor {
    config: SupervisorConfig,
    swap: SwapHandle,
    factory: Box<dyn FnMut() -> Box<dyn Validator> + Send>,
    reservoir: VecDeque<DataFrame>,
    reservoir_rows: usize,
    consecutive_dirty: usize,
    pending: Option<JoinHandle<RefitOutcome>>,
    outcomes: Vec<RefitOutcome>,
    refits_started: usize,
    metrics: Option<RefitMetrics>,
}

/// Pre-resolved refit handles: the counters are looked up once when the
/// bundle is attached, so the refit thread touches only atomics.
#[derive(Clone)]
struct RefitMetrics {
    telemetry: Arc<Telemetry>,
    swapped: Arc<Counter>,
    failed: Arc<Counter>,
}

impl RefitMetrics {
    fn new(telemetry: Arc<Telemetry>) -> Self {
        let registry = telemetry.registry();
        let help = "Background refit completions by outcome.";
        let swapped = registry.counter_with(
            "dquag_refit_outcomes_total",
            help,
            &[("outcome", "swapped")],
        );
        let failed =
            registry.counter_with("dquag_refit_outcomes_total", help, &[("outcome", "failed")]);
        Self {
            telemetry,
            swapped,
            failed,
        }
    }

    /// Count one finished refit and journal it in the flight recorder.
    fn record(&self, outcome: &RefitOutcome) {
        match outcome {
            RefitOutcome::Swapped {
                generation,
                fit_rows,
                trigger_columns,
                ..
            } => {
                self.swapped.inc();
                self.telemetry.event(FlightEventKind::RefitSwapped {
                    generation: *generation,
                    fit_rows: *fit_rows,
                    trigger_columns: trigger_columns.clone(),
                });
            }
            RefitOutcome::Failed { stage, reason } => {
                self.failed.inc();
                self.telemetry.event(FlightEventKind::RefitFailed {
                    stage: stage.to_string(),
                    reason: reason.clone(),
                });
            }
        }
    }
}

impl RefitSupervisor {
    /// A supervisor driving `swap`, building each replacement model with
    /// `factory` (called once per refit; the returned validator is fitted on
    /// the reservoir before it ever serves traffic).
    pub fn new(
        swap: SwapHandle,
        config: SupervisorConfig,
        factory: impl FnMut() -> Box<dyn Validator> + Send + 'static,
    ) -> Self {
        Self {
            config,
            swap,
            factory: Box::new(factory),
            reservoir: VecDeque::new(),
            reservoir_rows: 0,
            consecutive_dirty: 0,
            pending: None,
            outcomes: Vec::new(),
            refits_started: 0,
            metrics: None,
        }
    }

    /// Attach a telemetry bundle: every completed refit is counted in
    /// `dquag_refit_outcomes_total{outcome=...}` and journaled in the flight
    /// recorder ([`FlightEventKind::RefitSwapped`] /
    /// [`FlightEventKind::RefitFailed`]) the moment the background thread
    /// finishes — visible even before the caller harvests outcomes.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.metrics = Some(RefitMetrics::new(telemetry));
        self
    }

    /// Feed one `(batch, verdict)` pair from the live stream. Clean batches
    /// refresh the reservoir; a streak of dirty ones triggers a background
    /// refit. Returns `true` iff this call launched a refit.
    pub fn observe(&mut self, batch: &DataFrame, verdict: &Verdict) -> bool {
        self.harvest_finished();
        if verdict.is_dirty {
            self.consecutive_dirty += 1;
        } else {
            self.consecutive_dirty = 0;
            self.reservoir_rows += batch.n_rows();
            self.reservoir.push_back(batch.clone());
            while self.reservoir.len() > self.config.reservoir_capacity {
                if let Some(evicted) = self.reservoir.pop_front() {
                    self.reservoir_rows -= evicted.n_rows();
                }
            }
        }
        let should_refit = self.consecutive_dirty >= self.config.patience.max(1)
            && self.pending.is_none()
            && self.reservoir_rows >= self.config.min_fit_rows
            && !self.reservoir.is_empty();
        if should_refit {
            self.launch_refit();
        }
        should_refit
    }

    /// Completed refit outcomes since the last call, oldest first. Does not
    /// block: a refit still running is reported by a later call.
    pub fn take_outcomes(&mut self) -> Vec<RefitOutcome> {
        self.harvest_finished();
        std::mem::take(&mut self.outcomes)
    }

    /// Block until no refit is in flight, then return every unharvested
    /// outcome. Intended for shutdown paths and tests.
    pub fn wait_idle(&mut self) -> Vec<RefitOutcome> {
        if let Some(handle) = self.pending.take() {
            self.outcomes.push(join_refit(handle));
        }
        std::mem::take(&mut self.outcomes)
    }

    /// Whether a background refit is currently running.
    pub fn refit_in_flight(&self) -> bool {
        self.pending.is_some()
    }

    /// Number of refits launched over this supervisor's lifetime.
    pub fn refits_started(&self) -> usize {
        self.refits_started
    }

    /// Clean batches currently banked for the next refit.
    pub fn reservoir_len(&self) -> usize {
        self.reservoir.len()
    }

    /// Total rows across the banked clean batches.
    pub fn reservoir_rows(&self) -> usize {
        self.reservoir_rows
    }

    fn harvest_finished(&mut self) {
        if self.pending.as_ref().is_some_and(|h| h.is_finished()) {
            if let Some(handle) = self.pending.take() {
                self.outcomes.push(join_refit(handle));
            }
        }
    }

    fn launch_refit(&mut self) {
        let batches: Vec<DataFrame> = self.reservoir.iter().cloned().collect();
        let fit_batches = batches.len();
        let fit_rows = self.reservoir_rows;
        // Snapshot which columns stand past their drift threshold right
        // now — the answer to "why did this refit fire", ranked strongest
        // first. Empty when data telemetry is off.
        let trigger_columns: Vec<String> = self
            .metrics
            .as_ref()
            .and_then(|m| m.telemetry.drift_scoreboard())
            .map(|board| {
                board
                    .columns
                    .iter()
                    .filter(|column| column.drifted)
                    .map(|column| column.column.clone())
                    .collect()
            })
            .unwrap_or_default();
        let candidate = (self.factory)();
        let swap = self.swap.clone();
        let model_path = self.config.model_path.clone();
        let metrics = self.metrics.clone();
        let handle = std::thread::Builder::new()
            .name("dquag-refit".to_string())
            .spawn(move || {
                let outcome = refit_job(
                    candidate,
                    &batches,
                    fit_rows,
                    fit_batches,
                    model_path,
                    &swap,
                    trigger_columns,
                );
                if let Some(metrics) = &metrics {
                    metrics.record(&outcome);
                }
                outcome
            })
            .expect("spawning the refit thread");
        self.pending = Some(handle);
        self.refits_started += 1;
        // The streak triggered its refit; a fresh streak (against the new
        // model, once it lands) is required to trigger another.
        self.consecutive_dirty = 0;
    }
}

impl std::fmt::Debug for RefitSupervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefitSupervisor")
            .field("config", &self.config)
            .field("reservoir_len", &self.reservoir.len())
            .field("reservoir_rows", &self.reservoir_rows)
            .field("consecutive_dirty", &self.consecutive_dirty)
            .field("refit_in_flight", &self.pending.is_some())
            .field("refits_started", &self.refits_started)
            .finish()
    }
}

fn join_refit(handle: JoinHandle<RefitOutcome>) -> RefitOutcome {
    handle.join().unwrap_or_else(|_| RefitOutcome::Failed {
        stage: "fit",
        reason: "refit thread panicked".to_string(),
    })
}

/// The background thread body: concat → fit → persist → swap.
fn refit_job(
    mut candidate: Box<dyn Validator>,
    batches: &[DataFrame],
    fit_rows: usize,
    fit_batches: usize,
    model_path: Option<PathBuf>,
    swap: &SwapHandle,
    trigger_columns: Vec<String>,
) -> RefitOutcome {
    let clean = match concat_batches(batches) {
        Ok(frame) => frame,
        Err(reason) => {
            return RefitOutcome::Failed {
                stage: "fit",
                reason,
            }
        }
    };
    if let Err(err) = candidate.fit(&clean) {
        return RefitOutcome::Failed {
            stage: "fit",
            reason: err.to_string(),
        };
    }
    let persisted_to = match model_path {
        Some(path) => {
            if let Err(err) = save_validator(&path, candidate.as_ref()) {
                return RefitOutcome::Failed {
                    stage: "persist",
                    reason: err.to_string(),
                };
            }
            Some(path)
        }
        None => None,
    };
    match swap.swap_validator(candidate) {
        Ok(generation) => RefitOutcome::Swapped {
            generation,
            fit_rows,
            fit_batches,
            persisted_to,
            trigger_columns,
        },
        Err(closed) => RefitOutcome::Failed {
            stage: "swap",
            reason: closed.to_string(),
        },
    }
}

/// Stack the reservoir batches into one training frame (schema of the
/// first; every batch must match, which the engine guarantees by
/// construction — batches all passed the same fitted validator).
fn concat_batches(batches: &[DataFrame]) -> std::result::Result<DataFrame, String> {
    let first = batches
        .first()
        .ok_or_else(|| "refit reservoir is empty".to_string())?;
    let mut out = DataFrame::new(first.schema().clone());
    for batch in batches {
        for row in batch.iter_rows() {
            out.push_row(row).map_err(|err| err.to_string())?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::load_validator;
    use dquag_core::spec::DriftSpec;
    use dquag_core::{BackpressurePolicy, StreamConfig};
    use dquag_tabular::{Field, Schema, Value};
    use dquag_validate::DriftValidator;
    use std::time::Duration;

    fn unique_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dquag-supervisor-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn frame(values: impl IntoIterator<Item = f64>) -> DataFrame {
        let schema = Schema::new(vec![Field::numeric("amount", "")]);
        let mut df = DataFrame::new(schema);
        for v in values {
            df.push_row(vec![Value::Number(v)]).unwrap();
        }
        df
    }

    fn clean_batch(n: usize) -> DataFrame {
        frame((0..n).map(|i| (i % 17) as f64))
    }

    fn shifted_batch(n: usize) -> DataFrame {
        frame((0..n).map(|i| 500.0 + (i % 17) as f64))
    }

    fn fitted_drift() -> Box<dyn Validator> {
        let mut v = DriftValidator::new(DriftSpec::default());
        v.fit(&clean_batch(120)).unwrap();
        Box::new(v)
    }

    #[test]
    fn drift_streak_refits_persists_and_hot_swaps() {
        let dir = unique_dir("refit");
        let model_path = dir.join("refit.json");
        let (engine, ingest, verdicts) = StreamEngineFixture::start();
        let boot = fitted_drift();

        let mut supervisor = RefitSupervisor::new(
            engine.swap_handle(),
            SupervisorConfig {
                reservoir_capacity: 8,
                patience: 2,
                min_fit_rows: 60,
                model_path: Some(model_path.clone()),
            },
            || Box::new(DriftValidator::new(DriftSpec::default())),
        );

        // Warm the reservoir with clean traffic, then sustain drift.
        let clean_verdict = boot.validate(&clean_batch(40)).unwrap();
        assert!(!clean_verdict.is_dirty);
        for _ in 0..3 {
            assert!(!supervisor.observe(&clean_batch(40), &clean_verdict));
        }
        let dirty_verdict = boot.validate(&shifted_batch(40)).unwrap();
        assert!(dirty_verdict.is_dirty);
        assert!(!supervisor.observe(&shifted_batch(40), &dirty_verdict));
        assert!(supervisor.observe(&shifted_batch(40), &dirty_verdict));
        assert!(supervisor.refit_in_flight() || supervisor.refits_started() == 1);

        let outcomes = supervisor.wait_idle();
        assert_eq!(outcomes.len(), 1);
        match &outcomes[0] {
            RefitOutcome::Swapped {
                generation,
                fit_rows,
                fit_batches,
                persisted_to,
                trigger_columns,
            } => {
                assert_eq!(*generation, 1);
                assert_eq!(*fit_batches, 3);
                assert_eq!(*fit_rows, 120);
                assert_eq!(persisted_to.as_deref(), Some(model_path.as_path()));
                assert!(
                    trigger_columns.is_empty(),
                    "no data telemetry attached, so no trigger columns"
                );
            }
            other => panic!("expected a swap, got {other:?}"),
        }
        // The refitted model is on disk and loadable, and the engine now
        // serves the next generation.
        load_validator(&model_path).unwrap();
        assert_eq!(engine.generation(), 1);

        drop(ingest);
        drop(verdicts);
        engine.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reservoir_stays_bounded_and_thin_data_blocks_refit() {
        let (engine, ingest, verdicts) = StreamEngineFixture::start();
        let boot = fitted_drift();
        let mut supervisor = RefitSupervisor::new(
            engine.swap_handle(),
            SupervisorConfig {
                reservoir_capacity: 3,
                patience: 1,
                min_fit_rows: 10_000,
                model_path: None,
            },
            || Box::new(DriftValidator::new(DriftSpec::default())),
        );

        let clean_verdict = boot.validate(&clean_batch(40)).unwrap();
        for _ in 0..6 {
            supervisor.observe(&clean_batch(40), &clean_verdict);
        }
        // Capacity bounds the reservoir: only the 3 freshest batches remain.
        assert_eq!(supervisor.reservoir_len(), 3);
        assert_eq!(supervisor.reservoir_rows(), 120);

        // Drift alone is not enough — without min_fit_rows of clean data the
        // supervisor refuses to swap in an under-trained model.
        let dirty_verdict = boot.validate(&shifted_batch(40)).unwrap();
        assert!(!supervisor.observe(&shifted_batch(40), &dirty_verdict));
        assert!(!supervisor.refit_in_flight());
        assert_eq!(supervisor.refits_started(), 0);
        assert_eq!(engine.generation(), 0);

        drop(ingest);
        drop(verdicts);
        engine.shutdown();
    }

    #[test]
    fn failed_fit_reports_a_failure_and_keeps_the_old_generation() {
        let (engine, ingest, verdicts) = StreamEngineFixture::start();
        let boot = fitted_drift();
        // A factory whose candidates cannot fit.
        let mut supervisor = RefitSupervisor::new(
            engine.swap_handle(),
            SupervisorConfig {
                reservoir_capacity: 4,
                patience: 1,
                min_fit_rows: 1,
                model_path: None,
            },
            || Box::new(FailingFit),
        );

        let clean_verdict = boot.validate(&clean_batch(40)).unwrap();
        supervisor.observe(&clean_batch(40), &clean_verdict);
        let dirty_verdict = boot.validate(&shifted_batch(40)).unwrap();
        assert!(supervisor.observe(&shifted_batch(40), &dirty_verdict));

        let outcomes = supervisor.wait_idle();
        assert_eq!(outcomes.len(), 1);
        match &outcomes[0] {
            RefitOutcome::Failed { stage, reason } => {
                assert_eq!(*stage, "fit");
                assert!(!reason.is_empty());
            }
            other => panic!("expected a fit failure, got {other:?}"),
        }
        assert_eq!(engine.generation(), 0, "old model keeps serving");

        drop(ingest);
        drop(verdicts);
        engine.shutdown();
    }

    #[test]
    fn diverged_refit_is_neither_persisted_nor_swapped() {
        use dquag_core::DquagConfig;
        use dquag_datagen::DatasetKind;
        use dquag_validate::DquagBackend;
        let dir = unique_dir("diverged");
        let model_path = dir.join("refit.json");
        let (engine, ingest, verdicts) = StreamEngineFixture::start();
        let boot = fitted_drift();
        // A step this large drives the weights to NaN in the first epoch.
        let mut supervisor = RefitSupervisor::new(
            engine.swap_handle(),
            SupervisorConfig {
                reservoir_capacity: 4,
                patience: 1,
                min_fit_rows: 1,
                model_path: Some(model_path.clone()),
            },
            || {
                Box::new(DquagBackend::new(DquagConfig {
                    learning_rate: 1e30,
                    ..DquagConfig::fast()
                }))
            },
        );

        // The boot model's verdicts drive the streak; the banked clean batch
        // is what the candidate fits on.
        let clean_verdict = boot.validate(&clean_batch(40)).unwrap();
        supervisor.observe(
            &DatasetKind::CreditCard.generate_clean(300, 7),
            &clean_verdict,
        );
        let dirty_verdict = boot.validate(&shifted_batch(40)).unwrap();
        assert!(supervisor.observe(&shifted_batch(40), &dirty_verdict));

        let outcomes = supervisor.wait_idle();
        assert!(
            matches!(
                outcomes.as_slice(),
                [RefitOutcome::Failed { stage: "fit", .. }]
            ),
            "{outcomes:?}"
        );
        assert!(!model_path.exists(), "a diverged model is never persisted");
        assert_eq!(engine.generation(), 0, "old model keeps serving");

        drop(ingest);
        drop(verdicts);
        engine.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refit_outcomes_are_visible_in_registry_and_flight_recorder() {
        use dquag_telemetry::TelemetryConfig;
        let telemetry = TelemetryConfig {
            flight_recorder_capacity: 64,
            dump_on_error: false,
            ..TelemetryConfig::default()
        }
        .build()
        .expect("telemetry is enabled");
        let (engine, ingest, verdicts) = StreamEngineFixture::start();
        let boot = fitted_drift();

        // Round 1: a factory whose candidates cannot fit — the failure must
        // surface in the counter and the journal, not just in the harvested
        // outcome.
        let mut supervisor = RefitSupervisor::new(
            engine.swap_handle(),
            SupervisorConfig {
                reservoir_capacity: 4,
                patience: 1,
                min_fit_rows: 1,
                model_path: None,
            },
            || Box::new(FailingFit),
        )
        .with_telemetry(Arc::clone(&telemetry));

        let clean_verdict = boot.validate(&clean_batch(40)).unwrap();
        supervisor.observe(&clean_batch(40), &clean_verdict);
        let dirty_verdict = boot.validate(&shifted_batch(40)).unwrap();
        assert!(supervisor.observe(&shifted_batch(40), &dirty_verdict));
        assert!(matches!(
            supervisor.wait_idle().as_slice(),
            [RefitOutcome::Failed { stage: "fit", .. }]
        ));

        let registry = telemetry.registry();
        let failed =
            registry.counter_with("dquag_refit_outcomes_total", "", &[("outcome", "failed")]);
        let swapped =
            registry.counter_with("dquag_refit_outcomes_total", "", &[("outcome", "swapped")]);
        assert_eq!(failed.get(), 1);
        assert_eq!(swapped.get(), 0);
        let events = telemetry.recorder().dump();
        assert!(
            events.iter().any(|e| matches!(
                &e.kind,
                FlightEventKind::RefitFailed { stage, reason }
                    if stage == "fit" && reason.contains("synthetic fit failure")
            )),
            "journal: {events:?}"
        );

        // Round 2: a working factory on the same bundle — the swap lands in
        // the other counter with generation and fit-row detail journaled.
        let mut supervisor = RefitSupervisor::new(
            engine.swap_handle(),
            SupervisorConfig {
                reservoir_capacity: 4,
                patience: 1,
                min_fit_rows: 1,
                model_path: None,
            },
            || Box::new(DriftValidator::new(DriftSpec::default())),
        )
        .with_telemetry(Arc::clone(&telemetry));
        supervisor.observe(&clean_batch(40), &clean_verdict);
        assert!(supervisor.observe(&shifted_batch(40), &dirty_verdict));
        assert!(matches!(
            supervisor.wait_idle().as_slice(),
            [RefitOutcome::Swapped { .. }]
        ));
        assert_eq!(swapped.get(), 1);
        assert_eq!(failed.get(), 1);
        assert!(telemetry.recorder().dump().iter().any(|e| matches!(
            &e.kind,
            FlightEventKind::RefitSwapped {
                generation: 1,
                fit_rows: 40,
                ..
            }
        )));

        drop(ingest);
        drop(verdicts);
        engine.shutdown();
    }

    /// A candidate model that refuses to fit — exercises the failure path.
    struct FailingFit;

    impl Validator for FailingFit {
        fn name(&self) -> &str {
            "failing-fit"
        }

        fn capabilities(&self) -> dquag_validate::Capabilities {
            dquag_validate::Capabilities::dataset_level()
        }

        fn fit(&mut self, _clean: &DataFrame) -> dquag_validate::Result<dquag_validate::FitReport> {
            Err(dquag_validate::ValidateError::InvalidConfig(
                "synthetic fit failure".to_string(),
            ))
        }

        fn validate(&self, _batch: &DataFrame) -> dquag_validate::Result<Verdict> {
            Err(dquag_validate::ValidateError::InvalidConfig(
                "never fitted".to_string(),
            ))
        }
    }

    /// A minimal live engine to swap against.
    struct StreamEngineFixture;

    impl StreamEngineFixture {
        fn start() -> (
            dquag_stream::StreamEngine,
            dquag_stream::IngestHandle,
            dquag_stream::VerdictStream,
        ) {
            dquag_stream::StreamEngine::builder()
                .stream_config(&StreamConfig {
                    queue_capacity: 4,
                    replicas: 1,
                    backpressure: BackpressurePolicy::Block,
                    batch_deadline: Some(Duration::from_secs(5)),
                })
                .start(fitted_drift())
                .expect("engine starts")
        }
    }
}
