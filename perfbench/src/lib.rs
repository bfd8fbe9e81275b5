//! # dquag-perfbench
//!
//! The repository's end-to-end benchmark. One command takes a workload and
//! a seed, generates the inputs, runs the real deployment in-process,
//! checks every output and prints every metric by name with its unit:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload backfill --seed 1 --seconds 30 --trace 0
//! ```
//!
//! * `backfill` — full-width NY Taxi, 1024-row NDJSON batches POSTed to
//!   `/ingest` on one keep-alive connection, each sent once the previous
//!   verdict is out;
//! * `refit` — CreditCard fit → `save_validator` → `load_validator` →
//!   the §4.2 batch protocol through the reloaded validator.
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! (`--trace 1`) print the per-layer breakdown, where each workspace crate
//! is measured from outside by timing calls into its public functions.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it repeat every
//! metric with its sample count.

#![warn(missing_docs)]

mod check;
pub mod frames;
mod refit;
mod replay;
pub mod report;
mod served;
mod stats;
mod trace;

use check::VerdictKey;
use dquag_core::DquagConfig;
use dquag_persist::{load_validator, save_validator};
use dquag_tabular::DataFrame;
use dquag_validate::Validator;
use report::Report;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Throughput-bound NDJSON backfill over HTTP.
    Backfill,
    /// Fit → persist → reload → judge.
    Refit,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::Backfill, Workload::Refit];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Backfill => "backfill",
            Workload::Refit => "refit",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the same seed gives byte-identical inputs.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run: print the per-layer metrics instead of the end-to-end
    /// ones.
    pub trace: bool,
    /// Tiny inputs, one set-up and a 2-epoch fit, for the benchmark's own
    /// tests.
    pub smoke: bool,
    /// Flip one served verdict before the correctness check (self-test of
    /// the check).
    pub tamper: bool,
}

impl Options {
    /// Default settings for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            smoke: false,
            tamper: false,
        }
    }

    /// Set-ups per run (`setup_s` is their median): the workload's `full`
    /// count, or one in smoke runs.
    pub(crate) fn setups(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }

    /// The deployment's configuration: `DquagConfig::default()` (smoke runs
    /// train for 2 epochs only).
    pub fn config(&self) -> DquagConfig {
        let mut config = DquagConfig::default();
        if self.smoke {
            config.epochs = 2;
        }
        config
    }
}

/// Where runs leave model files and traces, relative to the working
/// directory.
pub(crate) fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// Timings of one save → load → first verdict round trip.
#[derive(Debug, Clone)]
pub(crate) struct Reload {
    /// `save_validator` time.
    pub save_ms: f64,
    /// `load_validator` time.
    pub load_ms: f64,
    /// First `validate` on the reloaded validator.
    pub first_ms: f64,
    /// Size of the saved model envelope.
    pub bytes: u64,
    /// The reloaded validator's first verdict.
    pub first: VerdictKey,
}

impl Reload {
    /// Save + load + first verdict.
    pub fn total_ms(&self) -> f64 {
        self.save_ms + self.load_ms + self.first_ms
    }
}

/// Save `validator` to `path`, load it back and judge `frame` with the
/// loaded copy.
pub(crate) fn reload(
    validator: &dyn Validator,
    frame: &DataFrame,
    path: &Path,
) -> Result<(Reload, Box<dyn Validator>), String> {
    let started = Instant::now();
    save_validator(path, validator).map_err(|e| format!("saving: {e}"))?;
    let saved = Instant::now();
    let loaded = load_validator(path).map_err(|e| format!("loading: {e}"))?;
    let restored = Instant::now();
    let verdict = loaded
        .validate(frame)
        .map_err(|e| format!("first verdict after reload: {e}"))?;
    let judged = Instant::now();
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
    Ok((
        Reload {
            save_ms: ms(started, saved),
            load_ms: ms(saved, restored),
            first_ms: ms(restored, judged),
            bytes,
            first: VerdictKey::from_verdict(verdict),
        },
        loaded,
    ))
}

/// Save → load → first verdict rounds per refit cycle.
pub(crate) const RELOADS: usize = 15;

/// The smallest value of one field over reload rounds: best-of-N, which a
/// busy spell of the host cannot raise unless it covers every round.
fn fastest_of(reloads: &[Reload], field: fn(&Reload) -> f64) -> f64 {
    stats::minimum(&reloads.iter().map(field).collect::<Vec<_>>())
}

/// A model file name no other run in this process uses.
pub(crate) fn model_path(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    out_dir().join(format!("model-{tag}-{}-{n}.json", std::process::id()))
}

/// Report the reload rounds: `reload_ms` and the persist layer, each the
/// fastest of the rounds.
pub(crate) fn report_reloads(rounds: &[Reload], report: &mut Report) {
    let n = rounds.len() as u64;
    report.set_noted(
        "reload_ms",
        fastest_of(rounds, Reload::total_ms),
        n,
        "fastest round".to_string(),
    );
    report.set("persist.save_ms", fastest_of(rounds, |r| r.save_ms), n);
    report.set("persist.load_ms", fastest_of(rounds, |r| r.load_ms), n);
    report.set(
        "persist.model_bytes",
        fastest_of(rounds, |r| r.bytes as f64),
        n,
    );
}

/// Run one workload. `Err` means the run could not complete (no result
/// can be reported); correctness problems are in the report.
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    match opts.workload {
        Workload::Backfill => served::run(opts, &mut report)?,
        Workload::Refit => refit::run(opts, &mut report)?,
    }
    report.set("peak_rss_mb", stats::peak_rss_mb(), 1);
    Ok(report)
}
