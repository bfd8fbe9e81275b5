//! [`ValidationSession`]: a fitted validator plus a stream of incoming
//! batches.

use crate::{build_spec, FitReport, Result, Validator, Verdict};
use dquag_core::DquagConfig;
use dquag_tabular::DataFrame;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A streaming validation front-end over a fitted [`Validator`].
///
/// The deployment story of the paper's introduction: batches arrive
/// continuously (daily exports, upstream pipelines) and each one must be
/// judged against the clean reference distribution. The session owns the
/// fitted validator, ingests batches one at a time ([`push_batch`]) or in
/// bulk ([`push_batches`], [`push_stream`]) and keeps the verdict history.
///
/// Batches are judged one after another. To use more cores, split each
/// batch's rows across threads with `DquagConfig::validation_threads`, or
/// spread batches across the replicas of a `dquag-stream` engine.
///
/// [`push_batch`]: ValidationSession::push_batch
/// [`push_batches`]: ValidationSession::push_batches
/// [`push_stream`]: ValidationSession::push_stream
pub struct ValidationSession {
    validator: Box<dyn Validator>,
    fit_report: Option<FitReport>,
    history: Vec<Verdict>,
}

impl ValidationSession {
    /// Fit `validator` on the clean reference data and open a session over
    /// it.
    pub fn fit(mut validator: Box<dyn Validator>, clean: &DataFrame) -> Result<Self> {
        let fit_report = validator.fit(clean)?;
        Ok(Self {
            validator,
            fit_report: Some(fit_report),
            history: Vec::new(),
        })
    }

    /// Open a session over an already-fitted validator.
    pub fn from_fitted(validator: Box<dyn Validator>) -> Self {
        Self {
            validator,
            fit_report: None,
            history: Vec::new(),
        }
    }

    /// Build the validator `config.validator` declares (`dquag` by
    /// default) exactly as `config` configures it, fit it and wrap it in one
    /// call.
    pub fn train(config: &DquagConfig, clean: &DataFrame) -> Result<Self> {
        Self::fit(build_spec(&config.validator, config)?, clean)
    }

    /// The wrapped validator.
    pub fn validator(&self) -> &dyn Validator {
        &*self.validator
    }

    /// The fit report, when the session fitted the validator itself.
    pub fn fit_report(&self) -> Option<&FitReport> {
        self.fit_report.as_ref()
    }

    /// Validate one incoming batch and record the verdict.
    pub fn push_batch(&mut self, batch: &DataFrame) -> Result<&Verdict> {
        let verdict = self.validator.validate(batch)?;
        self.history.push(verdict);
        Ok(self.history.last().expect("just pushed"))
    }

    /// Validate a slice of batches, record the verdicts in input order, and
    /// return them as a slice of the history (no copies; instance-level
    /// verdicts can be large). Nothing is recorded when any batch fails.
    pub fn push_batches(&mut self, batches: &[DataFrame]) -> Result<&[Verdict]> {
        let verdicts = self.validate_batches(batches)?;
        let start = self.history.len();
        self.history.extend(verdicts);
        Ok(&self.history[start..])
    }

    /// Drain an iterator of batches through the session, like
    /// [`push_batches`](Self::push_batches).
    pub fn push_stream<I>(&mut self, stream: I) -> Result<&[Verdict]>
    where
        I: IntoIterator<Item = DataFrame>,
    {
        let batches: Vec<DataFrame> = stream.into_iter().collect();
        self.push_batches(&batches)
    }

    /// Validate a slice of batches without recording them in the history.
    pub fn validate_batches(&self, batches: &[DataFrame]) -> Result<Vec<Verdict>> {
        batches.iter().map(|b| self.validator.validate(b)).collect()
    }

    /// All verdicts recorded so far, oldest first.
    pub fn history(&self) -> &[Verdict] {
        &self.history
    }

    /// Number of batches judged so far.
    pub fn n_batches(&self) -> usize {
        self.history.len()
    }

    /// Number of batches judged dirty so far.
    pub fn n_dirty(&self) -> usize {
        self.history.iter().filter(|v| v.is_dirty).count()
    }

    /// Fraction of judged batches that were dirty (0.0 when empty).
    pub fn dirty_fraction(&self) -> f64 {
        if self.history.is_empty() {
            0.0
        } else {
            self.n_dirty() as f64 / self.history.len() as f64
        }
    }

    /// Mean per-batch error rate ([`Verdict::error_rate`]) over the most
    /// recent `window` verdicts (0.0 when empty; `window == 0` means all).
    pub fn rolling_error_rate(&self, window: usize) -> f64 {
        let window = if window == 0 {
            self.history.len()
        } else {
            window
        };
        let tail = &self.history[self.history.len().saturating_sub(window)..];
        if tail.is_empty() {
            0.0
        } else {
            tail.iter().map(Verdict::error_rate).sum::<f64>() / tail.len() as f64
        }
    }

    /// A serialisable snapshot of the session state.
    pub fn summary(&self) -> SessionSummary {
        SessionSummary {
            validator: self.validator.name().to_string(),
            n_batches: self.n_batches(),
            n_dirty: self.n_dirty(),
            dirty_fraction: self.dirty_fraction(),
            mean_error_rate: self.rolling_error_rate(0),
        }
    }
}

/// Serialisable snapshot of a [`ValidationSession`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSummary {
    /// Name of the wrapped validator.
    pub validator: String,
    /// Batches judged so far.
    pub n_batches: usize,
    /// Batches judged dirty.
    pub n_dirty: usize,
    /// `n_dirty / n_batches` (0.0 when empty).
    pub dirty_fraction: f64,
    /// Mean per-batch error rate over the whole history.
    pub mean_error_rate: f64,
}

/// One-line operational summary, e.g.
/// `DQuaG: 7 batches, 2 dirty (28.6%), mean error rate 4.2%`.
impl fmt::Display for SessionSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} batches, {} dirty ({:.1}%), mean error rate {:.1}%",
            self.validator,
            self.n_batches,
            self.n_dirty,
            100.0 * self.dirty_fraction,
            100.0 * self.mean_error_rate,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_display_is_one_line() {
        let summary = SessionSummary {
            validator: "Stub".into(),
            n_batches: 4,
            n_dirty: 1,
            dirty_fraction: 0.25,
            mean_error_rate: 0.05,
        };
        assert_eq!(
            summary.to_string(),
            "Stub: 4 batches, 1 dirty (25.0%), mean error rate 5.0%"
        );
    }
}
