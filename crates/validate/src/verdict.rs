//! The unified result model: [`Verdict`], [`FitReport`] and [`Capabilities`].

use dquag_core::CellFlag;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How much detail a backend can produce.
///
/// Every backend answers the dataset-level question; the flags here describe
/// the *graded* detail the paper's comparison revolves around: DQuaG localises
/// problems down to instances and cells and can propose repairs, while the
/// rule- and statistics-based baselines only judge whole batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Capabilities {
    /// Produces per-instance anomaly scores ([`Verdict::instance_errors`]).
    pub instance_errors: bool,
    /// Localises problems to individual cells ([`Verdict::cell_flags`]).
    pub cell_flags: bool,
    /// Can propose repaired values for flagged cells ([`crate::Validator::repair`]).
    pub repair: bool,
    /// Fitting trains a model (as opposed to collecting statistics), so fit
    /// cost is dominated by training epochs.
    pub trains_model: bool,
}

impl Capabilities {
    /// The baseline profile: dataset-level verdicts only.
    pub fn dataset_level() -> Self {
        Self {
            instance_errors: false,
            cell_flags: false,
            repair: false,
            trains_model: false,
        }
    }

    /// The full-detail profile (DQuaG).
    pub fn full_detail() -> Self {
        Self {
            instance_errors: true,
            cell_flags: true,
            repair: true,
            trains_model: true,
        }
    }
}

/// What fitting a validator on clean reference data produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitReport {
    /// Display name of the fitted validator.
    pub validator: String,
    /// Rows of the clean reference dataset.
    pub n_rows: usize,
    /// Columns of the clean reference dataset.
    pub n_columns: usize,
    /// Detection threshold calibrated during fitting, if the backend has one.
    pub threshold: Option<f32>,
    /// Number of trained scalar parameters, if the backend trains a model.
    pub n_parameters: Option<usize>,
    /// Human-readable notes about the fitted state (constraint counts,
    /// learned bounds, graph edges, …).
    pub notes: Vec<String>,
}

/// The unified judgement of one batch.
///
/// All backends fill the dataset-level fields (`is_dirty`, `score`,
/// `violations`); backends whose [`Capabilities`] allow it also attach
/// instance- and cell-level detail. The struct is serde-serialisable so
/// verdicts can be logged, shipped across services and diffed in tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Display name of the validator that produced this verdict.
    pub validator: String,
    /// Dataset-level decision: does the batch have data-quality issues?
    pub is_dirty: bool,
    /// Anomaly score, higher = more anomalous. For DQuaG this is the flagged
    /// instance fraction `R_error`; baselines report their native score.
    pub score: f64,
    /// Number of instances (rows) in the judged batch.
    pub n_instances: usize,
    /// Human-readable descriptions of violated constraints / anomalies.
    /// Non-empty whenever `is_dirty` is true.
    pub violations: Vec<String>,
    /// Per-instance reconstruction errors (backends with
    /// [`Capabilities::instance_errors`]).
    pub instance_errors: Option<Vec<f32>>,
    /// Indices of flagged instances, ascending (backends with
    /// [`Capabilities::instance_errors`]).
    pub flagged_instances: Option<Vec<usize>>,
    /// Flagged `(row, column)` cells (backends with
    /// [`Capabilities::cell_flags`]).
    pub cell_flags: Option<Vec<CellFlag>>,
    /// The detection threshold in force, if the backend has one.
    pub threshold: Option<f32>,
}

impl Verdict {
    /// A dataset-level verdict with no instance detail.
    pub fn dataset_level(
        validator: impl Into<String>,
        is_dirty: bool,
        score: f64,
        n_instances: usize,
        violations: Vec<String>,
    ) -> Self {
        Self {
            validator: validator.into(),
            is_dirty,
            score,
            n_instances,
            violations,
            instance_errors: None,
            flagged_instances: None,
            cell_flags: None,
            threshold: None,
        }
    }

    /// Fraction of instances flagged, when instance detail is available.
    pub fn flagged_fraction(&self) -> Option<f64> {
        match (&self.flagged_instances, self.n_instances) {
            (Some(flagged), n) if n > 0 => Some(flagged.len() as f64 / n as f64),
            _ => None,
        }
    }

    /// The per-batch error rate in `[0, 1]`: the flagged instance fraction
    /// where the backend localises errors, otherwise `1.0`/`0.0` for a
    /// dirty/clean dataset verdict. Backend-native [`Verdict::score`]s live
    /// on incomparable scales (kNN distances, drift ratios), so they are
    /// deliberately *not* used here: averaged over a history of verdicts,
    /// this rate compares backends on one scale.
    pub fn error_rate(&self) -> f64 {
        match self.flagged_fraction() {
            Some(fraction) => fraction,
            None if self.is_dirty => 1.0,
            None => 0.0,
        }
    }

    /// True if the given row is flagged (always false without instance
    /// detail). `flagged_instances` is kept sorted, so this is a binary
    /// search.
    pub fn is_flagged(&self, row: usize) -> bool {
        self.flagged_instances
            .as_ref()
            .is_some_and(|flagged| flagged.binary_search(&row).is_ok())
    }
}

/// One-line headline plus indented violation messages — the format every
/// example and CLI binary previously hand-rolled.
///
/// ```text
/// DQuaG: PROBLEMATIC (score 0.2134, 800 instances, 163 flagged, 201 cells)
///   - 20.4% of instances exceed the reconstruction-error threshold …
/// ```
impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} (score {:.4}, {} instances",
            self.validator,
            if self.is_dirty {
                "PROBLEMATIC"
            } else {
                "clean"
            },
            self.score,
            self.n_instances,
        )?;
        if let Some(flagged) = &self.flagged_instances {
            write!(f, ", {} flagged", flagged.len())?;
        }
        if let Some(cells) = &self.cell_flags {
            write!(f, ", {} cells", cells.len())?;
        }
        write!(f, ")")?;
        for violation in &self.violations {
            write!(f, "\n  - {violation}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_level_verdict_has_no_detail() {
        let v = Verdict::dataset_level("Deequ auto", true, 3.0, 100, vec!["x".into()]);
        assert!(v.is_dirty);
        assert_eq!(v.flagged_fraction(), None);
        // The native score (a constraint-failure count here) is not a rate;
        // without instance detail the error rate is the 0/1 dataset verdict.
        assert_eq!(v.error_rate(), 1.0);
        let clean = Verdict::dataset_level("Deequ auto", false, 0.4, 100, vec![]);
        assert_eq!(clean.error_rate(), 0.0);
        assert!(!v.is_flagged(0));
    }

    #[test]
    fn flagged_fraction_and_lookup() {
        let mut v = Verdict::dataset_level("DQuaG", true, 0.2, 10, vec!["r".into()]);
        v.flagged_instances = Some(vec![1, 4]);
        assert_eq!(v.flagged_fraction(), Some(0.2));
        assert_eq!(v.error_rate(), 0.2);
        assert!(v.is_flagged(4));
        assert!(!v.is_flagged(2));
    }

    #[test]
    fn capability_profiles() {
        assert!(!Capabilities::dataset_level().cell_flags);
        assert!(Capabilities::full_detail().repair);
    }

    #[test]
    fn display_headline_and_violations() {
        let mut v = Verdict::dataset_level("DQuaG", true, 0.2, 10, vec!["too many errors".into()]);
        v.flagged_instances = Some(vec![1, 4]);
        v.cell_flags = Some(vec![]);
        let text = v.to_string();
        assert!(text.starts_with("DQuaG: PROBLEMATIC (score 0.2000, 10 instances, 2 flagged"));
        assert!(text.contains("\n  - too many errors"));

        let clean = Verdict::dataset_level("Gate", false, 0.01, 10, vec![]);
        assert_eq!(
            clean.to_string(),
            "Gate: clean (score 0.0100, 10 instances)"
        );
    }
}
