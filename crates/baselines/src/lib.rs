//! # dquag-baselines
//!
//! Re-implementations of the four baseline data-quality validators the paper
//! compares against (§4.1.3):
//!
//! * [`deequ`] — Amazon **Deequ**-style constraint suites, with an *auto*
//!   profile (the automatically suggested constraints, which tend to be too
//!   strict) and an *expert* profile (manually relaxed bounds, as the paper's
//!   authors tuned by hand).
//! * [`tfdv`] — **TensorFlow Data Validation**-style schema inference and
//!   anomaly detection, again with *auto* and *expert* profiles.
//! * [`adqv`] — **ADQV** (Redyuk et al., EDBT 2021): k-nearest-neighbour
//!   conformance testing over per-batch descriptive-statistics vectors.
//! * [`gate`] — **Gate** (Shankar et al., CIKM 2023): partition-summary
//!   statistical tests with thresholds learned from clean batches.
//!
//! All validators implement the [`BatchValidator`] trait: fit once on the
//! clean reference dataset, then judge incoming batches. The paper evaluates
//! exactly this decision behaviour (does the tool flag a corrupted batch?),
//! which is what these re-implementations reproduce — including the failure
//! modes reported in the paper (auto constraints too strict or too soft, and
//! no detector being able to see the hidden cross-attribute conflicts).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adqv;
pub mod deequ;
pub mod gate;
pub mod tfdv;

use dquag_tabular::DataFrame;

/// Verdict of a validator on one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchVerdict {
    /// True if the validator flags the batch as having data-quality issues.
    pub is_dirty: bool,
    /// A validator-specific anomaly score (higher = more anomalous).
    pub score: f64,
    /// Human-readable descriptions of the violated constraints/anomalies.
    pub violations: Vec<String>,
}

impl BatchVerdict {
    /// A verdict with no findings.
    pub fn clean() -> Self {
        Self {
            is_dirty: false,
            score: 0.0,
            violations: Vec::new(),
        }
    }
}

/// A data-quality validator that is fitted on a clean reference dataset and
/// then judges incoming batches.
///
/// This is the *backend* SPI of the baseline re-implementations; user-facing
/// code should normally go through the unified `dquag_validate::Validator`
/// trait, which wraps every baseline (and DQuaG itself) behind one API.
pub trait BatchValidator: Send + Sync {
    /// The display name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Fit the validator on the clean reference dataset.
    fn fit(&mut self, clean: &DataFrame);

    /// Judge a batch of new data.
    fn validate(&self, batch: &DataFrame) -> BatchVerdict;
}

/// Identifier for the baseline configurations used across the experiment
/// harnesses (DQuaG itself lives in `dquag-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineKind {
    /// Deequ with automatically suggested constraints.
    DeequAuto,
    /// Deequ with expert-tuned constraints.
    DeequExpert,
    /// TFDV with the inferred schema as-is.
    TfdvAuto,
    /// TFDV with an expert-tuned schema.
    TfdvExpert,
    /// ADQV's kNN-over-batch-statistics approach.
    Adqv,
    /// Gate's learned statistical tests.
    Gate,
}

impl BaselineKind {
    /// All baselines in the order the paper lists them.
    pub const ALL: [BaselineKind; 6] = [
        BaselineKind::DeequAuto,
        BaselineKind::DeequExpert,
        BaselineKind::TfdvAuto,
        BaselineKind::TfdvExpert,
        BaselineKind::Adqv,
        BaselineKind::Gate,
    ];

    /// The paper's display label.
    pub fn label(&self) -> &'static str {
        match self {
            BaselineKind::DeequAuto => "Deequ auto",
            BaselineKind::DeequExpert => "Deequ expert",
            BaselineKind::TfdvAuto => "TFDV auto",
            BaselineKind::TfdvExpert => "TFDV expert",
            BaselineKind::Adqv => "ADQV",
            BaselineKind::Gate => "Gate",
        }
    }

    /// The backend name the validator registry files this baseline under.
    pub fn key(&self) -> &'static str {
        match self {
            BaselineKind::DeequAuto => "deequ-auto",
            BaselineKind::DeequExpert => "deequ-expert",
            BaselineKind::TfdvAuto => "tfdv-auto",
            BaselineKind::TfdvExpert => "tfdv-expert",
            BaselineKind::Adqv => "adqv",
            BaselineKind::Gate => "gate",
        }
    }

    /// Instantiate the corresponding (unfitted) validator.
    pub fn build(&self) -> Box<dyn BatchValidator> {
        match self {
            BaselineKind::DeequAuto => Box::new(deequ::Deequ::auto()),
            BaselineKind::DeequExpert => Box::new(deequ::Deequ::expert()),
            BaselineKind::TfdvAuto => Box::new(tfdv::Tfdv::auto()),
            BaselineKind::TfdvExpert => Box::new(tfdv::Tfdv::expert()),
            BaselineKind::Adqv => Box::new(adqv::Adqv::default()),
            BaselineKind::Gate => Box::new(gate::Gate::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = BaselineKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Deequ auto",
                "Deequ expert",
                "TFDV auto",
                "TFDV expert",
                "ADQV",
                "Gate"
            ]
        );
    }

    #[test]
    fn every_kind_builds_a_validator() {
        for kind in BaselineKind::ALL {
            let validator = kind.build();
            assert!(!validator.name().is_empty());
        }
    }

    #[test]
    fn clean_verdict_has_no_findings() {
        let v = BatchVerdict::clean();
        assert!(!v.is_dirty);
        assert!(v.violations.is_empty());
    }
}
