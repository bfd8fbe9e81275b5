//! Error type for the end-to-end pipeline.

use std::fmt;

/// Errors surfaced by training, validation and repair.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The clean training dataset is unusable (empty or too small), or the
    /// fit on it diverged to a non-finite loss or threshold.
    InvalidTrainingData(String),
    /// A dataframe handed to phase 2 does not match the training schema.
    SchemaMismatch(String),
    /// A configuration value is outside its legal range.
    InvalidConfig(String),
    /// A validation report handed to repair was made for another dataframe:
    /// it covers another number of rows, or flags a row or cell outside the
    /// frame.
    ReportMismatch(String),
    /// An error bubbled up from the tabular substrate.
    Tabular(String),
    /// An error bubbled up from feature-graph construction.
    Graph(String),
    /// A persisted model state is structurally inconsistent or fails its
    /// parameter checksum. Loading fails closed: a model that cannot prove
    /// its integrity never scores a batch.
    CorruptModel(String),
    /// A *fitted, running* model failed a runtime self-check — parameter
    /// checksum drift, a NaN escaping a kernel, a poisoned activation. Unlike
    /// [`CoreError::CorruptModel`] (load-time, fail-closed) this fires while
    /// serving and signals that the replica should be quarantined and
    /// rebuilt, not merely that this batch failed.
    Health(dquag_gnn::HealthError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidTrainingData(msg) => write!(f, "invalid training data: {msg}"),
            CoreError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::ReportMismatch(msg) => write!(f, "report does not fit the data: {msg}"),
            CoreError::Tabular(msg) => write!(f, "tabular error: {msg}"),
            CoreError::Graph(msg) => write!(f, "feature-graph error: {msg}"),
            CoreError::CorruptModel(msg) => write!(f, "corrupt model state: {msg}"),
            CoreError::Health(violation) => write!(f, "model health violation: {violation}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<dquag_tabular::TabularError> for CoreError {
    fn from(e: dquag_tabular::TabularError) -> Self {
        CoreError::Tabular(e.to_string())
    }
}

impl From<dquag_graph::GraphError> for CoreError {
    fn from(e: dquag_graph::GraphError) -> Self {
        CoreError::Graph(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e = CoreError::InvalidTrainingData("empty".into());
        assert!(e.to_string().contains("empty"));
        let t: CoreError = dquag_tabular::TabularError::UnknownColumn("x".into()).into();
        assert!(t.to_string().contains("x"));
        let g: CoreError = dquag_graph::GraphError::UnknownFeature("f".into()).into();
        assert!(g.to_string().contains("f"));
        let h = CoreError::Health(dquag_gnn::HealthError::NonFiniteKernel { index: 2 });
        assert!(h.to_string().contains("health violation"), "{h}");
    }
}
