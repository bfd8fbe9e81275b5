//! # dquag-graph
//!
//! Feature-graph construction for DQuaG (EDBT 2025).
//!
//! The paper builds a *knowledge-based feature graph* `G = (V, E)` whose nodes
//! are the columns of the tabular dataset and whose edges connect columns
//! that are semantically or statistically related. In the paper this edge set
//! is produced by prompting **ChatGPT-4** with the feature names, feature
//! descriptions and 100 sampled rows, and parsing the returned JSON.
//!
//! An interactive LLM is not available in this reproduction, so the crate
//! answers the same question with one statistical stand-in,
//! [`knowledge::StatisticalOracle`]. It computes pairwise association
//! strengths on the same 100-row sample the paper would send to the LLM
//! (Pearson correlation for numeric pairs, Cramér's V for categorical
//! pairs, the correlation ratio η for mixed pairs, plus a light name-token
//! heuristic) and keeps the pairs that clear a threshold.
//!
//! A real ChatGPT-4 answer, or a hand-written one, in the paper's format
//! (`{"relationships": [{"feature1": …, "feature2": …}, …]}`) goes in as a
//! graph instead of an oracle: [`RelationshipSet::from_json`] parses it,
//! [`FeatureGraph::from_relationships`] builds the graph, and `dquag-core`
//! trains on it when it is set as `DquagConfig::feature_graph_override`.
//!
//! Downstream, [`FeatureGraph`] exposes the dense adjacency structures the
//! GNN layers need: a binary adjacency with self-loops (GIN), the
//! symmetric-normalised adjacency (GCN), and an additive attention mask
//! (GAT).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod feature_graph;

pub mod knowledge;
pub mod measures;

pub use feature_graph::{FeatureGraph, GraphError, Relationship, RelationshipSet};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
