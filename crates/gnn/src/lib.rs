//! # dquag-gnn
//!
//! Graph-neural-network building blocks for the DQuaG reproduction
//! (EDBT 2025, "Automated Data Quality Validation in an End-to-End GNN
//! Framework").
//!
//! The paper's model is:
//!
//! * an **encoder** of four alternating layers — GAT, GIN, GAT, GIN — over the
//!   feature graph, hidden dimension 64 ([`encoder::Encoder`],
//!   [`encoder::EncoderKind::GatGin`]);
//! * a **dual decoder**: a *data-quality validation decoder* that reconstructs
//!   the input features (reconstruction error drives detection) and a *data
//!   repair decoder* that proposes corrected values
//!   ([`decoder::DualDecoder`]);
//! * a **multi-task loss** `L_total = α·L_validation + β·L_repair`, where the
//!   validation term weights each sample by how "normal" it looks
//!   ([`model::MultiTaskLoss`]).
//!
//! For the encoder-architecture ablation (Table 2 of the paper) the crate
//! also ships GCN layers, the homogeneous GCN stack, the GCN+GAT and GCN+GIN
//! hybrids, and a Graph2Vec-style structural encoder.
//!
//! Every sample of a tabular dataset becomes one tiny graph: node `i` carries
//! the (encoded, normalised) value of feature `i`, edges come from the
//! feature graph built by `dquag-graph`. Layers therefore operate on
//! `n_features × hidden` matrices via the `dquag-tensor` autograd tape.
//!
//! The network has one forward pass, [`model::DquagNetwork::forward_batch`]:
//! `B` samples are stacked vertically into one `(B·n_features) × hidden`
//! matrix and pushed through the whole network in a single matrix-level pass.
//! Scoring runs it on an [`model::InferenceSession`], which binds the
//! parameters once; training runs it once per sample (`B = 1`) on a fresh
//! tape. Message passing never crosses sample blocks, so a row scores the
//! same alone or stacked; the seeded randomized suite in
//! `tests/batched_forward.rs` holds the two bit for bit.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod context;
pub mod decoder;
pub mod encoder;
pub mod health;
pub mod layers;
pub mod model;
pub mod params;

pub use context::GraphContext;
pub use decoder::DualDecoder;
pub use encoder::{Encoder, EncoderKind};
pub use health::{ActivationFault, HealthError};
pub use model::{
    BatchOutput, BatchScores, DquagNetwork, InferenceSession, ModelConfig, MultiTaskLoss,
};
pub use params::{BoundParams, ParamId, ParamStore};
