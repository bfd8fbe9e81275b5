//! The dual-decoder head: data-quality validation and data repair.
//!
//! Both decoders consume the shared embeddings `Z ∈ R^{n × h}` produced by the
//! encoder, but are optimised with different objectives (§3.1.2 of the
//! paper):
//!
//! * the **validation decoder** reconstructs the original feature values and
//!   is trained with a *weighted* reconstruction loss that emphasises samples
//!   that already look normal, sharpening the clean/abnormal separation;
//! * the **repair decoder** outputs replacement values and is trained with a
//!   plain reconstruction loss towards the clean values.
//!
//! Keeping the decoders separate avoids the conflicting-objective problem the
//! paper describes: one head is allowed to be a harsh critic while the other
//! learns to produce plausible in-distribution values.

use crate::layers::Mlp;
use crate::params::{BoundParams, ParamStore};
use dquag_tensor::init::InitRng;
use dquag_tensor::Var;

/// The two task-specific decoders.
#[derive(Debug, Clone)]
pub struct DualDecoder {
    validation: Mlp,
    repair: Mlp,
    hidden_dim: usize,
}

impl DualDecoder {
    /// Create both decoders for embeddings of width `hidden_dim`. Each decoder
    /// is an MLP `h → h/2 → 1` applied node-wise.
    pub fn new(hidden_dim: usize, store: &mut ParamStore, rng: &mut InitRng) -> Self {
        let bottleneck = (hidden_dim / 2).max(1);
        Self {
            validation: Mlp::new("decoder.validation", hidden_dim, bottleneck, 1, store, rng),
            repair: Mlp::new("decoder.repair", hidden_dim, bottleneck, 1, store, rng),
            hidden_dim,
        }
    }

    /// Embedding dimensionality expected by both decoders.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Validation decoder: reconstruct the input features, `Z (n × h) → n × 1`.
    pub fn reconstruct(&self, params: &BoundParams, z: &Var) -> Var {
        self.validation.forward(params, z, false)
    }

    /// Repair decoder: propose corrected feature values, `Z (n × h) → n × 1`.
    pub fn repair(&self, params: &BoundParams, z: &Var) -> Var {
        self.repair.forward(params, z, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dquag_tensor::optim::Adam;
    use dquag_tensor::{Matrix, Tape};

    #[test]
    fn decoders_produce_one_value_per_node() {
        let mut store = ParamStore::new();
        let mut rng = InitRng::seeded(3);
        let decoder = DualDecoder::new(16, &mut store, &mut rng);
        assert_eq!(decoder.hidden_dim(), 16);

        let tape = Tape::new();
        let bound = store.bind(&tape);
        let z = tape.leaf(Matrix::from_fn(6, 16, |r, c| ((r + c) as f32).sin()), false);
        let recon = decoder.reconstruct(&bound, &z);
        let repair = decoder.repair(&bound, &z);
        assert_eq!(recon.shape(), (6, 1));
        assert_eq!(repair.shape(), (6, 1));
        assert!(recon.value().is_finite());
        assert!(repair.value().is_finite());
    }

    #[test]
    fn decoders_have_independent_parameters() {
        let mut store = ParamStore::new();
        let mut rng = InitRng::seeded(3);
        let decoder = DualDecoder::new(8, &mut store, &mut rng);
        // 2 decoders × 2 linear layers × (weight + bias)
        assert_eq!(store.n_params(), 8);

        // Training only the validation head must leave the repair head fixed.
        let mut adam = Adam::with_learning_rate(0.05);
        let z_value = Matrix::from_fn(4, 8, |r, c| 0.1 * (r as f32) - 0.05 * c as f32);
        let target = Matrix::col_vector(&[0.2, 0.4, 0.6, 0.8]);

        let tape = Tape::new();
        let bound = store.bind(&tape);
        let z = tape.constant(z_value.clone());
        let repair_before = decoder.repair(&bound, &z).value();

        let loss = decoder
            .reconstruct(&bound, &z)
            .sub(&tape.constant(target.clone()))
            .square()
            .mean();
        tape.backward(&loss);
        store.apply_gradients(&bound, &mut adam);

        let tape2 = Tape::new();
        let bound2 = store.bind(&tape2);
        let z2 = tape2.constant(z_value);
        let repair_after = decoder.repair(&bound2, &z2).value();
        assert!(
            repair_before.max_abs_diff(&repair_after) < 1e-7,
            "repair decoder must be unaffected by a validation-only loss"
        );
    }

    #[test]
    fn bottleneck_never_collapses_to_zero() {
        let mut store = ParamStore::new();
        let mut rng = InitRng::seeded(3);
        let decoder = DualDecoder::new(1, &mut store, &mut rng);
        let tape = Tape::new();
        let bound = store.bind(&tape);
        let z = tape.constant(Matrix::ones(2, 1));
        assert_eq!(decoder.reconstruct(&bound, &z).shape(), (2, 1));
    }
}
