//! The Adam optimizer, as the paper trains with it.
//!
//! The optimizer operates on raw parameter matrices paired with externally
//! computed gradients. The GNN crate owns the parameters; after each backward
//! pass it collects `(param, grad)` pairs and hands them to the optimizer in
//! a stable order (state is keyed by position, so the caller must always pass
//! parameters in the same order — the `ParamStore` in `dquag-gnn` guarantees
//! this).

use crate::Matrix;

/// Adam β₁.
const BETA1: f32 = 0.9;
/// Adam β₂.
const BETA2: f32 = 0.999;
/// Adam ε.
const EPSILON: f32 = 1e-8;
/// Each gradient is rescaled to at most this Frobenius norm before the
/// update.
const GRAD_CLIP: f32 = 5.0;

/// Adam optimizer (Kingma & Ba, 2015) with per-parameter gradient clipping.
/// State (first/second moments) is allocated lazily on the first step and
/// keyed by parameter position.
#[derive(Debug, Clone)]
pub struct Adam {
    learning_rate: f32,
    first_moments: Vec<Matrix>,
    second_moments: Vec<Matrix>,
    step_count: u64,
}

impl Adam {
    /// Create an Adam optimizer with the given learning rate (the paper
    /// uses 0.01).
    pub fn with_learning_rate(learning_rate: f32) -> Self {
        Self {
            learning_rate,
            first_moments: Vec::new(),
            second_moments: Vec::new(),
            step_count: 0,
        }
    }

    /// Number of update steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step_count
    }

    /// Apply one Adam update.
    ///
    /// `params` and `grads` must have the same length and ordering on every
    /// call; entries with a `None` gradient are skipped (e.g. parameters not
    /// reached by the current loss).
    pub fn step(&mut self, params: &mut [&mut Matrix], grads: &[Option<Matrix>]) {
        assert_eq!(
            params.len(),
            grads.len(),
            "Adam::step: params and grads length mismatch"
        );
        self.ensure_state(params);
        self.step_count += 1;
        let t = self.step_count as f32;
        let bias1 = 1.0 - BETA1.powf(t);
        let bias2 = 1.0 - BETA2.powf(t);

        for (i, (param, grad)) in params.iter_mut().zip(grads.iter()).enumerate() {
            let Some(grad) = grad else { continue };
            debug_assert_eq!(param.shape(), grad.shape(), "param/grad shape mismatch");
            let grad = clip(grad);
            let m = &mut self.first_moments[i];
            let v = &mut self.second_moments[i];
            for j in 0..grad.len() {
                let g = grad.as_slice()[j];
                let mj = BETA1 * m.as_slice()[j] + (1.0 - BETA1) * g;
                let vj = BETA2 * v.as_slice()[j] + (1.0 - BETA2) * g * g;
                m.as_mut_slice()[j] = mj;
                v.as_mut_slice()[j] = vj;
                let m_hat = mj / bias1;
                let v_hat = vj / bias2;
                param.as_mut_slice()[j] -= self.learning_rate * m_hat / (v_hat.sqrt() + EPSILON);
            }
        }
    }

    fn ensure_state(&mut self, params: &[&mut Matrix]) {
        if self.first_moments.len() != params.len() {
            self.first_moments = params
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect();
            self.second_moments = self.first_moments.clone();
        }
    }
}

/// `grad`, rescaled to Frobenius norm [`GRAD_CLIP`] if it is longer.
fn clip(grad: &Matrix) -> Matrix {
    let mut g = grad.clone();
    let norm = g.frobenius_norm();
    if norm > GRAD_CLIP {
        let scale = GRAD_CLIP / norm;
        g.map_inplace(|v| v * scale);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;

    #[test]
    fn adam_converges_on_linear_regression() {
        // Minimise f(w) = mean((x·w − y)²) — a tiny linear regression — and
        // check the optimizer reaches the analytic solution.
        let x = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let y = Matrix::from_rows(vec![vec![2.0], vec![-3.0], vec![-1.0]]);
        let mut w = Matrix::zeros(2, 1);
        let mut adam = Adam::with_learning_rate(0.05);
        for _ in 0..400 {
            let tape = Tape::new();
            let wv = tape.leaf(w.clone(), true);
            let loss = tape
                .constant(x.clone())
                .matmul(&wv)
                .sub(&tape.constant(y.clone()))
                .square()
                .mean();
            tape.backward(&loss);
            adam.step(&mut [&mut w], &[wv.grad()]);
        }
        assert!((w.get(0, 0) - 2.0).abs() < 0.05, "w0 = {}", w.get(0, 0));
        assert!((w.get(1, 0) + 3.0).abs() < 0.05, "w1 = {}", w.get(1, 0));
        assert!(adam.steps() > 0);
    }

    #[test]
    fn skips_parameters_without_gradient() {
        let mut adam = Adam::with_learning_rate(0.1);
        let mut p = Matrix::filled(2, 2, 1.0);
        let before = p.clone();
        adam.step(&mut [&mut p], &[None]);
        assert_eq!(p, before);
    }

    #[test]
    fn gradient_clipping_bounds_update() {
        let huge = Matrix::filled(4, 4, 1e6);
        assert!((clip(&huge).frobenius_norm() - GRAD_CLIP).abs() < 1e-3);
        let small = Matrix::filled(2, 2, 0.5);
        assert_eq!(clip(&small), small, "short gradients pass unchanged");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut adam = Adam::with_learning_rate(0.1);
        let mut p = Matrix::zeros(1, 1);
        adam.step(&mut [&mut p], &[]);
    }
}
