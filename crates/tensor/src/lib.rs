//! # dquag-tensor
//!
//! A small, dependency-light dense-matrix tensor library with reverse-mode
//! automatic differentiation, written for the DQuaG reproduction (EDBT 2025,
//! "Automated Data Quality Validation in an End-to-End GNN Framework").
//!
//! The paper's reference implementation is built on PyTorch. No mature Rust
//! deep-learning stack ships graph-neural-network layers, so this crate
//! provides the minimal substrate the GNN crate needs:
//!
//! * [`Matrix`] — a dense row-major `f32` matrix with the linear-algebra,
//!   element-wise and fused kernels the network runs.
//! * [`Tape`] / [`Var`] — a define-by-run reverse-mode autodiff tape over
//!   exactly the ops of the DQuaG network. Every op appends a node;
//!   [`Tape::backward`] walks the nodes in reverse and accumulates
//!   gradients. Training and inference run the same forward pass on it.
//! * [`optim`] — the Adam optimizer, operating on raw parameter matrices.
//! * [`init`] — Xavier/Glorot and He initialisation used by the GNN layers.
//!
//! The design intentionally supports only rank-2 tensors: DQuaG's feature
//! graphs have tens of nodes, so a sample is a small `n × h` matrix, and a
//! batch of `B` samples is `B` such blocks stacked vertically into one
//! `(B·n) × h` matrix that the block-aware ops keep apart.
//!
//! ## Example
//!
//! ```
//! use dquag_tensor::{Matrix, Tape};
//!
//! let tape = Tape::new();
//! let x = tape.leaf(Matrix::from_rows(vec![vec![1.0, 2.0]]), true);
//! let w = tape.leaf(Matrix::from_rows(vec![vec![3.0], vec![4.0]]), true);
//! let y = x.matmul(&w);          // 1x1 == [[11.0]]
//! let loss = y.square().mean();  // 121.0
//! tape.backward(&loss);
//! let gx = x.grad().unwrap();
//! assert!((gx.get(0, 0) - 2.0 * 11.0 * 3.0).abs() < 1e-4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod matrix;
mod simd;
mod tape;

pub mod init;
pub mod optim;
pub mod persist;

pub use error::TensorError;
pub use matrix::Matrix;
pub use persist::{fnv1a, matrix_checksum, params_checksum, FNV_OFFSET};
pub use simd::{kernel_mode, set_kernel_mode, FiniteGuard, GuardTrip, KernelMode};
pub use tape::{Tape, Var};

/// Tune the process allocator for sustained tensor inference.
///
/// A batched forward pass allocates and frees a few dozen megabyte-scale
/// activation matrices per batch. With glibc's default trim threshold
/// (128 KiB) the freed top-of-heap goes back to the kernel after every
/// batch, so the next batch page-faults its whole working set in again —
/// measured at more than half the batch wall time. This raises the trim
/// threshold to 32 MiB and the mmap threshold to 64 MiB, once, so
/// activation buffers (a few MiB per batch) are recycled in the arena while
/// genuinely large frees — a training spike, a host application's buffers —
/// are still returned to the kernel.
///
/// Idempotent and cheap; called automatically when an inference session is
/// opened. The effect is process-wide and bounded: at most ~32 MiB of freed
/// top-of-heap is retained. Hosts embedding this crate that need glibc's
/// default trimming behaviour can set `DQUAG_NO_MALLOC_TUNING=1` before
/// startup to disable it. No-op on platforms without glibc `mallopt`.
pub fn tune_allocator_for_inference() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::sync::Once;
        static TUNE: Once = Once::new();
        TUNE.call_once(|| {
            if std::env::var_os("DQUAG_NO_MALLOC_TUNING").is_some_and(|v| v != "0") {
                return;
            }
            extern "C" {
                fn mallopt(param: core::ffi::c_int, value: core::ffi::c_int) -> core::ffi::c_int;
            }
            const M_TRIM_THRESHOLD: core::ffi::c_int = -1;
            const M_MMAP_THRESHOLD: core::ffi::c_int = -3;
            // SAFETY: glibc mallopt is thread-safe and these parameters only
            // adjust allocator heuristics.
            unsafe {
                mallopt(M_TRIM_THRESHOLD, 32 * 1024 * 1024);
                mallopt(M_MMAP_THRESHOLD, 64 * 1024 * 1024);
            }
        });
    }
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Numerical tolerance used by gradient checks in tests.
pub const GRAD_CHECK_TOL: f32 = 2e-2;

/// Compare an analytic gradient against a central finite-difference estimate.
///
/// `f` must be a pure function of the parameter matrix that returns a scalar
/// loss. Used extensively by the unit and property tests of this crate and of
/// `dquag-gnn` to validate backward implementations.
pub fn finite_difference_grad<F>(param: &Matrix, mut f: F, eps: f32) -> Matrix
where
    F: FnMut(&Matrix) -> f32,
{
    let mut grad = Matrix::zeros(param.rows(), param.cols());
    for r in 0..param.rows() {
        for c in 0..param.cols() {
            let mut plus = param.clone();
            let mut minus = param.clone();
            plus.set(r, c, param.get(r, c) + eps);
            minus.set(r, c, param.get(r, c) - eps);
            let fp = f(&plus);
            let fm = f(&minus);
            grad.set(r, c, (fp - fm) / (2.0 * eps));
        }
    }
    grad
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn doc_example_runs() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::from_rows(vec![vec![1.0, 2.0]]), true);
        let w = tape.leaf(Matrix::from_rows(vec![vec![3.0], vec![4.0]]), true);
        let y = x.matmul(&w);
        let loss = y.square().mean();
        tape.backward(&loss);
        let gx = x.grad().unwrap();
        assert!((gx.get(0, 0) - 66.0).abs() < 1e-3);
        assert!((gx.get(0, 1) - 88.0).abs() < 1e-3);
    }

    #[test]
    fn finite_difference_matches_simple_quadratic() {
        let p = Matrix::from_rows(vec![vec![2.0, -1.0]]);
        let g = finite_difference_grad(&p, |m| m.get(0, 0).powi(2) + 3.0 * m.get(0, 1), 1e-3);
        assert!((g.get(0, 0) - 4.0).abs() < 1e-2);
        assert!((g.get(0, 1) - 3.0).abs() < 1e-2);
    }
}
