//! Dense row-major `f32` matrix.
//!
//! [`Matrix`] is the value type flowing through the autograd tape and the GNN
//! layers. It deliberately keeps a simple contiguous `Vec<f32>` storage so
//! that element-wise kernels vectorise well and the memory layout is obvious.

use crate::{Result, TensorError};
use std::fmt;

/// A dense, row-major matrix of `f32` values.
///
/// The matrix is the only tensor rank used in the DQuaG reproduction: feature
/// graphs are small (tens of nodes), so per-sample node-feature matrices of
/// shape `n_features × hidden` cover every layer in the model.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Create a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build a matrix from a flat row-major vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::InvalidConstruction {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Build a matrix from nested row vectors.
    ///
    /// Panics if rows are ragged; intended for literals in tests and examples.
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in &rows {
            assert_eq!(row.len(), n_cols, "ragged rows passed to Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: n_rows,
            cols: n_cols,
            data,
        }
    }

    /// Build a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Build a single-row matrix from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Build a single-column matrix from a slice.
    pub fn col_vector(values: &[f32]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read the element at `(row, col)`. Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Fallible element read.
    pub fn try_get(&self, row: usize, col: usize) -> Result<f32> {
        if row >= self.rows || col >= self.cols {
            return Err(TensorError::IndexOutOfBounds {
                row,
                col,
                shape: self.shape(),
            });
        }
        Ok(self.data[row * self.cols + col])
    }

    /// Write the element at `(row, col)`. Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// Borrow the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix and return its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy one column into a new `Vec`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product `self · rhs`, through the runtime-dispatched kernel in
    /// the `simd` module (AVX2+FMA register tiles when the CPU has them, the
    /// portable i-k-j loop otherwise).
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        crate::simd::matmul_into(
            &mut out.data,
            &self.data,
            &rhs.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
        Ok(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Element-wise addition.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    /// Add a `1 × cols` row vector to every row.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Result<Matrix> {
        if row.rows != 1 || row.cols != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.shape(),
                rhs: row.shape(),
            });
        }
        let mut out = self.clone();
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[r * self.cols + c] += row.data[c];
            }
        }
        Ok(out)
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, k: f32) -> Matrix {
        self.map(|v| v * k)
    }

    /// Apply `f` to every element.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place variant of [`Matrix::map`].
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    fn zip_with<F: Fn(f32, f32) -> f32>(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: F,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    // ------------------------------------------------------------------
    // Reductions and statistics
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; 0.0 for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Per-row sums as an `rows × 1` column vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().sum();
        }
        out
    }

    /// Per-column sums as a `1 × cols` row vector.
    pub fn sum_cols(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.get(r, c);
            }
        }
        out
    }

    /// Maximum element; `None` for an empty matrix.
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::max)
    }

    /// Minimum element; `None` for an empty matrix.
    pub fn min(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::min)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Index of the maximum element in a given row.
    pub fn argmax_row(&self, row: usize) -> usize {
        let r = self.row(row);
        r.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// True if no element is NaN or infinite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Maximum absolute element-wise difference to another matrix.
    ///
    /// Returns `f32::INFINITY` when shapes differ; convenient for tests.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        if self.shape() != other.shape() {
            return f32::INFINITY;
        }
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    // ------------------------------------------------------------------
    // Structural operations
    // ------------------------------------------------------------------

    /// Concatenate horizontally (`self` left, `rhs` right).
    pub fn concat_cols(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "concat_cols",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            out.data[r * out.cols..r * out.cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * out.cols + self.cols..(r + 1) * out.cols].copy_from_slice(rhs.row(r));
        }
        Ok(out)
    }

    /// Concatenate vertically (`self` on top, `rhs` below).
    pub fn concat_rows(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "concat_rows",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&rhs.data);
        Ok(Matrix {
            rows: self.rows + rhs.rows,
            cols: self.cols,
            data,
        })
    }

    /// Copy a contiguous column range `[start, end)` into a new matrix.
    pub fn slice_cols(&self, start: usize, end: usize) -> Result<Matrix> {
        if start > end || end > self.cols {
            return Err(TensorError::IndexOutOfBounds {
                row: 0,
                col: end,
                shape: self.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.data[r * out.cols..(r + 1) * out.cols].copy_from_slice(&self.row(r)[start..end]);
        }
        Ok(out)
    }

    /// Copy a contiguous row range `[start, end)` into a new matrix.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Matrix> {
        if start > end || end > self.rows {
            return Err(TensorError::IndexOutOfBounds {
                row: end,
                col: 0,
                shape: self.shape(),
            });
        }
        Ok(Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        })
    }

    // ------------------------------------------------------------------
    // Batched (block-stacked) operations
    //
    // A batch of B samples over an n-node feature graph is laid out as B
    // vertically stacked blocks of n rows. The operations below act on that
    // layout: per-block products, one-block-to-every-block broadcasts, and
    // block-wise transposed broadcasts. They reuse the exact i-k-j kernel of
    // [`Matrix::matmul`], so a batched forward pass is bit-identical to the
    // per-sample one.
    // ------------------------------------------------------------------

    /// Per-block matrix product: `self` is `B` stacked `p × k` blocks, `rhs`
    /// is `B` stacked `k × d` blocks, and `out_b = self_b · rhs_b` giving `B`
    /// stacked `p × d` blocks.
    pub fn block_matmul(&self, rhs: &Matrix, blocks: usize) -> Result<Matrix> {
        self.block_matmul_impl(rhs, blocks, false)
    }

    /// Per-block matrix product with a fused ReLU epilogue:
    /// `out_b = relu(self_b · rhs_b)` at no extra pass over the output.
    pub fn block_matmul_relu(&self, rhs: &Matrix, blocks: usize) -> Result<Matrix> {
        self.block_matmul_impl(rhs, blocks, true)
    }

    fn block_matmul_impl(&self, rhs: &Matrix, blocks: usize, relu: bool) -> Result<Matrix> {
        let compatible = blocks > 0
            && self.rows.is_multiple_of(blocks)
            && rhs.rows.is_multiple_of(blocks)
            && self.cols == rhs.rows / blocks;
        if !compatible {
            return Err(TensorError::ShapeMismatch {
                op: "block_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let p = self.rows / blocks;
        let k = self.cols;
        let d = rhs.cols;
        let mut out = Matrix::zeros(self.rows, d);
        for b in 0..blocks {
            crate::simd::matmul_opts_into(
                &mut out.data[b * p * d..(b + 1) * p * d],
                &self.data[b * p * k..(b + 1) * p * k],
                &rhs.data[b * k * d..(b + 1) * k * d],
                relu,
                p,
                k,
                d,
            );
        }
        Ok(out)
    }

    /// Apply one `p × k` matrix to every `k`-row block of `rhs`
    /// (`out_b = self · rhs_b`): the batched form of a shared graph operator
    /// (adjacency, normalised adjacency) multiplying per-sample features. The
    /// number of blocks is inferred as `rhs.rows / k`.
    pub fn repeat_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols == 0 || !rhs.rows.is_multiple_of(self.cols) {
            return Err(TensorError::ShapeMismatch {
                op: "repeat_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let blocks = rhs.rows / self.cols;
        let p = self.rows;
        let k = self.cols;
        let d = rhs.cols;
        let mut out = Matrix::zeros(blocks * p, d);
        for b in 0..blocks {
            crate::simd::matmul_into(
                &mut out.data[b * p * d..(b + 1) * p * d],
                &self.data,
                &rhs.data[b * k * d..(b + 1) * k * d],
                p,
                k,
                d,
            );
        }
        Ok(out)
    }

    /// Block-wise transposed broadcast of a stacked column vector: `self` is
    /// `B` stacked `n × 1` blocks, the output is `B` stacked `n × n` blocks
    /// with `out[b·n + i][j] = self[b·n + j]` — every row of block `b` is that
    /// block's segment transposed. This is the batched form of
    /// `v.matmul(ones_row).transpose()`.
    pub fn block_row_broadcast(&self, block: usize) -> Result<Matrix> {
        if self.cols != 1 || block == 0 || !self.rows.is_multiple_of(block) {
            return Err(TensorError::ShapeMismatch {
                op: "block_row_broadcast",
                lhs: self.shape(),
                rhs: (block, 1),
            });
        }
        let blocks = self.rows / block;
        let mut out = Matrix::zeros(self.rows, block);
        for b in 0..blocks {
            let segment = &self.data[b * block..(b + 1) * block];
            for i in 0..block {
                let row = b * block + i;
                out.data[row * block..(row + 1) * block].copy_from_slice(segment);
            }
        }
        Ok(out)
    }

    /// Add one `n × c` matrix to every `n`-row block of `self` — the batched
    /// form of adding a shared per-sample constant (e.g. an attention mask)
    /// to each sample in a stacked batch.
    pub fn block_add_broadcast(&self, m: &Matrix) -> Result<Matrix> {
        if m.rows == 0 || !self.rows.is_multiple_of(m.rows) || self.cols != m.cols {
            return Err(TensorError::ShapeMismatch {
                op: "block_add_broadcast",
                lhs: self.shape(),
                rhs: m.shape(),
            });
        }
        let mut out = self.clone();
        for chunk in out.data.chunks_mut(m.data.len()) {
            for (o, &v) in chunk.iter_mut().zip(m.data.iter()) {
                *o += v;
            }
        }
        Ok(out)
    }

    /// Fused dense layer: `self · w + bias` with `bias` broadcast over rows,
    /// accumulated inside the matmul kernel so the bias add costs no extra
    /// pass over the output.
    pub fn matmul_bias(&self, w: &Matrix, bias: &Matrix) -> Result<Matrix> {
        if self.cols != w.rows || bias.rows != 1 || bias.cols != w.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_bias",
                lhs: self.shape(),
                rhs: w.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, w.cols);
        crate::simd::matmul_bias_into(
            &mut out.data,
            &self.data,
            &w.data,
            &bias.data,
            self.rows,
            self.cols,
            w.cols,
        );
        Ok(out)
    }

    /// Fused dense layer plus activation: `relu(self · w + bias)`, with both
    /// the bias add and the rectifier folded into the matmul kernel's store
    /// epilogue.
    pub fn matmul_bias_relu(&self, w: &Matrix, bias: &Matrix) -> Result<Matrix> {
        if self.cols != w.rows || bias.rows != 1 || bias.cols != w.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_bias_relu",
                lhs: self.shape(),
                rhs: w.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, w.cols);
        crate::simd::matmul_bias_relu_into(
            &mut out.data,
            &self.data,
            &w.data,
            &bias.data,
            self.rows,
            self.cols,
            w.cols,
        );
        Ok(out)
    }

    /// Fused GAT attention logits over `B` stacked blocks:
    /// `out[b·n + i][j] = leaky(self[b·n + i] + dst[b·n + j], slope) + mask[i][j]`
    /// — the batched `src ⊕ dstᵀ` grid, LeakyReLU and additive mask in one
    /// pass. `self` and `dst` are `(B·n) × 1`, `mask` is `n × n`.
    pub fn attention_logits(&self, dst: &Matrix, mask: &Matrix, slope: f32) -> Result<Matrix> {
        let n = mask.rows;
        let compatible = self.cols == 1
            && dst.cols == 1
            && dst.rows == self.rows
            && mask.cols == n
            && n > 0
            && self.rows.is_multiple_of(n);
        if !compatible {
            return Err(TensorError::ShapeMismatch {
                op: "attention_logits",
                lhs: self.shape(),
                rhs: mask.shape(),
            });
        }
        let blocks = self.rows / n;
        let mut out = Matrix::zeros(self.rows, n);
        for b in 0..blocks {
            let src_seg = &self.data[b * n..(b + 1) * n];
            let dst_seg = &dst.data[b * n..(b + 1) * n];
            for (i, &s) in src_seg.iter().enumerate() {
                let row = &mut out.data[(b * n + i) * n..(b * n + i + 1) * n];
                for j in 0..n {
                    let pre = s + dst_seg[j];
                    let act = if pre > 0.0 { pre } else { slope * pre };
                    row[j] = act + mask.data[i * n + j];
                }
            }
        }
        Ok(out)
    }

    /// Fused `self + s · rhs` for a scalar `s` — one pass instead of a scale
    /// pass plus an add pass.
    pub fn scaled_add(&self, rhs: &Matrix, s: f32) -> Result<Matrix> {
        self.zip_with(rhs, "scaled_add", |a, b| b.mul_add(s, a))
    }

    /// Stack `times` copies of `self` vertically.
    pub fn tile_rows(&self, times: usize) -> Matrix {
        let mut data = Vec::with_capacity(self.data.len() * times);
        for _ in 0..times {
            data.extend_from_slice(&self.data);
        }
        Matrix {
            rows: self.rows * times,
            cols: self.cols,
            data,
        }
    }

    /// Row-wise softmax (each row sums to one). Numerically stabilised by
    /// subtracting the row maximum before exponentiation; the exponential is
    /// `fast_exp` (≈1e-7 relative accuracy), which roughly halves softmax
    /// cost on the attention hot path.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..self.rows {
            // A NaN or +∞ logit admits no meaningful distribution. The max
            // fold below silently skips NaN and `denom > 0.0` is false for a
            // NaN denominator, so without this check a poisoned row would
            // leak *unnormalised* — finite but wrong — exp values. Propagate
            // NaN across the row instead. (−∞ is well-defined: exp → 0.)
            if self
                .row(r)
                .iter()
                .any(|v| v.is_nan() || *v == f32::INFINITY)
            {
                for c in 0..self.cols {
                    out.set(r, c, f32::NAN);
                }
                continue;
            }
            let row_max = self
                .row(r)
                .iter()
                .copied()
                .fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for c in 0..self.cols {
                let e = fast_exp(self.get(r, c) - row_max);
                out.set(r, c, e);
                denom += e;
            }
            if denom > 0.0 {
                for c in 0..self.cols {
                    out.set(r, c, out.get(r, c) / denom);
                }
            }
        }
        out
    }
}

/// Fast `e^x`: range reduction `x = n·ln2 + r` with a hi/lo split of `ln 2`,
/// a degree-6 Taylor polynomial for `e^r` on `|r| ≤ ln2/2`, and an exponent
/// rebuild via the float bit layout. Relative accuracy ≈ 1e-7 — two orders
/// of magnitude inside the 1e-5 score-equivalence budget — at a fraction of
/// the libm call cost. Inputs below the `f32` underflow range return 0
/// (exactly what masked attention logits need).
#[inline]
fn fast_exp(x: f32) -> f32 {
    if x.is_nan() {
        // Without this, NaN slips past both range guards (every comparison
        // with NaN is false) into the exponent rebuild, which would turn it
        // into an arbitrary *finite* value. Propagate it like `exp` does.
        return f32::NAN;
    }
    if x < -87.0 {
        return 0.0;
    }
    if x > 88.0 {
        return f32::INFINITY;
    }
    const INV_LN2: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    let n = (x * INV_LN2).round();
    let r = (x - n * LN2_HI) - n * LN2_LO;
    // e^r via Horner; |r| ≤ 0.3466 keeps the degree-6 truncation ≈ 1e-8.
    let p = 1.0
        + r * (1.0
            + r * (0.5
                + r * (1.0 / 6.0 + r * (1.0 / 24.0 + r * (1.0 / 120.0 + r * (1.0 / 720.0))))));
    let scale = f32::from_bits(((n as i32 + 127) << 23) as u32);
    scale * p
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 8.min(self.cols);
            for c in 0..max_cols {
                write!(f, "{:>10.4}", self.get(r, c))?;
                if c + 1 < max_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn zeros_ones_filled_identity() {
        assert_eq!(Matrix::zeros(2, 3).sum(), 0.0);
        assert_eq!(Matrix::ones(2, 3).sum(), 6.0);
        assert_eq!(Matrix::filled(2, 2, 2.5).sum(), 10.0);
        let i = Matrix::identity(3);
        assert_eq!(i.sum(), 3.0);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).is_ok());
        let err = Matrix::from_vec(2, 2, vec![1.0]).unwrap_err();
        assert!(matches!(err, TensorError::InvalidConstruction { .. }));
    }

    #[test]
    fn from_fn_fills_positions() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn row_and_col_vectors() {
        let r = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(r.shape(), (1, 3));
        let c = Matrix::col_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(c.shape(), (3, 1));
        assert_eq!(c.col(0), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(vec![vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert!(close(c.get(0, 0), 19.0));
        assert!(close(c.get(0, 1), 22.0));
        assert!(close(c.get(1, 0), 43.0));
        assert!(close(c.get(1, 1), 50.0));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_fn(2, 4, |r, c| (r + c) as f32);
        let t = a.transpose();
        assert_eq!(t.shape(), (4, 2));
        assert_eq!(t.transpose(), a);
        assert_eq!(t.get(3, 1), a.get(1, 3));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0]]);
        let b = Matrix::from_rows(vec![vec![3.0, 5.0]]);
        assert_eq!(a.add(&b).unwrap(), Matrix::from_rows(vec![vec![4.0, 7.0]]));
        assert_eq!(b.sub(&a).unwrap(), Matrix::from_rows(vec![vec![2.0, 3.0]]));
        assert_eq!(
            a.hadamard(&b).unwrap(),
            Matrix::from_rows(vec![vec![3.0, 10.0]])
        );
        assert_eq!(a.scale(2.0), Matrix::from_rows(vec![vec![2.0, 4.0]]));
    }

    #[test]
    fn elementwise_shape_mismatch() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(2, 1);
        assert!(a.add(&b).is_err());
        assert!(a.sub(&b).is_err());
        assert!(a.hadamard(&b).is_err());
    }

    #[test]
    fn add_row_broadcast_adds_to_every_row() {
        let a = Matrix::zeros(3, 2);
        let row = Matrix::row_vector(&[1.0, -2.0]);
        let out = a.add_row_broadcast(&row).unwrap();
        for r in 0..3 {
            assert_eq!(out.get(r, 0), 1.0);
            assert_eq!(out.get(r, 1), -2.0);
        }
        let bad = Matrix::row_vector(&[1.0]);
        assert!(a.add_row_broadcast(&bad).is_err());
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert!(close(m.sum(), 10.0));
        assert!(close(m.mean(), 2.5));
        assert_eq!(m.sum_rows(), Matrix::col_vector(&[3.0, 7.0]));
        assert_eq!(m.sum_cols(), Matrix::row_vector(&[4.0, 6.0]));
        assert_eq!(m.max(), Some(4.0));
        assert_eq!(m.min(), Some(1.0));
        assert!(close(m.frobenius_norm(), (30.0f32).sqrt()));
    }

    #[test]
    fn empty_matrix_reductions() {
        let m = Matrix::zeros(0, 0);
        assert!(m.is_empty());
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.max(), None);
        assert_eq!(m.min(), None);
    }

    #[test]
    fn argmax_row_picks_largest() {
        let m = Matrix::from_rows(vec![vec![0.1, 0.9, 0.3], vec![5.0, 1.0, 2.0]]);
        assert_eq!(m.argmax_row(0), 1);
        assert_eq!(m.argmax_row(1), 0);
    }

    #[test]
    fn concat_cols_and_rows() {
        let a = Matrix::from_rows(vec![vec![1.0], vec![2.0]]);
        let b = Matrix::from_rows(vec![vec![3.0], vec![4.0]]);
        let h = a.concat_cols(&b).unwrap();
        assert_eq!(h, Matrix::from_rows(vec![vec![1.0, 3.0], vec![2.0, 4.0]]));
        let v = a.concat_rows(&b).unwrap();
        assert_eq!(v, Matrix::col_vector(&[1.0, 2.0, 3.0, 4.0]));
        assert!(a.concat_cols(&Matrix::zeros(3, 1)).is_err());
        assert!(a.concat_rows(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn slicing() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let cols = m.slice_cols(1, 3).unwrap();
        assert_eq!(cols.shape(), (3, 2));
        assert_eq!(cols.get(2, 0), 9.0);
        let rows = m.slice_rows(1, 2).unwrap();
        assert_eq!(rows.shape(), (1, 4));
        assert_eq!(rows.get(0, 3), 7.0);
        assert!(m.slice_cols(3, 7).is_err());
        assert!(m.slice_rows(2, 5).is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![-1.0, 0.0, 100.0]]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let total: f32 = s.row(r).iter().sum();
            assert!(close(total, 1.0));
        }
        assert!(s.get(0, 2) > s.get(0, 1));
        assert!(s.get(0, 1) > s.get(0, 0));
        assert!(s.get(1, 2) > 0.99);
        assert!(s.is_finite());
    }

    #[test]
    fn fast_exp_tracks_libm_exp() {
        // sweep the softmax-relevant range plus under/overflow edges
        let mut x = -90.0f32;
        while x < 10.0 {
            let got = fast_exp(x);
            let want = x.exp();
            if want == 0.0 || x < -87.0 {
                assert!((0.0..1e-30).contains(&got), "underflow at {x}: {got}");
            } else {
                let rel = ((got - want) / want).abs();
                assert!(rel < 1e-6, "x={x}: fast {got} vs libm {want} (rel {rel})");
            }
            x += 0.0173;
        }
        assert_eq!(fast_exp(-1.0e9), 0.0, "masked logits underflow to zero");
        assert_eq!(fast_exp(100.0), f32::INFINITY);
        assert!((fast_exp(0.0) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn fast_exp_poison_values_yield_defined_results() {
        // NaN must come out as NaN — before the guard it fell through both
        // range checks into the exponent rebuild and came out finite.
        assert!(fast_exp(f32::NAN).is_nan());
        assert_eq!(fast_exp(f32::NEG_INFINITY), 0.0);
        assert_eq!(fast_exp(f32::INFINITY), f32::INFINITY);
    }

    #[test]
    fn softmax_rows_poison_inputs_propagate_nan_not_garbage() {
        // A NaN logit poisons its whole row to NaN; clean rows are untouched.
        let m = Matrix::from_rows(vec![vec![1.0, f32::NAN, 3.0], vec![1.0, 2.0, 3.0]]);
        let s = m.softmax_rows();
        assert!(s.row(0).iter().all(|v| v.is_nan()), "{s:?}");
        assert!(close(s.row(1).iter().sum(), 1.0));

        // +∞ likewise: exp(∞ − ∞) has no meaningful value, so the row must
        // not come out finite (the old code emitted raw unnormalised exps).
        let m = Matrix::from_rows(vec![vec![f32::INFINITY, 2.0, 3.0]]);
        assert!(m.softmax_rows().row(0).iter().all(|v| v.is_nan()));

        // −∞ is well-defined: that logit gets probability zero and the rest
        // renormalise.
        let m = Matrix::from_rows(vec![vec![f32::NEG_INFINITY, 0.0, 0.0]]);
        let s = m.softmax_rows();
        assert_eq!(s.get(0, 0), 0.0);
        assert!(close(s.get(0, 1), 0.5));
        assert!(close(s.get(0, 2), 0.5));

        // An all-(−∞) row has no distribution either; it must not be finite.
        let m = Matrix::from_rows(vec![vec![f32::NEG_INFINITY, f32::NEG_INFINITY]]);
        assert!(m.softmax_rows().row(0).iter().all(|v| v.is_nan()));
    }

    #[test]
    fn matmul_bias_matches_matmul_plus_broadcast() {
        let a = Matrix::from_fn(5, 3, |r, c| (r as f32 - c as f32) * 0.4);
        let w = Matrix::from_fn(3, 7, |r, c| ((r + c) % 5) as f32 * 0.3 - 0.5);
        let bias = Matrix::from_fn(1, 7, |_, c| c as f32 * 0.05);
        let fused = a.matmul_bias(&w, &bias).unwrap();
        let unfused = a.matmul(&w).unwrap().add_row_broadcast(&bias).unwrap();
        assert!(fused.max_abs_diff(&unfused) < 1e-5);
        assert!(a.matmul_bias(&w, &Matrix::zeros(1, 3)).is_err());
        assert!(a.matmul_bias(&Matrix::zeros(4, 7), &bias).is_err());
    }

    #[test]
    fn attention_logits_matches_unfused_chain() {
        let n = 3;
        let src = Matrix::col_vector(&[0.4, -0.6, 1.2, -0.1, 0.8, -1.4]);
        let dst = Matrix::col_vector(&[0.2, 0.9, -0.5, 1.1, -0.7, 0.3]);
        let mask = Matrix::from_rows(vec![
            vec![0.0, -1e9, 0.0],
            vec![-1e9, 0.0, 0.0],
            vec![0.0, 0.0, -1e9],
        ]);
        let fused = src.attention_logits(&dst, &mask, 0.2).unwrap();
        let grid = src
            .matmul(&Matrix::ones(1, n))
            .unwrap()
            .add(&dst.block_row_broadcast(n).unwrap())
            .unwrap()
            .map(|v| if v > 0.0 { v } else { 0.2 * v })
            .block_add_broadcast(&mask)
            .unwrap();
        assert!(fused.max_abs_diff(&grid) < 1e-4);
        assert!(src
            .attention_logits(&dst, &Matrix::zeros(4, 4), 0.2)
            .is_err());
    }

    #[test]
    fn scaled_add_matches_scale_then_add() {
        let a = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(3, 2, |r, c| (r as f32 - c as f32) * 0.5);
        let fused = a.scaled_add(&b, 2.5).unwrap();
        let unfused = a.add(&b.scale(2.5)).unwrap();
        assert!(fused.max_abs_diff(&unfused) < 1e-6);
        assert!(a.scaled_add(&Matrix::zeros(2, 2), 1.0).is_err());
    }

    #[test]
    fn try_get_bounds() {
        let m = Matrix::zeros(2, 2);
        assert!(m.try_get(1, 1).is_ok());
        assert!(m.try_get(2, 0).is_err());
    }

    #[test]
    fn max_abs_diff_detects_shape_and_values() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::filled(2, 2, 0.5);
        assert!(close(a.max_abs_diff(&b), 0.5));
        assert_eq!(a.max_abs_diff(&Matrix::zeros(1, 1)), f32::INFINITY);
    }

    #[test]
    fn block_matmul_matches_per_block_matmul() {
        let a = Matrix::from_fn(6, 2, |r, c| (r * 2 + c) as f32 * 0.5 - 1.0); // 3 blocks of 2x2
        let b = Matrix::from_fn(6, 3, |r, c| (r + c) as f32 * 0.25); // 3 blocks of 2x3
        let out = a.block_matmul(&b, 3).unwrap();
        assert_eq!(out.shape(), (6, 3));
        for blk in 0..3 {
            let ab = a.slice_rows(blk * 2, (blk + 1) * 2).unwrap();
            let bb = b.slice_rows(blk * 2, (blk + 1) * 2).unwrap();
            let expected = ab.matmul(&bb).unwrap();
            let got = out.slice_rows(blk * 2, (blk + 1) * 2).unwrap();
            assert_eq!(got, expected, "block {blk} must match a plain matmul");
        }
        // one block degenerates to a plain matmul, bit for bit
        assert_eq!(
            a.block_matmul(&Matrix::from_fn(2, 4, |r, c| (r * c) as f32), 1)
                .unwrap(),
            a.matmul(&Matrix::from_fn(2, 4, |r, c| (r * c) as f32))
                .unwrap()
        );
        assert!(a.block_matmul(&b, 4).is_err(), "6 rows don't split into 4");
        assert!(a.block_matmul(&Matrix::zeros(9, 3), 3).is_err());
    }

    #[test]
    fn repeat_matmul_applies_one_operator_per_block() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![0.0, -1.0]]);
        let h = Matrix::from_fn(6, 3, |r, c| (r as f32 - c as f32) * 0.3); // 3 blocks of 2x3
        let out = a.repeat_matmul(&h).unwrap();
        assert_eq!(out.shape(), (6, 3));
        for blk in 0..3 {
            let hb = h.slice_rows(blk * 2, (blk + 1) * 2).unwrap();
            let expected = a.matmul(&hb).unwrap();
            let got = out.slice_rows(blk * 2, (blk + 1) * 2).unwrap();
            assert_eq!(got, expected);
        }
        assert!(a.repeat_matmul(&Matrix::zeros(5, 2)).is_err());
    }

    #[test]
    fn block_row_broadcast_transposes_each_block() {
        let v = Matrix::col_vector(&[1.0, 2.0, 3.0, 4.0]); // 2 blocks of 2
        let out = v.block_row_broadcast(2).unwrap();
        assert_eq!(
            out,
            Matrix::from_rows(vec![
                vec![1.0, 2.0],
                vec![1.0, 2.0],
                vec![3.0, 4.0],
                vec![3.0, 4.0],
            ])
        );
        // one block is exactly v.matmul(ones).transpose()
        let single = Matrix::col_vector(&[0.5, -1.5, 2.5]);
        assert_eq!(
            single.block_row_broadcast(3).unwrap(),
            single.matmul(&Matrix::ones(1, 3)).unwrap().transpose()
        );
        assert!(v.block_row_broadcast(3).is_err());
        assert!(Matrix::zeros(4, 2).block_row_broadcast(2).is_err());
    }

    #[test]
    fn block_add_broadcast_adds_to_every_block() {
        let h = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32); // 2 blocks of 2x2
        let m = Matrix::from_rows(vec![vec![10.0, 20.0], vec![30.0, 40.0]]);
        let out = h.block_add_broadcast(&m).unwrap();
        assert_eq!(out.get(0, 0), 10.0);
        assert_eq!(out.get(1, 1), 43.0);
        assert_eq!(out.get(2, 0), 14.0);
        assert_eq!(out.get(3, 1), 47.0);
        assert!(h.block_add_broadcast(&Matrix::zeros(3, 2)).is_err());
        assert!(h.block_add_broadcast(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn tile_rows_stacks_copies() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0]]);
        let tiled = m.tile_rows(3);
        assert_eq!(tiled.shape(), (3, 2));
        for r in 0..3 {
            assert_eq!(tiled.row(r), &[1.0, 2.0]);
        }
        assert_eq!(m.tile_rows(0).shape(), (0, 2));
    }

    #[test]
    fn debug_format_is_bounded() {
        let m = Matrix::zeros(100, 100);
        let s = format!("{:?}", m);
        assert!(
            s.len() < 2_500,
            "debug output should truncate large matrices"
        );
    }
}
