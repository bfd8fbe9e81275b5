//! Reverse-mode automatic differentiation on dense matrices.
//!
//! The tape follows the classic define-by-run design: every differentiable
//! operation appends a [`Node`] holding its output value, the indices of its
//! parents and an [`Op`] tag. [`Tape::backward`] seeds the output gradient
//! and walks the nodes in reverse creation order, accumulating parent
//! gradients according to each op's local derivative.
//!
//! Only leaves keep a gradient. A leaf created with `requires_grad` holds
//! its gradient after [`Tape::backward`]; an op node passes its gradient
//! on and releases it. An op node requires a gradient exactly when one of
//! its parents does, so constants — graph operators, inputs, masks — and
//! everything computed only from them never get one, and the walk skips
//! them.
//!
//! A fresh tape is created for every training forward pass (one per
//! mini-batch step), which keeps lifetimes trivial and memory bounded.
//!
//! For inference there is a second mode: a tape created with
//! [`Tape::no_grad`] records every operation result as a plain constant leaf
//! — no op tag, no parent indices, no gradient slot — so the backward graph
//! is never materialised. Combined with [`Tape::truncate`], a long-lived
//! inference tape can bind model parameters once and be rewound to that
//! baseline after every batch, instead of re-binding (and re-cloning) the
//! parameters per sample.

use crate::matrix::{transpose_into, Matrix};
use crate::simd::matmul_into;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Operation tag recorded for every tape node.
///
/// Parent nodes are referenced by index into the tape. Constants required by
/// the backward pass (scalars, slice bounds) are stored inline.
#[derive(Debug)]
enum Op {
    /// Leaf value (parameter or input); has no parents.
    Leaf,
    /// `C = A · B`
    MatMul(usize, usize),
    /// `C = A + B` (same shape)
    Add(usize, usize),
    /// `C = A - B` (same shape)
    Sub(usize, usize),
    /// `C = A ∘ B` element-wise
    Mul(usize, usize),
    /// `C = A + row` where `row` is `1 × cols`, broadcast over rows
    AddRowBroadcast(usize, usize),
    /// `C = A * s` where `s` is a `1 × 1` tape node, broadcast to every element
    MulScalarBroadcast(usize, usize),
    /// `C = A + s` where `s` is a `1 × 1` tape node, broadcast to every element
    AddScalarBroadcast(usize, usize),
    /// `C = k · A` for a constant scalar `k`
    Scale(usize, f32),
    /// `C = -A`
    Neg(usize),
    /// `C = max(A, 0)`
    Relu(usize),
    /// `C = A if A > 0 else slope · A`
    LeakyRelu(usize, f32),
    /// `C = σ(A)`
    Sigmoid(usize),
    /// `C = tanh(A)`
    Tanh(usize),
    /// `C = exp(A)`
    Exp(usize),
    /// `C = A²` element-wise
    Square(usize),
    /// Row-wise softmax
    SoftmaxRows(usize),
    /// Scalar sum of all elements (`1 × 1` output)
    Sum(usize),
    /// Scalar mean of all elements (`1 × 1` output)
    Mean(usize),
    /// Per-row sums (`rows × 1` output)
    SumRowsKeep(usize),
    /// Transpose
    Transpose(usize),
    /// Horizontal concatenation `[A | B]`
    ConcatCols(usize, usize),
    /// Vertical concatenation
    ConcatRows(usize, usize),
    /// Column slice `A[:, start..end]`
    SliceCols(usize, usize, usize),
    /// Row slice `A[start..end, :]`
    SliceRows(usize, usize, usize),
    /// Per-block product over `B` stacked blocks: `C_b = A_b · B_b`
    BlockMatMul(usize, usize, usize),
    /// Per-block product with fused activation: `C_b = relu(A_b · B_b)`
    BlockMatMulRelu(usize, usize, usize),
    /// One operator applied to every block: `C_b = A · B_b`
    RepeatMatMul(usize, usize),
    /// Block-wise transposed broadcast of a stacked column vector
    BlockRowBroadcast(usize, usize),
    /// `C = A + tile(M)`: one `n × c` matrix added to every `n`-row block
    BlockAddBroadcast(usize, usize),
    /// Fused dense layer `C = A · W + row(bias)`
    MatMulBias(usize, usize, usize),
    /// Fused dense layer with activation `C = relu(A · W + row(bias))`
    MatMulBiasRelu(usize, usize, usize),
    /// Fused batched GAT logits: `leaky(src_i + dst_j) + mask` per block
    AttentionLogits(usize, usize, usize, f32, usize),
    /// Fused `C = A + s · B` for a `1 × 1` scalar node `s`
    ScaledAdd(usize, usize, usize),
}

#[derive(Debug)]
struct Node {
    value: Matrix,
    /// Set by [`Tape::backward`] on leaves only.
    grad: Option<Matrix>,
    /// Leaves: as created. Op nodes: whether any parent requires one.
    requires_grad: bool,
    op: Op,
}

#[derive(Debug)]
struct TapeInner {
    nodes: Vec<Node>,
    grad_enabled: bool,
}

impl Default for TapeInner {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            grad_enabled: true,
        }
    }
}

/// A reverse-mode autodiff tape.
///
/// Cheap to clone (reference-counted); all [`Var`]s created from a tape share
/// its node storage. The tape is single-threaded by design — each worker
/// thread owns its own tape and model replica.
#[derive(Clone, Default)]
pub struct Tape {
    inner: Rc<RefCell<TapeInner>>,
}

/// A handle to a node on a [`Tape`].
///
/// `Var` is `Clone` and lightweight. Arithmetic methods record new nodes on
/// the shared tape and return new handles.
#[derive(Clone)]
pub struct Var {
    tape: Tape,
    idx: usize,
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (rows, cols) = self.shape();
        write!(f, "Var(node {}, {}x{})", self.idx, rows, cols)
    }
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tape({} nodes)", self.len())
    }
}

impl Tape {
    /// Create an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty inference tape: every operation still evaluates its
    /// value, but the result is recorded as a plain constant leaf — no op
    /// tag, no parent links, no gradient slot. [`Tape::backward`] is
    /// unavailable; [`Tape::n_backward_nodes`] stays zero.
    pub fn no_grad() -> Self {
        let tape = Self::default();
        tape.inner.borrow_mut().grad_enabled = false;
        tape
    }

    /// True when this tape records the backward graph (the default); false
    /// for tapes created with [`Tape::no_grad`].
    pub fn is_grad_enabled(&self) -> bool {
        self.inner.borrow().grad_enabled
    }

    /// Number of nodes carrying backward information (a non-leaf op). Always
    /// zero on a [`Tape::no_grad`] tape.
    pub fn n_backward_nodes(&self) -> usize {
        self.inner
            .borrow()
            .nodes
            .iter()
            .filter(|node| !matches!(node.op, Op::Leaf))
            .count()
    }

    /// Drop every node recorded after the first `len` — the tape-reuse
    /// primitive: bind parameters once, note [`Tape::len`], run a forward
    /// pass, read the outputs, truncate back.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the current node count. `Var`s pointing past
    /// the truncation point are invalidated; reading them panics on the
    /// out-of-bounds node index.
    pub fn truncate(&self, len: usize) {
        let mut inner = self.inner.borrow_mut();
        assert!(
            len <= inner.nodes.len(),
            "Tape::truncate({len}) beyond the current {} nodes",
            inner.nodes.len()
        );
        inner.nodes.truncate(len);
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// True if no node has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record a leaf node holding `value`.
    ///
    /// If `requires_grad` is true its gradient is accumulated during
    /// [`Tape::backward`] and available through [`Var::grad`].
    pub fn leaf(&self, value: Matrix, requires_grad: bool) -> Var {
        self.push(value, requires_grad, Op::Leaf)
    }

    /// Record a constant leaf (no gradient tracking).
    pub fn constant(&self, value: Matrix) -> Var {
        self.leaf(value, false)
    }

    fn push(&self, value: Matrix, requires_grad: bool, op: Op) -> Var {
        let mut inner = self.inner.borrow_mut();
        let (requires_grad, op) = if inner.grad_enabled {
            (requires_grad, op)
        } else {
            // Inference mode: keep the value (downstream ops read it) but
            // drop the backward metadata.
            (false, Op::Leaf)
        };
        inner.nodes.push(Node {
            value,
            grad: None,
            requires_grad,
            op,
        });
        Var {
            tape: self.clone(),
            idx: inner.nodes.len() - 1,
        }
    }

    fn value_of(&self, idx: usize) -> Matrix {
        self.inner.borrow().nodes[idx].value.clone()
    }

    fn shape_of(&self, idx: usize) -> (usize, usize) {
        self.inner.borrow().nodes[idx].value.shape()
    }

    fn requires_grad(&self, idx: usize) -> bool {
        self.inner.borrow().nodes[idx].requires_grad
    }

    /// Run the backward pass from `output`, which must be a `1 × 1` scalar
    /// node (a loss). Afterwards every `requires_grad` leaf the loss depends
    /// on holds its gradient, read with [`Var::grad`]. Interior nodes release
    /// their gradients as soon as they have passed them on, and nodes that
    /// depend only on constants are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `output` is not a scalar node, belongs to another tape, or
    /// the tape was created with [`Tape::no_grad`].
    pub fn backward(&self, output: &Var) {
        assert!(
            Rc::ptr_eq(&self.inner, &output.tape.inner),
            "backward called with a Var from a different tape"
        );
        assert!(
            self.is_grad_enabled(),
            "backward called on a no-grad (inference) tape"
        );
        let out_shape = self.shape_of(output.idx);
        assert_eq!(
            out_shape,
            (1, 1),
            "backward expects a scalar (1x1) loss node, got {}x{}",
            out_shape.0,
            out_shape.1
        );

        let mut inner = self.inner.borrow_mut();
        // Reset any gradients from a previous backward call on the same tape.
        for node in inner.nodes.iter_mut() {
            node.grad = None;
        }
        let mut walk = Walk {
            nodes: &inner.nodes,
            grads: vec![None; output.idx + 1],
            leaf_transposes: HashMap::new(),
            scratch: Vec::new(),
        };
        walk.grads[output.idx] = Some(Matrix::ones(1, 1));
        let nodes = walk.nodes;
        for idx in (0..=output.idx).rev() {
            let node = &nodes[idx];
            if matches!(node.op, Op::Leaf) || !node.requires_grad {
                continue;
            }
            if let Some(grad) = walk.grads[idx].take() {
                walk.propagate(&node.op, &node.value, grad);
            }
        }
        let grads = walk.grads;
        for (node, grad) in inner.nodes.iter_mut().zip(grads) {
            if matches!(node.op, Op::Leaf) {
                node.grad = grad;
            }
        }
    }
}

/// The state of one [`Tape::backward`] walk. Gradients live beside the
/// nodes, so every operand value is borrowed, never cloned.
struct Walk<'a> {
    nodes: &'a [Node],
    /// Gradient accumulator per node; an interior node's is taken when the
    /// walk reaches it.
    grads: Vec<Option<Matrix>>,
    /// Transposes of leaf values (parameters), built at most once per
    /// walk however many samples share the leaf.
    leaf_transposes: HashMap<usize, Matrix>,
    /// The transpose of the last non-leaf value [`Walk::transposed`] formed.
    scratch: Vec<f32>,
}

impl<'a> Walk<'a> {
    /// Whether node `idx` takes a gradient (some leaf it depends on does).
    fn wants(&self, idx: usize) -> bool {
        self.nodes[idx].requires_grad
    }

    fn value(&self, idx: usize) -> &'a Matrix {
        &self.nodes[idx].value
    }

    /// Add `grad` into node `idx`'s accumulator, taking ownership when it is
    /// the first contribution.
    fn add(&mut self, idx: usize, grad: Matrix) {
        match &mut self.grads[idx] {
            Some(existing) => {
                assert_eq!(
                    existing.shape(),
                    grad.shape(),
                    "gradient accumulation shape"
                );
                add_assign(existing.as_mut_slice(), grad.as_slice());
            }
            slot @ None => *slot = Some(grad),
        }
    }

    /// The transpose of node `idx`'s value, row-major. A leaf's is cached
    /// for the walk; any other value's goes to a scratch buffer that the
    /// next call overwrites.
    fn transposed(&mut self, idx: usize) -> &[f32] {
        let value = self.value(idx);
        if matches!(self.nodes[idx].op, Op::Leaf) {
            return self
                .leaf_transposes
                .entry(idx)
                .or_insert_with(|| value.transpose())
                .as_slice();
        }
        self.scratch.resize(value.len(), 0.0);
        transpose_into(
            value.as_slice(),
            value.rows(),
            value.cols(),
            &mut self.scratch,
        );
        &self.scratch
    }

    /// Pass `grad`, the gradient of a node with operation `op` and output
    /// `value`, on to the parents that want one, in operand order.
    fn propagate(&mut self, op: &Op, value: &Matrix, mut grad: Matrix) {
        match *op {
            Op::Leaf => unreachable!("leaves keep their gradient"),
            Op::MatMul(a, b) => self.matmul_backward(a, b, &grad),
            Op::Add(a, b) => {
                if self.wants(a) {
                    self.add(a, grad.clone());
                }
                if self.wants(b) {
                    self.add(b, grad);
                }
            }
            Op::Sub(a, b) => {
                if self.wants(a) {
                    self.add(a, grad.clone());
                }
                if self.wants(b) {
                    self.add(b, grad.scale(-1.0));
                }
            }
            Op::Mul(a, b) => {
                if self.wants(a) {
                    let da = grad.hadamard(self.value(b)).expect("mul backward dA");
                    self.add(a, da);
                }
                if self.wants(b) {
                    let db = grad.hadamard(self.value(a)).expect("mul backward dB");
                    self.add(b, db);
                }
            }
            Op::AddRowBroadcast(a, row) => {
                let drow = self.wants(row).then(|| grad.sum_cols());
                if self.wants(a) {
                    self.add(a, grad);
                }
                if let Some(drow) = drow {
                    self.add(row, drow);
                }
            }
            Op::MulScalarBroadcast(a, s) => {
                let ds = self.wants(s).then(|| sum_of_products(&grad, self.value(a)));
                if self.wants(a) {
                    let s_val = self.value(s).get(0, 0);
                    grad.map_inplace(|v| v * s_val);
                    self.add(a, grad);
                }
                if let Some(ds) = ds {
                    self.add(s, Matrix::filled(1, 1, ds));
                }
            }
            Op::AddScalarBroadcast(a, s) => {
                let ds = self.wants(s).then(|| grad.sum());
                if self.wants(a) {
                    self.add(a, grad);
                }
                if let Some(ds) = ds {
                    self.add(s, Matrix::filled(1, 1, ds));
                }
            }
            // A unary node wants a gradient exactly when its parent does.
            Op::Scale(a, k) => {
                grad.map_inplace(|v| v * k);
                self.add(a, grad);
            }
            Op::Neg(a) => self.add(a, grad.scale(-1.0)),
            Op::Relu(a) => {
                gate(&mut grad, self.value(a), 0.0);
                self.add(a, grad);
            }
            Op::LeakyRelu(a, slope) => {
                gate(&mut grad, self.value(a), slope);
                self.add(a, grad);
            }
            Op::Sigmoid(a) => {
                // value already holds σ(A)
                scale_by(&mut grad, value, |s| s * (1.0 - s));
                self.add(a, grad);
            }
            Op::Tanh(a) => {
                scale_by(&mut grad, value, |t| 1.0 - t * t);
                self.add(a, grad);
            }
            Op::Exp(a) => {
                scale_by(&mut grad, value, |e| e);
                self.add(a, grad);
            }
            Op::Square(a) => {
                scale_by(&mut grad, self.value(a), |x| x * 2.0);
                self.add(a, grad);
            }
            Op::SoftmaxRows(a) => {
                // dA_i = s_i * (dC_i - Σ_j dC_j s_j) per row
                let cols = value.cols();
                if cols > 0 {
                    let rows = grad.as_mut_slice().chunks_exact_mut(cols);
                    for (g_row, s_row) in rows.zip(value.as_slice().chunks_exact(cols)) {
                        let dot: f32 = g_row.iter().zip(s_row).map(|(g, s)| g * s).sum();
                        for (g, &s) in g_row.iter_mut().zip(s_row) {
                            *g = s * (*g - dot);
                        }
                    }
                }
                self.add(a, grad);
            }
            Op::Sum(a) => {
                let (r, c) = self.value(a).shape();
                self.add(a, Matrix::filled(r, c, grad.get(0, 0)));
            }
            Op::Mean(a) => {
                let (r, c) = self.value(a).shape();
                let n_elems = (r * c).max(1) as f32;
                self.add(a, Matrix::filled(r, c, grad.get(0, 0) / n_elems));
            }
            Op::SumRowsKeep(a) => {
                let (r, c) = self.value(a).shape();
                self.add(a, Matrix::from_fn(r, c, |i, _| grad.get(i, 0)));
            }
            Op::Transpose(a) => self.add(a, grad.transpose()),
            Op::ConcatCols(a, b) => {
                let a_cols = self.value(a).cols();
                if self.wants(a) {
                    let da = grad.slice_cols(0, a_cols).expect("concat_cols backward");
                    self.add(a, da);
                }
                if self.wants(b) {
                    let db = grad
                        .slice_cols(a_cols, grad.cols())
                        .expect("concat_cols backward");
                    self.add(b, db);
                }
            }
            Op::ConcatRows(a, b) => {
                let a_rows = self.value(a).rows();
                if self.wants(a) {
                    let da = grad.slice_rows(0, a_rows).expect("concat_rows backward");
                    self.add(a, da);
                }
                if self.wants(b) {
                    let db = grad
                        .slice_rows(a_rows, grad.rows())
                        .expect("concat_rows backward");
                    self.add(b, db);
                }
            }
            Op::SliceCols(a, start, end) => {
                let (r, c) = self.value(a).shape();
                let mut da = Matrix::zeros(r, c);
                if c > 0 && end > start {
                    let da_rows = da.as_mut_slice().chunks_exact_mut(c);
                    for (da_row, g_row) in da_rows.zip(grad.as_slice().chunks_exact(end - start)) {
                        da_row[start..end].copy_from_slice(g_row);
                    }
                }
                self.add(a, da);
            }
            Op::SliceRows(a, start, end) => {
                let (r, c) = self.value(a).shape();
                let mut da = Matrix::zeros(r, c);
                da.as_mut_slice()[start * c..end * c].copy_from_slice(grad.as_slice());
                self.add(a, da);
            }
            Op::BlockMatMulRelu(a, b, blocks) => {
                // Gate by the rectifier (value holds the post-relu output),
                // then per-block matmul backward.
                gate(&mut grad, value, 0.0);
                self.block_matmul_backward(a, b, blocks, &grad);
            }
            Op::BlockMatMul(a, b, blocks) => self.block_matmul_backward(a, b, blocks, &grad),
            Op::RepeatMatMul(a, b) => {
                // dA = Σ_b dC_b · B_bᵀ, dB_b = Aᵀ · dC_b.
                let (a_val, b_val) = (self.value(a), self.value(b));
                let (p, k) = a_val.shape();
                let d = b_val.cols();
                let blocks = b_val.rows() / k;
                let g = grad.as_slice();
                if self.wants(a) {
                    let mut da = Matrix::zeros(p, k);
                    let mut b_t = vec![0.0; k * d];
                    let mut product = Matrix::zeros(p, k);
                    for blk in 0..blocks {
                        let b_blk = &b_val.as_slice()[blk * k * d..(blk + 1) * k * d];
                        transpose_into(b_blk, k, d, &mut b_t);
                        let g_blk = &g[blk * p * d..(blk + 1) * p * d];
                        matmul_into(product.as_mut_slice(), g_blk, &b_t, p, d, k);
                        add_assign(da.as_mut_slice(), product.as_slice());
                    }
                    self.add(a, da);
                }
                if self.wants(b) {
                    let mut db = Matrix::zeros(b_val.rows(), d);
                    let a_t = self.transposed(a);
                    for blk in 0..blocks {
                        matmul_into(
                            &mut db.as_mut_slice()[blk * k * d..(blk + 1) * k * d],
                            a_t,
                            &g[blk * p * d..(blk + 1) * p * d],
                            k,
                            p,
                            d,
                        );
                    }
                    self.add(b, db);
                }
            }
            Op::BlockRowBroadcast(a, block) => {
                // out[b·n + i][j] = v[b·n + j] → dv[b·n + j] = Σ_i grad[b·n + i][j]
                let rows = self.value(a).rows();
                let mut dv = Matrix::zeros(rows, 1);
                if block > 0 {
                    let dv_blocks = dv.as_mut_slice().chunks_exact_mut(block);
                    for (dv_blk, g_blk) in
                        dv_blocks.zip(grad.as_slice().chunks_exact(block * block))
                    {
                        for g_row in g_blk.chunks_exact(block) {
                            for (acc, &g) in dv_blk.iter_mut().zip(g_row) {
                                *acc += g;
                            }
                        }
                    }
                }
                self.add(a, dv);
            }
            Op::BlockAddBroadcast(a, m) => {
                let dm = self.wants(m).then(|| {
                    let (n, c) = self.value(m).shape();
                    let mut dm = Matrix::zeros(n, c);
                    if n * c > 0 {
                        for g_blk in grad.as_slice().chunks_exact(n * c) {
                            add_assign(dm.as_mut_slice(), g_blk);
                        }
                    }
                    dm
                });
                if self.wants(a) {
                    self.add(a, grad);
                }
                if let Some(dm) = dm {
                    self.add(m, dm);
                }
            }
            Op::MatMulBias(a, w, bias) => {
                self.matmul_backward(a, w, &grad);
                if self.wants(bias) {
                    self.add(bias, grad.sum_cols());
                }
            }
            Op::MatMulBiasRelu(a, w, bias) => {
                // Gate the incoming gradient by the rectifier first (value
                // holds the post-relu output), then it is plain
                // matmul-plus-bias backward.
                gate(&mut grad, value, 0.0);
                self.matmul_backward(a, w, &grad);
                if self.wants(bias) {
                    self.add(bias, grad.sum_cols());
                }
            }
            Op::AttentionLogits(src, dst, mask, slope, n) => {
                // out = leaky(src_i + dst_j) + mask_ij, per n-row block.
                let (src_val, dst_val) = (self.value(src), self.value(dst));
                let (src_v, dst_v) = (src_val.as_slice(), dst_val.as_slice());
                let mut dsrc = self.wants(src).then(|| Matrix::zeros(src_val.rows(), 1));
                let mut ddst = self.wants(dst).then(|| Matrix::zeros(dst_val.rows(), 1));
                let mut dmask = self.wants(mask).then(|| Matrix::zeros(n, n));
                for (row, g_row) in grad.as_slice().chunks_exact(n).enumerate() {
                    let base = row - row % n;
                    let i = row % n;
                    for (j, &g) in g_row.iter().enumerate() {
                        let pre = src_v[row] + dst_v[base + j];
                        let gf = g * if pre > 0.0 { 1.0 } else { slope };
                        if let Some(dsrc) = dsrc.as_mut() {
                            dsrc.as_mut_slice()[row] += gf;
                        }
                        if let Some(ddst) = ddst.as_mut() {
                            ddst.as_mut_slice()[base + j] += gf;
                        }
                        if let Some(dmask) = dmask.as_mut() {
                            dmask.as_mut_slice()[i * n + j] += g;
                        }
                    }
                }
                for (idx, d) in [(src, dsrc), (dst, ddst), (mask, dmask)] {
                    if let Some(d) = d {
                        self.add(idx, d);
                    }
                }
            }
            Op::ScaledAdd(a, b, s) => {
                let db = self.wants(b).then(|| grad.scale(self.value(s).get(0, 0)));
                let ds = self.wants(s).then(|| sum_of_products(&grad, self.value(b)));
                if self.wants(a) {
                    self.add(a, grad);
                }
                if let Some(db) = db {
                    self.add(b, db);
                }
                if let Some(ds) = ds {
                    self.add(s, Matrix::filled(1, 1, ds));
                }
            }
        }
    }

    /// `C = A · B`: `dA = dC · Bᵀ`, `dB = Aᵀ · dC`.
    fn matmul_backward(&mut self, a: usize, b: usize, grad: &Matrix) {
        let (n, k) = self.value(a).shape();
        let d = grad.cols();
        if self.wants(a) {
            let mut da = Matrix::zeros(n, k);
            matmul_into(
                da.as_mut_slice(),
                grad.as_slice(),
                self.transposed(b),
                n,
                d,
                k,
            );
            self.add(a, da);
        }
        if self.wants(b) {
            let mut db = Matrix::zeros(k, d);
            matmul_into(
                db.as_mut_slice(),
                self.transposed(a),
                grad.as_slice(),
                k,
                n,
                d,
            );
            self.add(b, db);
        }
    }

    /// Backward pass shared by `BlockMatMul` and `BlockMatMulRelu`: per
    /// block, `dA_b = dC_b · B_bᵀ` and `dB_b = A_bᵀ · dC_b`, written straight
    /// into the block's rows.
    fn block_matmul_backward(&mut self, a: usize, b: usize, blocks: usize, grad: &Matrix) {
        let (a_val, b_val) = (self.value(a), self.value(b));
        let p = a_val.rows() / blocks;
        let k = a_val.cols();
        let d = b_val.cols();
        let g = grad.as_slice();
        if self.wants(a) {
            let mut da = Matrix::zeros(a_val.rows(), k);
            let mut b_t = vec![0.0; k * d];
            for blk in 0..blocks {
                transpose_into(
                    &b_val.as_slice()[blk * k * d..(blk + 1) * k * d],
                    k,
                    d,
                    &mut b_t,
                );
                matmul_into(
                    &mut da.as_mut_slice()[blk * p * k..(blk + 1) * p * k],
                    &g[blk * p * d..(blk + 1) * p * d],
                    &b_t,
                    p,
                    d,
                    k,
                );
            }
            self.add(a, da);
        }
        if self.wants(b) {
            let mut db = Matrix::zeros(b_val.rows(), d);
            let mut a_t = vec![0.0; p * k];
            for blk in 0..blocks {
                transpose_into(
                    &a_val.as_slice()[blk * p * k..(blk + 1) * p * k],
                    p,
                    k,
                    &mut a_t,
                );
                matmul_into(
                    &mut db.as_mut_slice()[blk * k * d..(blk + 1) * k * d],
                    &a_t,
                    &g[blk * p * d..(blk + 1) * p * d],
                    k,
                    p,
                    d,
                );
            }
            self.add(b, db);
        }
    }
}

/// `dst += src`, element by element.
fn add_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "gradient accumulation shape");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Multiply each gradient element by 1 where `by` is positive and by
/// `otherwise` elsewhere: the (leaky) rectifier's derivative.
fn gate(grad: &mut Matrix, by: &Matrix, otherwise: f32) {
    scale_by(grad, by, |v| if v > 0.0 { 1.0 } else { otherwise });
}

/// Multiply each gradient element by `f` of the matching element of `by`.
fn scale_by(grad: &mut Matrix, by: &Matrix, f: impl Fn(f32) -> f32) {
    assert_eq!(grad.shape(), by.shape(), "element-wise backward shape");
    for (g, &v) in grad.as_mut_slice().iter_mut().zip(by.as_slice()) {
        *g *= f(v);
    }
}

/// `Σ a ∘ b`, summed in storage order.
fn sum_of_products(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!(a.shape(), b.shape(), "element-wise backward shape");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| x * y)
        .sum()
}

impl Var {
    /// The value stored at this node (cloned).
    pub fn value(&self) -> Matrix {
        self.tape.value_of(self.idx)
    }

    /// Shape of the value at this node.
    pub fn shape(&self) -> (usize, usize) {
        self.tape.shape_of(self.idx)
    }

    /// The accumulated gradient of a leaf created with `requires_grad`,
    /// once [`Tape::backward`] has run and if the loss depends on it.
    ///
    /// Only leaves keep their gradients: an op node releases its gradient as
    /// soon as the backward walk has passed it on, and a constant never gets
    /// one, so both return `None`.
    pub fn grad(&self) -> Option<Matrix> {
        let inner = self.tape.inner.borrow();
        let node = &inner.nodes[self.idx];
        if node.requires_grad {
            node.grad.clone()
        } else {
            None
        }
    }

    /// The tape this variable belongs to.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// Evaluate `f` against this node's value without cloning it out of the
    /// tape. Forward ops are value-read hot paths, so they borrow instead of
    /// going through [`Var::value`].
    fn with_value<R>(&self, f: impl FnOnce(&Matrix) -> R) -> R {
        let inner = self.tape.inner.borrow();
        f(&inner.nodes[self.idx].value)
    }

    /// Evaluate `f` against two node values under one borrow (both operands
    /// must live on the same tape).
    fn with_values<R>(&self, other: &Var, f: impl FnOnce(&Matrix, &Matrix) -> R) -> R {
        assert!(
            Rc::ptr_eq(&self.tape.inner, &other.tape.inner),
            "cannot combine Vars from different tapes"
        );
        let inner = self.tape.inner.borrow();
        f(&inner.nodes[self.idx].value, &inner.nodes[other.idx].value)
    }

    fn unary(&self, op: Op, value: Matrix) -> Var {
        let requires = self.tape.requires_grad(self.idx);
        self.tape.push(value, requires, op)
    }

    fn binary(&self, other: &Var, op: Op, value: Matrix) -> Var {
        assert!(
            Rc::ptr_eq(&self.tape.inner, &other.tape.inner),
            "cannot combine Vars from different tapes"
        );
        let requires = self.tape.requires_grad(self.idx) || self.tape.requires_grad(other.idx);
        self.tape.push(value, requires, op)
    }

    /// Matrix product `self · rhs`.
    pub fn matmul(&self, rhs: &Var) -> Var {
        let value = self.with_values(rhs, |a, b| a.matmul(b).expect("Var::matmul shape mismatch"));
        self.binary(rhs, Op::MatMul(self.idx, rhs.idx), value)
    }

    /// Element-wise addition.
    pub fn add(&self, rhs: &Var) -> Var {
        let value = self.with_values(rhs, |a, b| a.add(b).expect("Var::add shape mismatch"));
        self.binary(rhs, Op::Add(self.idx, rhs.idx), value)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, rhs: &Var) -> Var {
        let value = self.with_values(rhs, |a, b| a.sub(b).expect("Var::sub shape mismatch"));
        self.binary(rhs, Op::Sub(self.idx, rhs.idx), value)
    }

    /// Element-wise product.
    pub fn mul(&self, rhs: &Var) -> Var {
        let value = self.with_values(rhs, |a, b| a.hadamard(b).expect("Var::mul shape mismatch"));
        self.binary(rhs, Op::Mul(self.idx, rhs.idx), value)
    }

    /// Add a `1 × cols` bias row to every row.
    pub fn add_row_broadcast(&self, row: &Var) -> Var {
        let value = self.with_values(row, |a, r| {
            a.add_row_broadcast(r)
                .expect("Var::add_row_broadcast shape mismatch")
        });
        self.binary(row, Op::AddRowBroadcast(self.idx, row.idx), value)
    }

    /// Multiply every element by a `1 × 1` scalar variable.
    pub fn mul_scalar_var(&self, scalar: &Var) -> Var {
        assert_eq!(scalar.shape(), (1, 1), "mul_scalar_var expects a 1x1 Var");
        let value = self.with_values(scalar, |a, s| a.scale(s.get(0, 0)));
        self.binary(scalar, Op::MulScalarBroadcast(self.idx, scalar.idx), value)
    }

    /// Add a `1 × 1` scalar variable to every element.
    pub fn add_scalar_var(&self, scalar: &Var) -> Var {
        assert_eq!(scalar.shape(), (1, 1), "add_scalar_var expects a 1x1 Var");
        let value = self.with_values(scalar, |a, s| {
            let shift = s.get(0, 0);
            a.map(|v| v + shift)
        });
        self.binary(scalar, Op::AddScalarBroadcast(self.idx, scalar.idx), value)
    }

    /// Multiply every element by a constant scalar.
    pub fn scale(&self, k: f32) -> Var {
        let value = self.with_value(|a| a.scale(k));
        self.unary(Op::Scale(self.idx, k), value)
    }

    /// Negate every element.
    pub fn neg(&self) -> Var {
        let value = self.with_value(|a| a.scale(-1.0));
        self.unary(Op::Neg(self.idx), value)
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        let value = self.with_value(|a| a.map(|v| v.max(0.0)));
        self.unary(Op::Relu(self.idx), value)
    }

    /// Leaky rectified linear unit with the given negative slope.
    pub fn leaky_relu(&self, slope: f32) -> Var {
        let value = self.with_value(|a| a.map(|v| if v > 0.0 { v } else { slope * v }));
        self.unary(Op::LeakyRelu(self.idx, slope), value)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let value = self.with_value(|a| a.map(|v| 1.0 / (1.0 + (-v).exp())));
        self.unary(Op::Sigmoid(self.idx), value)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let value = self.with_value(|a| a.map(f32::tanh));
        self.unary(Op::Tanh(self.idx), value)
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Var {
        let value = self.with_value(|a| a.map(f32::exp));
        self.unary(Op::Exp(self.idx), value)
    }

    /// Element-wise square.
    pub fn square(&self) -> Var {
        let value = self.with_value(|a| a.map(|v| v * v));
        self.unary(Op::Square(self.idx), value)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Var {
        let value = self.with_value(Matrix::softmax_rows);
        self.unary(Op::SoftmaxRows(self.idx), value)
    }

    /// Sum of all elements as a `1 × 1` node.
    pub fn sum(&self) -> Var {
        let value = Matrix::filled(1, 1, self.with_value(Matrix::sum));
        self.unary(Op::Sum(self.idx), value)
    }

    /// Mean of all elements as a `1 × 1` node.
    pub fn mean(&self) -> Var {
        let value = Matrix::filled(1, 1, self.with_value(Matrix::mean));
        self.unary(Op::Mean(self.idx), value)
    }

    /// Per-row sums as an `rows × 1` node.
    pub fn sum_rows_keep(&self) -> Var {
        let value = self.with_value(Matrix::sum_rows);
        self.unary(Op::SumRowsKeep(self.idx), value)
    }

    /// Transpose.
    pub fn transpose(&self) -> Var {
        let value = self.with_value(Matrix::transpose);
        self.unary(Op::Transpose(self.idx), value)
    }

    /// Horizontal concatenation `[self | rhs]`.
    pub fn concat_cols(&self, rhs: &Var) -> Var {
        let value = self.with_values(rhs, |a, b| {
            a.concat_cols(b).expect("Var::concat_cols shape mismatch")
        });
        self.binary(rhs, Op::ConcatCols(self.idx, rhs.idx), value)
    }

    /// Vertical concatenation.
    pub fn concat_rows(&self, rhs: &Var) -> Var {
        let value = self.with_values(rhs, |a, b| {
            a.concat_rows(b).expect("Var::concat_rows shape mismatch")
        });
        self.binary(rhs, Op::ConcatRows(self.idx, rhs.idx), value)
    }

    /// Column slice `self[:, start..end]`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Var {
        let value = self.with_value(|a| {
            a.slice_cols(start, end)
                .expect("Var::slice_cols out of bounds")
        });
        self.unary(Op::SliceCols(self.idx, start, end), value)
    }

    /// Row slice `self[start..end, :]`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Var {
        let value = self.with_value(|a| {
            a.slice_rows(start, end)
                .expect("Var::slice_rows out of bounds")
        });
        self.unary(Op::SliceRows(self.idx, start, end), value)
    }

    /// Per-block matrix product over `blocks` vertically stacked block pairs:
    /// `out_b = self_b · rhs_b` (see [`Matrix::block_matmul`]).
    pub fn block_matmul(&self, rhs: &Var, blocks: usize) -> Var {
        let value = self.with_values(rhs, |a, b| {
            a.block_matmul(b, blocks)
                .expect("Var::block_matmul shape mismatch")
        });
        self.binary(rhs, Op::BlockMatMul(self.idx, rhs.idx, blocks), value)
    }

    /// Per-block matrix product with a fused ReLU epilogue:
    /// `out_b = relu(self_b · rhs_b)` (see [`Matrix::block_matmul_relu`]).
    pub fn block_matmul_relu(&self, rhs: &Var, blocks: usize) -> Var {
        let value = self.with_values(rhs, |a, b| {
            a.block_matmul_relu(b, blocks)
                .expect("Var::block_matmul_relu shape mismatch")
        });
        self.binary(rhs, Op::BlockMatMulRelu(self.idx, rhs.idx, blocks), value)
    }

    /// Apply `self` (one `p × k` block) to every `k`-row block of `rhs`:
    /// `out_b = self · rhs_b` (see [`Matrix::repeat_matmul`]).
    pub fn repeat_matmul(&self, rhs: &Var) -> Var {
        let value = self.with_values(rhs, |a, b| {
            a.repeat_matmul(b)
                .expect("Var::repeat_matmul shape mismatch")
        });
        self.binary(rhs, Op::RepeatMatMul(self.idx, rhs.idx), value)
    }

    /// Block-wise transposed broadcast of a stacked column vector (see
    /// [`Matrix::block_row_broadcast`]).
    pub fn block_row_broadcast(&self, block: usize) -> Var {
        let value = self.with_value(|a| {
            a.block_row_broadcast(block)
                .expect("Var::block_row_broadcast shape mismatch")
        });
        self.unary(Op::BlockRowBroadcast(self.idx, block), value)
    }

    /// Add one `n × c` matrix to every `n`-row block of `self` (see
    /// [`Matrix::block_add_broadcast`]).
    pub fn block_add_broadcast(&self, m: &Var) -> Var {
        let value = self.with_values(m, |a, b| {
            a.block_add_broadcast(b)
                .expect("Var::block_add_broadcast shape mismatch")
        });
        self.binary(m, Op::BlockAddBroadcast(self.idx, m.idx), value)
    }

    fn ternary(&self, b: &Var, c: &Var, op: Op, value: Matrix) -> Var {
        assert!(
            Rc::ptr_eq(&self.tape.inner, &b.tape.inner)
                && Rc::ptr_eq(&self.tape.inner, &c.tape.inner),
            "cannot combine Vars from different tapes"
        );
        let requires = [self.idx, b.idx, c.idx]
            .into_iter()
            .any(|idx| self.tape.requires_grad(idx));
        self.tape.push(value, requires, op)
    }

    /// Fused dense layer `self · w + bias` (bias is `1 × d`, broadcast over
    /// rows); one kernel pass instead of a matmul followed by a broadcast
    /// add (see [`Matrix::matmul_bias`]).
    pub fn matmul_bias(&self, w: &Var, bias: &Var) -> Var {
        let value = self.with_values(w, |a, wv| {
            bias.with_value(|bv| {
                a.matmul_bias(wv, bv)
                    .expect("Var::matmul_bias shape mismatch")
            })
        });
        self.ternary(w, bias, Op::MatMulBias(self.idx, w.idx, bias.idx), value)
    }

    /// Fused dense layer plus activation `relu(self · w + bias)` — the
    /// rectifier rides in the kernel's store epilogue (see
    /// [`Matrix::matmul_bias_relu`]).
    pub fn matmul_bias_relu(&self, w: &Var, bias: &Var) -> Var {
        let value = self.with_values(w, |a, wv| {
            bias.with_value(|bv| {
                a.matmul_bias_relu(wv, bv)
                    .expect("Var::matmul_bias_relu shape mismatch")
            })
        });
        self.ternary(
            w,
            bias,
            Op::MatMulBiasRelu(self.idx, w.idx, bias.idx),
            value,
        )
    }

    /// Fused batched GAT attention logits (see
    /// [`Matrix::attention_logits`]): `leaky(self_i + dst_j, slope) + mask`
    /// per `n`-row block, in one pass.
    pub fn attention_logits(&self, dst: &Var, mask: &Var, slope: f32) -> Var {
        let block = mask.shape().0;
        let value = self.with_values(dst, |s, d| {
            mask.with_value(|m| {
                s.attention_logits(d, m, slope)
                    .expect("Var::attention_logits shape mismatch")
            })
        });
        self.ternary(
            dst,
            mask,
            Op::AttentionLogits(self.idx, dst.idx, mask.idx, slope, block),
            value,
        )
    }

    /// Fused `self + s · rhs` for a `1 × 1` scalar variable `s` — one pass
    /// instead of a scalar-broadcast multiply followed by an add.
    pub fn scaled_add(&self, rhs: &Var, scalar: &Var) -> Var {
        assert_eq!(scalar.shape(), (1, 1), "scaled_add expects a 1x1 scalar");
        let value = self.with_values(rhs, |a, b| {
            scalar.with_value(|s| {
                a.scaled_add(b, s.get(0, 0))
                    .expect("Var::scaled_add shape mismatch")
            })
        });
        self.ternary(
            rhs,
            scalar,
            Op::ScaledAdd(self.idx, rhs.idx, scalar.idx),
            value,
        )
    }

    /// Mean-squared error against a target variable: `mean((self − target)²)`.
    pub fn mse(&self, target: &Var) -> Var {
        self.sub(target).square().mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finite_difference_grad;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    fn grad_check<F>(param: Matrix, forward: F)
    where
        F: Fn(&Tape, &Var) -> Var,
    {
        // analytic
        let tape = Tape::new();
        let p = tape.leaf(param.clone(), true);
        let loss = forward(&tape, &p);
        tape.backward(&loss);
        let analytic = p.grad().expect("analytic gradient");

        // numeric
        let numeric = finite_difference_grad(
            &param,
            |m| {
                let t = Tape::new();
                let v = t.leaf(m.clone(), true);
                forward(&t, &v).value().get(0, 0)
            },
            1e-2,
        );
        let diff = analytic.max_abs_diff(&numeric);
        assert!(
            diff < crate::GRAD_CHECK_TOL,
            "gradient check failed: max diff {diff}\nanalytic {analytic:?}\nnumeric {numeric:?}"
        );
    }

    #[test]
    fn scalar_chain_rule() {
        // loss = mean((x * 3)²) for scalar x=2 → loss = 36, dloss/dx = 2*6*3 = 36
        let tape = Tape::new();
        let x = tape.leaf(Matrix::filled(1, 1, 2.0), true);
        let loss = x.scale(3.0).square().mean();
        assert_close(loss.value().get(0, 0), 36.0, 1e-4);
        tape.backward(&loss);
        assert_close(x.grad().unwrap().get(0, 0), 36.0, 1e-3);
    }

    #[test]
    fn matmul_gradients() {
        grad_check(
            Matrix::from_rows(vec![vec![0.5, -1.0], vec![2.0, 0.3]]),
            |t, p| {
                let w = t.constant(Matrix::from_rows(vec![vec![1.0, 2.0], vec![-0.5, 0.7]]));
                p.matmul(&w).square().mean()
            },
        );
    }

    #[test]
    fn add_sub_mul_gradients() {
        grad_check(Matrix::from_rows(vec![vec![0.2, 0.4, -0.8]]), |t, p| {
            let c = t.constant(Matrix::from_rows(vec![vec![1.0, -2.0, 0.5]]));
            p.add(&c).mul(&c).sub(&p.scale(0.3)).square().mean()
        });
    }

    #[test]
    fn activation_gradients() {
        grad_check(
            Matrix::from_rows(vec![vec![0.3, -0.6], vec![1.2, -1.5]]),
            |_, p| p.sigmoid().square().mean(),
        );
        grad_check(
            Matrix::from_rows(vec![vec![0.3, -0.6], vec![1.2, -1.5]]),
            |_, p| p.tanh().square().mean(),
        );
        grad_check(
            Matrix::from_rows(vec![vec![0.3, -0.6], vec![1.2, -1.5]]),
            |_, p| p.leaky_relu(0.2).square().mean(),
        );
        grad_check(
            Matrix::from_rows(vec![vec![0.31, -0.62], vec![1.2, -1.5]]),
            |_, p| p.relu().square().mean(),
        );
        grad_check(Matrix::from_rows(vec![vec![0.3, -0.6]]), |_, p| {
            p.exp().mean()
        });
    }

    #[test]
    fn softmax_gradients() {
        grad_check(
            Matrix::from_rows(vec![vec![0.5, 1.0, -1.0], vec![2.0, 0.1, 0.4]]),
            |t, p| {
                let target = t.constant(Matrix::from_rows(vec![
                    vec![1.0, 0.0, 0.0],
                    vec![0.0, 1.0, 0.0],
                ]));
                p.softmax_rows().sub(&target).square().mean()
            },
        );
    }

    #[test]
    fn broadcast_gradients() {
        grad_check(Matrix::from_rows(vec![vec![0.1, -0.4, 0.9]]), |t, p| {
            let x = t.constant(Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.1));
            x.add_row_broadcast(p).square().mean()
        });
    }

    #[test]
    fn scalar_var_broadcast_gradients() {
        grad_check(Matrix::filled(1, 1, 0.7), |t, p| {
            let x = t.constant(Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.2));
            x.mul_scalar_var(p).square().mean()
        });
        grad_check(Matrix::filled(1, 1, -0.3), |t, p| {
            let x = t.constant(Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.2));
            x.add_scalar_var(p).square().mean()
        });
    }

    #[test]
    fn structural_op_gradients() {
        grad_check(
            Matrix::from_fn(3, 4, |r, c| (r as f32 - c as f32) * 0.3),
            |t, p| {
                let other = t.constant(Matrix::from_fn(3, 2, |r, c| (r + c) as f32 * 0.1));
                p.slice_cols(1, 3)
                    .concat_cols(&other)
                    .transpose()
                    .square()
                    .mean()
            },
        );
        grad_check(
            Matrix::from_fn(4, 2, |r, c| (r + c) as f32 * 0.25),
            |t, p| {
                let other = t.constant(Matrix::from_fn(2, 2, |r, c| (r * c) as f32 * 0.5));
                p.slice_rows(1, 3).concat_rows(&other).square().mean()
            },
        );
    }

    #[test]
    fn reduction_gradients() {
        grad_check(
            Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.4),
            |_, p| p.sum_rows_keep().square().mean(),
        );
        grad_check(
            Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.4),
            |_, p| p.square().sum().scale(0.5),
        );
    }

    #[test]
    fn mse_helper_matches_manual() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_rows(vec![vec![1.0, 2.0]]), true);
        let b = tape.constant(Matrix::from_rows(vec![vec![0.0, 0.0]]));
        let loss = a.mse(&b);
        assert_close(loss.value().get(0, 0), 2.5, 1e-5);
        tape.backward(&loss);
        let g = a.grad().unwrap();
        assert_close(g.get(0, 0), 1.0, 1e-4);
        assert_close(g.get(0, 1), 2.0, 1e-4);
    }

    #[test]
    fn gradient_accumulates_over_reused_nodes() {
        // loss = mean((x + x)²) → d/dx = 8x per element / len
        let tape = Tape::new();
        let x = tape.leaf(Matrix::filled(1, 1, 3.0), true);
        let loss = x.add(&x).square().mean();
        tape.backward(&loss);
        assert_close(x.grad().unwrap().get(0, 0), 24.0, 1e-3);
    }

    #[test]
    fn constants_do_not_expose_grads() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::filled(1, 1, 3.0), true);
        let c = tape.constant(Matrix::filled(1, 1, 2.0));
        let loss = x.mul(&c).square().mean();
        tape.backward(&loss);
        assert!(x.grad().is_some());
        assert!(c.grad().is_none());
    }

    #[test]
    fn repeated_backward_resets_grads() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::filled(1, 1, 2.0), true);
        let loss = x.square().mean();
        tape.backward(&loss);
        let g1 = x.grad().unwrap().get(0, 0);
        tape.backward(&loss);
        let g2 = x.grad().unwrap().get(0, 0);
        assert_close(g1, g2, 1e-6);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_requires_scalar_loss() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(2, 2), true);
        let y = x.scale(2.0);
        tape.backward(&y);
    }

    #[test]
    #[should_panic(expected = "different tape")]
    fn mixing_tapes_panics() {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let a = t1.leaf(Matrix::zeros(1, 1), true);
        let b = t2.leaf(Matrix::zeros(1, 1), true);
        let _ = a.add(&b);
    }

    #[test]
    fn block_matmul_gradients() {
        // 2 blocks of 2x2 against a stacked 2-block rhs
        grad_check(
            Matrix::from_fn(4, 2, |r, c| (r as f32 - c as f32) * 0.4),
            |t, p| {
                let rhs = t.constant(Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.2));
                p.block_matmul(&rhs, 2).square().mean()
            },
        );
        // gradient through the rhs side
        grad_check(
            Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.2),
            |t, p| {
                let lhs = t.constant(Matrix::from_fn(4, 2, |r, c| (r as f32 - c as f32) * 0.4));
                lhs.block_matmul(p, 2).square().mean()
            },
        );
    }

    #[test]
    fn block_matmul_relu_gradients_and_value() {
        let tape = Tape::new();
        let a = tape.constant(Matrix::from_fn(4, 2, |r, c| (r as f32 - c as f32) * 0.4));
        let b = tape.constant(Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.2 - 0.5));
        let fused = a.block_matmul_relu(&b, 2).value();
        let unfused = a.block_matmul(&b, 2).relu().value();
        assert!(fused.max_abs_diff(&unfused) < 1e-6);

        // offsets keep pre-activations off the relu kink
        grad_check(
            Matrix::from_fn(4, 2, |r, c| (r as f32 - c as f32) * 0.4 + 0.13),
            |t, p| {
                let rhs = t.constant(Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.2 - 0.5));
                p.block_matmul_relu(&rhs, 2).square().mean()
            },
        );
        grad_check(
            Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.2 - 0.49),
            |t, p| {
                let lhs = t.constant(Matrix::from_fn(4, 2, |r, c| (r as f32 - c as f32) * 0.4));
                lhs.block_matmul_relu(p, 2).square().mean()
            },
        );
    }

    #[test]
    fn repeat_matmul_gradients() {
        grad_check(
            Matrix::from_rows(vec![vec![0.5, -1.0], vec![0.2, 0.8]]),
            |t, p| {
                let rhs = t.constant(Matrix::from_fn(6, 2, |r, c| (r + c) as f32 * 0.15));
                p.repeat_matmul(&rhs).square().mean()
            },
        );
        grad_check(
            Matrix::from_fn(6, 2, |r, c| (r + c) as f32 * 0.15),
            |t, p| {
                let lhs = t.constant(Matrix::from_rows(vec![vec![0.5, -1.0], vec![0.2, 0.8]]));
                lhs.repeat_matmul(p).square().mean()
            },
        );
    }

    #[test]
    fn block_row_broadcast_gradients() {
        grad_check(
            Matrix::col_vector(&[0.3, -0.7, 1.1, 0.4, -0.2, 0.9]),
            |_, p| p.block_row_broadcast(3).square().mean(),
        );
    }

    #[test]
    fn block_add_broadcast_gradients() {
        grad_check(
            Matrix::from_fn(6, 2, |r, c| (r + c) as f32 * 0.3),
            |t, p| {
                let m = t.constant(Matrix::from_rows(vec![vec![0.1, -0.2], vec![0.4, 0.0]]));
                p.block_add_broadcast(&m).square().mean()
            },
        );
        grad_check(
            Matrix::from_rows(vec![vec![0.1, -0.2], vec![0.4, 0.0]]),
            |t, p| {
                let h = t.constant(Matrix::from_fn(6, 2, |r, c| (r + c) as f32 * 0.3));
                h.block_add_broadcast(p).square().mean()
            },
        );
    }

    #[test]
    fn batched_ops_match_per_block_composition() {
        // One block must reproduce the exact un-batched op chain the GAT
        // layer used before batching existed.
        let tape = Tape::new();
        let dst = tape.constant(Matrix::col_vector(&[0.2, -0.6, 1.4]));
        let ones = tape.constant(Matrix::ones(1, 3));
        let reference = dst.matmul(&ones).transpose().value();
        let batched = dst.block_row_broadcast(3).value();
        assert_eq!(reference, batched, "bit-identical for a single block");
    }

    #[test]
    fn matmul_bias_gradients_and_value() {
        // value matches the unfused chain within rounding
        let tape = Tape::new();
        let x = tape.constant(Matrix::from_fn(3, 2, |r, c| (r + c) as f32 * 0.3));
        let w = tape.constant(Matrix::from_fn(2, 4, |r, c| (r as f32 - c as f32) * 0.2));
        let bias = tape.constant(Matrix::from_fn(1, 4, |_, c| c as f32 * 0.1));
        let fused = x.matmul_bias(&w, &bias).value();
        let unfused = x.matmul(&w).add_row_broadcast(&bias).value();
        assert!(fused.max_abs_diff(&unfused) < 1e-5);

        // gradients through every operand
        grad_check(
            Matrix::from_fn(3, 2, |r, c| (r + c) as f32 * 0.3),
            |t, p| {
                let w = t.constant(Matrix::from_fn(2, 4, |r, c| (r as f32 - c as f32) * 0.2));
                let b = t.constant(Matrix::from_fn(1, 4, |_, c| c as f32 * 0.1));
                p.matmul_bias(&w, &b).square().mean()
            },
        );
        grad_check(
            Matrix::from_fn(2, 4, |r, c| (r as f32 - c as f32) * 0.2),
            |t, p| {
                let x = t.constant(Matrix::from_fn(3, 2, |r, c| (r + c) as f32 * 0.3));
                let b = t.constant(Matrix::from_fn(1, 4, |_, c| c as f32 * 0.1));
                x.matmul_bias(p, &b).square().mean()
            },
        );
        grad_check(Matrix::from_fn(1, 4, |_, c| c as f32 * 0.1), |t, p| {
            let x = t.constant(Matrix::from_fn(3, 2, |r, c| (r + c) as f32 * 0.3));
            let w = t.constant(Matrix::from_fn(2, 4, |r, c| (r as f32 - c as f32) * 0.2));
            x.matmul_bias(&w, p).square().mean()
        });
    }

    #[test]
    fn matmul_bias_relu_gradients_and_value() {
        let tape = Tape::new();
        let x = tape.constant(Matrix::from_fn(3, 2, |r, c| (r as f32 - c as f32) * 0.6));
        let w = tape.constant(Matrix::from_fn(2, 4, |r, c| {
            ((r + c) % 3) as f32 * 0.4 - 0.3
        }));
        let bias = tape.constant(Matrix::from_fn(1, 4, |_, c| c as f32 * 0.1 - 0.15));
        let fused = x.matmul_bias_relu(&w, &bias).value();
        let unfused = x.matmul(&w).add_row_broadcast(&bias).relu().value();
        assert!(fused.max_abs_diff(&unfused) < 1e-5);
        assert!(fused.min().unwrap() >= 0.0);

        // offsets keep pre-activations away from the relu kink so the finite
        // difference stays smooth
        grad_check(
            Matrix::from_fn(3, 2, |r, c| (r as f32 - c as f32) * 0.6 + 0.21),
            |t, p| {
                let w = t.constant(Matrix::from_fn(2, 4, |r, c| {
                    ((r + c) % 3) as f32 * 0.4 - 0.3
                }));
                let b = t.constant(Matrix::from_fn(1, 4, |_, c| c as f32 * 0.1 - 0.15));
                p.matmul_bias_relu(&w, &b).square().mean()
            },
        );
        grad_check(
            Matrix::from_fn(2, 4, |r, c| ((r + c) % 3) as f32 * 0.4 - 0.29),
            |t, p| {
                let x = t.constant(Matrix::from_fn(3, 2, |r, c| (r as f32 - c as f32) * 0.6));
                let b = t.constant(Matrix::from_fn(1, 4, |_, c| c as f32 * 0.1 - 0.15));
                x.matmul_bias_relu(p, &b).square().mean()
            },
        );
        grad_check(
            Matrix::from_fn(1, 4, |_, c| c as f32 * 0.1 - 0.13),
            |t, p| {
                let x = t.constant(Matrix::from_fn(3, 2, |r, c| (r as f32 - c as f32) * 0.6));
                let w = t.constant(Matrix::from_fn(2, 4, |r, c| {
                    ((r + c) % 3) as f32 * 0.4 - 0.3
                }));
                x.matmul_bias_relu(&w, p).square().mean()
            },
        );
    }

    #[test]
    fn attention_logits_gradients_and_value() {
        let mask = Matrix::from_rows(vec![
            vec![0.0, -2.0, 0.0],
            vec![-2.0, 0.0, 0.0],
            vec![0.0, 0.0, -2.0],
        ]);
        // value matches the unfused chain (two blocks)
        let tape = Tape::new();
        let src = tape.constant(Matrix::col_vector(&[0.4, -0.6, 1.2, -0.1, 0.8, -1.4]));
        let dst = tape.constant(Matrix::col_vector(&[0.2, 0.9, -0.5, 1.1, -0.7, 0.3]));
        let m = tape.constant(mask.clone());
        let ones = tape.constant(Matrix::ones(1, 3));
        let fused = src.attention_logits(&dst, &m, 0.2).value();
        let unfused = src
            .matmul(&ones)
            .add(&dst.block_row_broadcast(3))
            .leaky_relu(0.2)
            .block_add_broadcast(&m)
            .value();
        assert!(fused.max_abs_diff(&unfused) < 1e-6);

        // gradients through src, dst and the mask
        let mask_for = mask.clone();
        grad_check(Matrix::col_vector(&[0.4, -0.6, 1.2, -0.1, 0.8, -1.4]), {
            let mask = mask_for.clone();
            move |t, p| {
                let dst = t.constant(Matrix::col_vector(&[0.2, 0.9, -0.5, 1.1, -0.7, 0.3]));
                let m = t.constant(mask.clone());
                p.attention_logits(&dst, &m, 0.2).square().mean()
            }
        });
        grad_check(Matrix::col_vector(&[0.2, 0.9, -0.5, 1.1, -0.7, 0.3]), {
            let mask = mask_for.clone();
            move |t, p| {
                let src = t.constant(Matrix::col_vector(&[0.4, -0.6, 1.2, -0.1, 0.8, -1.4]));
                let m = t.constant(mask.clone());
                src.attention_logits(p, &m, 0.2).square().mean()
            }
        });
        grad_check(mask_for, |t, p| {
            let src = t.constant(Matrix::col_vector(&[0.4, -0.6, 1.2, -0.1, 0.8, -1.4]));
            let dst = t.constant(Matrix::col_vector(&[0.2, 0.9, -0.5, 1.1, -0.7, 0.3]));
            src.attention_logits(&dst, p, 0.2).square().mean()
        });
    }

    #[test]
    fn scaled_add_gradients_and_value() {
        let tape = Tape::new();
        let a = tape.constant(Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.4));
        let b = tape.constant(Matrix::from_fn(2, 3, |r, c| (r as f32 - c as f32) * 0.3));
        let s = tape.constant(Matrix::filled(1, 1, 1.7));
        let fused = a.scaled_add(&b, &s).value();
        let unfused = a.add(&b.mul_scalar_var(&s)).value();
        assert!(fused.max_abs_diff(&unfused) < 1e-6);

        grad_check(
            Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.4),
            |t, p| {
                let b = t.constant(Matrix::from_fn(2, 3, |r, c| (r as f32 - c as f32) * 0.3));
                let s = t.constant(Matrix::filled(1, 1, 1.7));
                p.scaled_add(&b, &s).square().mean()
            },
        );
        grad_check(
            Matrix::from_fn(2, 3, |r, c| (r as f32 - c as f32) * 0.3),
            |t, p| {
                let a = t.constant(Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.4));
                let s = t.constant(Matrix::filled(1, 1, 1.7));
                a.scaled_add(p, &s).square().mean()
            },
        );
        grad_check(Matrix::filled(1, 1, 1.7), |t, p| {
            let a = t.constant(Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.4));
            let b = t.constant(Matrix::from_fn(2, 3, |r, c| (r as f32 - c as f32) * 0.3));
            a.scaled_add(&b, p).square().mean()
        });
    }

    #[test]
    fn no_grad_tape_records_only_leaves() {
        let tape = Tape::no_grad();
        assert!(!tape.is_grad_enabled());
        let x = tape.leaf(Matrix::from_rows(vec![vec![1.0, 2.0]]), true);
        let w = tape.constant(Matrix::from_rows(vec![vec![3.0], vec![4.0]]));
        let y = x.matmul(&w).relu().square();
        // values still flow
        assert_eq!(y.value().get(0, 0), 121.0);
        // but no backward metadata exists
        assert_eq!(tape.n_backward_nodes(), 0);
        assert_eq!(tape.len(), 5);
        // and no node (not even the "requires_grad" leaf) tracks gradients
        assert!(x.grad().is_none());
    }

    #[test]
    fn grad_tape_counts_backward_nodes() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::filled(1, 1, 2.0), true);
        let _ = x.square().mean();
        assert_eq!(tape.n_backward_nodes(), 2);
    }

    #[test]
    #[should_panic(expected = "no-grad")]
    fn backward_on_no_grad_tape_panics() {
        let tape = Tape::no_grad();
        let x = tape.leaf(Matrix::filled(1, 1, 2.0), true);
        let loss = x.square().mean();
        tape.backward(&loss);
    }

    #[test]
    fn truncate_rewinds_the_tape() {
        let tape = Tape::no_grad();
        let x = tape.leaf(Matrix::filled(2, 1, 1.5), false);
        let base = tape.len();
        for _ in 0..3 {
            let y = x.scale(2.0).square();
            assert_eq!(y.value().get(0, 0), 9.0);
            tape.truncate(base);
            assert_eq!(tape.len(), base, "every pass rewinds to the baseline");
        }
        // the retained leaf is still readable after truncation
        assert_eq!(x.value().get(1, 0), 1.5);
    }

    #[test]
    #[should_panic(expected = "beyond the current")]
    fn truncate_beyond_len_panics() {
        let tape = Tape::new();
        tape.truncate(1);
    }

    #[test]
    fn tape_len_tracks_nodes() {
        let tape = Tape::new();
        assert!(tape.is_empty());
        let a = tape.leaf(Matrix::zeros(1, 1), true);
        let _b = a.scale(2.0);
        assert_eq!(tape.len(), 2);
    }
}
