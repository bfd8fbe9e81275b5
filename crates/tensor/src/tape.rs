//! Reverse-mode automatic differentiation on dense matrices.
//!
//! The tape follows the classic define-by-run design: every differentiable
//! operation appends a [`Node`] holding its output value, the indices of its
//! parents and an [`Op`] tag. [`Tape::backward`] seeds the output gradient
//! and walks the nodes in reverse creation order, accumulating parent
//! gradients according to each op's local derivative.
//!
//! The ops are exactly the ones the DQuaG network runs: its dense, GAT, GIN
//! and GCN layers, Graph2Vec's feature concatenation and the multi-task
//! loss. The dense layer and GAT's aggregation take a `relu` flag that
//! folds the rectifier into the product's store epilogue.
//!
//! Only leaves keep a gradient. A leaf created with `requires_grad` holds
//! its gradient after [`Tape::backward`]; an op node passes its gradient
//! on and releases it. An op node requires a gradient exactly when one of
//! its parents does, so constants — graph operators, inputs, masks — and
//! everything computed only from them never get one, and the walk skips
//! them.
//!
//! Training creates a fresh tape for every mini-batch step, which keeps
//! lifetimes trivial and memory bounded. Inference runs the same forward
//! pass on the same kind of tape: it binds the model parameters once, and
//! [`Tape::truncate`] rewinds the tape to that baseline after every batch
//! instead of re-binding (and re-cloning) the parameters per sample.

use crate::matrix::{transpose_into, Matrix};
use crate::simd::matmul_into;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Operation tag recorded for every tape node.
///
/// Parent nodes are referenced by index into the tape. Constants required by
/// the backward pass (scalars, block counts, the `relu` flag) are stored
/// inline.
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
    /// `C = k · A` for a constant scalar `k`
    Scale(usize, f32),
    /// `C = A²` element-wise
    Square(usize),
    /// Row-wise softmax
    SoftmaxRows(usize),
    /// Scalar mean of all elements (`1 × 1` output)
    Mean(usize),
    /// Horizontal concatenation `[A | B]`
    ConcatCols(usize, usize),
    /// Per-block product over `B` stacked blocks, `C_b = A_b · B_b`,
    /// rectified when the flag is set
    BlockMatMul(usize, usize, usize, bool),
    /// One operator applied to every block: `C_b = A · B_b`
    RepeatMatMul(usize, usize),
    /// Fused dense layer `C = A · W + row(bias)`, rectified when the flag
    /// is set
    MatMulBias(usize, usize, usize, bool),
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

/// A reverse-mode autodiff tape.
///
/// Cheap to clone (reference-counted); all [`Var`]s created from a tape share
/// its node storage. The tape is single-threaded by design — each worker
/// thread owns its own tape and model replica.
#[derive(Clone, Default)]
pub struct Tape {
    nodes: Rc<RefCell<Vec<Node>>>,
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
        let mut nodes = self.nodes.borrow_mut();
        assert!(
            len <= nodes.len(),
            "Tape::truncate({len}) beyond the current {} nodes",
            nodes.len()
        );
        nodes.truncate(len);
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
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
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            value,
            grad: None,
            requires_grad,
            op,
        });
        Var {
            tape: self.clone(),
            idx: nodes.len() - 1,
        }
    }

    fn value_of(&self, idx: usize) -> Matrix {
        self.nodes.borrow()[idx].value.clone()
    }

    fn shape_of(&self, idx: usize) -> (usize, usize) {
        self.nodes.borrow()[idx].value.shape()
    }

    fn requires_grad(&self, idx: usize) -> bool {
        self.nodes.borrow()[idx].requires_grad
    }

    /// Run the backward pass from `output`, which must be a `1 × 1` scalar
    /// node (a loss). Afterwards every `requires_grad` leaf the loss depends
    /// on holds its gradient, read with [`Var::grad`]. Interior nodes release
    /// their gradients as soon as they have passed them on, and nodes that
    /// depend only on constants are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `output` is not a scalar node or belongs to another tape.
    pub fn backward(&self, output: &Var) {
        assert!(
            Rc::ptr_eq(&self.nodes, &output.tape.nodes),
            "backward called with a Var from a different tape"
        );
        let out_shape = self.shape_of(output.idx);
        assert_eq!(
            out_shape,
            (1, 1),
            "backward expects a scalar (1x1) loss node, got {}x{}",
            out_shape.0,
            out_shape.1
        );

        let mut nodes = self.nodes.borrow_mut();
        // Reset any gradients from a previous backward call on the same tape.
        for node in nodes.iter_mut() {
            node.grad = None;
        }
        let mut walk = Walk {
            nodes: nodes.as_slice(),
            grads: vec![None; output.idx + 1],
            leaf_transposes: HashMap::new(),
            scratch: Vec::new(),
        };
        walk.grads[output.idx] = Some(Matrix::ones(1, 1));
        let recorded = walk.nodes;
        for idx in (0..=output.idx).rev() {
            let node = &recorded[idx];
            if matches!(node.op, Op::Leaf) || !node.requires_grad {
                continue;
            }
            if let Some(grad) = walk.grads[idx].take() {
                walk.propagate(&node.op, &node.value, grad);
            }
        }
        let grads = walk.grads;
        for (node, grad) in nodes.iter_mut().zip(grads) {
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
            // A unary node wants a gradient exactly when its parent does.
            Op::Scale(a, k) => {
                grad.map_inplace(|v| v * k);
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
            Op::Mean(a) => {
                let (r, c) = self.value(a).shape();
                let n_elems = (r * c).max(1) as f32;
                self.add(a, Matrix::filled(r, c, grad.get(0, 0) / n_elems));
            }
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
            Op::BlockMatMul(a, b, blocks, relu) => {
                if relu {
                    gate(&mut grad, value);
                }
                self.block_matmul_backward(a, b, blocks, &grad);
            }
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
            Op::MatMulBias(a, w, bias, relu) => {
                if relu {
                    gate(&mut grad, value);
                }
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

    /// `BlockMatMul` backward: per block, `dA_b = dC_b · B_bᵀ` and
    /// `dB_b = A_bᵀ · dC_b`, written straight into the block's rows.
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

/// Multiply each gradient element by 1 where the rectified output `out` is
/// positive and by 0 elsewhere: the rectifier's derivative.
fn gate(grad: &mut Matrix, out: &Matrix) {
    scale_by(grad, out, |v| if v > 0.0 { 1.0 } else { 0.0 });
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
        let nodes = self.tape.nodes.borrow();
        let node = &nodes[self.idx];
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
        let nodes = self.tape.nodes.borrow();
        f(&nodes[self.idx].value)
    }

    /// Evaluate `f` against two node values under one borrow (both operands
    /// must live on the same tape).
    fn with_values<R>(&self, other: &Var, f: impl FnOnce(&Matrix, &Matrix) -> R) -> R {
        assert!(
            Rc::ptr_eq(&self.tape.nodes, &other.tape.nodes),
            "cannot combine Vars from different tapes"
        );
        let nodes = self.tape.nodes.borrow();
        f(&nodes[self.idx].value, &nodes[other.idx].value)
    }

    fn unary(&self, op: Op, value: Matrix) -> Var {
        let requires = self.tape.requires_grad(self.idx);
        self.tape.push(value, requires, op)
    }

    fn binary(&self, other: &Var, op: Op, value: Matrix) -> Var {
        assert!(
            Rc::ptr_eq(&self.tape.nodes, &other.tape.nodes),
            "cannot combine Vars from different tapes"
        );
        let requires = self.tape.requires_grad(self.idx) || self.tape.requires_grad(other.idx);
        self.tape.push(value, requires, op)
    }

    fn ternary(&self, b: &Var, c: &Var, op: Op, value: Matrix) -> Var {
        assert!(
            Rc::ptr_eq(&self.tape.nodes, &b.tape.nodes)
                && Rc::ptr_eq(&self.tape.nodes, &c.tape.nodes),
            "cannot combine Vars from different tapes"
        );
        let requires = [self.idx, b.idx, c.idx]
            .into_iter()
            .any(|idx| self.tape.requires_grad(idx));
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

    /// Multiply every element by a constant scalar.
    pub fn scale(&self, k: f32) -> Var {
        let value = self.with_value(|a| a.scale(k));
        self.unary(Op::Scale(self.idx, k), value)
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

    /// Mean of all elements as a `1 × 1` node.
    pub fn mean(&self) -> Var {
        let value = Matrix::filled(1, 1, self.with_value(Matrix::mean));
        self.unary(Op::Mean(self.idx), value)
    }

    /// Horizontal concatenation `[self | rhs]`.
    pub fn concat_cols(&self, rhs: &Var) -> Var {
        let value = self.with_values(rhs, |a, b| {
            a.concat_cols(b).expect("Var::concat_cols shape mismatch")
        });
        self.binary(rhs, Op::ConcatCols(self.idx, rhs.idx), value)
    }

    /// Per-block matrix product over `blocks` vertically stacked block pairs,
    /// `out_b = self_b · rhs_b`, rectified when `relu` is set (see
    /// [`Matrix::block_matmul`]).
    pub fn block_matmul(&self, rhs: &Var, blocks: usize, relu: bool) -> Var {
        let value = self.with_values(rhs, |a, b| {
            a.block_matmul(b, blocks, relu)
                .expect("Var::block_matmul shape mismatch")
        });
        self.binary(rhs, Op::BlockMatMul(self.idx, rhs.idx, blocks, relu), value)
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

    /// Fused dense layer `self · w + bias` (bias is `1 × d`, broadcast over
    /// rows), rectified when `relu` is set: one kernel pass with the bias
    /// and the rectifier in its store epilogue (see [`Matrix::matmul_bias`]).
    pub fn matmul_bias(&self, w: &Var, bias: &Var, relu: bool) -> Var {
        let value = self.with_values(w, |a, wv| {
            bias.with_value(|bv| {
                a.matmul_bias(wv, bv, relu)
                    .expect("Var::matmul_bias shape mismatch")
            })
        });
        self.ternary(
            w,
            bias,
            Op::MatMulBias(self.idx, w.idx, bias.idx, relu),
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

    /// A scalar loss whose gradient at every element of `out` is nonzero,
    /// clamped elements included, so a missing rectifier gate shows: a
    /// weighted mean of `out`'s columns plus the mean square.
    fn readout(t: &Tape, out: &Var) -> Var {
        let mix = Matrix::from_fn(out.shape().1, 1, |r, _| 0.5 - 0.3 * r as f32);
        out.matmul(&t.constant(mix))
            .mean()
            .add(&out.square().mean())
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
        // `scale` is the tape's one element-wise multiply
        grad_check(Matrix::from_rows(vec![vec![0.2, 0.4, -0.8]]), |t, p| {
            let c = t.constant(Matrix::from_rows(vec![vec![1.0, -2.0, 0.5]]));
            p.add(&c).scale(1.5).sub(&p.scale(0.3)).square().mean()
        });
    }

    #[test]
    fn activation_gradients() {
        // The rectifier epilogue passes the gradient exactly where its
        // output is positive and blocks it elsewhere: with loss = mean(out),
        // each bias entry's gradient counts its column's positive outputs.
        let tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(vec![
            vec![1.0, -1.0],
            vec![-2.0, 0.5],
            vec![0.5, 2.0],
        ]));
        let w = tape.constant(Matrix::from_rows(vec![
            vec![1.0, -1.0, 0.25],
            vec![0.5, 1.0, -1.0],
        ]));
        let bias = tape.leaf(Matrix::from_rows(vec![vec![0.1, 0.2, -0.3]]), true);
        for relu in [false, true] {
            let out = x.matmul_bias(&w, &bias, relu);
            tape.backward(&out.mean());
            let out = out.value();
            let grad = bias.grad().unwrap();
            for c in 0..3 {
                let passed = (0..3).filter(|&r| !relu || out.get(r, c) > 0.0).count();
                assert_close(grad.get(0, c), passed as f32 / 9.0, 1e-6);
            }
        }
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
    fn structural_op_gradients() {
        // concat_cols hands each side back its own columns; distinct column
        // weights make a misrouted column show.
        let weights = |t: &Tape| t.constant(Matrix::from_fn(6, 1, |r, _| 0.3 * r as f32 - 0.7));
        grad_check(
            Matrix::from_fn(3, 4, |r, c| (r as f32 - c as f32) * 0.3),
            |t, p| {
                let other = t.constant(Matrix::from_fn(3, 2, |r, c| (r + c) as f32 * 0.1));
                p.concat_cols(&other).matmul(&weights(t)).square().mean()
            },
        );
        grad_check(
            Matrix::from_fn(3, 2, |r, c| (r + c) as f32 * 0.1),
            |t, p| {
                let other = t.constant(Matrix::from_fn(3, 4, |r, c| (r as f32 - c as f32) * 0.3));
                other.concat_cols(p).matmul(&weights(t)).square().mean()
            },
        );
    }

    #[test]
    fn reduction_gradients() {
        grad_check(
            Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.4 - 0.5),
            |_, p| p.mean().square(),
        );
        grad_check(
            Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.4),
            |_, p| p.square().mean().scale(0.5),
        );
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
        let loss = x.matmul(&c).square().mean();
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

    /// Grad-checks `block_matmul` through both operands: 2 blocks of 2x2
    /// against a stacked 2-block rhs. The offsets keep every pre-activation
    /// at least 0.013 off the relu kink, more than a finite-difference step
    /// moves it.
    fn check_block_matmul(relu: bool) {
        let lhs = |r: usize, c: usize| (r as f32 - c as f32) * 0.4 + 0.13;
        let rhs = |r: usize, c: usize| (r + c) as f32 * 0.2 - 0.49;
        grad_check(Matrix::from_fn(4, 2, lhs), |t, p| {
            let rhs = t.constant(Matrix::from_fn(4, 3, rhs));
            readout(t, &p.block_matmul(&rhs, 2, relu))
        });
        grad_check(Matrix::from_fn(4, 3, rhs), |t, p| {
            let lhs = t.constant(Matrix::from_fn(4, 2, lhs));
            readout(t, &lhs.block_matmul(p, 2, relu))
        });
    }

    #[test]
    fn block_matmul_gradients() {
        check_block_matmul(false);
    }

    #[test]
    fn block_matmul_relu_gradients_and_value() {
        // the fused rectifier clamps exactly the plain product's negatives
        let tape = Tape::new();
        let a = tape.constant(Matrix::from_fn(4, 2, |r, c| (r as f32 - c as f32) * 0.4));
        let b = tape.constant(Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.2 - 0.5));
        let fused = a.block_matmul(&b, 2, true).value();
        let mut unfused = a.block_matmul(&b, 2, false).value();
        unfused.map_inplace(|v| v.max(0.0));
        assert!(fused.max_abs_diff(&unfused) < 1e-6);

        check_block_matmul(true);
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
    fn batched_ops_match_per_block_composition() {
        // GAT's chain over three stacked 2-node samples — fused logits,
        // softmax, per-block aggregation — gives every block the bits of
        // the same chain over that sample alone.
        fn block(m: &Matrix, blk: usize) -> Matrix {
            m.slice_rows(blk * 2, (blk + 1) * 2).unwrap()
        }
        let src = Matrix::col_vector(&[0.4, -0.6, 1.2, -0.1, 0.8, -1.4]);
        let dst = Matrix::col_vector(&[0.2, 0.9, -0.5, 1.1, -0.7, 0.3]);
        let hw = Matrix::from_fn(6, 3, |r, c| (r + c) as f32 * 0.25 - 0.6);
        let tape = Tape::new();
        let mask = tape.constant(Matrix::from_rows(vec![vec![0.0, -1e9], vec![0.0, 0.0]]));
        let gat = |src: Matrix, dst: Matrix, hw: Matrix, blocks: usize, relu: bool| {
            tape.constant(src)
                .attention_logits(&tape.constant(dst), &mask, 0.2)
                .softmax_rows()
                .block_matmul(&tape.constant(hw), blocks, relu)
                .value()
        };
        for relu in [false, true] {
            let batched = gat(src.clone(), dst.clone(), hw.clone(), 3, relu);
            for blk in 0..3 {
                let alone = gat(block(&src, blk), block(&dst, blk), block(&hw, blk), 1, relu);
                assert_eq!(block(&batched, blk), alone, "relu {relu} block {blk}");
            }
        }
    }

    /// Checks `matmul_bias` against the unfused chain and grad-checks it
    /// through every operand. The offsets keep every pre-activation at least
    /// 0.04 off the relu kink, more than a finite-difference step moves it.
    fn check_matmul_bias(relu: bool) {
        let x = |r: usize, c: usize| (r as f32 - c as f32) * 0.6 + 0.21;
        let w = |r: usize, c: usize| ((r + c) % 3) as f32 * 0.4 - 0.29;
        let b = |_: usize, c: usize| c as f32 * 0.1 - 0.13;
        // value matches the unfused chain within rounding
        let (xm, wm, bm) = (
            Matrix::from_fn(3, 2, x),
            Matrix::from_fn(2, 4, w),
            Matrix::from_fn(1, 4, b),
        );
        let tape = Tape::new();
        let fused = tape
            .constant(xm.clone())
            .matmul_bias(&tape.constant(wm.clone()), &tape.constant(bm.clone()), relu)
            .value();
        let mut unfused = xm.matmul(&wm).unwrap().add_row_broadcast(&bm).unwrap();
        if relu {
            unfused.map_inplace(|v| v.max(0.0));
        }
        assert!(fused.max_abs_diff(&unfused) < 1e-5, "relu {relu}");

        // gradients through every operand
        grad_check(xm, |t, p| {
            let (w, b) = (t.constant(wm.clone()), t.constant(bm.clone()));
            readout(t, &p.matmul_bias(&w, &b, relu))
        });
        grad_check(Matrix::from_fn(2, 4, w), |t, p| {
            let (x, b) = (t.constant(Matrix::from_fn(3, 2, x)), t.constant(bm.clone()));
            readout(t, &x.matmul_bias(p, &b, relu))
        });
        grad_check(bm, |t, p| {
            let (x, w) = (t.constant(Matrix::from_fn(3, 2, x)), t.constant(wm.clone()));
            readout(t, &x.matmul_bias(&w, p, relu))
        });
    }

    #[test]
    fn matmul_bias_gradients_and_value() {
        check_matmul_bias(false);
    }

    #[test]
    fn matmul_bias_relu_gradients_and_value() {
        check_matmul_bias(true);
    }

    #[test]
    fn attention_logits_gradients_and_value() {
        let mask = Matrix::from_rows(vec![
            vec![0.0, -2.0, 0.0],
            vec![-2.0, 0.0, 0.0],
            vec![0.0, 0.0, -2.0],
        ]);
        let src = Matrix::col_vector(&[0.4, -0.6, 1.2, -0.1, 0.8, -1.4]);
        let dst = Matrix::col_vector(&[0.2, 0.9, -0.5, 1.1, -0.7, 0.3]);
        // value matches the unfused chain (two blocks)
        let tape = Tape::new();
        let fused = tape
            .constant(src.clone())
            .attention_logits(
                &tape.constant(dst.clone()),
                &tape.constant(mask.clone()),
                0.2,
            )
            .value();
        let unfused = src
            .matmul(&Matrix::ones(1, 3))
            .unwrap()
            .add(&dst.block_row_broadcast(3).unwrap())
            .unwrap()
            .map(|v| if v > 0.0 { v } else { 0.2 * v })
            .block_add_broadcast(&mask)
            .unwrap();
        assert!(fused.max_abs_diff(&unfused) < 1e-6);

        // gradients through src, dst and the mask
        grad_check(src.clone(), |t, p| {
            let (dst, m) = (t.constant(dst.clone()), t.constant(mask.clone()));
            p.attention_logits(&dst, &m, 0.2).square().mean()
        });
        grad_check(dst.clone(), |t, p| {
            let (src, m) = (t.constant(src.clone()), t.constant(mask.clone()));
            src.attention_logits(p, &m, 0.2).square().mean()
        });
        grad_check(mask.clone(), |t, p| {
            let (src, dst) = (t.constant(src.clone()), t.constant(dst.clone()));
            src.attention_logits(&dst, p, 0.2).square().mean()
        });
    }

    #[test]
    fn scaled_add_gradients_and_value() {
        let a = Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.4);
        let b = Matrix::from_fn(2, 3, |r, c| (r as f32 - c as f32) * 0.3);
        let s = Matrix::filled(1, 1, 1.7);
        let tape = Tape::new();
        let fused = tape
            .constant(a.clone())
            .scaled_add(&tape.constant(b.clone()), &tape.constant(s.clone()))
            .value();
        assert!(fused.max_abs_diff(&a.add(&b.scale(1.7)).unwrap()) < 1e-6);

        grad_check(a.clone(), |t, p| {
            let (b, s) = (t.constant(b.clone()), t.constant(s.clone()));
            p.scaled_add(&b, &s).square().mean()
        });
        grad_check(b.clone(), |t, p| {
            let (a, s) = (t.constant(a.clone()), t.constant(s.clone()));
            a.scaled_add(p, &s).square().mean()
        });
        grad_check(s.clone(), |t, p| {
            let (a, b) = (t.constant(a.clone()), t.constant(b.clone()));
            a.scaled_add(&b, p).square().mean()
        });
    }

    #[test]
    fn truncate_rewinds_the_tape() {
        let tape = Tape::new();
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
