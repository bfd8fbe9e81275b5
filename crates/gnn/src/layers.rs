//! Neural layers: dense, MLP, GAT, GIN and GCN.
//!
//! Every layer registers its weights in a shared [`ParamStore`] at
//! construction time and performs its forward pass against the
//! [`BoundParams`]/[`BoundGraph`] views created for the current tape. Each
//! layer has one forward pass. The message-passing layers' `forward_batch`
//! runs over `B` samples stacked vertically into a
//! `(B·n_features) × channels` matrix; a single sample is the `batch = 1`
//! case. Every forward takes a `relu` flag that folds a trailing ReLU into
//! the layer's last kernel pass.

use crate::context::BoundGraph;
use crate::params::{BoundParams, ParamId, ParamStore};
use dquag_tensor::init::{he_normal, uniform_symmetric, xavier_uniform, InitRng};
use dquag_tensor::{Matrix, Var};

/// Negative slope of the LeakyReLU used inside GAT attention (PyG default).
pub const GAT_LEAKY_SLOPE: f32 = 0.2;

/// A dense (fully connected) layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Create a new dense layer with Xavier-initialised weights.
    pub fn new(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        store: &mut ParamStore,
        rng: &mut InitRng,
    ) -> Self {
        let weight = store.add(
            format!("{name}.weight"),
            xavier_uniform(in_dim, out_dim, rng),
        );
        let bias = store.add(format!("{name}.bias"), Matrix::zeros(1, out_dim));
        Self {
            weight,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Create a dense layer with He-initialised weights (for ReLU MLPs).
    pub fn new_he(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        store: &mut ParamStore,
        rng: &mut InitRng,
    ) -> Self {
        let weight = store.add(format!("{name}.weight"), he_normal(in_dim, out_dim, rng));
        let bias = store.add(format!("{name}.bias"), Matrix::zeros(1, out_dim));
        Self {
            weight,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass: `x (r × in) → r × out`, `x · W + b` rectified when
    /// `relu` is set, as one fused kernel pass.
    pub fn forward(&self, params: &BoundParams, x: &Var, relu: bool) -> Var {
        x.matmul_bias(params.var(self.weight), params.var(self.bias), relu)
    }
}

/// A two-layer perceptron with ReLU in between, used inside GIN layers and as
/// the decoder trunk.
#[derive(Debug, Clone)]
pub struct Mlp {
    first: Linear,
    second: Linear,
}

impl Mlp {
    /// Create an MLP `in_dim → hidden_dim → out_dim`.
    pub fn new(
        name: &str,
        in_dim: usize,
        hidden_dim: usize,
        out_dim: usize,
        store: &mut ParamStore,
        rng: &mut InitRng,
    ) -> Self {
        Self {
            first: Linear::new_he(&format!("{name}.0"), in_dim, hidden_dim, store, rng),
            second: Linear::new(&format!("{name}.1"), hidden_dim, out_dim, store, rng),
        }
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.second.out_dim()
    }

    /// Forward pass with a ReLU after the first layer, and after the second
    /// when `relu` is set; each is fused into its layer's kernel pass.
    pub fn forward(&self, params: &BoundParams, x: &Var, relu: bool) -> Var {
        self.second
            .forward(params, &self.first.forward(params, x, true), relu)
    }
}

/// Graph Attention Network layer (Veličković et al., 2018), single head.
///
/// Attention logits use the additive formulation
/// `e_ij = LeakyReLU(a_src·(W h_i) + a_dst·(W h_j))`, masked to the graph's
/// edges (plus self-loops) and normalised row-wise with a softmax. The paper
/// highlights that attention makes manual edge-weight assignment unnecessary.
#[derive(Debug, Clone)]
pub struct GatLayer {
    weight: ParamId,
    attn_src: ParamId,
    attn_dst: ParamId,
    out_dim: usize,
}

impl GatLayer {
    /// Create a GAT layer.
    pub fn new(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        store: &mut ParamStore,
        rng: &mut InitRng,
    ) -> Self {
        let limit = (6.0 / (out_dim + 1) as f32).sqrt();
        Self {
            weight: store.add(
                format!("{name}.weight"),
                xavier_uniform(in_dim, out_dim, rng),
            ),
            attn_src: store.add(
                format!("{name}.attn_src"),
                uniform_symmetric(out_dim, 1, limit, rng),
            ),
            attn_dst: store.add(
                format!("{name}.attn_dst"),
                uniform_symmetric(out_dim, 1, limit, rng),
            ),
            out_dim,
        }
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Batched forward pass over `batch` vertically stacked samples:
    /// `h (B·n × in) → B·n × out`, rectified when `relu` is set (the
    /// rectifier rides the attention-mixing kernel's store epilogue).
    /// Attention is computed per block — sample `b`'s nodes only attend
    /// within their own `n × n` grid — so the result is bit-identical to
    /// `batch` independent one-sample calls.
    pub fn forward_batch(
        &self,
        params: &BoundParams,
        graph: &BoundGraph,
        h: &Var,
        batch: usize,
        relu: bool,
    ) -> Var {
        let (hw, attention) = self.project_and_attend(params, graph, h);
        attention.block_matmul(&hw, batch, relu)
    }

    /// The attention matrix itself (useful for interpretability tests).
    pub fn attention(&self, params: &BoundParams, graph: &BoundGraph, h: &Var) -> Var {
        self.project_and_attend(params, graph, h).1
    }

    /// The projected features `h·W` and the per-block attention grids over
    /// them.
    fn project_and_attend(&self, params: &BoundParams, graph: &BoundGraph, h: &Var) -> (Var, Var) {
        let hw = h.matmul(params.var(self.weight)); // B·n × out
        let src = hw.matmul(params.var(self.attn_src)); // B·n × 1
        let dst = hw.matmul(params.var(self.attn_dst)); // B·n × 1

        // One fused pass builds the per-block n × n logit grids:
        // logits[b·n + i][j] = leaky(src[b·n + i] + dst[b·n + j]) + mask[i][j]
        let logits = src.attention_logits(&dst, &graph.attention_mask, GAT_LEAKY_SLOPE);
        (hw, logits.softmax_rows()) // rows sum to 1 over N(i) ∪ {i}
    }
}

/// Graph Isomorphism Network layer (Xu et al., 2019).
///
/// `h_i' = MLP((1 + ε)·h_i + Σ_{j ∈ N(i)} h_j)` with a learnable ε.
#[derive(Debug, Clone)]
pub struct GinLayer {
    mlp: Mlp,
    epsilon: ParamId,
    out_dim: usize,
}

impl GinLayer {
    /// Create a GIN layer whose MLP maps `in_dim → out_dim → out_dim`.
    pub fn new(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        store: &mut ParamStore,
        rng: &mut InitRng,
    ) -> Self {
        Self {
            mlp: Mlp::new(&format!("{name}.mlp"), in_dim, out_dim, out_dim, store, rng),
            epsilon: store.add(format!("{name}.eps"), Matrix::zeros(1, 1)),
            out_dim,
        }
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Batched forward pass over vertically stacked samples: the shared
    /// adjacency aggregates neighbours within each `n`-row block, the
    /// `(1 + ε)` self-term and the MLP are row-wise and batch transparently.
    /// The MLP's output is rectified when `relu` is set.
    pub fn forward_batch(
        &self,
        params: &BoundParams,
        graph: &BoundGraph,
        h: &Var,
        _batch: usize,
        relu: bool,
    ) -> Var {
        let neighbour_sum = graph.adjacency.repeat_matmul(h); // B·n × in
                                                              // (1 + ε)·h — ε is a learnable scalar initialised to zero, folded
                                                              // into the aggregation as one fused pass.
        let one = h.tape().constant(Matrix::ones(1, 1));
        let scale = params.var(self.epsilon).add(&one);
        self.mlp
            .forward(params, &neighbour_sum.scaled_add(h, &scale), relu)
    }
}

/// Graph Convolutional Network layer (Kipf & Welling, 2017):
/// `h' = Â · h · W + b` with the symmetric-normalised adjacency `Â`.
#[derive(Debug, Clone)]
pub struct GcnLayer {
    linear: Linear,
}

impl GcnLayer {
    /// Create a GCN layer.
    pub fn new(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        store: &mut ParamStore,
        rng: &mut InitRng,
    ) -> Self {
        Self {
            linear: Linear::new(name, in_dim, out_dim, store, rng),
        }
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.linear.out_dim()
    }

    /// Batched forward pass: the normalised adjacency propagates within each
    /// `n`-row block, the dense layer is row-wise and rectifies its output
    /// when `relu` is set.
    pub fn forward_batch(
        &self,
        params: &BoundParams,
        graph: &BoundGraph,
        h: &Var,
        _batch: usize,
        relu: bool,
    ) -> Var {
        self.linear
            .forward(params, &graph.gcn_adjacency.repeat_matmul(h), relu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::GraphContext;
    use dquag_graph::FeatureGraph;
    use dquag_tensor::optim::Adam;
    use dquag_tensor::Tape;

    fn triangle_plus_leaf() -> FeatureGraph {
        // 0-1, 1-2, 0-2 triangle, 3 attached to 0
        let mut g = FeatureGraph::new(vec!["a", "b", "c", "d"]);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(0, 2).unwrap();
        g.add_edge(0, 3).unwrap();
        g
    }

    fn setup() -> (ParamStore, InitRng, GraphContext) {
        (
            ParamStore::new(),
            InitRng::seeded(13),
            GraphContext::new(&triangle_plus_leaf()),
        )
    }

    fn node_features(tape: &Tape, values: &[f32]) -> Var {
        tape.leaf(Matrix::col_vector(values), false)
    }

    #[test]
    fn linear_and_mlp_shapes() {
        let (mut store, mut rng, _) = setup();
        let linear = Linear::new("lin", 3, 5, &mut store, &mut rng);
        let mlp = Mlp::new("mlp", 5, 8, 2, &mut store, &mut rng);
        assert_eq!(linear.in_dim(), 3);
        assert_eq!(linear.out_dim(), 5);
        assert_eq!(mlp.out_dim(), 2);

        let tape = Tape::new();
        let bound = store.bind(&tape);
        let x = tape.leaf(Matrix::ones(4, 3), false);
        let y = linear.forward(&bound, &x, false);
        assert_eq!(y.shape(), (4, 5));
        let z = mlp.forward(&bound, &y, false);
        assert_eq!(z.shape(), (4, 2));
        assert!(z.value().is_finite());
    }

    #[test]
    fn gat_layer_shapes_and_attention_properties() {
        let (mut store, mut rng, ctx) = setup();
        let gat = GatLayer::new("gat", 1, 6, &mut store, &mut rng);
        assert_eq!(gat.out_dim(), 6);

        let tape = Tape::new();
        let bound = store.bind(&tape);
        let graph = ctx.bind(&tape);
        let x = node_features(&tape, &[0.1, 0.5, 0.9, 0.3]);
        let out = gat.forward_batch(&bound, &graph, &x, 1, false);
        assert_eq!(out.shape(), (4, 6));
        assert!(out.value().is_finite());

        let attention = gat.attention(&bound, &graph, &x).value();
        // each row sums to one
        for r in 0..4 {
            let total: f32 = attention.row(r).iter().sum();
            assert!((total - 1.0).abs() < 1e-4);
        }
        // attention respects the mask: node 3 only sees node 0 and itself
        assert_eq!(attention.get(3, 1), 0.0);
        assert_eq!(attention.get(3, 2), 0.0);
        assert!(attention.get(3, 0) > 0.0);
        assert!(attention.get(3, 3) > 0.0);
    }

    #[test]
    fn gin_layer_aggregates_neighbours() {
        let (mut store, mut rng, ctx) = setup();
        let gin = GinLayer::new("gin", 1, 4, &mut store, &mut rng);
        assert_eq!(gin.out_dim(), 4);
        let tape = Tape::new();
        let bound = store.bind(&tape);
        let graph = ctx.bind(&tape);
        let x = node_features(&tape, &[1.0, 2.0, 3.0, 4.0]);
        let out = gin.forward_batch(&bound, &graph, &x, 1, false);
        assert_eq!(out.shape(), (4, 4));
        assert!(out.value().is_finite());
    }

    #[test]
    fn gcn_layer_propagates_and_keeps_shape() {
        let (mut store, mut rng, ctx) = setup();
        let gcn = GcnLayer::new("gcn", 1, 3, &mut store, &mut rng);
        let tape = Tape::new();
        let bound = store.bind(&tape);
        let graph = ctx.bind(&tape);
        let x = node_features(&tape, &[1.0, 0.0, 0.0, 0.0]);
        let out = gcn.forward_batch(&bound, &graph, &x, 1, false);
        assert_eq!(out.shape(), (4, 3));
        assert_eq!(gcn.out_dim(), 3);
    }

    #[test]
    fn isolated_information_does_not_leak_through_gcn() {
        // In a graph with two disconnected pairs, perturbing a node in one
        // component must not change the GCN output of the other component.
        let mut g = FeatureGraph::new(vec!["a", "b", "c", "d"]);
        g.add_edge(0, 1).unwrap();
        g.add_edge(2, 3).unwrap();
        let ctx = GraphContext::new(&g);
        let mut store = ParamStore::new();
        let mut rng = InitRng::seeded(3);
        let gcn = GcnLayer::new("gcn", 1, 2, &mut store, &mut rng);

        let run = |values: &[f32]| {
            let tape = Tape::new();
            let bound = store.bind(&tape);
            let graph = ctx.bind(&tape);
            let x = node_features(&tape, values);
            gcn.forward_batch(&bound, &graph, &x, 1, false).value()
        };
        let base = run(&[0.2, 0.4, 0.6, 0.8]);
        let perturbed = run(&[5.0, 0.4, 0.6, 0.8]);
        // rows 2 and 3 (the other component) are unchanged
        for r in 2..4 {
            for c in 0..2 {
                assert!((base.get(r, c) - perturbed.get(r, c)).abs() < 1e-6);
            }
        }
        // row 0 is definitely changed
        assert!((base.get(0, 0) - perturbed.get(0, 0)).abs() > 1e-4);
    }

    #[test]
    fn gat_layer_is_trainable_end_to_end() {
        // A one-layer GAT + linear head must be able to fit a trivial target.
        let (mut store, mut rng, ctx) = setup();
        let gat = GatLayer::new("gat", 1, 4, &mut store, &mut rng);
        let head = Linear::new("head", 4, 1, &mut store, &mut rng);
        let mut adam = Adam::with_learning_rate(0.05);

        let target = Matrix::col_vector(&[0.9, 0.1, 0.5, 0.7]);
        let input = [0.2f32, 0.8, 0.4, 0.6];
        let mut last_loss = f32::INFINITY;
        let mut first_loss = None;
        for _ in 0..120 {
            let tape = Tape::new();
            let bound = store.bind(&tape);
            let graph = ctx.bind(&tape);
            let x = node_features(&tape, &input);
            let z = gat.forward_batch(&bound, &graph, &x, 1, false);
            let pred = head.forward(&bound, &z, false);
            let loss = pred.sub(&tape.constant(target.clone())).square().mean();
            last_loss = loss.value().get(0, 0);
            first_loss.get_or_insert(last_loss);
            tape.backward(&loss);
            store.apply_gradients(&bound, &mut adam);
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.2,
            "training should cut the loss: first {first_loss:?}, last {last_loss}"
        );
    }
}
