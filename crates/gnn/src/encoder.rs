//! Encoder stacks: the paper's GAT+GIN interleaving and the ablation
//! architectures of Table 2 (Graph2Vec, GCN, GCN+GAT, GCN+GIN).

use crate::context::BoundGraph;
use crate::layers::{GatLayer, GcnLayer, GinLayer, Mlp};
use crate::params::{BoundParams, ParamStore};
use dquag_graph::FeatureGraph;
use dquag_tensor::init::InitRng;
use dquag_tensor::{Matrix, Var};

/// The encoder architecture. Variants match Table 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum EncoderKind {
    /// Structural Graph2Vec-style embedding followed by an MLP (no message
    /// passing conditioned on the sample values).
    Graph2Vec,
    /// Homogeneous GCN stack.
    Gcn,
    /// Alternating GCN and GAT layers.
    GcnGat,
    /// Alternating GCN and GIN layers.
    GcnGin,
    /// Alternating GAT and GIN layers — the paper's proposed encoder
    /// (GAT-GIN-GAT-GIN with four layers).
    GatGin,
}

impl EncoderKind {
    /// All encoder kinds, in the order Table 2 reports them.
    pub const ALL: [EncoderKind; 5] = [
        EncoderKind::Graph2Vec,
        EncoderKind::Gcn,
        EncoderKind::GcnGat,
        EncoderKind::GcnGin,
        EncoderKind::GatGin,
    ];

    /// Short label used in experiment output (matches the paper's column
    /// headers).
    pub fn label(&self) -> &'static str {
        match self {
            EncoderKind::Graph2Vec => "Graph2Vec",
            EncoderKind::Gcn => "GCN",
            EncoderKind::GcnGat => "GCN+GAT",
            EncoderKind::GcnGin => "GCN+GIN",
            EncoderKind::GatGin => "GAT+GIN",
        }
    }
}

/// One layer of a message-passing encoder.
#[derive(Debug, Clone)]
enum AnyLayer {
    Gat(GatLayer),
    Gin(GinLayer),
    Gcn(GcnLayer),
}

impl AnyLayer {
    fn forward_batch(
        &self,
        params: &BoundParams,
        graph: &BoundGraph,
        h: &Var,
        batch: usize,
        relu: bool,
    ) -> Var {
        match self {
            AnyLayer::Gat(l) => l.forward_batch(params, graph, h, batch, relu),
            AnyLayer::Gin(l) => l.forward_batch(params, graph, h, batch, relu),
            AnyLayer::Gcn(l) => l.forward_batch(params, graph, h, batch, relu),
        }
    }
}

/// Structural (sample-independent) node features used by the Graph2Vec-style
/// encoder: normalised degree plus two rounds of Weisfeiler-Lehman colour
/// refinement hashed into `[0, 1]`.
fn structural_features(graph: &FeatureGraph) -> Matrix {
    let n = graph.n_nodes();
    let mut colors: Vec<u64> = (0..n).map(|i| graph.degree(i) as u64).collect();
    let mut features = Matrix::zeros(n, 3);
    for i in 0..n {
        features.set(i, 0, graph.degree(i) as f32 / n.max(1) as f32);
    }
    for round in 0..2 {
        let mut next = vec![0u64; n];
        for i in 0..n {
            let mut neighbour_colors: Vec<u64> = graph.neighbors(i).map(|j| colors[j]).collect();
            neighbour_colors.sort_unstable();
            let mut hash = colors[i].wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for c in neighbour_colors {
                hash = hash
                    .rotate_left(13)
                    .wrapping_add(c.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            }
            next[i] = hash;
            features.set(i, 1 + round, (hash as f64 / u64::MAX as f64) as f32);
        }
        colors = next;
    }
    features
}

/// The shared GNN encoder producing feature embeddings `Z ∈ R^{n × h}`.
#[derive(Debug, Clone)]
pub struct Encoder {
    kind: EncoderKind,
    layers: Vec<AnyLayer>,
    graph2vec: Option<Graph2VecPath>,
    hidden_dim: usize,
}

/// The non-message-passing path for [`EncoderKind::Graph2Vec`].
#[derive(Debug, Clone)]
struct Graph2VecPath {
    structural: Matrix,
    mlp: Mlp,
}

impl Encoder {
    /// Build an encoder of `n_layers` layers with hidden dimension
    /// `hidden_dim` over the given feature graph. The paper's configuration is
    /// four layers of 64 units.
    pub fn new(
        kind: EncoderKind,
        graph: &FeatureGraph,
        hidden_dim: usize,
        n_layers: usize,
        store: &mut ParamStore,
        rng: &mut InitRng,
    ) -> Self {
        assert!(n_layers >= 1, "encoder needs at least one layer");
        assert!(hidden_dim >= 1, "hidden dimension must be positive");
        if kind == EncoderKind::Graph2Vec {
            let structural = structural_features(graph);
            // input per node: its value (1) plus the 3 structural features
            let mlp = Mlp::new("encoder.graph2vec", 4, hidden_dim, hidden_dim, store, rng);
            return Self {
                kind,
                layers: Vec::new(),
                graph2vec: Some(Graph2VecPath { structural, mlp }),
                hidden_dim,
            };
        }

        let mut layers = Vec::with_capacity(n_layers);
        for i in 0..n_layers {
            let in_dim = if i == 0 { 1 } else { hidden_dim };
            let name = format!("encoder.layer{i}");
            let layer = match kind {
                EncoderKind::Gcn => {
                    AnyLayer::Gcn(GcnLayer::new(&name, in_dim, hidden_dim, store, rng))
                }
                EncoderKind::GcnGat => {
                    if i % 2 == 0 {
                        AnyLayer::Gcn(GcnLayer::new(&name, in_dim, hidden_dim, store, rng))
                    } else {
                        AnyLayer::Gat(GatLayer::new(&name, in_dim, hidden_dim, store, rng))
                    }
                }
                EncoderKind::GcnGin => {
                    if i % 2 == 0 {
                        AnyLayer::Gcn(GcnLayer::new(&name, in_dim, hidden_dim, store, rng))
                    } else {
                        AnyLayer::Gin(GinLayer::new(&name, in_dim, hidden_dim, store, rng))
                    }
                }
                EncoderKind::GatGin => {
                    if i % 2 == 0 {
                        AnyLayer::Gat(GatLayer::new(&name, in_dim, hidden_dim, store, rng))
                    } else {
                        AnyLayer::Gin(GinLayer::new(&name, in_dim, hidden_dim, store, rng))
                    }
                }
                EncoderKind::Graph2Vec => unreachable!("handled above"),
            };
            layers.push(layer);
        }
        Self {
            kind,
            layers,
            graph2vec: None,
            hidden_dim,
        }
    }

    /// The encoder architecture.
    pub fn kind(&self) -> EncoderKind {
        self.kind
    }

    /// Embedding dimensionality `h`.
    pub fn out_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Number of message-passing layers (0 for Graph2Vec).
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Forward pass over `batch` samples stacked vertically,
    /// `x ∈ R^{(B·n) × 1}` → embeddings `Z ∈ R^{(B·n) × h}`. Every layer
    /// confines message passing to its own `n`-row block, so block `b` of the
    /// result equals the `batch = 1` pass over sample `b` alone.
    pub fn forward_batch(
        &self,
        params: &BoundParams,
        graph: &BoundGraph,
        x: &Var,
        batch: usize,
    ) -> Var {
        if let Some(path) = &self.graph2vec {
            let structural = x.tape().constant(path.structural.tile_rows(batch));
            let features = x.concat_cols(&structural);
            return path.mlp.forward(params, &features, true);
        }
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            // inter-layer ReLU fused into the layer's last kernel pass
            h = layer.forward_batch(params, graph, &h, batch, i != last);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::GraphContext;
    use dquag_tensor::Tape;

    fn graph() -> FeatureGraph {
        let mut g = FeatureGraph::new(vec!["a", "b", "c", "d", "e"]);
        for (i, j) in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)] {
            g.add_edge(i, j).unwrap();
        }
        g
    }

    fn run_encoder(kind: EncoderKind, values: &[f32]) -> Matrix {
        let g = graph();
        let ctx = GraphContext::new(&g);
        let mut store = ParamStore::new();
        let mut rng = InitRng::seeded(7);
        let encoder = Encoder::new(kind, &g, 8, 4, &mut store, &mut rng);
        let tape = Tape::new();
        let bound = store.bind(&tape);
        let graph_bound = ctx.bind(&tape);
        let x = tape.leaf(Matrix::col_vector(values), false);
        encoder.forward_batch(&bound, &graph_bound, &x, 1).value()
    }

    #[test]
    fn every_architecture_produces_finite_embeddings_of_right_shape() {
        for kind in EncoderKind::ALL {
            let z = run_encoder(kind, &[0.1, 0.4, 0.9, 0.2, 0.7]);
            assert_eq!(z.shape(), (5, 8), "{kind:?}");
            assert!(z.is_finite(), "{kind:?} produced non-finite values");
        }
    }

    #[test]
    fn labels_match_paper_table() {
        let labels: Vec<&str> = EncoderKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            vec!["Graph2Vec", "GCN", "GCN+GAT", "GCN+GIN", "GAT+GIN"]
        );
    }

    #[test]
    fn gat_gin_alternation_has_expected_layer_count_and_params() {
        let g = graph();
        let mut store = ParamStore::new();
        let mut rng = InitRng::seeded(1);
        let enc = Encoder::new(EncoderKind::GatGin, &g, 16, 4, &mut store, &mut rng);
        assert_eq!(enc.n_layers(), 4);
        assert_eq!(enc.kind(), EncoderKind::GatGin);
        assert_eq!(enc.out_dim(), 16);
        // 2 GAT layers: 3 params each; 2 GIN layers: 5 params each (2×(w+b) + eps)
        assert_eq!(store.n_params(), 2 * 3 + 2 * 5);
    }

    #[test]
    fn graph2vec_ignores_message_passing_but_uses_structure() {
        let g = graph();
        let mut store = ParamStore::new();
        let mut rng = InitRng::seeded(5);
        let enc = Encoder::new(EncoderKind::Graph2Vec, &g, 8, 4, &mut store, &mut rng);
        assert_eq!(enc.n_layers(), 0);
        let ctx = GraphContext::new(&g);
        let tape = Tape::new();
        let bound = store.bind(&tape);
        let graph_bound = ctx.bind(&tape);
        let x = tape.leaf(Matrix::col_vector(&[0.5, 0.5, 0.5, 0.5, 0.5]), false);
        let z = enc.forward_batch(&bound, &graph_bound, &x, 1).value();
        assert_eq!(z.shape(), (5, 8));
    }

    #[test]
    fn embeddings_depend_on_input_values() {
        let a = run_encoder(EncoderKind::GatGin, &[0.1, 0.2, 0.3, 0.4, 0.5]);
        let b = run_encoder(EncoderKind::GatGin, &[0.9, 0.2, 0.3, 0.4, 0.5]);
        assert!(
            a.max_abs_diff(&b) > 1e-5,
            "changing a feature must change embeddings"
        );
    }

    #[test]
    fn structural_features_are_deterministic_and_bounded() {
        let g = graph();
        let f1 = structural_features(&g);
        let f2 = structural_features(&g);
        assert_eq!(f1, f2);
        assert_eq!(f1.shape(), (5, 3));
        assert!(f1.min().unwrap() >= 0.0);
        assert!(f1.max().unwrap() <= 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layer_encoder_is_rejected() {
        let g = graph();
        let mut store = ParamStore::new();
        let mut rng = InitRng::seeded(1);
        Encoder::new(EncoderKind::Gcn, &g, 8, 0, &mut store, &mut rng);
    }
}
