//! Seeded randomized equivalence suite for batched inference.
//!
//! The batched matrix-level forward pass ([`DquagNetwork::score_matrix`])
//! must be indistinguishable from scoring every row alone (a one-row
//! `forward_batch` on a fresh tape, as training runs it): scores and repair
//! values agree bit for bit — the kernels' determinism contract makes every
//! row's result independent of its position in the batch — and the batched
//! path's tape stays O(layers) regardless of the batch size. Random shapes
//! and parameters across batch sizes {1, 2, 7, 64, 257}, including ragged
//! final chunks and the empty batch.

use dquag_gnn::{BatchScores, DquagNetwork, EncoderKind, ModelConfig};
use dquag_graph::FeatureGraph;
use dquag_tensor::optim::Adam;
use dquag_tensor::Tape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_graph(rng: &mut StdRng) -> FeatureGraph {
    let n = rng.gen_range(3..9usize);
    let names: Vec<String> = (0..n).map(|i| format!("f{i}")).collect();
    let mut graph = FeatureGraph::new(names);
    // A ring keeps every node connected; random chords vary the topology.
    for i in 0..n {
        graph.add_edge(i, (i + 1) % n).expect("ring edge");
    }
    for _ in 0..n {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            let _ = graph.add_edge(a, b);
        }
    }
    graph
}

fn random_rows(rng: &mut StdRng, n_rows: usize, n_features: usize) -> Vec<Vec<f32>> {
    (0..n_rows)
        .map(|_| {
            (0..n_features)
                .map(|_| rng.gen_range(-2.0f32..2.0))
                .collect()
        })
        .collect()
}

/// The per-row reference: one fresh tape, one binding and one one-row
/// forward pass per sample.
fn score_alone(net: &DquagNetwork, row: &[f32]) -> BatchScores {
    let tape = Tape::new();
    let (params, graph) = net.bind(&tape);
    net.forward_batch(&tape, &params, &graph, &[row]).detach()
}

/// The raw bits of `values`, for exact comparison (NaN-safe, and −0.0 is
/// not 0.0).
fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Assert that one batched `score_matrix` call over `rows` reproduces the
/// per-row reference bit for bit: per-feature errors, instance errors and
/// repair values.
fn assert_equivalent(net: &DquagNetwork, rows: &[Vec<f32>], context: &str) {
    let session = net.inference_session();
    let scores = net.score_matrix(&session, rows);
    assert_eq!(scores.len(), rows.len(), "{context}: batch length");
    assert_eq!(
        session.tape_len(),
        session.base_len(),
        "{context}: session tape must rewind to its baseline"
    );

    let batched_errors = scores.instance_errors();
    for (i, row) in rows.iter().enumerate() {
        let reference = score_alone(net, row);
        assert_eq!(
            bits(&scores.per_feature_errors(i)),
            bits(&reference.per_feature_errors(0)),
            "{context}: row {i} per-feature errors"
        );
        assert_eq!(
            batched_errors[i].to_bits(),
            reference.instance_errors()[0].to_bits(),
            "{context}: row {i} instance error"
        );
        assert_eq!(
            bits(&scores.repair_values(i)),
            bits(&reference.repair_values(0)),
            "{context}: row {i} repair values"
        );
    }
}

#[test]
fn small_batches_match_per_row_across_random_shapes_and_encoders() {
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    for case in 0..6 {
        let graph = random_graph(&mut rng);
        let config = ModelConfig {
            hidden_dim: rng.gen_range(4..13),
            n_layers: rng.gen_range(1..4),
            encoder: EncoderKind::ALL[rng.gen_range(0..EncoderKind::ALL.len())],
            seed: rng.gen_range(0..1_000),
            ..ModelConfig::default()
        };
        let net = DquagNetwork::new(&graph, config);
        for &batch in &[1usize, 2, 7] {
            let rows = random_rows(&mut rng, batch, net.n_features());
            assert_equivalent(
                &net,
                &rows,
                &format!("case {case} B={batch} {:?}", config.encoder),
            );
        }
    }
}

#[test]
fn large_batches_match_per_row() {
    let mut rng = StdRng::seed_from_u64(0xBA7D);
    let graph = random_graph(&mut rng);
    let net = DquagNetwork::new(&graph, ModelConfig::small());
    for &batch in &[64usize, 257] {
        let rows = random_rows(&mut rng, batch, net.n_features());
        assert_equivalent(&net, &rows, &format!("large B={batch}"));
    }
}

#[test]
fn ragged_chunking_matches_one_shot_batching() {
    // 257 rows in chunks of 64 leaves a ragged final chunk of 1 — the shape
    // the pipeline produces whenever a dataset is not a multiple of the
    // inference batch size. Chunked scoring through one session must equal
    // the single-call batched scores exactly.
    let mut rng = StdRng::seed_from_u64(0xBA7E);
    let graph = random_graph(&mut rng);
    let net = DquagNetwork::new(&graph, ModelConfig::small());
    let rows = random_rows(&mut rng, 257, net.n_features());

    let session = net.inference_session();
    let one_shot = net.score_matrix(&session, &rows).instance_errors();
    let mut chunked = Vec::with_capacity(rows.len());
    for chunk in rows.chunks(64) {
        chunked.extend(net.score_matrix(&session, chunk).instance_errors());
        assert_eq!(session.tape_len(), session.base_len());
    }
    assert_eq!(bits(&one_shot), bits(&chunked));
}

#[test]
fn score_errors_matches_score_matrix_errors() {
    // The validation-only scoring path must produce exactly the errors of
    // the full path — it merely skips the repair decoder.
    let mut rng = StdRng::seed_from_u64(0xBA82);
    let graph = random_graph(&mut rng);
    let net = DquagNetwork::new(&graph, ModelConfig::small());
    let rows = random_rows(&mut rng, 97, net.n_features());
    let session = net.inference_session();
    let full = net.score_matrix(&session, &rows);
    let errors_only = net.score_errors(&session, &rows);
    assert_eq!(full.len(), errors_only.len());
    assert_eq!(full.instance_errors(), errors_only.instance_errors());
    for i in 0..rows.len() {
        assert_eq!(
            full.per_feature_errors(i),
            errors_only.per_feature_errors(i)
        );
    }
    assert_eq!(session.tape_len(), session.base_len());
}

#[test]
fn empty_batch_yields_empty_scores() {
    let mut rng = StdRng::seed_from_u64(0xBA7F);
    let graph = random_graph(&mut rng);
    let net = DquagNetwork::new(&graph, ModelConfig::small());
    let session = net.inference_session();
    let scores = net.score_matrix(&session, &Vec::<Vec<f32>>::new());
    assert!(scores.is_empty());
    assert_eq!(scores.len(), 0);
    assert!(scores.instance_errors().is_empty());
    assert_eq!(
        session.tape_len(),
        session.base_len(),
        "the empty batch must not touch the tape"
    );
}

#[test]
fn forward_pass_grows_the_tape_by_o_layers_nodes() {
    // One forward pass appends the same nodes whether it carries one row or
    // 64: the tape grows with the layer count, never with the batch size.
    let mut rng = StdRng::seed_from_u64(0xBA80);
    let graph = random_graph(&mut rng);
    let net = DquagNetwork::new(&graph, ModelConfig::small());
    let rows = random_rows(&mut rng, 64, net.n_features());

    let tape = Tape::new();
    let (params, bound_graph) = net.bind(&tape);
    let base = tape.len();

    let _ = net.forward_batch(&tape, &params, &bound_graph, &rows[..1]);
    let growth_b1 = tape.len() - base;
    tape.truncate(base);

    let _ = net.forward_batch(&tape, &params, &bound_graph, &rows);
    let growth_b64 = tape.len() - base;
    assert!(growth_b1 > 0);
    assert_eq!(
        growth_b1, growth_b64,
        "tape node count must be O(layers), independent of the batch size"
    );
}

#[test]
fn refitting_and_rescoring_do_not_leak_tape_nodes() {
    // Regression test for the hoisted-binding fix: training twice on the same
    // network and scoring through a long-lived session must leave the session
    // tape at its baseline after every batch — nothing accumulates.
    let mut rng = StdRng::seed_from_u64(0xBA81);
    let graph = random_graph(&mut rng);
    let mut net = DquagNetwork::new(&graph, ModelConfig::small());
    let rows = random_rows(&mut rng, 16, net.n_features());

    let mut adam = Adam::with_learning_rate(0.01);
    net.train_batch(&rows, &mut adam);
    net.train_batch(&rows, &mut adam);

    let session = net.inference_session();
    let base = session.base_len();
    for pass in 0..5 {
        let scores = net.score_matrix(&session, &rows);
        assert_eq!(scores.len(), rows.len());
        assert_eq!(
            session.tape_len(),
            base,
            "pass {pass}: session tape must not grow across batches"
        );
    }
}

#[test]
fn session_counters_track_tiles_and_rows() {
    let mut rng = StdRng::seed_from_u64(0xC0C0);
    let graph = random_graph(&mut rng);
    let net = DquagNetwork::new(&graph, ModelConfig::small());
    let rows = random_rows(&mut rng, 23, net.n_features());

    let session = net.inference_session();
    assert_eq!(session.forward_passes(), 0);
    assert_eq!(session.rows_scored(), 0);

    net.score_errors(&session, &rows);
    assert!(session.forward_passes() >= 1);
    assert_eq!(session.rows_scored(), 23);

    // Counters are cumulative across calls and ignore the empty batch.
    net.score_errors(&session, &rows[..5]);
    let after_two = session.forward_passes();
    assert_eq!(session.rows_scored(), 28);
    net.score_errors(&session, &rows[..0]);
    assert_eq!(session.forward_passes(), after_two);
    assert_eq!(session.rows_scored(), 28);
}
