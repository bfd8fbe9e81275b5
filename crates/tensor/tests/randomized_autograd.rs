//! Randomized tests for the autograd engine.
//!
//! Random small matrices are pushed through the compositions of
//! differentiable operations the DQuaG network runs — a dense layer, the
//! decoder's MLP head, a two-block GAT layer, GIN's combine and Graph2Vec's
//! feature concatenation — and the analytic gradients are compared against
//! central finite differences. These replace the original proptest
//! properties (the build environment has no crates.io access, see
//! `vendor/README.md`) with seeded RNG cases.
//!
//! Each loss is `mean((out − t)²)` against a seeded random target `t`, so a
//! rectifier's gate reaches the gradient: with `mean(out²)` a unit cut off
//! at zero contributes nothing with or without its gate. Inputs are drawn
//! until every pre-activation sits [`KINK_MARGIN`] off a kink, so the
//! finite differences never straddle one.

use dquag_tensor::{finite_difference_grad, Matrix, Tape, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How far every rectifier's input must sit from zero: more than a
/// finite-difference step of 1e-2 can move it through these weights.
const KINK_MARGIN: f32 = 0.05;

/// Largest gap allowed between analytic and finite-difference gradients.
/// Correct gradients stay under 1e-4 here. With a rectifier's backward gate
/// dropped, every case that cuts a unit off misses by 0.01 or more.
const TOLERANCE: f32 = 5e-3;

/// A small matrix with bounded, well-conditioned entries.
fn small_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| rng.gen_range(-1.5f32..1.5))
        .collect();
    Matrix::from_vec(rows, cols, data).expect("sized data")
}

/// `mean((out − target)²)`.
fn loss(tape: &Tape, out: &Var, target: &Matrix) -> Var {
    out.sub(&tape.constant(target.clone())).square().mean()
}

/// Whether every recorded pre-activation is at least [`KINK_MARGIN`] from
/// zero.
fn off_kinks(kinks: &[Matrix]) -> bool {
    kinks
        .iter()
        .all(|m| m.as_slice().iter().all(|v| v.abs() >= KINK_MARGIN))
}

/// The largest analytic vs finite-difference gradient gap of `param`
/// through `forward`.
fn max_grad_gap(param: &Matrix, forward: impl Fn(&Tape, &Var) -> Var) -> f32 {
    let tape = Tape::new();
    let x = tape.leaf(param.clone(), true);
    let out = forward(&tape, &x);
    assert_eq!(out.shape(), (1, 1));
    tape.backward(&out);
    let analytic = x.grad().expect("gradient");
    let numeric = finite_difference_grad(
        param,
        |m| {
            let t = Tape::new();
            let v = t.leaf(m.clone(), true);
            forward(&t, &v).value().get(0, 0)
        },
        1e-2,
    );
    analytic.max_abs_diff(&numeric)
}

/// A differentiable pipeline applied to the parameter, a `4 × 3` matrix:
/// four graph nodes (two samples of two nodes where the pipeline is
/// batched) with three channels each.
#[derive(Debug, Clone, Copy)]
enum Pipeline {
    DenseRelu,
    MlpHead,
    TwoBlockGat,
    GinCombine,
    Graph2VecConcat,
}

const PIPELINES: [Pipeline; 5] = [
    Pipeline::DenseRelu,
    Pipeline::MlpHead,
    Pipeline::TwoBlockGat,
    Pipeline::GinCombine,
    Pipeline::Graph2VecConcat,
];

fn weights(tape: &Tape, rows: usize, cols: usize) -> Var {
    tape.constant(Matrix::from_fn(rows, cols, |r, c| {
        ((r * cols + c) as f32 * 0.7).sin() * 0.6
    }))
}

fn bias(tape: &Tape, cols: usize) -> Var {
    tape.constant(Matrix::from_fn(1, cols, |_, c| 0.1 * c as f32 - 0.05))
}

/// A rectified dense layer; its pre-activations go to `kinks`.
fn relu_layer(x: &Var, w: &Var, b: &Var, kinks: &mut Vec<Matrix>) -> Var {
    kinks.push(x.matmul_bias(w, b, false).value());
    x.matmul_bias(w, b, true)
}

/// The pipeline's output; the input of each of its kinks goes to `kinks`.
fn run_pipeline(p: Pipeline, tape: &Tape, x: &Var, kinks: &mut Vec<Matrix>) -> Var {
    match p {
        Pipeline::DenseRelu => relu_layer(x, &weights(tape, 3, 2), &bias(tape, 2), kinks),
        Pipeline::MlpHead => relu_layer(x, &weights(tape, 3, 4), &bias(tape, 4), kinks)
            .matmul_bias(&weights(tape, 4, 1), &bias(tape, 1), false),
        Pipeline::TwoBlockGat => {
            let mask = tape.constant(Matrix::from_rows(vec![vec![0.0, -0.5], vec![0.0, 0.0]]));
            let hw = x.matmul(&weights(tape, 3, 2));
            let src = hw.matmul(&weights(tape, 2, 1));
            let dst = hw.matmul(&tape.constant(Matrix::col_vector(&[0.4, -0.3])));
            // With slope 1 and no mask the logits are the leaky unit's input.
            let unmasked = tape.constant(Matrix::zeros(2, 2));
            kinks.push(src.attention_logits(&dst, &unmasked, 1.0).value());
            src.attention_logits(&dst, &mask, 0.2)
                .softmax_rows()
                .block_matmul(&hw, 2, false)
        }
        Pipeline::GinCombine => {
            let adjacency = tape.constant(Matrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]));
            let one_plus_eps = tape.constant(Matrix::filled(1, 1, 1.3));
            let combined = adjacency.repeat_matmul(x).scaled_add(x, &one_plus_eps);
            relu_layer(&combined, &weights(tape, 3, 2), &bias(tape, 2), kinks)
        }
        Pipeline::Graph2VecConcat => {
            let structural = tape.constant(Matrix::from_fn(4, 2, |r, c| 0.2 * (r + c) as f32));
            let joined = x.concat_cols(&structural);
            relu_layer(&joined, &weights(tape, 5, 2), &bias(tape, 2), kinks)
        }
    }
}

#[test]
fn analytic_gradients_match_finite_differences() {
    let mut rng = StdRng::seed_from_u64(0x6E4D);
    for case in 0..48 {
        let pipeline = PIPELINES[rng.gen_range(0..PIPELINES.len())];
        let (param, shape) = loop {
            let param = small_matrix(&mut rng, 4, 3);
            let tape = Tape::new();
            let mut kinks = Vec::new();
            let out = run_pipeline(pipeline, &tape, &tape.constant(param.clone()), &mut kinks);
            if off_kinks(&kinks) {
                break (param, out.shape());
            }
        };
        let target = small_matrix(&mut rng, shape.0, shape.1);
        let gap = max_grad_gap(&param, |t, v| {
            loss(t, &run_pipeline(pipeline, t, v, &mut Vec::new()), &target)
        });
        assert!(
            gap < TOLERANCE,
            "case {case}: max grad diff {gap} for {pipeline:?}"
        );
    }
}

#[test]
fn batched_block_op_gradients_match_finite_differences() {
    // One batched GAT layer over `blocks` samples — fused logits, softmax,
    // per-block aggregation of features a shared operator mixed — must be
    // differentiable end to end: random block counts, random shapes.
    let mut rng = StdRng::seed_from_u64(0x6E53);
    for case in 0..24 {
        let blocks = rng.gen_range(1..4usize);
        let n = rng.gen_range(1..4usize);
        let d = rng.gen_range(1..4usize);
        let relu = case % 2 == 1;
        let forward =
            |t: &Tape, v: &Var, operator: &Matrix, mask: &Matrix, kinks: &mut Vec<Matrix>| {
                let unmasked = t.constant(Matrix::zeros(n, n));
                kinks.push(v.attention_logits(v, &unmasked, 1.0).value());
                let attention = v
                    .attention_logits(v, &t.constant(mask.clone()), 0.2)
                    .softmax_rows();
                let features = t
                    .constant(operator.clone())
                    .repeat_matmul(&v.matmul(&t.constant(Matrix::ones(1, d))));
                if relu {
                    kinks.push(attention.block_matmul(&features, blocks, false).value());
                }
                attention.block_matmul(&features, blocks, relu)
            };
        let (param, operator, mask) = loop {
            let param = small_matrix(&mut rng, blocks * n, 1);
            let operator = small_matrix(&mut rng, n, n);
            let mask = small_matrix(&mut rng, n, n);
            let tape = Tape::new();
            let mut kinks = Vec::new();
            forward(
                &tape,
                &tape.constant(param.clone()),
                &operator,
                &mask,
                &mut kinks,
            );
            if off_kinks(&kinks) {
                break (param, operator, mask);
            }
        };
        let target = small_matrix(&mut rng, blocks * n, d);
        let gap = max_grad_gap(&param, |t, v| {
            loss(
                t,
                &forward(t, v, &operator, &mask, &mut Vec::new()),
                &target,
            )
        });
        assert!(
            gap < TOLERANCE,
            "case {case} (blocks {blocks}, n {n}, d {d}, relu {relu}): max grad diff {gap}"
        );
    }
}

#[test]
fn block_matmul_equals_stacked_per_block_products() {
    let mut rng = StdRng::seed_from_u64(0x6E54);
    for _ in 0..24 {
        let blocks = rng.gen_range(1..5usize);
        let p = rng.gen_range(1..4usize);
        let k = rng.gen_range(1..4usize);
        let d = rng.gen_range(1..4usize);
        let a = small_matrix(&mut rng, blocks * p, k);
        let b = small_matrix(&mut rng, blocks * k, d);
        let batched = a.block_matmul(&b, blocks, false).unwrap();
        for blk in 0..blocks {
            let expected = a
                .slice_rows(blk * p, (blk + 1) * p)
                .unwrap()
                .matmul(&b.slice_rows(blk * k, (blk + 1) * k).unwrap())
                .unwrap();
            assert_eq!(
                batched.slice_rows(blk * p, (blk + 1) * p).unwrap(),
                expected,
                "block results must be bit-identical to the per-block matmul"
            );
        }
    }
}

#[test]
fn matmul_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0x6E4E);
    for _ in 0..48 {
        let a = small_matrix(&mut rng, 3, 4);
        let b = small_matrix(&mut rng, 4, 2);
        let c = a.matmul(&b).unwrap();
        for i in 0..3 {
            for j in 0..2 {
                let expected: f32 = (0..4).map(|k| a.get(i, k) * b.get(k, j)).sum();
                assert!((c.get(i, j) - expected).abs() < 1e-4);
            }
        }
    }
}

#[test]
fn transpose_is_involution() {
    let mut rng = StdRng::seed_from_u64(0x6E4F);
    for _ in 0..48 {
        let a = small_matrix(&mut rng, 5, 3);
        assert_eq!(a.transpose().transpose(), a);
    }
}

#[test]
fn softmax_rows_always_normalised() {
    let mut rng = StdRng::seed_from_u64(0x6E50);
    for _ in 0..48 {
        let a = small_matrix(&mut rng, 4, 6);
        let s = a.softmax_rows();
        assert!(s.is_finite());
        for r in 0..s.rows() {
            let total: f32 = s.row(r).iter().sum();
            assert!((total - 1.0).abs() < 1e-4);
            assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }
}

#[test]
fn concat_then_slice_round_trips() {
    let mut rng = StdRng::seed_from_u64(0x6E51);
    for _ in 0..48 {
        let a = small_matrix(&mut rng, 3, 2);
        let b = small_matrix(&mut rng, 3, 4);
        let joined = a.concat_cols(&b).unwrap();
        assert_eq!(joined.slice_cols(0, 2).unwrap(), a);
        assert_eq!(joined.slice_cols(2, 6).unwrap(), b);
    }
}

#[test]
fn sum_cols_agrees_with_total() {
    let mut rng = StdRng::seed_from_u64(0x6E52);
    for _ in 0..48 {
        let a = small_matrix(&mut rng, 4, 5);
        assert!((a.sum_cols().sum() - a.sum()).abs() < 1e-3);
    }
}
