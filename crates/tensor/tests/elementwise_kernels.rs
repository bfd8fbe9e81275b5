//! The dispatched elementwise kernels against `KernelMode::Portable`, bit
//! for bit: `Matrix::scaled_add` (GIN's combine) at every vector tail and
//! `Matrix::softmax_rows` (GAT's attention) at every width up to 40, with
//! NaN, ±∞, subnormal and −0.0 operands. Where the CPU has no vector twin,
//! both modes run the same code and the comparison is trivially true.
//!
//! The kernel mode is process-wide, so each comparison holds [`MODE`] while
//! it flips it.

use dquag_tensor::{set_kernel_mode, KernelMode, Matrix};
use std::sync::{Mutex, PoisonError};

static MODE: Mutex<()> = Mutex::new(());

/// `f` under the portable kernels, then under the dispatched ones.
fn portable_then_dispatched(f: impl Fn() -> Matrix) -> (Matrix, Matrix) {
    let _mode = MODE.lock().unwrap_or_else(PoisonError::into_inner);
    set_kernel_mode(KernelMode::Portable);
    let portable = f();
    set_kernel_mode(KernelMode::Auto);
    (portable, f())
}

/// A deterministic value stream that mixes `specials` into ordinary values.
fn operands(len: usize, seed: usize, specials: &[f32]) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let k = (i * 7 + seed * 13) % (specials.len() + 3);
            specials
                .get(k)
                .copied()
                .unwrap_or(((i * 37 + seed * 11) % 29) as f32 * 0.173 - 2.4)
        })
        .collect()
}

#[test]
fn scaled_add_matches_portable_bit_for_bit() {
    let specials = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        1e-40,
        -1e-45,
        f32::MIN_POSITIVE,
        f32::MAX,
        -1.0,
    ];
    let scalars = [
        1.0f32,
        1.125,
        -0.5,
        0.0,
        -0.0,
        1e-39,
        3e38,
        f32::NAN,
        f32::INFINITY,
    ];
    for len in 0..=67usize {
        for seed in 0..4 {
            let a = Matrix::from_vec(1, len, operands(len, seed, &specials)).expect("shape");
            let b = Matrix::from_vec(1, len, operands(len, seed + 5, &specials)).expect("shape");
            for &s in &scalars {
                let (want, got) =
                    portable_then_dispatched(|| a.scaled_add(&b, s).expect("same shapes"));
                for (i, (w, g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "len {len} seed {seed} s {s}: element {i} = {} + {s}·{}",
                        a.as_slice()[i],
                        b.as_slice()[i]
                    );
                }
            }
        }
    }
}

#[test]
fn softmax_rows_matches_portable_bit_for_bit() {
    // Masked attention logits sit near −1e9; the rest span exp's range.
    let specials = [-1e9, 0.0, -0.0, 87.5, -87.5, 1e-40, -30.0];
    let poisons = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    for width in 1..=40usize {
        let mut rows: Vec<Vec<f32>> = (0..6)
            .map(|seed| operands(width, seed, &specials))
            .collect();
        for (p, &poison) in poisons.iter().enumerate() {
            let mut row = operands(width, 10 + p, &specials);
            row[(p * 5) % width] = poison;
            rows.push(row);
        }
        rows.push(vec![f32::NEG_INFINITY; width]);
        let logits = Matrix::from_rows(rows);
        let (want, got) = portable_then_dispatched(|| logits.softmax_rows());
        for (i, (w, g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
            // Poisoned rows are compared by NaN-ness, every other element
            // by its bits.
            if w.is_nan() {
                assert!(g.is_nan(), "width {width}: element {i} is {g}, want NaN");
            } else {
                assert_eq!(g.to_bits(), w.to_bits(), "width {width}: element {i}");
            }
        }
        assert!(
            got.row(got.rows() - 1).iter().all(|v| v.is_nan()),
            "width {width}: an all −∞ row has no distribution"
        );
    }
}
