//! Runtime-dispatched dense matrix-multiply kernels.
//!
//! Rust's default x86-64 target only assumes SSE2, which caps the naive
//! auto-vectorised matmul well below what the hardware can do. This module
//! detects AVX2+FMA at runtime (once, cached) and routes every matrix
//! product — plain, per-block and repeated-block — through a register-tiled
//! microkernel when available, falling back to the original portable loop
//! otherwise.
//!
//! ## Determinism contract
//!
//! Every kernel computes `out[i][j]` as a fused-multiply-add chain over `k`
//! in ascending order, and the code path for an element depends only on the
//! operand *shapes* — never on which row tile or batch position the element
//! landed in. Scalar remainders use [`f32::mul_add`], which rounds exactly
//! like the vector FMA lanes. Consequently a row's result is bit-identical
//! whether it is multiplied alone (`12 × k`) or as part of a stacked batch
//! (`B·12 × k`) — the property the batched-inference equivalence suite
//! pins down.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::OnceLock;

/// `out = a · b (+ bias)` with `a` row-major `n × k`, `b` row-major
/// `k × d`, `out` row-major `n × d` and an optional `1 × d` bias row folded
/// into the accumulator initialisation. `out` is fully overwritten.
type Kernel = unsafe fn(&mut [f32], &[f32], &[f32], Option<&[f32]>, bool, usize, usize, usize);

/// Which matrix-multiply implementation [`crate::Matrix::matmul`] and the
/// block variants use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Pick the fastest kernel the CPU supports (the default).
    Auto,
    /// Force the portable scalar loop — the seed implementation. Useful for
    /// bit-stable cross-platform comparisons and as the frozen baseline in
    /// before/after benchmarks.
    Portable,
}

static KERNEL_MODE: AtomicU8 = AtomicU8::new(0);
static KERNEL: OnceLock<Kernel> = OnceLock::new();
static FINITE_GUARD: AtomicBool = AtomicBool::new(false);

thread_local! {
    static GUARD_TRIP: Cell<Option<GuardTrip>> = const { Cell::new(None) };
}

/// Record of the first non-finite kernel output the finite guard observed on
/// this thread since the trip was last taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardTrip {
    /// Flat index of the offending element in the output buffer.
    pub index: usize,
    /// Output rows (`n`) of the product that tripped.
    pub rows: usize,
    /// Output columns (`d`) of the product that tripped.
    pub cols: usize,
}

/// Enable or disable the kernel-epilogue finite guard (process-wide).
///
/// When enabled, every product routed through the kernel dispatcher scans its output
/// for NaN/Inf after the kernel returns and latches the first violation into
/// a thread-local [`GuardTrip`]. The scan is `O(n·d)` against the kernel's
/// `O(n·k·d)` work, so the cost is a small fraction of the product itself.
/// The guard never alters a computed element, so the determinism contract
/// above is unaffected.
pub fn set_finite_guard(enabled: bool) {
    FINITE_GUARD.store(enabled, Ordering::Relaxed);
}

/// Whether the kernel-epilogue finite guard is currently enabled.
pub fn finite_guard_enabled() -> bool {
    FINITE_GUARD.load(Ordering::Relaxed)
}

/// Take (and clear) this thread's latched guard trip, if any. Trips are
/// per-thread, so a single-threaded inference session that polls between
/// batches attributes a trip to its own forward pass, never to a neighbour.
pub fn take_finite_guard_trip() -> Option<GuardTrip> {
    GUARD_TRIP.with(|slot| slot.take())
}

/// Select the matmul kernel globally (process-wide). Intended for benchmarks
/// and numerical A/B comparisons; concurrent matrix users observe the switch
/// at their next operation, so don't flip it while other threads compute.
pub fn set_kernel_mode(mode: KernelMode) {
    KERNEL_MODE.store(
        match mode {
            KernelMode::Auto => 0,
            KernelMode::Portable => 1,
        },
        Ordering::Relaxed,
    );
}

/// The currently selected kernel mode.
pub fn kernel_mode() -> KernelMode {
    match KERNEL_MODE.load(Ordering::Relaxed) {
        1 => KernelMode::Portable,
        _ => KernelMode::Auto,
    }
}

fn detect() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return matmul_avx512;
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return matmul_avx2;
        }
    }
    matmul_scalar
}

/// Dense product `out = a · b`; the single entry point used by
/// `Matrix::matmul`, `Matrix::block_matmul` and `Matrix::repeat_matmul`, so
/// all three stay mutually bit-identical.
pub(crate) fn matmul_into(out: &mut [f32], a: &[f32], b: &[f32], n: usize, k: usize, d: usize) {
    dispatch(out, a, b, None, false, n, k, d)
}

/// `out = a · b` with an optional fused ReLU store epilogue.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_opts_into(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    relu: bool,
    n: usize,
    k: usize,
    d: usize,
) {
    dispatch(out, a, b, None, relu, n, k, d)
}

/// Fused `out = a · b + bias` (bias broadcast over rows): the dense-layer
/// fast path; shares kernels — and therefore per-element rounding — with
/// [`matmul_into`].
pub(crate) fn matmul_bias_into(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    n: usize,
    k: usize,
    d: usize,
) {
    assert_eq!(bias.len(), d, "bias shape");
    dispatch(out, a, b, Some(bias), false, n, k, d)
}

/// Fused `out = relu(a · b + bias)`: the dense-layer-plus-activation path.
/// The rectifier is applied in the store epilogue, so the activation costs
/// no extra pass over the output.
pub(crate) fn matmul_bias_relu_into(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    n: usize,
    k: usize,
    d: usize,
) {
    assert_eq!(bias.len(), d, "bias shape");
    dispatch(out, a, b, Some(bias), true, n, k, d)
}

#[allow(clippy::too_many_arguments)]
fn dispatch(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    relu: bool,
    n: usize,
    k: usize,
    d: usize,
) {
    assert_eq!(out.len(), n * d, "output buffer shape");
    assert_eq!(a.len(), n * k, "lhs shape");
    assert_eq!(b.len(), k * d, "rhs shape");
    let kernel = if KERNEL_MODE.load(Ordering::Relaxed) == 1 {
        matmul_scalar
    } else {
        *KERNEL.get_or_init(detect)
    };
    // SAFETY: `detect` selects a SIMD kernel only after confirming CPU
    // support, and the slice-length assertions above establish the bounds
    // every kernel relies on.
    unsafe { kernel(out, a, b, bias, relu, n, k, d) }
    if FINITE_GUARD.load(Ordering::Relaxed) {
        // Branch-free detection pass: a float is non-finite iff its
        // magnitude bits reach the exponent-all-ones pattern, so a u32
        // max-reduction over `bits & !sign` finds "any NaN/Inf?" without an
        // early exit — the loop autovectorizes, keeping the guard a small
        // fraction of the kernel's O(n·k·d) even for thin products. The
        // element search runs only on the rare trip path.
        const INF_BITS: u32 = 0x7F80_0000;
        let worst = out
            .iter()
            .fold(0u32, |acc, v| acc.max(v.to_bits() & 0x7FFF_FFFF));
        if worst >= INF_BITS {
            let index = out
                .iter()
                .position(|v| !v.is_finite())
                .expect("a non-finite element exists on the trip path");
            GUARD_TRIP.with(|slot| {
                // Latch only the first violation: the earliest trip names the
                // product that actually went bad, later ones are fallout.
                if slot.get().is_none() {
                    slot.set(Some(GuardTrip {
                        index,
                        rows: n,
                        cols: d,
                    }));
                }
            });
        }
    }
}

/// Portable fallback: the original i-k-j loop. The `a == 0.0` skip keeps
/// sparse operands (adjacency matrices) cheap.
#[allow(clippy::too_many_arguments)]
unsafe fn matmul_scalar(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    relu: bool,
    n: usize,
    k: usize,
    d: usize,
) {
    match bias {
        Some(bias) => {
            for row in out.chunks_mut(d) {
                row.copy_from_slice(bias);
            }
        }
        None => {
            for v in out.iter_mut() {
                *v = 0.0;
            }
        }
    }
    for i in 0..n {
        let out_row = &mut out[i * d..(i + 1) * d];
        for kk in 0..k {
            let a_ik = a[i * k + kk];
            if a_ik == 0.0 {
                continue;
            }
            let b_row = &b[kk * d..(kk + 1) * d];
            for (o, &v) in out_row.iter_mut().zip(b_row.iter()) {
                *o += a_ik * v;
            }
        }
    }
    if relu {
        for v in out.iter_mut() {
            *v = v.max(0.0);
        }
    }
}

/// AVX-512F microkernel: 8-row × 32-column register tiles (16 ZMM
/// accumulators live across the whole `k` loop), 16-wide and scalar column
/// tails, and the shared `d == 1` dot path. Per-element math is the same
/// ascending-`k` FMA chain as the AVX2 kernel and the `mul_add` scalar
/// tails, so tile membership never changes a result.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn matmul_avx512(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    relu: bool,
    n: usize,
    k: usize,
    d: usize,
) {
    if d == 1 {
        return dot_columns_avx512(out, a, b, bias, relu, n, k);
    }
    let mut i = 0;
    while i + 8 <= n {
        row_tile_avx512::<8>(out, a, b, bias, relu, i, k, d);
        i += 8;
    }
    while i + 4 <= n {
        row_tile_avx512::<4>(out, a, b, bias, relu, i, k, d);
        i += 4;
    }
    while i < n {
        row_tile_avx512::<1>(out, a, b, bias, relu, i, k, d);
        i += 1;
    }
}

/// One tile of `R` consecutive output rows starting at row `i` (AVX-512).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn row_tile_avx512<const R: usize>(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    relu: bool,
    i: usize,
    k: usize,
    d: usize,
) {
    let a_ptr = a.as_ptr();
    let b_ptr = b.as_ptr();
    let out_ptr = out.as_mut_ptr();
    let mut j = 0;
    while j + 32 <= d {
        let init0 = match bias {
            Some(bias) => _mm512_loadu_ps(bias.as_ptr().add(j)),
            None => _mm512_setzero_ps(),
        };
        let init1 = match bias {
            Some(bias) => _mm512_loadu_ps(bias.as_ptr().add(j + 16)),
            None => _mm512_setzero_ps(),
        };
        let mut acc0 = [init0; R];
        let mut acc1 = [init1; R];
        // k unrolled by two; each element keeps one ascending-k FMA chain,
        // so the unroll cannot change any result.
        let mut kk = 0;
        while kk + 2 <= k {
            let b0 = _mm512_loadu_ps(b_ptr.add(kk * d + j));
            let b1 = _mm512_loadu_ps(b_ptr.add(kk * d + j + 16));
            let b2 = _mm512_loadu_ps(b_ptr.add((kk + 1) * d + j));
            let b3 = _mm512_loadu_ps(b_ptr.add((kk + 1) * d + j + 16));
            for r in 0..R {
                let va0 = _mm512_set1_ps(*a_ptr.add((i + r) * k + kk));
                let va1 = _mm512_set1_ps(*a_ptr.add((i + r) * k + kk + 1));
                acc0[r] = _mm512_fmadd_ps(va0, b0, acc0[r]);
                acc0[r] = _mm512_fmadd_ps(va1, b2, acc0[r]);
                acc1[r] = _mm512_fmadd_ps(va0, b1, acc1[r]);
                acc1[r] = _mm512_fmadd_ps(va1, b3, acc1[r]);
            }
            kk += 2;
        }
        if kk < k {
            let b0 = _mm512_loadu_ps(b_ptr.add(kk * d + j));
            let b1 = _mm512_loadu_ps(b_ptr.add(kk * d + j + 16));
            for r in 0..R {
                let va = _mm512_set1_ps(*a_ptr.add((i + r) * k + kk));
                acc0[r] = _mm512_fmadd_ps(va, b0, acc0[r]);
                acc1[r] = _mm512_fmadd_ps(va, b1, acc1[r]);
            }
        }
        if relu {
            let zero = _mm512_setzero_ps();
            for r in 0..R {
                acc0[r] = _mm512_max_ps(acc0[r], zero);
                acc1[r] = _mm512_max_ps(acc1[r], zero);
            }
        }
        for r in 0..R {
            _mm512_storeu_ps(out_ptr.add((i + r) * d + j), acc0[r]);
            _mm512_storeu_ps(out_ptr.add((i + r) * d + j + 16), acc1[r]);
        }
        j += 32;
    }
    while j + 16 <= d {
        let init = match bias {
            Some(bias) => _mm512_loadu_ps(bias.as_ptr().add(j)),
            None => _mm512_setzero_ps(),
        };
        let mut acc = [init; R];
        for kk in 0..k {
            let b0 = _mm512_loadu_ps(b_ptr.add(kk * d + j));
            for (r, slot) in acc.iter_mut().enumerate() {
                let va = _mm512_set1_ps(*a_ptr.add((i + r) * k + kk));
                *slot = _mm512_fmadd_ps(va, b0, *slot);
            }
        }
        if relu {
            let zero = _mm512_setzero_ps();
            for slot in acc.iter_mut() {
                *slot = _mm512_max_ps(*slot, zero);
            }
        }
        for (r, slot) in acc.iter().enumerate() {
            _mm512_storeu_ps(out_ptr.add((i + r) * d + j), *slot);
        }
        j += 16;
    }
    for jj in j..d {
        for r in 0..R {
            let mut acc = match bias {
                Some(bias) => bias[jj],
                None => 0.0f32,
            };
            for kk in 0..k {
                acc = a[(i + r) * k + kk].mul_add(b[kk * d + jj], acc);
            }
            out[(i + r) * d + jj] = if relu { acc.max(0.0) } else { acc };
        }
    }
}

/// AVX-512 `d == 1` dot path: four independent 16-wide FMA accumulators,
/// combined in a fixed order that depends only on `k`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dot_columns_avx512(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    relu: bool,
    n: usize,
    k: usize,
) {
    let b_ptr = b.as_ptr();
    let base = bias.map_or(0.0, |bias| bias[0]);
    for i in 0..n {
        let row = a.as_ptr().add(i * k);
        let mut acc = [_mm512_setzero_ps(); 4];
        let mut kk = 0;
        while kk + 64 <= k {
            for (t, slot) in acc.iter_mut().enumerate() {
                let va = _mm512_loadu_ps(row.add(kk + 16 * t));
                let vb = _mm512_loadu_ps(b_ptr.add(kk + 16 * t));
                *slot = _mm512_fmadd_ps(va, vb, *slot);
            }
            kk += 64;
        }
        while kk + 16 <= k {
            let va = _mm512_loadu_ps(row.add(kk));
            let vb = _mm512_loadu_ps(b_ptr.add(kk));
            acc[0] = _mm512_fmadd_ps(va, vb, acc[0]);
            kk += 16;
        }
        let combined = _mm512_add_ps(_mm512_add_ps(acc[0], acc[1]), _mm512_add_ps(acc[2], acc[3]));
        let mut lanes = [0.0f32; 16];
        _mm512_storeu_ps(lanes.as_mut_ptr(), combined);
        let mut total = base + lanes.iter().sum::<f32>();
        for key in kk..k {
            total = a[i * k + key].mul_add(b[key], total);
        }
        out[i] = if relu { total.max(0.0) } else { total };
    }
}

/// AVX2+FMA microkernel: 4-row × 16-column register tiles (8 YMM
/// accumulators live across the whole `k` loop), an 8-wide column tail, a
/// `mul_add` scalar tail, and a dedicated dot-product path for `d == 1`
/// (attention projections and decoder heads).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn matmul_avx2(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    relu: bool,
    n: usize,
    k: usize,
    d: usize,
) {
    if d == 1 {
        return dot_columns_avx2(out, a, b, bias, relu, n, k);
    }
    let mut i = 0;
    while i + 4 <= n {
        row_tile_avx2::<4>(out, a, b, bias, relu, i, k, d);
        i += 4;
    }
    while i < n {
        row_tile_avx2::<1>(out, a, b, bias, relu, i, k, d);
        i += 1;
    }
}

/// One tile of `R` consecutive output rows starting at row `i`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn row_tile_avx2<const R: usize>(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    relu: bool,
    i: usize,
    k: usize,
    d: usize,
) {
    let a_ptr = a.as_ptr();
    let b_ptr = b.as_ptr();
    let out_ptr = out.as_mut_ptr();
    let mut j = 0;
    while j + 16 <= d {
        let init0 = match bias {
            Some(bias) => _mm256_loadu_ps(bias.as_ptr().add(j)),
            None => _mm256_setzero_ps(),
        };
        let init1 = match bias {
            Some(bias) => _mm256_loadu_ps(bias.as_ptr().add(j + 8)),
            None => _mm256_setzero_ps(),
        };
        let mut acc0 = [init0; R];
        let mut acc1 = [init1; R];
        for kk in 0..k {
            let b0 = _mm256_loadu_ps(b_ptr.add(kk * d + j));
            let b1 = _mm256_loadu_ps(b_ptr.add(kk * d + j + 8));
            for r in 0..R {
                let va = _mm256_set1_ps(*a_ptr.add((i + r) * k + kk));
                acc0[r] = _mm256_fmadd_ps(va, b0, acc0[r]);
                acc1[r] = _mm256_fmadd_ps(va, b1, acc1[r]);
            }
        }
        if relu {
            let zero = _mm256_setzero_ps();
            for r in 0..R {
                acc0[r] = _mm256_max_ps(acc0[r], zero);
                acc1[r] = _mm256_max_ps(acc1[r], zero);
            }
        }
        for r in 0..R {
            _mm256_storeu_ps(out_ptr.add((i + r) * d + j), acc0[r]);
            _mm256_storeu_ps(out_ptr.add((i + r) * d + j + 8), acc1[r]);
        }
        j += 16;
    }
    while j + 8 <= d {
        let init = match bias {
            Some(bias) => _mm256_loadu_ps(bias.as_ptr().add(j)),
            None => _mm256_setzero_ps(),
        };
        let mut acc = [init; R];
        for kk in 0..k {
            let b0 = _mm256_loadu_ps(b_ptr.add(kk * d + j));
            for (r, slot) in acc.iter_mut().enumerate() {
                let va = _mm256_set1_ps(*a_ptr.add((i + r) * k + kk));
                *slot = _mm256_fmadd_ps(va, b0, *slot);
            }
        }
        if relu {
            let zero = _mm256_setzero_ps();
            for slot in acc.iter_mut() {
                *slot = _mm256_max_ps(*slot, zero);
            }
        }
        for (r, slot) in acc.iter().enumerate() {
            _mm256_storeu_ps(out_ptr.add((i + r) * d + j), *slot);
        }
        j += 8;
    }
    for jj in j..d {
        for r in 0..R {
            let mut acc = match bias {
                Some(bias) => bias[jj],
                None => 0.0f32,
            };
            for kk in 0..k {
                acc = a[(i + r) * k + kk].mul_add(b[kk * d + jj], acc);
            }
            out[(i + r) * d + jj] = if relu { acc.max(0.0) } else { acc };
        }
    }
}

/// `d == 1` path: each output element is a dot product of one `a` row with
/// the contiguous column vector `b`. Vectorised over `k` with four
/// independent FMA accumulators; the lane combination order is a fixed
/// function of `k`, so results do not depend on the batch size.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_columns_avx2(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    relu: bool,
    n: usize,
    k: usize,
) {
    let b_ptr = b.as_ptr();
    let base = bias.map_or(0.0, |bias| bias[0]);
    for i in 0..n {
        let row = a.as_ptr().add(i * k);
        let mut acc = [_mm256_setzero_ps(); 4];
        let mut kk = 0;
        while kk + 32 <= k {
            for (t, slot) in acc.iter_mut().enumerate() {
                let va = _mm256_loadu_ps(row.add(kk + 8 * t));
                let vb = _mm256_loadu_ps(b_ptr.add(kk + 8 * t));
                *slot = _mm256_fmadd_ps(va, vb, *slot);
            }
            kk += 32;
        }
        while kk + 8 <= k {
            let va = _mm256_loadu_ps(row.add(kk));
            let vb = _mm256_loadu_ps(b_ptr.add(kk));
            acc[0] = _mm256_fmadd_ps(va, vb, acc[0]);
            kk += 8;
        }
        let combined = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), combined);
        let mut total = base + lanes.iter().sum::<f32>();
        for key in kk..k {
            total = a[i * k + key].mul_add(b[key], total);
        }
        out[i] = if relu { total.max(0.0) } else { total };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(a: &[f32], b: &[f32], n: usize, k: usize, d: usize) -> Vec<f32> {
        let mut out = vec![0.0f64; n * d];
        for i in 0..n {
            for kk in 0..k {
                for j in 0..d {
                    out[i * d + j] += a[i * k + kk] as f64 * b[kk * d + j] as f64;
                }
            }
        }
        out.iter().map(|&v| v as f32).collect()
    }

    #[test]
    fn dispatched_kernel_matches_reference_across_shapes() {
        // Shapes chosen to hit every code path: 16-wide tiles, 8-wide tails,
        // scalar tails, row remainders, and the d == 1 dot path.
        for &(n, k, d) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 1),
            (12, 64, 64),
            (13, 7, 17),
            (4, 33, 16),
            (7, 64, 1),
            (5, 3, 9),
            (64, 1, 64),
        ] {
            let a: Vec<f32> = (0..n * k)
                .map(|i| ((i * 37 + 11) % 23) as f32 * 0.17 - 1.5)
                .collect();
            let b: Vec<f32> = (0..k * d)
                .map(|i| ((i * 29 + 3) % 19) as f32 * 0.21 - 1.7)
                .collect();
            let mut out = vec![f32::NAN; n * d];
            matmul_into(&mut out, &a, &b, n, k, d);
            let expected = reference(&a, &b, n, k, d);
            for (idx, (&got, &want)) in out.iter().zip(expected.iter()).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                    "({n}x{k})·({k}x{d}) element {idx}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn finite_guard_latches_first_violation_and_clears_on_take() {
        set_finite_guard(true);
        let _ = take_finite_guard_trip(); // drop any stale trip from other tests

        // A clean product must not trip the guard.
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let b = [0.5f32, -0.25, 1.5, 2.0];
        let mut out = [0.0f32; 4];
        matmul_into(&mut out, &a, &b, 2, 2, 2);
        assert_eq!(take_finite_guard_trip(), None);

        // A NaN operand poisons the output; the guard latches the first bad
        // element without altering the computed values.
        let poisoned = [f32::NAN, 2.0, 3.0, 4.0];
        matmul_into(&mut out, &poisoned, &b, 2, 2, 2);
        let trip = take_finite_guard_trip().expect("NaN output must trip the guard");
        assert_eq!((trip.rows, trip.cols), (2, 2));
        assert!(!out[trip.index].is_finite());
        // Taking the trip clears it.
        assert_eq!(take_finite_guard_trip(), None);

        // Disabled guard stays silent even on poisoned output.
        set_finite_guard(false);
        matmul_into(&mut out, &poisoned, &b, 2, 2, 2);
        assert_eq!(take_finite_guard_trip(), None);
    }

    #[test]
    fn rows_are_position_independent() {
        // The determinism contract: a row multiplied alone must equal the
        // same row multiplied as part of a taller stack, bit for bit.
        let k = 64;
        let d = 64;
        let b: Vec<f32> = (0..k * d)
            .map(|i| ((i * 31) % 41) as f32 * 0.05 - 1.0)
            .collect();
        let row: Vec<f32> = (0..k)
            .map(|i| ((i * 13) % 17) as f32 * 0.11 - 0.9)
            .collect();

        let mut alone = vec![0.0f32; d];
        matmul_into(&mut alone, &row, &b, 1, k, d);

        for &n in &[4usize, 7, 32] {
            let stacked: Vec<f32> = (0..n).flat_map(|_| row.clone()).collect();
            let mut out = vec![0.0f32; n * d];
            matmul_into(&mut out, &stacked, &b, n, k, d);
            for i in 0..n {
                assert_eq!(
                    &out[i * d..(i + 1) * d],
                    alone.as_slice(),
                    "row {i} of {n} must be bit-identical to the standalone product"
                );
            }
        }
    }
}
