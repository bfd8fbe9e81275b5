//! Runtime-dispatched dense kernels: matrix products and the elementwise
//! passes of the GNN forward.
//!
//! Rust's default x86-64 target only assumes SSE2, which caps the naive
//! auto-vectorised matmul well below what the hardware can do and leaves
//! [`f32::mul_add`] and [`f32::round`] as one libm call per element. This
//! module detects AVX2+FMA and AVX-512F at runtime (once, cached) and routes
//! every matrix product — plain, per-block and repeated-block — through a
//! register-tiled microkernel when available, falling back to the original
//! portable loop otherwise. The same detection picks the elementwise kernels
//! (`scaled_add_into`, `exp_in_place` and the finite guard's magnitude max):
//! each is one `#[inline(always)]` scalar body, compiled once for the
//! baseline target and once inside an `avx2,fma` twin, where the compiler
//! vectorises the loop and lowers `mul_add` and `round` to single
//! instructions. [`KernelMode::Portable`] runs the portable loop and the
//! plain bodies.
//!
//! ## Determinism contract
//!
//! Outside the `d == 1` dot path, every SIMD kernel computes `out[i][j]` as
//! one fused-multiply-add chain over `k` in ascending order, starting from
//! the bias (or zero) — exactly what a chain of [`f32::mul_add`] computes.
//! Columns past the last full vector tile run in masked lanes of the same
//! chain. The code path for an element depends only on the operand
//! *shapes* — never on which row tile or batch position the element landed
//! in. Consequently a row's result is bit-identical whether it is
//! multiplied alone (`12 × k`) or as part of a stacked batch (`B·12 × k`) —
//! the property the batched-inference equivalence suite pins down. The dot
//! path sums vector lanes in a fixed order that depends only on `k`, and
//! its `k` remainder uses [`f32::mul_add`].
//!
//! An elementwise kernel does, for every element, the same IEEE-754
//! operations as its scalar body, in the same order: a hardware FMA rounds
//! as `fmaf` does, vector rounding rounds half away from zero as `roundf`
//! does, and Rust never contracts a separate multiply and add. Both
//! compilations therefore return the same bits for every input, whatever
//! the element's position or the slice's length.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// `out = a · b (+ bias)` with `a` row-major `n × k`, `b` row-major
/// `k × d`, `out` row-major `n × d` and an optional `1 × d` bias row folded
/// into the accumulator initialisation. `out` is fully overwritten.
///
/// # Safety
///
/// The CPU must support the kernel's target features, and the slices must
/// hold `n·d`, `n·k`, `k·d` and `d` elements — what `dispatch` asserts.
type Kernel = unsafe fn(&mut [f32], &[f32], &[f32], Option<&[f32]>, bool, usize, usize, usize);

/// The kernels one CPU runs: the matrix product and the elementwise ops,
/// chosen together by one detection.
#[derive(Clone, Copy)]
struct Kernels {
    matmul: Kernel,
    /// `out[i] = b[i].mul_add(s, a[i])`; slices of equal length.
    scaled_add: unsafe fn(&mut [f32], &[f32], &[f32], f32),
    /// `v = fast_exp(v)` for every element.
    exp: unsafe fn(&mut [f32]),
    /// The largest `bits & 0x7FFF_FFFF` over the slice, or 0 when empty.
    max_magnitude: unsafe fn(&[f32]) -> u32,
}

/// The portable loop and the plain elementwise bodies, which
/// [`KernelMode::Portable`] selects on every CPU.
static PORTABLE: Kernels = Kernels {
    matmul: matmul_scalar,
    scaled_add: scaled_add_body,
    exp: exp_body,
    max_magnitude: max_magnitude_body,
};

/// Which kernels [`crate::Matrix`]'s products and elementwise ops use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Pick the fastest kernels the CPU supports (the default).
    Auto,
    /// Force the portable scalar loops — the seed implementation. Useful for
    /// bit-stable cross-platform comparisons and as the frozen baseline in
    /// before/after benchmarks.
    Portable,
}

static KERNEL_MODE: AtomicU8 = AtomicU8::new(0);
static DETECTED: OnceLock<Kernels> = OnceLock::new();
thread_local! {
    static GUARD_ARMED: Cell<bool> = const { Cell::new(false) };
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

/// The kernel-epilogue finite guard, armed on the calling thread for as
/// long as this value lives.
///
/// While armed, every product routed through the kernel dispatcher on this
/// thread scans its output for NaN/Inf after the kernel returns and latches
/// the first violation, which [`take_trip`](Self::take_trip) hands back.
/// The scan is `O(n·d)` against the kernel's `O(n·k·d)` work, and it never
/// alters a computed element, so the determinism contract above is
/// unaffected. Products outside every scope are not scanned and latch
/// nothing, and a trip nobody took is cleared when the outermost scope ends
/// (also by unwinding), so a scope reports only its own products.
#[must_use = "the guard disarms as soon as it is dropped"]
pub struct FiniteGuard {
    /// Whether an enclosing scope had the guard armed; restored on drop.
    outer: bool,
    /// The guard is thread state, so the scope must end on its own thread.
    _thread_bound: PhantomData<*const ()>,
}

impl FiniteGuard {
    /// Arm the guard on this thread until the returned scope is dropped.
    pub fn arm() -> Self {
        Self {
            outer: GUARD_ARMED.with(|armed| armed.replace(true)),
            _thread_bound: PhantomData,
        }
    }

    /// Take (and clear) the first violation latched on this thread since
    /// the guard was armed or the trip was last taken.
    pub fn take_trip(&self) -> Option<GuardTrip> {
        GUARD_TRIP.with(Cell::take)
    }
}

impl Drop for FiniteGuard {
    fn drop(&mut self) {
        GUARD_ARMED.with(|armed| armed.set(self.outer));
        if !self.outer {
            GUARD_TRIP.with(Cell::take);
        }
    }
}

/// Select the kernels globally (process-wide). Intended for benchmarks
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

fn detect() -> Kernels {
    #[cfg(target_arch = "x86_64")]
    {
        let mut kernels = PORTABLE;
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            kernels = Kernels {
                matmul: matmul_avx2,
                scaled_add: scaled_add_avx2,
                exp: exp_avx2,
                max_magnitude: max_magnitude_avx2,
            };
        }
        if is_x86_feature_detected!("avx512f") {
            kernels.matmul = matmul_avx512;
        }
        kernels
    }
    #[cfg(not(target_arch = "x86_64"))]
    PORTABLE
}

/// The kernels the current [`KernelMode`] selects.
fn kernels() -> &'static Kernels {
    if KERNEL_MODE.load(Ordering::Relaxed) == 1 {
        &PORTABLE
    } else {
        DETECTED.get_or_init(detect)
    }
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

/// Fused `out = a · b + bias` (bias broadcast over rows), rectified when
/// `relu` is set: the dense-layer fast path. The bias initialises the
/// accumulators and the rectifier is applied in the store epilogue, so
/// neither costs a pass over the output; shares kernels — and therefore
/// per-element rounding — with [`matmul_into`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_bias_into(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    relu: bool,
    n: usize,
    k: usize,
    d: usize,
) {
    assert_eq!(bias.len(), d, "bias shape");
    dispatch(out, a, b, Some(bias), relu, n, k, d)
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
    let kernels = kernels();
    // SAFETY: `detect` selects a SIMD kernel only after confirming CPU
    // support, and the slice-length assertions above establish the bounds
    // every kernel relies on.
    unsafe { (kernels.matmul)(out, a, b, bias, relu, n, k, d) }
    if GUARD_ARMED.with(Cell::get) {
        // Branch-free detection pass: a float is non-finite iff its
        // magnitude bits reach the exponent-all-ones pattern, so a u32
        // max-reduction over `bits & !sign` finds "any NaN/Inf?" without an
        // early exit. The element search runs only on the rare trip path.
        const INF_BITS: u32 = 0x7F80_0000;
        // SAFETY: `detect` selects the AVX2 twin only after confirming CPU
        // support; the plain body has no precondition.
        let worst = unsafe { (kernels.max_magnitude)(out) };
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

/// Fused `out[i] = a[i] + s · b[i]` with one rounding per element
/// ([`f32::mul_add`]) — GIN's `(1 + ε)·h + Σ h_j` combine.
pub(crate) fn scaled_add_into(out: &mut [f32], a: &[f32], b: &[f32], s: f32) {
    assert!(
        a.len() == out.len() && b.len() == out.len(),
        "scaled_add operand lengths"
    );
    // SAFETY: `detect` selects the AVX2 twin only after confirming CPU
    // support; the plain body has no precondition.
    unsafe { (kernels().scaled_add)(out, a, b, s) }
}

/// Replace every element `v` with [`fast_exp`]`(v)`.
pub(crate) fn exp_in_place(values: &mut [f32]) {
    // SAFETY: as for `scaled_add_into`.
    unsafe { (kernels().exp)(values) }
}

#[inline(always)]
fn scaled_add_body(out: &mut [f32], a: &[f32], b: &[f32], s: f32) {
    for ((o, &a), &b) in out.iter_mut().zip(a).zip(b) {
        *o = b.mul_add(s, a);
    }
}

#[inline(always)]
fn exp_body(values: &mut [f32]) {
    for v in values {
        *v = fast_exp(*v);
    }
}

#[inline(always)]
fn max_magnitude_body(values: &[f32]) -> u32 {
    values
        .iter()
        .fold(0u32, |acc, v| acc.max(v.to_bits() & 0x7FFF_FFFF))
}

/// [`scaled_add_body`] compiled with AVX2 and FMA enabled.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn scaled_add_avx2(out: &mut [f32], a: &[f32], b: &[f32], s: f32) {
    scaled_add_body(out, a, b, s)
}

/// [`exp_body`] compiled with AVX2 and FMA enabled.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn exp_avx2(values: &mut [f32]) {
    exp_body(values)
}

/// [`max_magnitude_body`] compiled with AVX2 and FMA enabled.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn max_magnitude_avx2(values: &[f32]) -> u32 {
    max_magnitude_body(values)
}

/// Fast `e^x`: range reduction `x = n·ln2 + r` with a hi/lo split of `ln 2`,
/// a degree-6 Taylor polynomial for `e^r` on `|r| ≤ ln2/2`, and an exponent
/// rebuild via the float bit layout. Relative accuracy ≈ 1e-7 at a fraction
/// of the libm call cost. Inputs below the `f32` underflow range return 0
/// (exactly what masked attention logits need).
#[inline(always)]
pub(crate) fn fast_exp(x: f32) -> f32 {
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
    // Exponent rebuild `2^n` without a float-to-int cast, which would not
    // vectorise: adding 1.5·2²³ puts the integral `n` in the low mantissa
    // bits, exactly for |n| < 2²². That covers every `n` whose result the
    // selects below keep; the others only need to wrap, not overflow.
    const SHIFTER: f32 = 12_582_912.0;
    let biased = (n + SHIFTER)
        .to_bits()
        .wrapping_sub(SHIFTER.to_bits())
        .wrapping_add(127);
    let e = f32::from_bits(biased << 23) * p;
    // Selects, not early returns, so a loop over a slice vectorises. NaN is
    // tested first: it fails both range comparisons, and the rebuild would
    // turn it into an arbitrary value. Propagate it like `exp` does.
    if x.is_nan() {
        f32::NAN
    } else if x < -87.0 {
        0.0
    } else if x > 88.0 {
        f32::INFINITY
    } else {
        e
    }
}

/// Portable fallback: the original i-k-j loop. The `a == 0.0` skip keeps
/// sparse operands (adjacency matrices) cheap.
///
/// # Safety
///
/// As for [`Kernel`].
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
/// accumulators live across the whole `k` loop), a 16-wide and a masked
/// column tail, and the shared `d == 1` dot path. Per-element math is the
/// same ascending-`k` FMA chain as the AVX2 kernel, so tile membership never
/// changes a result.
///
/// # Safety
///
/// As for [`Kernel`].
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
    if j < d {
        // The last 1–15 columns run in masked lanes: masked-off lanes are
        // neither read nor written, and each live lane is the same
        // ascending-k FMA chain as a full tile's.
        let mask: __mmask16 = (1 << (d - j)) - 1;
        let init = match bias {
            Some(bias) => _mm512_maskz_loadu_ps(mask, bias.as_ptr().add(j)),
            None => _mm512_setzero_ps(),
        };
        let mut acc = [init; R];
        for kk in 0..k {
            let b0 = _mm512_maskz_loadu_ps(mask, b_ptr.add(kk * d + j));
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
            _mm512_mask_storeu_ps(out_ptr.add((i + r) * d + j), mask, *slot);
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
/// accumulators live across the whole `k` loop), an 8-wide and a masked
/// column tail, and a dedicated dot-product path for `d == 1` (attention
/// projections and decoder heads).
///
/// # Safety
///
/// As for [`Kernel`].
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
    if j < d {
        // The last 1–7 columns run in masked lanes, as in the AVX-512 tile.
        let mask = _mm256_loadu_si256(AVX2_TAIL_MASK.as_ptr().add(8 - (d - j)) as *const __m256i);
        let init = match bias {
            Some(bias) => _mm256_maskload_ps(bias.as_ptr().add(j), mask),
            None => _mm256_setzero_ps(),
        };
        let mut acc = [init; R];
        for kk in 0..k {
            let b0 = _mm256_maskload_ps(b_ptr.add(kk * d + j), mask);
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
            _mm256_maskstore_ps(out_ptr.add((i + r) * d + j), mask, *slot);
        }
    }
}

/// Lane masks for the AVX2 column tail: the eight `i32`s starting at
/// `8 - live` enable the first `live` lanes.
#[cfg(target_arch = "x86_64")]
static AVX2_TAIL_MASK: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

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
        // masked column tails, row remainders, and the d == 1 dot path.
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

    /// The determinism contract, spelled out: the bias (or zero), then one
    /// `mul_add` per `k` in ascending order, then the optional ReLU.
    #[allow(clippy::too_many_arguments)]
    fn fma_chain(
        a: &[f32],
        b: &[f32],
        bias: Option<&[f32]>,
        relu: bool,
        n: usize,
        k: usize,
        d: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; n * d];
        for i in 0..n {
            for j in 0..d {
                let mut acc = bias.map_or(0.0, |bias| bias[j]);
                for kk in 0..k {
                    acc = a[i * k + kk].mul_add(b[kk * d + j], acc);
                }
                out[i * d + j] = if relu { acc.max(0.0) } else { acc };
            }
        }
        out
    }

    #[test]
    fn simd_kernels_match_an_ascending_mul_add_chain_bit_for_bit() {
        let mut kernels: Vec<(&str, Kernel)> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                kernels.push(("avx512", matmul_avx512));
            }
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                kernels.push(("avx2", matmul_avx2));
            }
        }
        if kernels.is_empty() {
            eprintln!("no SIMD kernel on this CPU; nothing to compare");
            return;
        }
        // Backward-pass n × n products (12 and 18 features), full tiles,
        // row remainders, every column-tail width and an odd k.
        for &(n, k, d) in &[
            (12usize, 64usize, 12usize),
            (18, 64, 18),
            (64, 12, 64),
            (13, 7, 17),
            (5, 3, 9),
            (4, 33, 16),
            (1, 64, 31),
        ] {
            let a: Vec<f32> = (0..n * k)
                .map(|i| ((i * 37 + 11) % 23) as f32 * 0.17 - 1.5)
                .collect();
            let b: Vec<f32> = (0..k * d)
                .map(|i| ((i * 29 + 3) % 19) as f32 * 0.21 - 1.7)
                .collect();
            let bias: Vec<f32> = (0..d).map(|j| (j % 7) as f32 * 0.3 - 0.95).collect();
            for (name, kernel) in &kernels {
                for bias in [None, Some(bias.as_slice())] {
                    for relu in [false, true] {
                        let mut out = vec![f32::NAN; n * d];
                        // SAFETY: the kernel was listed only after its CPU
                        // features were detected, and every buffer has the
                        // shape the kernel indexes.
                        unsafe { kernel(&mut out, &a, &b, bias, relu, n, k, d) };
                        let want = fma_chain(&a, &b, bias, relu, n, k, d);
                        for (idx, (got, want)) in out.iter().zip(&want).enumerate() {
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{name} ({n}x{k})·({k}x{d}) bias {} relu {relu} \
                                 element {idx}: {got} vs {want}",
                                bias.is_some()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn finite_guard_latches_first_violation_and_clears_on_take() {
        let guard = FiniteGuard::arm();

        // A clean product must not trip the guard.
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let b = [0.5f32, -0.25, 1.5, 2.0];
        let mut out = [0.0f32; 4];
        matmul_into(&mut out, &a, &b, 2, 2, 2);
        assert_eq!(guard.take_trip(), None);

        // A NaN operand poisons the output; the guard latches the first bad
        // element without altering the computed values.
        let poisoned = [f32::NAN, 2.0, 3.0, 4.0];
        matmul_into(&mut out, &poisoned, &b, 2, 2, 2);
        let mut later = [0.0f32; 2];
        matmul_into(&mut later, &poisoned[..2], &b, 1, 2, 2);
        let trip = guard.take_trip().expect("NaN output must trip the guard");
        assert_eq!((trip.rows, trip.cols), (2, 2));
        assert!(!out[trip.index].is_finite());
        // Taking the trip clears it.
        assert_eq!(guard.take_trip(), None);
    }

    #[test]
    fn finite_guard_reports_only_products_inside_its_scope() {
        let b = [0.5f32, -0.25, 1.5, 2.0];
        let poisoned = [1.0f32, 2.0, f32::NAN, 4.0];
        let mut out = [0.0f32; 4];

        // Inside an armed scope the trip names the first bad element.
        {
            let guard = FiniteGuard::arm();
            matmul_into(&mut out, &poisoned, &b, 2, 2, 2);
            let trip = guard.take_trip().expect("NaN output must trip the guard");
            assert_eq!(
                trip,
                GuardTrip {
                    index: 2,
                    rows: 2,
                    cols: 2
                }
            );
        }

        // Outside every scope nothing latches, so no later scope reports it.
        matmul_into(&mut out, &poisoned, &b, 2, 2, 2);
        assert_eq!(FiniteGuard::arm().take_trip(), None);

        // Nor does a trip its own scope left untaken.
        {
            let _untaken = FiniteGuard::arm();
            matmul_into(&mut out, &poisoned, &b, 2, 2, 2);
        }
        assert_eq!(FiniteGuard::arm().take_trip(), None);

        // A scope that unwinds leaves the thread disarmed.
        let unwound = std::panic::catch_unwind(|| {
            let _guard = FiniteGuard::arm();
            panic!("scoring failed");
        });
        assert!(unwound.is_err());
        matmul_into(&mut out, &poisoned, &b, 2, 2, 2);
        assert_eq!(FiniteGuard::arm().take_trip(), None);
    }

    /// Every 4099th `f32` bit pattern (about a million, NaNs and infinities
    /// included): the AVX2 twin of the exp pass must return the plain
    /// body's bits for each. All 2³² inputs match too, but that sweep takes
    /// minutes.
    #[test]
    fn exp_kernels_agree_bit_for_bit_on_a_strided_sweep() {
        let inputs: Vec<f32> = (0..=u32::MAX)
            .step_by(4099)
            .map(f32::from_bits)
            .chain([
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                -0.0,
                0.0,
                -87.0,
                88.0,
            ])
            .collect();
        let mut plain = inputs.clone();
        let mut dispatched = inputs.clone();
        // SAFETY: `detect` lists a SIMD kernel only after confirming CPU
        // support; the plain body has no precondition.
        unsafe {
            (PORTABLE.exp)(&mut plain);
            (DETECTED.get_or_init(detect).exp)(&mut dispatched);
        }
        for ((x, want), got) in inputs.iter().zip(&plain).zip(&dispatched) {
            assert_eq!(got.to_bits(), want.to_bits(), "exp({:#010x})", x.to_bits());
        }
    }

    #[test]
    fn max_magnitude_kernels_agree_on_every_length() {
        let specials = [
            0.0f32,
            -0.0,
            1.5,
            -f32::MAX,
            f32::MIN_POSITIVE,
            -1e-45,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        for len in 0..=67usize {
            for start in 0..specials.len() {
                // The specials plus one ordinary value, visited with a stride
                // coprime to their count: across starts, every special
                // lands in every lane.
                let values: Vec<f32> = (0..len)
                    .map(|i| match (start + i * 7) % (specials.len() + 1) {
                        j if j == specials.len() => i as f32 * 0.25 - 3.0,
                        j => specials[j],
                    })
                    .collect();
                // SAFETY: as in the exp sweep.
                let (want, got) = unsafe {
                    (
                        (PORTABLE.max_magnitude)(&values),
                        (DETECTED.get_or_init(detect).max_magnitude)(&values),
                    )
                };
                assert_eq!(got, want, "len {len} start {start}");
            }
        }
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
