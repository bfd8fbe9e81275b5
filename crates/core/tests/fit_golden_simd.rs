//! Golden test for a fitted model on the dispatched SIMD kernel: the same
//! fit as `fit_golden.rs` (CreditCard, 300 rows, seed 3,
//! `DquagConfig::fast()`), on [`KernelMode::Auto`], which is what
//! deployments train on. Checksum, threshold and every epoch loss must
//! match, bit for bit, the values the AVX-512 kernel produced before the
//! backward pass stopped cloning operands and the kernels' column tails
//! moved to masked lanes.
//!
//! Only the AVX-512 kernel is pinned. The AVX2 kernel's `d == 1` dot path
//! sums its lanes in another order, and the portable kernel rounds each
//! product before adding it, so on other CPUs the test reports why it
//! skips. The kernel mode is process-wide, so this test stays alone in its
//! binary.

use dquag_core::{DquagConfig, DquagValidator};
use dquag_datagen::DatasetKind;
use dquag_tensor::{set_kernel_mode, KernelMode};

const PARAM_CHECKSUM: &str = "17badcd6155b10e5";
const THRESHOLD_BITS: u32 = 0x3e2b_cc5b;
const EPOCH_LOSS_BITS: [u32; 12] = [
    0x3f42_0e81,
    0x3e7f_d873,
    0x3e6b_c7fb,
    0x3e71_57ad,
    0x3e6c_196c,
    0x3e67_4efc,
    0x3e67_4095,
    0x3e63_77ae,
    0x3e61_f2a6,
    0x3e62_e03e,
    0x3e60_cb5b,
    0x3e5f_cacd,
];

fn avx512_kernel() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[test]
fn simd_fit_is_bit_identical_to_the_recorded_model() {
    if !avx512_kernel() {
        eprintln!(
            "skipped: no AVX-512F on this CPU, and the values are pinned for the \
             AVX-512 kernel (other kernels round the d == 1 dot product differently)"
        );
        return;
    }
    set_kernel_mode(KernelMode::Auto);
    let clean = DatasetKind::CreditCard.generate_clean(300, 3);
    let validator =
        DquagValidator::train(&clean, &[], &DquagConfig::fast()).expect("training succeeds");
    let state = validator.export_state();

    let losses: Vec<u32> = state
        .summary
        .epoch_losses
        .iter()
        .map(|loss| loss.to_bits())
        .collect();
    assert_eq!(losses, EPOCH_LOSS_BITS, "epoch losses (f32 bits)");
    assert_eq!(
        state.threshold.to_bits(),
        THRESHOLD_BITS,
        "threshold {} (f32 bits)",
        state.threshold
    );
    assert_eq!(state.param_checksum, PARAM_CHECKSUM, "parameter checksum");
}
