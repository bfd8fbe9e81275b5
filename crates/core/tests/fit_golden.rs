//! Golden test for a fitted model: the parameter checksum, the calibrated
//! threshold and every epoch loss must match, bit for bit, the values the
//! trainer produced before the GNN was reduced to a single forward path.
//!
//! The fit runs on the portable scalar kernel, the one whose arithmetic does
//! not depend on the CPU. The kernel mode is process-wide, so this test must
//! stay alone in its binary.

use dquag_core::{DquagConfig, DquagValidator};
use dquag_datagen::DatasetKind;
use dquag_tensor::{set_kernel_mode, KernelMode};

const PARAM_CHECKSUM: &str = "f3e353ed1e931350";
const THRESHOLD_BITS: u32 = 0x3e2b_cc58;
const EPOCH_LOSS_BITS: [u32; 12] = [
    0x3f42_0e81,
    0x3e7f_d872,
    0x3e6b_c7fc,
    0x3e71_57ad,
    0x3e6c_196e,
    0x3e67_4efb,
    0x3e67_4094,
    0x3e63_77ae,
    0x3e61_f2a7,
    0x3e62_e03e,
    0x3e60_cb5b,
    0x3e5f_cacd,
];

#[test]
fn fast_fit_is_bit_identical_to_the_recorded_model() {
    set_kernel_mode(KernelMode::Portable);
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
