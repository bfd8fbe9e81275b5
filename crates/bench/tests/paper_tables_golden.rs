//! Golden test for the paper tables: the smoke-scale Table 1 and Table 2
//! must render, byte for byte, the text recorded in `fixtures/`.
//!
//! Both tables run on the portable scalar kernel, whose arithmetic does not
//! depend on the CPU. The kernel mode is process-wide, so this test must
//! stay alone in its binary. A change that moves verdicts on purpose
//! re-records the fixtures and says why.

use dquag_bench::experiments::{table1, table2};
use dquag_bench::Scale;
use dquag_tensor::{set_kernel_mode, KernelMode};

#[test]
fn smoke_table1_renders_the_recorded_text() {
    set_kernel_mode(KernelMode::Portable);
    assert_eq!(
        table1::render(&table1::run(Scale::Smoke)),
        include_str!("fixtures/table1_smoke.txt")
    );
}

#[test]
fn smoke_table2_renders_the_recorded_text() {
    set_kernel_mode(KernelMode::Portable);
    assert_eq!(
        table2::render(&table2::run(Scale::Smoke)),
        include_str!("fixtures/table2_smoke.txt")
    );
}
