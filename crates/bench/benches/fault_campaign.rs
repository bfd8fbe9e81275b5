//! Fault-injection campaign: sweep bit-flip rate × IEEE-754 site over a
//! fitted DQuaG model judging real traffic, and record the stability curve
//! in `BENCH_faults.json` — verdict agreement with the clean model when the
//! self-checking runtime is off, and detected vs silently-wrong counts when
//! it is armed.
//!
//! The acceptance gate (full runs only): with self-checks on, **zero**
//! silently-wrong verdicts across the whole sweep — every corruption at a
//! flip rate of 1e-4 and above is caught by the parameter checksum or the
//! NaN/Inf guards before a wrong verdict escapes. Only a full run that
//! passes the gate writes the file. `DQUAG_BENCH_FAST=1` shrinks the sweep
//! to smoke-test scale, skips the gate and only prints the report.

use dquag_bench::harness::{fast_mode, write_bench_json};
use dquag_faults::{run_campaign, CampaignConfig};

fn main() {
    let fast = fast_mode();
    let config = if fast {
        CampaignConfig::quick()
    } else {
        CampaignConfig::full()
    };

    let report = run_campaign(&config);
    for cell in &report.cells {
        println!(
            "fault_campaign: site={:<8} rate={:<8} flipped={:<5} unchecked_agreement={:.3} \
             detected={} silent_wrong={}",
            cell.site,
            cell.flip_rate,
            cell.flipped_weights,
            cell.unchecked_agreement,
            cell.checked_detected,
            cell.checked_silent_wrong,
        );
    }

    if !fast {
        assert_eq!(
            report.total_silent_wrong(),
            0,
            "with self-checks armed no corrupted replica may emit a wrong verdict"
        );
        // The sweep must have actually corrupted something, or the gate is
        // vacuous.
        assert!(
            report
                .cells
                .iter()
                .map(|c| c.flipped_weights)
                .sum::<usize>()
                > 0,
            "the campaign flipped no weights at all"
        );
    }
    write_bench_json("BENCH_faults.json", &report.to_json());
}
