//! Fault-injection campaign: sweep bit-flip rate × IEEE-754 site over a
//! fitted DQuaG model judging real traffic, and record the stability curve
//! in `BENCH_faults.json` — verdict agreement with the clean model when the
//! self-checking runtime is off, and detected vs silently-wrong counts when
//! it is armed.
//!
//! The acceptance gate (full runs only): with self-checks on, **zero**
//! silently-wrong verdicts across the whole sweep — every corruption at a
//! flip rate of 1e-4 and above is caught by the parameter checksum or the
//! NaN/Inf guards before a wrong verdict escapes. `DQUAG_BENCH_FAST=1`
//! shrinks the sweep to smoke-test scale and skips the gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dquag_bench::harness::{fast_mode, write_bench_json};
use dquag_faults::{run_campaign, CampaignConfig};

fn bench_fault_campaign(c: &mut Criterion) {
    let fast = fast_mode();
    let config = if fast {
        CampaignConfig::quick()
    } else {
        CampaignConfig::full()
    };

    // The timed portion is one quick campaign cell's worth of work; the
    // interesting output is the report below, not the wall clock.
    let mut group = c.benchmark_group("fault_campaign");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("fault_campaign", "quick_cell"), |b| {
        let mut one_cell = CampaignConfig::quick();
        one_cell.sites.truncate(1);
        one_cell.flip_rates.truncate(1);
        one_cell.trials = 1;
        one_cell.n_batches = 2;
        one_cell.epochs = 3;
        one_cell.train_rows = 200;
        b.iter(|| run_campaign(&one_cell));
    });
    group.finish();

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
    let json = report.to_json();
    write_bench_json("BENCH_faults.json", &json);

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
}

criterion_group!(benches, bench_fault_campaign);
criterion_main!(benches);
