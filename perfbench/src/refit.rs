//! The `refit` workload: the model-change path `RefitSupervisor` runs.
//! Fit on a clean CreditCard reference, save and reload the validator,
//! then judge the §4.2 protocol through the reloaded validator — repeated
//! for the whole timed window. No listener or engine is involved.

use crate::check::{self, VerdictKey};
use crate::report::Report;
use crate::stats::{median, minimum, quantile, tail};
use crate::trace::{unattributed_share, SpanLog};
use crate::{frames, model_path, reload, replay, report_reloads, served, Options, Reload, RELOADS};
use dquag_validate::{DquagBackend, Validator};
use std::time::{Duration, Instant};

/// Untraced judging passes over the protocol per cycle. With a fit of about
/// 10 s, a cycle takes longer than half of a 30-s window, so a run holds
/// two cycles.
const JUDGE_PASSES: usize = 25;

/// Set-ups per run; a set-up only generates data (milliseconds), so many
/// make a steady median.
const SETUPS: usize = 15;

/// One fit → save → load → judge cycle.
struct Cycle {
    backend: DquagBackend,
    fit_s: f64,
    reloads: Vec<Reload>,
    /// Verdicts of every untraced pass, pass after pass.
    verdicts: Vec<VerdictKey>,
    /// Per-batch judging times (ms) of the untraced passes.
    latencies: Vec<f64>,
    /// Seconds per untraced pass.
    pass_s: Vec<f64>,
    /// Seconds of the traced pass (traced runs).
    traced_s: f64,
}

/// Run `refit` and fill `report`.
pub fn run(opts: &Options, report: &mut Report) -> Result<(), String> {
    let (reference_rows, source_rows) = if opts.smoke { (200, 400) } else { (2000, 2000) };
    let config = opts.config();

    // Set-up is data generation only: the fit is what this workload times.
    let mut setup_times = Vec::new();
    let mut generated = None;
    for _ in 0..opts.setups(SETUPS) {
        let started = Instant::now();
        generated = Some(frames::refit(opts.seed, reference_rows, source_rows));
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let inputs = generated.expect("at least one set-up");
    report.set("setup_s", median(&setup_times), setup_times.len() as u64);
    let telemetry = config
        .telemetry
        .build()
        .ok_or("the default configuration enables telemetry")?;
    let path = model_path("refit");
    let batch_rows: u64 = inputs.frames.iter().map(|f| f.data.n_rows() as u64).sum();

    let mut log = SpanLog::default();
    let mut cycles: Vec<Cycle> = Vec::new();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(opts.seconds);
    while cycles.is_empty() || Instant::now() < deadline {
        let cycle_start = Instant::now();
        let mut backend = DquagBackend::new(config.clone());
        backend
            .fit(&inputs.reference)
            .map_err(|e| format!("fitting: {e}"))?;
        let fitted = Instant::now();
        let root = log.push("cycle", cycle_start, cycle_start, None, None);
        log.push("core.fit", cycle_start, fitted, Some(root), None);
        let mut cycle = Cycle {
            backend,
            fit_s: fitted.duration_since(cycle_start).as_secs_f64(),
            reloads: Vec::with_capacity(RELOADS),
            verdicts: Vec::with_capacity(JUDGE_PASSES * inputs.frames.len()),
            latencies: Vec::with_capacity(JUDGE_PASSES * inputs.frames.len()),
            pass_s: Vec::with_capacity(JUDGE_PASSES),
            traced_s: 0.0,
        };
        // The first reload yields the validator that judges; further reload
        // rounds are spread between the judging passes, so that one busy
        // spell of the host cannot slow them all.
        let mut served: Option<Box<dyn Validator>> = None;
        // Traced runs add one traced pass, for the overhead.
        for pass in 0..JUDGE_PASSES + usize::from(opts.trace) {
            let traced = pass == JUDGE_PASSES;
            if cycle.reloads.len() < RELOADS {
                let started = Instant::now();
                let (timing, loaded) = reload(&cycle.backend, &inputs.frames[0].data, &path)?;
                log.push("persist.reload", started, Instant::now(), Some(root), None);
                cycle.reloads.push(timing);
                if served.is_none() {
                    let mut loaded = loaded;
                    loaded.attach_telemetry(&telemetry);
                    served = Some(loaded);
                }
            }
            let served = served.as_deref().expect("the first pass reloads");
            let pass_start = Instant::now();
            for (seq, frame) in inputs.frames.iter().enumerate() {
                let started = Instant::now();
                let verdict = served
                    .validate(&frame.data)
                    .map_err(|e| format!("judging batch {seq}: {e}"))?;
                let ended = Instant::now();
                if traced {
                    log.push(
                        "validate.busy",
                        started,
                        ended,
                        Some(root),
                        Some(seq as u64),
                    );
                } else {
                    cycle
                        .latencies
                        .push(ended.duration_since(started).as_secs_f64() * 1e3);
                    cycle.verdicts.push(VerdictKey::from_verdict(verdict));
                }
            }
            let pass_end = Instant::now();
            let seconds = pass_end.duration_since(pass_start).as_secs_f64();
            if traced {
                cycle.traced_s = seconds;
            } else {
                cycle.pass_s.push(seconds);
                log.push("validate.judge", pass_start, pass_end, Some(root), None);
            }
        }
        log.close(root, Instant::now());
        cycles.push(cycle);
    }
    let _ = std::fs::remove_file(&path);

    // Outside the window: every reloaded verdict must equal the verdict of
    // the in-memory validator it was saved from.
    if opts.tamper {
        let first = &mut cycles[0].verdicts[0];
        first.is_dirty = !first.is_dirty;
    }
    let (mut attempted, mut failed, mut right) = (0u64, 0u64, 0u64);
    for (index, cycle) in cycles.iter().enumerate() {
        let direct = check::direct_verdicts(&cycle.backend, &inputs.frames)?;
        if cycle.reloads.iter().any(|r| r.first != direct[0]) {
            report.problem(format!("cycle {index}: first verdict after reload differs"));
            failed += 1;
        }
        let served = cycle
            .verdicts
            .iter()
            .enumerate()
            .map(|(i, key)| (i % direct.len(), key));
        let mismatches = check::count_mismatches(served, &direct);
        if mismatches > 0 {
            report.problem(format!(
                "cycle {index}: {mismatches} reloaded verdicts differ from the fitted validator's"
            ));
        }
        attempted += cycle.verdicts.len() as u64;
        failed += mismatches as u64;
        for (i, verdict) in cycle.verdicts.iter().enumerate() {
            right += u64::from(verdict.is_dirty == inputs.frames[i % direct.len()].dirty);
        }
    }
    let passes = JUDGE_PASSES as u64 + u64::from(opts.trace);
    let rows_judged = cycles.len() as u64 * passes * batch_rows;
    let exposition = telemetry.prometheus();
    let scored = check::prometheus_counter(&exposition, "dquag_gnn_rows_scored_total");
    let scored_ok = scored == Some(rows_judged as f64);
    if !scored_ok {
        report.problem(format!(
            "dquag_gnn_rows_scored_total is {scored:?}, but {rows_judged} rows were judged"
        ));
    }
    report.attempted = attempted;
    report.failed = failed;
    report.correct = failed == 0 && scored_ok;
    report.set(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        attempted,
    );

    let n = cycles.len() as u64;
    let fit_s = minimum(&cycles.iter().map(|c| c.fit_s).collect::<Vec<_>>());
    report.set_noted("fit_s", fit_s, n, "fastest fit".to_string());
    let all_reloads: Vec<Reload> = cycles.iter().flat_map(|c| c.reloads.clone()).collect();
    report_reloads(&all_reloads, report);
    // Each protocol batch is judged on every pass of every cycle; its
    // latency is the fastest of those calls (best-of-N), which a busy
    // spell of the shared host cannot raise unless it covers every pass.
    // The distribution across the 100 batches (clean ones, and dirty ones
    // with cell flagging) is what p50 and the tail describe, and their sum
    // is the time one pass over the protocol takes.
    let batches = inputs.frames.len();
    let latencies: Vec<f64> = cycles.iter().flat_map(|c| c.latencies.clone()).collect();
    let calls_of = |batch: usize| -> Vec<f64> {
        latencies
            .iter()
            .skip(batch)
            .step_by(batches)
            .copied()
            .collect()
    };
    let per_batch: Vec<f64> = (0..batches).map(|b| minimum(&calls_of(b))).collect();
    let calls_per_batch = latencies.len() / batches.max(1);
    report.set_noted(
        "rows_per_s",
        batch_rows as f64 * 1e3 / per_batch.iter().sum::<f64>(),
        latencies.len() as u64 * batch_rows / batches.max(1) as u64,
        format!("over the protocol's batches, each the fastest of {calls_per_batch} calls"),
    );
    let p50 = quantile(&per_batch, 0.5);
    report.set_noted(
        "batch_latency_p50_ms",
        p50.value,
        p50.n as u64,
        format!("over batches, each the fastest of {calls_per_batch} calls"),
    );
    let p99 = tail(&per_batch, 0.99, 10);
    report.set_noted(
        "batch_latency_p99_ms",
        p99.value,
        p99.n as u64,
        format!(
            "p{:.1} of {} batches, {} beyond, each the fastest of {calls_per_batch} calls",
            100.0 * p99.q,
            p99.n,
            p99.beyond
        ),
    );
    report.set(
        "verdict_accuracy",
        right as f64 / attempted.max(1) as f64,
        attempted,
    );

    if opts.trace {
        let forward_passes =
            check::prometheus_counter(&exposition, "dquag_gnn_forward_passes_total");
        let judged = n * passes * inputs.frames.len() as u64;
        report.set(
            "gnn.forward_passes_per_batch",
            forward_passes.unwrap_or(f64::NAN) / judged.max(1) as f64,
            judged,
        );
        let busy = log.durations_ms("validate.busy");
        let p50 = quantile(&busy, 0.5);
        report.set("validate.busy_ms_p50", p50.value, p50.n as u64);
        let p99 = tail(&busy, 0.99, 10);
        report.set_noted(
            "validate.busy_ms_p99",
            p99.value,
            p99.n as u64,
            format!("p{:.1}, {} beyond", 100.0 * p99.q, p99.beyond),
        );
        // No listener or engine runs in this workload.
        for name in [
            "sources.ack_ms_p50",
            "sources.ack_ms_p99",
            "sources.error_replies",
            "stream.queue_wait_ms_p50",
            "stream.queue_wait_ms_p99",
            "stream.emit_ms_p50",
            "stream.dropped",
            "stream.deadline_exceeded",
            "stream.quarantines",
        ] {
            report.set_noted(name, 0.0, 0, "not on the refit path".to_string());
        }
        // Judging time as measured around each call, against the stage
        // spans the reloaded validators recorded for the same calls.
        let judged_s = (latencies.iter().sum::<f64>() + busy.iter().sum::<f64>()) / 1e3;
        report.set_noted(
            "trace.unattributed_share",
            unattributed_share(judged_s, &[&exposition]),
            judged,
            format!("of {judged_s:.2} s of validate calls, against the program's stage spans"),
        );
        let untraced = median(
            &cycles
                .iter()
                .flat_map(|c| c.pass_s.clone())
                .collect::<Vec<_>>(),
        );
        let traced = median(&cycles.iter().map(|c| c.traced_s).collect::<Vec<_>>());
        report.set_noted(
            "trace.overhead",
            untraced / traced,
            n,
            "traced rows/s over untraced rows/s of the judging passes".to_string(),
        );
        let trace_path = crate::out_dir().join(format!("trace-refit-{}.jsonl", opts.seed));
        log.write_jsonl(&trace_path, t0)
            .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
        let last = cycles.last().expect("at least one cycle");
        let state = served::dquag_state(&last.backend)?;
        replay::layers(&state, &inputs, &inputs.frames, report)?;
    }
    Ok(())
}
