//! Integration tests for the streaming engine: replica-count invariance,
//! backpressure policies, the deadline-exceeded path and drain-on-shutdown.

use dquag_core::{BackpressurePolicy, DquagConfig};
use dquag_datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag_stream::{StreamEngine, StreamItem, StreamOutcome, SubmitOutcome};
use dquag_tabular::DataFrame;
use dquag_validate::{build_spec, Capabilities, FitReport, Validator, ValidatorSpec, Verdict};
use std::time::Duration;

fn test_config() -> DquagConfig {
    DquagConfig::builder()
        .epochs(10)
        .batch_size(64)
        .hidden_dim(12)
        .n_layers(2)
        .build()
        .expect("configuration in range")
}

/// Clean reference data plus a mixed clean/corrupted batch stream.
fn batch_stream(n: usize) -> (DataFrame, Vec<DataFrame>) {
    let kind = DatasetKind::HotelBooking;
    let clean = kind.generate_clean(800, 81);
    let columns = kind.default_ordinary_error_columns();
    let mut batches = Vec::new();
    for i in 0..n {
        let mut batch = kind.generate_clean(120, 400 + i as u64);
        if i % 2 == 1 {
            let mut rng = dquag_datagen::rng(500 + i as u64);
            inject_ordinary(
                &mut batch,
                OrdinaryError::NumericAnomalies,
                &columns,
                0.3,
                &mut rng,
            );
        }
        batches.push(batch);
    }
    (clean, batches)
}

/// A stub backend whose validation takes a configurable amount of wall time —
/// the deterministic "expensive model" for queue/deadline tests.
struct SleepyValidator {
    delay: Duration,
}

impl Validator for SleepyValidator {
    fn name(&self) -> &str {
        "Sleepy"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::dataset_level()
    }

    fn fit(&mut self, clean: &DataFrame) -> dquag_validate::Result<FitReport> {
        Ok(FitReport {
            validator: self.name().to_string(),
            n_rows: clean.n_rows(),
            n_columns: clean.n_cols(),
            threshold: None,
            n_parameters: None,
            notes: vec![],
        })
    }

    fn validate(&self, batch: &DataFrame) -> dquag_validate::Result<Verdict> {
        std::thread::sleep(self.delay);
        Ok(Verdict::dataset_level(
            self.name(),
            false,
            0.0,
            batch.n_rows(),
            vec![],
        ))
    }
}

fn sleepy(delay_ms: u64) -> Box<dyn Validator> {
    Box::new(SleepyValidator {
        delay: Duration::from_millis(delay_ms),
    })
}

/// A tiny one-column frame (the sleepy validator never looks at it).
fn tiny_batch() -> DataFrame {
    DatasetKind::HotelBooking.generate_clean(4, 7)
}

/// Run `batches` through an engine with the given replica count and collect
/// the emitted items in order.
fn run_engine(
    validator: Box<dyn Validator>,
    replicas: usize,
    batches: &[DataFrame],
) -> Vec<StreamItem> {
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .replicas(replicas)
        .queue_capacity(batches.len().max(1))
        .start(validator)
        .expect("engine starts");
    for batch in batches {
        let outcome = ingest.submit(batch.clone()).expect("engine open");
        assert!(outcome.is_enqueued(), "capacity covers the whole stream");
    }
    drop(ingest);
    let items: Vec<StreamItem> = verdicts.collect();
    let stats = engine.shutdown();
    assert_eq!(stats.emitted, batches.len() as u64);
    items
}

#[test]
fn replica_count_never_changes_the_verdicts() {
    // Acceptance criterion: N workers must produce verdicts *identical* to a
    // single worker's (same submission order, same flags), proving sharded
    // validation is an implementation detail the consumer cannot observe.
    let (clean, batches) = batch_stream(8);
    let config = test_config();

    let fit_dquag = || {
        let mut validator = build_spec(&ValidatorSpec::backend("dquag"), &config).unwrap();
        validator.fit(&clean).expect("fit succeeds");
        validator
    };

    let single = run_engine(fit_dquag(), 1, &batches);
    let sharded = run_engine(fit_dquag(), 4, &batches);

    assert_eq!(single.len(), batches.len());
    for (index, (a, b)) in single.iter().zip(&sharded).enumerate() {
        assert_eq!(a.seq, index as u64, "order preserved");
        assert_eq!(b.seq, index as u64, "order preserved under sharding");
        let (va, vb) = (
            a.outcome.verdict().expect("no deadlines configured"),
            b.outcome.verdict().expect("no deadlines configured"),
        );
        assert_eq!(va, vb, "batch {index}: sharded verdict must be identical");
    }

    // The corrupted batches (odd indices) must look worse than the clean
    // ones — the engine did real validation, not pass-through. (The tiny
    // test-scale model may false-positive a clean batch, so compare rates
    // rather than labels.)
    let mean_rate = |parity: usize| {
        let rates: Vec<f64> = sharded
            .iter()
            .enumerate()
            .filter(|(index, _)| index % 2 == parity)
            .map(|(_, item)| item.outcome.verdict().expect("verdict").error_rate())
            .collect();
        rates.iter().sum::<f64>() / rates.len() as f64
    };
    assert!(
        mean_rate(1) > mean_rate(0),
        "corrupted batches must score higher: dirty {} vs clean {}",
        mean_rate(1),
        mean_rate(0)
    );
}

#[test]
fn sharded_workers_overlap_in_time() {
    // The scaling claim, measured without depending on the runner's core
    // count: workers waiting on wall time (not CPU) overlap even on a
    // single-core machine, so 4 replicas must clear a backlog of sleepy
    // batches well over 2× faster than 1 replica does.
    let elapsed_with = |replicas: usize| {
        let start = std::time::Instant::now();
        let items = run_engine(sleepy(20), replicas, &vec![tiny_batch(); 16]);
        assert_eq!(items.len(), 16);
        start.elapsed()
    };
    let serial = elapsed_with(1);
    let sharded = elapsed_with(4);
    assert!(
        sharded < serial / 2,
        "4 replicas ({sharded:?}) must beat half of 1 replica ({serial:?})"
    );
}

#[test]
fn reject_policy_refuses_over_capacity_submissions() {
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .replicas(1)
        .queue_capacity(2)
        .backpressure(BackpressurePolicy::Reject)
        .start(sleepy(60))
        .expect("engine starts");

    // A slow worker + capacity 2: burst-submitting 8 tiny batches must
    // overflow the queue and bounce some of them back at the producer.
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for _ in 0..8 {
        match ingest.submit(tiny_batch()).expect("engine open") {
            SubmitOutcome::Enqueued(_) => accepted += 1,
            SubmitOutcome::Rejected => rejected += 1,
            other => panic!("Reject policy cannot produce {other:?}"),
        }
    }
    assert!(rejected > 0, "burst must overflow a 2-slot queue");
    assert!(accepted >= 2, "the queue itself must fill");

    drop(ingest);
    let items: Vec<StreamItem> = verdicts.collect();
    assert_eq!(
        items.len() as u64,
        accepted,
        "every accepted batch gets exactly one outcome, rejected ones none"
    );
    let stats = engine.shutdown();
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.emitted, accepted);
}

#[test]
fn drop_newest_policy_sheds_load_silently() {
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .replicas(1)
        .queue_capacity(2)
        .backpressure(BackpressurePolicy::DropNewest)
        .start(sleepy(60))
        .expect("engine starts");

    let outcomes: Vec<SubmitOutcome> = (0..8)
        .map(|_| ingest.submit(tiny_batch()).expect("engine open"))
        .collect();
    let dropped = outcomes
        .iter()
        .filter(|o| **o == SubmitOutcome::Dropped)
        .count() as u64;
    let accepted = outcomes.iter().filter(|o| o.is_enqueued()).count() as u64;
    assert!(dropped > 0, "burst must overflow a 2-slot queue");

    drop(ingest);
    assert_eq!(verdicts.count() as u64, accepted);
    let stats = engine.shutdown();
    assert_eq!(stats.dropped, dropped);
    assert_eq!(stats.submitted, accepted);
}

#[test]
fn block_policy_is_lossless_and_timeout_gives_up() {
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .replicas(1)
        .queue_capacity(2)
        .backpressure(BackpressurePolicy::Block)
        .start(sleepy(30))
        .expect("engine starts");

    // Fill the pipeline: capacity 2 + 1 replica bounds the unemitted
    // backlog at 3 accepted batches.
    for i in 0..3 {
        let outcome = ingest.submit(tiny_batch()).expect("engine open");
        assert_eq!(outcome, SubmitOutcome::Enqueued(i));
    }

    // Full and nobody consuming: a bounded wait gives up instead of hanging.
    let outcome = ingest
        .submit_timeout(tiny_batch(), Duration::from_millis(1))
        .expect("engine open");
    assert_eq!(outcome, SubmitOutcome::TimedOut);

    // With a consumer draining, blocking submission absorbs the rest of the
    // burst without loss: the producer simply runs at the pipeline's pace.
    let consumer = std::thread::spawn(move || verdicts.count());
    for _ in 0..3 {
        assert!(ingest
            .submit(tiny_batch())
            .expect("engine open")
            .is_enqueued());
    }
    drop(ingest);
    assert_eq!(consumer.join().expect("consumer finishes"), 6);
    let stats = engine.shutdown();
    assert_eq!(stats.timed_out, 1);
    assert_eq!(stats.dropped + stats.rejected, 0);
    assert_eq!(stats.emitted, 6, "Block loses nothing");
}

#[test]
fn slow_consumer_backpressure_bounds_the_resequencing_buffer() {
    // Backpressure must be end to end: even with an empty queue and idle
    // workers, finished-but-unconsumed verdicts count against the bound, so
    // a consumer that never reads cannot make the engine buffer grow without
    // limit.
    let (engine, ingest, mut verdicts) = StreamEngine::builder()
        .replicas(1)
        .queue_capacity(2)
        .backpressure(BackpressurePolicy::Reject)
        .start(sleepy(1))
        .expect("engine starts");

    for _ in 0..3 {
        assert!(ingest
            .submit(tiny_batch())
            .expect("engine open")
            .is_enqueued());
    }
    // Give the (fast) worker time to finish everything: the queue is now
    // empty, but three outcomes sit in the re-sequencing buffer.
    std::thread::sleep(Duration::from_millis(100));
    let stats = engine.stats();
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.emitted, 0);

    assert_eq!(
        ingest.submit(tiny_batch()).expect("engine open"),
        SubmitOutcome::Rejected,
        "unconsumed outcomes must count against the capacity bound"
    );

    // Consuming one outcome frees one slot.
    assert!(verdicts.recv().is_some());
    assert!(ingest
        .submit(tiny_batch())
        .expect("engine open")
        .is_enqueued());

    drop(ingest);
    assert_eq!(verdicts.count(), 3, "the remaining outcomes drain");
    engine.shutdown();
}

#[test]
fn deadline_exceeded_batches_do_not_stall_the_stream() {
    // Worker takes ~80 ms per batch; the budget is 30 ms. With three batches
    // queued at once, every one of them must come back deadline-exceeded —
    // and the stream must keep moving rather than wait for stragglers.
    let (engine, ingest, mut verdicts) = StreamEngine::builder()
        .replicas(1)
        .queue_capacity(8)
        .batch_deadline(Duration::from_millis(30))
        .start(sleepy(80))
        .expect("engine starts");

    for _ in 0..3 {
        assert!(ingest
            .submit(tiny_batch())
            .expect("engine open")
            .is_enqueued());
    }
    drop(ingest);

    let mut items = Vec::new();
    while let Some(item) = verdicts.recv() {
        items.push(item);
    }
    assert_eq!(items.len(), 3, "every accepted batch yields an outcome");
    for (index, item) in items.iter().enumerate() {
        assert_eq!(item.seq, index as u64);
        match &item.outcome {
            StreamOutcome::DeadlineExceeded { budget, waited } => {
                assert_eq!(*budget, Duration::from_millis(30));
                assert!(*waited >= *budget, "reported wait covers the budget");
            }
            other => panic!("batch {index} must miss its 30 ms budget, got {other}"),
        }
    }
    let stats = engine.shutdown();
    assert_eq!(stats.deadline_exceeded, 3);
}

#[test]
fn generous_deadline_leaves_verdicts_untouched() {
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .replicas(2)
        .queue_capacity(8)
        .batch_deadline(Duration::from_secs(30))
        .start(sleepy(1))
        .expect("engine starts");
    for _ in 0..5 {
        ingest.submit(tiny_batch()).expect("engine open");
    }
    drop(ingest);
    let items: Vec<StreamItem> = verdicts.collect();
    assert_eq!(items.len(), 5);
    assert!(items.iter().all(|i| i.outcome.verdict().is_some()));
    assert_eq!(engine.shutdown().deadline_exceeded, 0);
}

#[test]
fn shutdown_drains_queued_and_in_flight_batches() {
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .replicas(2)
        .queue_capacity(32)
        .start(sleepy(10))
        .expect("engine starts");

    const N: u64 = 20;
    for _ in 0..N {
        assert!(ingest
            .submit(tiny_batch())
            .expect("engine open")
            .is_enqueued());
    }
    // Close ingestion immediately: most batches are still queued. A graceful
    // shutdown must still emit every single one.
    ingest.close();
    assert!(ingest.is_closed());
    assert!(
        ingest.submit(tiny_batch()).is_err(),
        "submissions after close are refused"
    );

    let stats = engine.shutdown();
    assert_eq!(stats.submitted, N, "shutdown drained the backlog");

    let seqs: Vec<u64> = verdicts.map(|item| item.seq).collect();
    assert_eq!(
        seqs,
        (0..N).collect::<Vec<u64>>(),
        "no lost batches, emission in submission order"
    );
}

#[test]
fn stats_snapshot_while_the_engine_runs() {
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .replicas(1)
        .queue_capacity(16)
        .start(sleepy(40))
        .expect("engine starts");
    for _ in 0..4 {
        ingest.submit(tiny_batch()).expect("engine open");
    }
    // Snapshot mid-flight: submissions registered, nothing emitted yet, and
    // the backlog is visible as queue depth + in-flight work.
    std::thread::sleep(Duration::from_millis(10));
    let live = engine.stats();
    assert_eq!(live.submitted, 4);
    assert!(live.emitted < 4);
    assert!(
        live.queue_depth + live.in_flight > 0,
        "backlog visible: {live}"
    );
    assert_eq!(live.replicas, 1);

    drop(ingest);
    let items: Vec<StreamItem> = verdicts.collect();
    let done = engine.shutdown();
    assert_eq!(done.emitted, 4);
    assert_eq!(done.queue_depth, 0);
    assert_eq!(done.in_flight, 0);
    assert_eq!(
        done.rows_validated,
        items.iter().map(|i| i.n_rows as u64).sum::<u64>()
    );
    assert!(done.p99_latency >= done.p50_latency);
    assert!(done.rows_per_sec > 0.0);
}

#[test]
fn dropping_the_last_ingest_handle_ends_the_stream() {
    let (_engine, ingest, verdicts) = StreamEngine::builder()
        .replicas(2)
        .start(sleepy(1))
        .expect("engine starts");
    let second = ingest.clone();
    ingest.submit(tiny_batch()).expect("engine open");
    drop(ingest);
    assert!(
        !second.is_closed(),
        "a surviving producer keeps the stream open"
    );
    second.submit(tiny_batch()).expect("still open");
    drop(second);
    assert_eq!(verdicts.count(), 2, "stream ends after the last producer");
}

#[test]
fn dropping_the_consumer_unwedges_blocked_producers() {
    // Receiver-disconnect semantics: if the consumer gives up mid-stream,
    // Block-policy producers must get `EngineClosed` back instead of
    // hanging forever on a pipeline nobody will ever drain.
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .replicas(1)
        .queue_capacity(1)
        .backpressure(BackpressurePolicy::Block)
        .start(sleepy(1))
        .expect("engine starts");
    ingest.submit(tiny_batch()).expect("engine open");
    drop(verdicts); // closes the engine synchronously
    assert!(
        ingest.submit(tiny_batch()).is_err(),
        "consumer drop must close the engine for producers"
    );
    engine.shutdown();
}

#[test]
fn builder_rejects_degenerate_configurations() {
    for builder in [
        StreamEngine::builder().queue_capacity(0),
        StreamEngine::builder().replicas(0),
        StreamEngine::builder().batch_deadline(Duration::ZERO),
    ] {
        assert!(builder.start(sleepy(1)).is_err());
    }
}
