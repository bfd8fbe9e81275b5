//! Hot-swap invariance tests: swapping the validator mid-stream loses
//! nothing, reorders nothing, and judges every batch with exactly one model
//! generation — and a shutdown racing an in-flight swap still drains
//! cleanly with consistent statistics.

use dquag_core::{BackpressurePolicy, StreamConfig};
use dquag_stream::{StreamEngine, StreamOutcome, SubmitOutcome};
use dquag_tabular::{DataFrame, Field, Schema, Value};
use dquag_validate::{Capabilities, FitReport, Validator, Verdict};
use std::time::Duration;

/// A stub model whose verdicts carry its generation label, with a small
/// configurable validation delay so swaps land while batches are in flight.
struct Generation {
    label: &'static str,
    delay: Duration,
}

impl Validator for Generation {
    fn name(&self) -> &str {
        self.label
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::dataset_level()
    }

    fn fit(&mut self, clean: &DataFrame) -> dquag_validate::Result<FitReport> {
        Ok(FitReport {
            validator: self.label.to_string(),
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
            self.label.to_string(),
            false,
            0.0,
            batch.n_rows(),
            vec![],
        ))
    }

    fn replicate(&self) -> Option<Box<dyn Validator>> {
        Some(Box::new(Generation {
            label: self.label,
            delay: self.delay,
        }))
    }
}

fn model(label: &'static str, delay_ms: u64) -> Box<dyn Validator> {
    Box::new(Generation {
        label,
        delay: Duration::from_millis(delay_ms),
    })
}

fn tiny_batch() -> DataFrame {
    let schema = Schema::new(vec![Field::numeric("x", "")]);
    let mut df = DataFrame::new(schema);
    df.push_row(vec![Value::Number(1.0)]).unwrap();
    df
}

#[test]
fn swap_mid_stream_loses_nothing_reorders_nothing_mixes_no_generations() {
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 4,
            replicas: 3,
            backpressure: BackpressurePolicy::Block,
            ..StreamConfig::default()
        })
        .start(model("gen-a", 2))
        .expect("engine starts");

    let collector = std::thread::spawn(move || verdicts.collect::<Vec<_>>());

    // First half of the traffic under the original model.
    for _ in 0..30 {
        assert!(matches!(
            ingest.submit(tiny_batch()).unwrap(),
            SubmitOutcome::Enqueued(_)
        ));
    }
    // Swap once at least a few batches have been emitted — queued and
    // in-flight batches from the old generation are still draining.
    while engine.stats().emitted < 10 {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(engine.generation(), 0);
    let generation = engine
        .swap_validator(model("gen-b", 2))
        .expect("engine is live");
    assert_eq!(generation, 1);
    assert_eq!(engine.generation(), 1);

    // Second half submitted strictly after the swap.
    for _ in 0..30 {
        assert!(matches!(
            ingest.submit(tiny_batch()).unwrap(),
            SubmitOutcome::Enqueued(_)
        ));
    }
    drop(ingest);

    let items = collector.join().unwrap();

    // No batch lost, none reordered: all 60 emitted, seq == position.
    assert_eq!(items.len(), 60);
    for (position, item) in items.iter().enumerate() {
        assert_eq!(item.seq, position as u64);
    }
    let judges: Vec<&str> = items
        .iter()
        .map(|item| match &item.outcome {
            StreamOutcome::Verdict(verdict) => verdict.validator.as_str(),
            other => panic!("expected a verdict for every batch, got {other:?}"),
        })
        .collect();

    // Exactly one generation per batch, monotone in submission order: the
    // stream reads gen-a … gen-a gen-b … gen-b with a single switch point.
    let switch = judges
        .iter()
        .position(|j| *j == "gen-b")
        .expect("post-swap batches are judged by the new model");
    assert!(judges[..switch].iter().all(|j| *j == "gen-a"), "{judges:?}");
    assert!(judges[switch..].iter().all(|j| *j == "gen-b"), "{judges:?}");
    // The swap landed mid-stream: at least the 10 emitted-before-swap
    // batches kept the old model, and everything submitted after the swap
    // (≥ 30 batches) got the new one.
    assert!((10..=30).contains(&switch), "switch at {switch}");

    let stats = engine.shutdown();
    assert_eq!(stats.submitted, 60);
    assert_eq!(stats.emitted, 60);
    assert_eq!(stats.dropped + stats.rejected + stats.failed, 0);
}

#[test]
fn shutdown_racing_a_swap_still_drains_consistently() {
    for round in 0..8u64 {
        let (engine, ingest, verdicts) = StreamEngine::builder()
            .stream_config(&StreamConfig {
                queue_capacity: 4,
                replicas: 2,
                backpressure: BackpressurePolicy::Block,
                ..StreamConfig::default()
            })
            .start(model("gen-a", 1))
            .expect("engine starts");
        let swapper = engine.swap_handle();
        let stats_handle = engine.swap_handle();

        let collector = std::thread::spawn(move || verdicts.collect::<Vec<_>>());
        for _ in 0..20 {
            assert!(matches!(
                ingest.submit(tiny_batch()).unwrap(),
                SubmitOutcome::Enqueued(_)
            ));
        }

        // Race an in-flight swap against shutdown; vary the interleaving a
        // little across rounds.
        let swap_thread = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_micros(200 * round));
            swapper.swap_validator(model("gen-b", 1))
        });
        drop(ingest); // close ingestion: the engine drains what it accepted
        engine.shutdown();
        let swap_result = swap_thread.join().unwrap();

        // Whether the swap won (mixed-generation drain) or lost
        // (EngineClosed), every accepted batch is emitted exactly once, in
        // order, judged by exactly one of the two generations.
        let items = collector.join().unwrap();
        // Emission counters update on the consumer side; snapshot only after
        // the collector has drained the stream.
        let stats = stats_handle.stats();
        assert_eq!(items.len(), 20, "round {round}");
        for (position, item) in items.iter().enumerate() {
            assert_eq!(item.seq, position as u64, "round {round}");
            match &item.outcome {
                StreamOutcome::Verdict(verdict) => {
                    assert!(
                        verdict.validator == "gen-a" || verdict.validator == "gen-b",
                        "round {round}: {}",
                        verdict.validator
                    );
                }
                other => panic!("round {round}: unexpected outcome {other:?}"),
            }
        }
        assert_eq!(stats.submitted, 20, "round {round}");
        assert_eq!(stats.emitted, 20, "round {round}");
        assert_eq!(stats.dropped + stats.rejected + stats.failed, 0);
        if swap_result.is_err() {
            // The swap lost the race; the old model judged everything.
            assert!(items.iter().all(|item| matches!(
                &item.outcome,
                StreamOutcome::Verdict(v) if v.validator == "gen-a"
            )));
        }
    }
}
