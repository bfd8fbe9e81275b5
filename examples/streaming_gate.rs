//! A continuous data-quality gate: the streaming engine in front of a live
//! batch feed.
//!
//! The paper frames DQuaG as a service judging batches as they arrive; this
//! example wires that up end to end. A producer thread plays an upstream
//! pipeline emitting batches (some clean, some corrupted), the engine shards
//! validation across fitted DQuaG replicas, and the consumer reads verdicts
//! back in submission order — with live stats mid-stream and a graceful
//! drain at the end.
//!
//! ```bash
//! cargo run --release --example streaming_gate
//! ```

use dquag::core::{BackpressurePolicy, DquagConfig};
use dquag::datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag::stream::StreamEngine;
use dquag::tabular::DataFrame;
use dquag::validate::build_spec;
use std::time::Duration;

const N_BATCHES: usize = 10;

/// The simulated upstream feed: every third batch is corrupted.
fn feed(kind: DatasetKind) -> Vec<DataFrame> {
    let columns = kind.default_ordinary_error_columns();
    (0..N_BATCHES)
        .map(|i| {
            let mut batch = kind.generate_clean(150, 300 + i as u64);
            if i % 3 == 2 {
                let mut rng = dquag::datagen::rng(400 + i as u64);
                inject_ordinary(
                    &mut batch,
                    OrdinaryError::NumericAnomalies,
                    &columns,
                    0.3,
                    &mut rng,
                );
            }
            batch
        })
        .collect()
}

fn main() {
    let kind = DatasetKind::HotelBooking;
    let clean = kind.generate_clean(1_000, 51);

    // A lighter-than-paper model keeps the example fast; the decision rules
    // are the paper's.
    let config = DquagConfig::builder()
        .epochs(8)
        .hidden_dim(12)
        .n_layers(2)
        .stream_replicas(
            std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(1),
        )
        .stream_queue_capacity(4)
        .stream_backpressure(BackpressurePolicy::Block)
        .stream_batch_deadline(Duration::from_secs(30))
        .build()
        .expect("configuration in range");

    let mut validator = build_spec(&config.validator, &config).expect("DQuaG by default");
    let fit = validator.fit(&clean).expect("training succeeds");
    println!(
        "fitted {} on {} rows ({})",
        fit.validator,
        fit.n_rows,
        fit.notes.join("; ")
    );

    let (engine, ingest, verdicts) =
        StreamEngine::from_config(&config, validator).expect("stream configuration in range");
    println!(
        "engine up: {} replicas, queue capacity {}, {:?} backpressure\n",
        engine.replicas(),
        config.stream.queue_capacity,
        config.stream.backpressure
    );

    // Producer: a thread feeding batches as the queue admits them (the
    // `Block` policy makes it run at the validators' pace — lossless).
    let producer = std::thread::spawn(move || {
        for batch in feed(kind) {
            ingest
                .submit(batch)
                .expect("engine open while the producer runs");
        }
        // Last handle drops here: ingestion closes, the engine drains.
    });

    // Consumer: outcomes come back re-sequenced into submission order, so
    // the gate's audit log reads like the feed itself.
    let mut dirty = 0usize;
    for item in verdicts {
        if item
            .outcome
            .verdict()
            .is_some_and(|verdict| verdict.is_dirty)
        {
            dirty += 1;
        }
        println!("{item}");
        if item.seq + 1 == N_BATCHES as u64 / 2 {
            println!("  … live stats: {}\n", engine.stats());
        }
    }
    producer.join().expect("producer finishes");

    let stats = engine.shutdown();
    println!("\nfinal: {}", stats);
    assert_eq!(stats.emitted, N_BATCHES as u64, "nothing lost on the way");
    println!(
        "gate quarantined {dirty}/{N_BATCHES} batches at {:.0} rows/s end to end",
        stats.rows_per_sec
    );
}
