//! A deployable data-quality gate: the streaming engine behind real source
//! adapters.
//!
//! Where `streaming_gate` feeds the engine from an in-process producer,
//! this example runs the full serving edge from `dquag-sources`: an HTTP
//! listener on loopback receives CSV batches (a producer's stream on one
//! kept-alive connection, and one one-shot POST), a directory watcher
//! replays a CSV file drop, and the runtime checkpoints offsets +
//! statistics so a restart would resume where this process left off.
//!
//! ```bash
//! cargo run --release --example network_gate
//! ```

mod http_client;

use dquag::core::{CheckpointConfig, DquagConfig, SourceConfig, StreamConfig};
use dquag::datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag::gnn::ModelConfig;
use dquag::sources::{Checkpoint, DirWatcherSource, NetListenerSource, SourceRuntime};
use dquag::stream::StreamEngine;
use dquag::tabular::csv;
use dquag::tabular::DataFrame;
use dquag::validate::build_spec;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const N_STREAMED_BATCHES: usize = 6;

/// The simulated upstream feed: every third batch is corrupted.
fn feed(kind: DatasetKind, n: usize) -> Vec<DataFrame> {
    let columns = kind.default_ordinary_error_columns();
    (0..n)
        .map(|i| {
            let mut batch = kind.generate_clean(120, 300 + i as u64);
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
    let work_dir = std::env::temp_dir().join(format!("dquag_network_gate_{}", std::process::id()));
    let inbox = work_dir.join("inbox");
    let checkpoint_path = work_dir.join("dquag.ckpt.json");

    // A lighter-than-paper model keeps the example fast; the decision rules
    // are the paper's.
    let config = DquagConfig {
        model: ModelConfig {
            hidden_dim: 12,
            n_layers: 2,
            ..ModelConfig::default()
        },
        epochs: 8,
        stream: StreamConfig {
            replicas: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(1),
            ..StreamConfig::default()
        },
        source: SourceConfig {
            bind_addr: "127.0.0.1:0".to_string(),
            poll_interval: Duration::from_millis(25),
            checkpoint: CheckpointConfig {
                path: Some(checkpoint_path.clone()),
                interval: Duration::from_millis(500),
            },
            ..SourceConfig::default()
        },
        ..DquagConfig::default()
    }
    .validated()
    .expect("configuration in range");

    let mut validator = build_spec(&config.validator, &config).expect("DQuaG by default");
    let fit = validator.fit(&clean).expect("training succeeds");
    println!("fitted {} on {} rows", fit.validator, fit.n_rows);

    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&config.stream)
        .start(validator)
        .expect("stream configuration in range");

    // The serving edge: one HTTP listener + one directory watcher,
    // supervised by a checkpointing runtime.
    let listener =
        NetListenerSource::from_config(&config.source, kind.schema()).expect("loopback bind");
    let addr = listener.local_addr();
    let runtime = SourceRuntime::builder()
        .config(&config.source)
        .source(Box::new(listener))
        .source(Box::new(DirWatcherSource::new(&inbox, kind.schema())))
        .start(ingest)
        .expect("runtime starts");
    println!("listening on {addr}, watching {}\n", inbox.display());

    // Client 1: a producer posting CSV batches on one kept-alive
    // connection and asking for live stats at the end.
    let streamed_feed = feed(kind, N_STREAMED_BATCHES);
    let client = std::thread::spawn(move || {
        let mut conn = http_client::Connection::open(addr);
        for batch in &streamed_feed {
            let (status, reply) = conn.post_csv(batch);
            println!(
                "kept-alive client: sent {} rows -> {status} {reply}",
                batch.n_rows()
            );
        }
        let (status, stats) = conn.get("/stats");
        println!(
            "kept-alive client: live stats {status}, {} bytes of JSON",
            stats.len()
        );
    });

    // Client 2: one batch in a one-shot POST (`Connection: close`).
    let http_batch = feed(kind, 1).remove(0);
    let http = std::thread::spawn(move || {
        let body = csv::to_csv_string(&http_batch);
        let mut stream = TcpStream::connect(addr).expect("connect for HTTP");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .write_all(
                format!(
                    "POST /ingest HTTP/1.1\r\nHost: gate\r\nContent-Type: text/csv\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .expect("HTTP request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("HTTP response");
        let status = response.lines().next().unwrap_or("");
        println!("one-shot client: {status}");
    });

    // Client 3: a CSV file drop into the watched inbox.
    std::fs::create_dir_all(&inbox).expect("inbox exists");
    let drop_batch = feed(kind, 3).remove(2); // a corrupted one
    let tmp = inbox.join("drop_000.csv.writing");
    csv::write_csv(&drop_batch, &tmp).expect("write drop");
    std::fs::rename(&tmp, inbox.join("drop_000.csv")).expect("atomic drop");

    // Consumer: outcomes arrive re-sequenced; stop once every submitted
    // batch (streamed + one-shot + file drop) has been judged.
    let expected = N_STREAMED_BATCHES + 2;
    let mut dirty = 0usize;
    let mut seen = 0usize;
    for item in verdicts {
        if item
            .outcome
            .verdict()
            .is_some_and(|verdict| verdict.is_dirty)
        {
            dirty += 1;
        }
        println!("{item}");
        seen += 1;
        if seen == expected {
            break;
        }
    }
    client.join().expect("kept-alive client finishes");
    http.join().expect("one-shot client finishes");

    // Drain the serving edge; the final checkpoint is written on shutdown.
    let checkpoint = runtime.shutdown().expect("runtime drains");
    println!(
        "\ncheckpointed: offsets {:?} -> {}",
        checkpoint.offsets,
        checkpoint_path.display()
    );
    let reloaded = Checkpoint::load(&checkpoint_path).expect("checkpoint readable");
    assert_eq!(
        reloaded, checkpoint,
        "what we wrote is what a restart reads"
    );

    let stats = engine.shutdown();
    println!("final: {stats}");
    assert_eq!(stats.emitted, expected as u64, "nothing lost on the way");
    println!(
        "gate quarantined {dirty}/{expected} batches ({} on one kept-alive connection, \
         1 one-shot POST, 1 file drop)",
        N_STREAMED_BATCHES
    );

    std::fs::remove_dir_all(&work_dir).ok();
}
