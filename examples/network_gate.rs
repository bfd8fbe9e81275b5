//! A deployable data-quality gate: the streaming engine behind real source
//! adapters.
//!
//! Where `streaming_gate` feeds the engine from an in-process producer,
//! this example runs the full serving edge from `dquag-sources`: a TCP
//! listener on loopback receives framed CSV batches (one of them over
//! HTTP), a directory watcher replays a CSV file drop, and the runtime
//! checkpoints offsets + statistics so a restart would resume where this
//! process left off.
//!
//! ```bash
//! cargo run --release --example network_gate
//! ```

use dquag::core::DquagConfig;
use dquag::datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag::sources::{Checkpoint, DirWatcherSource, NetListenerSource, SourceRuntime};
use dquag::stream::StreamEngine;
use dquag::tabular::csv;
use dquag::tabular::DataFrame;
use dquag::validate::build_spec;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const N_TCP_BATCHES: usize = 6;

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
    let config = DquagConfig::builder()
        .epochs(8)
        .hidden_dim(12)
        .n_layers(2)
        .stream_replicas(
            std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(1),
        )
        .source_bind_addr("127.0.0.1:0")
        .source_poll_interval(Duration::from_millis(25))
        .checkpoint_path(&checkpoint_path)
        .checkpoint_interval(Duration::from_millis(500))
        .build()
        .expect("configuration in range");

    let mut validator = build_spec(&config.validator, &config).expect("DQuaG by default");
    let fit = validator.fit(&clean).expect("training succeeds");
    println!("fitted {} on {} rows", fit.validator, fit.n_rows);

    let (engine, ingest, verdicts) =
        StreamEngine::from_config(&config, validator).expect("stream configuration in range");

    // The serving edge: one TCP/HTTP listener + one directory watcher,
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

    // Client 1: a TCP producer sending framed CSV batches and asking for
    // live stats at the end.
    let tcp_feed = feed(kind, N_TCP_BATCHES);
    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect to the gate");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut reply = String::new();
        for batch in &tcp_feed {
            let payload = csv::to_csv_string(batch);
            stream
                .write_all(format!("BATCH csv {}\n", payload.len()).as_bytes())
                .expect("frame header");
            stream.write_all(payload.as_bytes()).expect("frame payload");
            reply.clear();
            reader.read_line(&mut reply).expect("reply");
            println!(
                "tcp client: sent {} rows -> {}",
                batch.n_rows(),
                reply.trim()
            );
        }
        stream.write_all(b"STATS\n").expect("stats request");
        reply.clear();
        reader.read_line(&mut reply).expect("stats reply");
        println!(
            "tcp client: live stats reply, {} bytes of JSON",
            reply.trim().len()
        );
        stream.write_all(b"QUIT\n").expect("quit");
    });

    // Client 2: one batch over HTTP.
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
        println!("http client: {status}");
    });

    // Client 3: a CSV file drop into the watched inbox.
    std::fs::create_dir_all(&inbox).expect("inbox exists");
    let drop_batch = feed(kind, 3).remove(2); // a corrupted one
    let tmp = inbox.join("drop_000.csv.writing");
    csv::write_csv(&drop_batch, &tmp).expect("write drop");
    std::fs::rename(&tmp, inbox.join("drop_000.csv")).expect("atomic drop");

    // Consumer: outcomes arrive re-sequenced; stop once every submitted
    // batch (TCP + HTTP + file drop) has been judged.
    let expected = N_TCP_BATCHES + 2;
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
    client.join().expect("tcp client finishes");
    http.join().expect("http client finishes");

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
        "gate quarantined {dirty}/{expected} batches ({} over TCP, 1 over HTTP, 1 file drop)",
        N_TCP_BATCHES
    );

    std::fs::remove_dir_all(&work_dir).ok();
}
