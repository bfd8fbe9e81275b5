//! Seeded split and pipelining suite for the listener's HTTP request
//! parser, the one parser of untrusted bytes in front of the batch
//! decoders. One kept-alive conversation — CSV and NDJSON ingests,
//! `GET /stats`, and a body that draws a `400` — is delivered three ways:
//! whole, one request per write; cut at seeded random byte offsets, each
//! piece its own `TCP_NODELAY` write; and pipelined in a single write.
//! Every delivery must draw the replies of whole delivery, and the verdicts
//! must equal direct submission, in seq order.

mod common;

use common::{get, ndjson, post, Client, Response};
use dquag_core::{DquagConfig, SourceConfig, StreamConfig};
use dquag_datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag_sources::{NetListenerSource, SourceRuntime};
use dquag_stream::{StreamEngine, StreamItem, StreamStats};
use dquag_tabular::{csv, DataFrame};
use dquag_validate::{build_spec, Validator, ValidatorSpec};
use rand::Rng;
use std::time::Duration;

const KIND: DatasetKind = DatasetKind::HotelBooking;
const SEEDS: u64 = 12;

fn fitted_validator() -> Box<dyn Validator> {
    let clean = KIND.generate_clean(400, 11);
    let mut validator =
        build_spec(&ValidatorSpec::backend("deequ-auto"), &DquagConfig::fast()).unwrap();
    validator.fit(&clean).expect("fitting succeeds");
    validator
}

/// Four batches, the odd ones corrupted.
fn feed() -> Vec<DataFrame> {
    (0..4u64)
        .map(|i| {
            let mut batch = KIND.generate_clean(30 + i as usize, 600 + i);
            if i % 2 == 1 {
                inject_ordinary(
                    &mut batch,
                    OrdinaryError::NumericAnomalies,
                    &KIND.default_ordinary_error_columns(),
                    0.4,
                    &mut dquag_datagen::rng(700 + i),
                );
            }
            batch
        })
        .collect()
}

/// The conversation, in order. The `400` request uses bare `\n` line ends;
/// the last request drops keep-alive, so the server closes after it.
fn conversation(feed: &[DataFrame]) -> Vec<String> {
    let garbage = "not,a,hotel,booking\n1,2,3,4\n";
    vec![
        post("text/csv", &csv::to_csv_string(&feed[0])),
        post("application/x-ndjson", &ndjson(&feed[1])),
        get("/stats"),
        format!(
            "POST /ingest HTTP/1.1\nConnection: keep-alive\nContent-Type: text/csv\nContent-Length: {}\n\n{garbage}",
            garbage.len()
        ),
        post("application/x-ndjson", &ndjson(&feed[2])),
        post("text/csv", &csv::to_csv_string(&feed[3])),
        get("/stats"),
        "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n".to_string(),
    ]
}

/// How the conversation's bytes reach the socket.
#[derive(Debug, Clone, Copy)]
enum Delivery {
    /// One write per request, each reply read before the next request.
    Whole,
    /// Cut at seeded random offsets, one write per piece.
    Cut(u64),
    /// Every request in one write.
    Pipelined,
}

/// Seeded cut points over `len` bytes: runs of 1–7-byte pieces, which land
/// inside tokens and line ends, between pieces of up to 2 KiB.
fn cuts(seed: u64, len: usize) -> Vec<usize> {
    let mut rng = dquag_datagen::rng(seed);
    let mut cuts = Vec::new();
    let mut at = 0;
    while at < len {
        let step = if rng.gen_bool(0.6) {
            rng.gen_range(1..8usize)
        } else {
            rng.gen_range(8..2048usize)
        };
        at = (at + step).min(len);
        cuts.push(at);
    }
    cuts
}

/// A reply as compared across deliveries. A stats document varies with
/// timing, so it is reduced to its submission count.
fn normalised(reply: Response) -> String {
    match serde_json::from_str::<StreamStats>(&reply.body) {
        Ok(stats) => {
            let head: Vec<&str> = reply
                .head
                .lines()
                .filter(|line| !line.starts_with("Content-Length:"))
                .collect();
            format!("{}\nsubmitted {}", head.join("\n"), stats.submitted)
        }
        Err(_) => format!("{}{}", reply.head, reply.body),
    }
}

/// Serve the conversation on a fresh engine and listener; returns the
/// normalised replies and the verdicts.
fn serve(requests: &[String], delivery: Delivery) -> (Vec<String>, Vec<StreamItem>) {
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 16,
            ..StreamConfig::default()
        })
        .start(fitted_validator())
        .expect("engine starts");
    let config = SourceConfig {
        poll_interval: Duration::from_millis(10),
        ..SourceConfig::default()
    };
    let source = NetListenerSource::from_config(&config, KIND.schema()).expect("loopback bind");
    let addr = source.local_addr();
    let runtime = SourceRuntime::builder()
        .config(&config)
        .source(Box::new(source))
        .start(ingest)
        .expect("runtime starts");

    let mut client = Client::connect(addr);
    let bytes = requests.concat().into_bytes();
    let replies: Vec<String> = match delivery {
        Delivery::Whole => requests
            .iter()
            .map(|request| normalised(client.exchange(request)))
            .collect(),
        Delivery::Cut(seed) => {
            let mut from = 0;
            for to in cuts(seed, bytes.len()) {
                client.send(&bytes[from..to]);
                from = to;
                // Let the server read this piece on its own.
                std::thread::sleep(Duration::from_millis(1));
            }
            requests
                .iter()
                .map(|_| normalised(client.response()))
                .collect()
        }
        Delivery::Pipelined => {
            client.send(&bytes);
            requests
                .iter()
                .map(|_| normalised(client.response()))
                .collect()
        }
    };
    assert_eq!(client.rest(), "", "{delivery:?}: the last reply closes");
    runtime.shutdown().expect("runtime drains");
    let items = verdicts.collect();
    engine.shutdown();
    (replies, items)
}

#[test]
fn split_and_pipelined_requests_draw_the_replies_of_whole_requests() {
    let feed = feed();

    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&StreamConfig {
            queue_capacity: 16,
            ..StreamConfig::default()
        })
        .start(fitted_validator())
        .expect("engine starts");
    for batch in &feed {
        assert!(ingest
            .submit(batch.clone())
            .expect("engine open")
            .is_enqueued());
    }
    drop(ingest);
    let direct: Vec<StreamItem> = verdicts.collect();
    engine.shutdown();

    let requests = conversation(&feed);
    let (whole, items) = serve(&requests, Delivery::Whole);
    let statuses: Vec<&str> = whole
        .iter()
        .map(|reply| reply.split(' ').nth(1).unwrap_or_default())
        .collect();
    assert_eq!(
        statuses,
        ["202", "202", "200", "400", "202", "202", "200", "200"]
    );
    assert!(whole[6].ends_with("submitted 4"), "{}", whole[6]);
    assert_direct(Delivery::Whole, &items, &direct);

    for delivery in (0..SEEDS).map(Delivery::Cut).chain([Delivery::Pipelined]) {
        let (replies, items) = serve(&requests, delivery);
        assert_eq!(replies, whole, "{delivery:?}");
        assert_direct(delivery, &items, &direct);
    }
}

/// Served verdicts equal direct submission's, in seq order.
fn assert_direct(delivery: Delivery, served: &[StreamItem], direct: &[StreamItem]) {
    let seqs: Vec<u64> = served.iter().map(|item| item.seq).collect();
    assert_eq!(seqs, [0, 1, 2, 3], "{delivery:?}: seq order");
    for (served, expected) in served.iter().zip(direct) {
        assert_eq!(served.n_rows, expected.n_rows, "{delivery:?}");
        assert_eq!(served.outcome, expected.outcome, "{delivery:?}");
    }
}
