//! One training step (`train_batch`: forward, backward, Adam) on a
//! mini-batch of B ∈ {16, 64, 128} samples, on the default model (hidden 64,
//! four GAT+GIN layers, both decoders) at 12 and 18 features — the widths
//! of the CreditCard and NY Taxi feature graphs.
//!
//! Samples/s per width and batch size go to `BENCH_training.json` in the
//! workspace root. Each point is the median of timed steps on one network,
//! after one warm-up step. Under `DQUAG_BENCH_FAST=1` the bench takes a few
//! steps per point and only prints its report.

use dquag_bench::harness::{fast_mode, feature_graph, median, rows, write_bench_json};
use dquag_gnn::{DquagNetwork, ModelConfig};
use dquag_tensor::optim::Adam;
use std::time::Instant;

const BATCH_SIZES: [usize; 3] = [16, 64, 128];
const WIDTHS: [usize; 2] = [12, 18];

fn network(n_features: usize) -> DquagNetwork {
    DquagNetwork::new(&feature_graph(n_features), ModelConfig::default())
}

fn main() {
    let fast = fast_mode();
    let steps = if fast { 3 } else { 30 };
    let mut lines = Vec::new();
    for &n_features in &WIDTHS {
        for &batch_size in &BATCH_SIZES {
            let batch = rows(batch_size, n_features);
            let mut net = network(n_features);
            let mut adam = Adam::with_learning_rate(0.01);
            net.train_batch(&batch, &mut adam);
            let step_ms: Vec<f64> = (0..steps)
                .map(|_| {
                    let started = Instant::now();
                    net.train_batch(&batch, &mut adam);
                    started.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            let ms = median(&step_ms);
            let samples_per_s = batch_size as f64 / (ms / 1e3);
            println!(
                "training n={n_features} B={batch_size}: {ms:.2} ms/step, \
                 {samples_per_s:.0} samples/s"
            );
            lines.push(format!(
                "    {{\"n_features\": {n_features}, \"batch_size\": {batch_size}, \
                 \"step_ms\": {ms:.3}, \"samples_per_s\": {samples_per_s:.1}}}"
            ));
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"training\",\n  \"hidden_dim\": 64,\n  \"n_layers\": 4,\n  \
         \"encoder\": \"GAT+GIN\",\n  \"steps_per_point\": {steps},\n  \"fast_mode\": {fast},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        lines.join(",\n"),
    );
    write_bench_json("BENCH_training.json", &json);
}
