//! Shared plumbing for the benches under `benches/`: fast-mode detection,
//! interleaved timing rounds, medians, the fixtures several benches share,
//! and the `BENCH_*.json` writer.

use dquag_core::DquagConfig;
use dquag_gnn::ModelConfig;
use dquag_graph::FeatureGraph;
use std::path::Path;

/// True when `DQUAG_BENCH_FAST` is set: the bench runs its seconds-scale
/// smoke variant (CI), whose sample counts are too small for its gates.
pub fn fast_mode() -> bool {
    std::env::var_os("DQUAG_BENCH_FAST").is_some()
}

/// Time `K` arms against each other: run each arm once per round for
/// `rounds` rounds, and return each arm's samples in arm order.
///
/// Round `r` starts at arm `r mod K` and goes on in arm order. Under a
/// monotonic machine slowdown (thermal throttling, a co-tenant waking up) a
/// fixed order charges the drift to the later arms; rotating spreads it
/// over all of them. Sample `r` of every arm comes from the same round, so
/// zipping two arms' samples gives per-round ratios.
pub fn interleave<const K: usize>(
    rounds: usize,
    arms: [&mut dyn FnMut() -> f64; K],
) -> [Vec<f64>; K] {
    let mut samples: [Vec<f64>; K] = std::array::from_fn(|_| Vec::with_capacity(rounds));
    for round in 0..rounds {
        for step in 0..K {
            let arm = (round + step) % K;
            samples[arm].push(arms[arm]());
        }
    }
    samples
}

/// The median of `samples` (the upper middle one for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    sorted[sorted.len() / 2]
}

/// The median of the per-round ratios `num[r] / den[r]`.
pub fn median_ratio(num: &[f64], den: &[f64]) -> f64 {
    let ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d.max(1e-9)).collect();
    median(&ratios)
}

/// The small DQuaG fit the streaming overhead benches serve: six epochs of
/// a 24-wide, four-layer network.
pub fn quick_config() -> DquagConfig {
    DquagConfig {
        epochs: 6,
        batch_size: 64,
        model: ModelConfig {
            hidden_dim: 24,
            n_layers: 4,
            ..ModelConfig::default()
        },
        ..DquagConfig::default()
    }
}

/// A synthetic `n`-feature graph: every feature linked to the next one and
/// to the one three further on (cyclically).
pub fn feature_graph(n: usize) -> FeatureGraph {
    let names: Vec<String> = (0..n).map(|i| format!("f{i}")).collect();
    let mut graph = FeatureGraph::new(names);
    for i in 0..n {
        graph.add_edge(i, (i + 1) % n).unwrap();
        graph.add_edge(i, (i + 3) % n).unwrap();
    }
    graph
}

/// `n` deterministic encoded rows of `n_features` values in `[0, 1)`.
pub fn rows(n: usize, n_features: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..n_features)
                .map(|f| ((i * 31 + f * 7) % 97) as f32 / 97.0)
                .collect()
        })
        .collect()
}

/// Publish a bench report named `file_name` (e.g. `BENCH_serving.json`).
///
/// A full run writes it to the workspace root, where the committed full-run
/// numbers live, so call it only after every gate of the run has passed. A
/// fast-mode run only prints it: smoke-scale numbers must never replace the
/// committed file.
pub fn write_bench_json(file_name: &str, json: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    write_report(&root, file_name, json, fast_mode());
}

fn write_report(root: &Path, file_name: &str, json: &str, fast: bool) {
    let path = root.join(file_name);
    if fast {
        println!("{json}");
        println!("fast mode: left {} untouched", path.display());
        return;
    }
    if let Err(e) = std::fs::write(&path, json) {
        panic!("could not write {}: {e}", path.display());
    }
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn median_picks_the_middle_sample() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn median_ratio_pairs_samples_by_round() {
        assert_eq!(median_ratio(&[2.0, 9.0, 3.0], &[1.0, 3.0, 3.0]), 2.0);
    }

    #[test]
    fn interleave_rotates_the_first_arm_each_round() {
        let log = RefCell::new(Vec::new());
        let arm = |k: usize| {
            let log = &log;
            move || {
                log.borrow_mut().push(k);
                k as f64
            }
        };
        let (mut a, mut b, mut c) = (arm(0), arm(1), arm(2));
        let samples = interleave(3, [&mut a, &mut b, &mut c]);
        assert_eq!(log.into_inner(), [0, 1, 2, 1, 2, 0, 2, 0, 1]);
        for (k, arm_samples) in samples.iter().enumerate() {
            assert_eq!(arm_samples, &[k as f64; 3]);
        }
    }

    #[test]
    fn fast_runs_leave_the_committed_file_alone() {
        let root = std::env::temp_dir().join(format!("dquag-bench-report-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let file = root.join("BENCH_test.json");
        std::fs::write(&file, "committed").unwrap();

        write_report(&root, "BENCH_test.json", "{\"smoke\": true}", true);
        assert_eq!(std::fs::read_to_string(&file).unwrap(), "committed");

        write_report(&root, "BENCH_test.json", "{\"full\": true}", false);
        assert_eq!(std::fs::read_to_string(&file).unwrap(), "{\"full\": true}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    #[should_panic(expected = "could not write")]
    fn a_full_run_that_cannot_write_its_report_panics() {
        let missing = std::env::temp_dir().join(format!(
            "dquag-bench-missing-{}/no-such-dir",
            std::process::id()
        ));
        write_report(&missing, "BENCH_test.json", "{}", false);
    }
}
