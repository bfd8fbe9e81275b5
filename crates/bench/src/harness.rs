//! Shared plumbing for the Criterion benches under `benches/`: fast-mode
//! detection, medians of timing samples, and the `BENCH_*.json` writer.

use std::path::Path;

/// True when `DQUAG_BENCH_FAST` is set: the bench runs its seconds-scale
/// smoke variant (CI), whose sample counts are too small for its gates.
pub fn fast_mode() -> bool {
    std::env::var_os("DQUAG_BENCH_FAST").is_some()
}

/// The median of `samples` (the upper middle one for an even count),
/// sorting them in place.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Publish a bench report named `file_name` (e.g. `BENCH_serving.json`).
///
/// A full run writes it to the workspace root, where the committed full-run
/// numbers live. A fast-mode run only prints it: smoke-scale numbers must
/// never replace the committed file.
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
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_the_middle_sample() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 3.0);
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
}
