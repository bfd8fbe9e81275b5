//! # dquag-bench
//!
//! Experiment harnesses that regenerate every table and figure of the paper's
//! evaluation (§4), plus shared plumbing for the Criterion micro-benchmarks.
//!
//! Each experiment lives in [`experiments`] and is exposed both as a library
//! function (returning structured rows, so the integration tests can assert
//! on the *shape* of the results) and as a binary that prints the same rows
//! the paper reports:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1` | Table 1 — accuracy/recall of synthetic-error detection (Hotel Booking, Credit Card) |
//! | `table2` | Table 2 — encoder-architecture comparison (difference in % flagged) |
//! | `table3` | Table 3 — accuracy vs validation sample size |
//! | `figure3` | Figure 3 — accuracy on datasets with real-world errors (Airbnb, Bicycle, App) |
//! | `figure4` | Figure 4 — validation time vs data size and dimensionality (NY Taxi) |
//! | `repair_eval` | §4.6 — error rate before/after repair |
//! | `ablations` | DESIGN.md ablations — feature graph, weighted loss, threshold |
//! | `reproduce_all` | all of the above, in sequence |
//!
//! Every binary accepts `--full` (or `DQUAG_SCALE=full`) to run at a scale
//! closer to the paper's; the default `quick` scale exercises the same code
//! paths in a few minutes on a laptop. `--smoke` shrinks everything further
//! and is what the harness tests use.
//!
//! Every method is named by its validator-registry key and evaluated from a
//! `ValidatorSpec` ([`methods`]); [`paper_specs`] lists the seven the paper
//! compares, in its table order. The Criterion benches share [`harness`]
//! for fast mode, medians and the `BENCH_*.json` writer.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod harness;
pub mod methods;
pub mod scale;

pub use methods::{
    evaluate_method, evaluate_method_streaming, fit_spec, paper_specs, MethodResult,
};
pub use scale::Scale;

/// Render a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_columns() {
        let table = render_table(
            &["Method", "Acc."],
            &[
                vec!["DQuaG".to_string(), "1.000".to_string()],
                vec!["Deequ auto".to_string(), "0.530".to_string()],
            ],
        );
        assert!(table.contains("Method"));
        assert!(table.contains("Deequ auto"));
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
    }
}
