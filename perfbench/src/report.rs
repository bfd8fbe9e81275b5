//! Metric names, units and the result line.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics, reported by untraced runs of every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("rows_per_s", "rows/s"),
    ("batch_latency_p50_ms", "ms"),
    ("batch_latency_p99_ms", "ms"),
    ("verdict_accuracy", "ratio"),
    ("fit_s", "s"),
    ("reload_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs of every workload. A layer
/// a workload does not run reports 0 with a sample count of 0.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("sources.ack_ms_p50", "ms"),
    ("sources.ack_ms_p99", "ms"),
    ("sources.decode_us_per_row", "us"),
    ("sources.error_replies", "count"),
    ("tabular.encode_us_per_row", "us"),
    ("gnn.forward_us_per_row", "us"),
    ("gnn.forward_passes_per_batch", "count"),
    ("gnn.train_rows_per_s", "rows/s"),
    ("graph.build_ms", "ms"),
    ("core.validate_us_per_row", "us"),
    ("core.self_us_per_row", "us"),
    ("core.fit_self_s", "s"),
    ("validate.busy_ms_p50", "ms"),
    ("validate.busy_ms_p99", "ms"),
    ("validate.verdict_us_per_batch", "us"),
    ("stream.queue_wait_ms_p50", "ms"),
    ("stream.queue_wait_ms_p99", "ms"),
    ("stream.emit_ms_p50", "ms"),
    ("stream.dropped", "count"),
    ("stream.deadline_exceeded", "count"),
    ("stream.quarantines", "count"),
    ("persist.save_ms", "ms"),
    ("persist.load_ms", "ms"),
    ("persist.model_bytes", "bytes"),
    ("failed_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The value.
    pub value: f64,
    /// Samples it summarises (0 = the layer did not run in this workload).
    pub count: u64,
    /// Optional human-readable qualifier (e.g. the quantile actually used).
    pub note: Option<String>,
}

/// A run's outcome.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every output checked out.
    pub correct: bool,
    /// Operations attempted (batches sent or judged).
    pub attempted: u64,
    /// Operations that failed, were refused, went unanswered or mismatched.
    pub failed: u64,
    /// Everything measured, by metric name.
    pub metrics: BTreeMap<String, Measured>,
    /// Correctness problems found, for the human-readable summary.
    pub problems: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn set(&mut self, name: &str, value: f64, count: u64) {
        self.metrics.insert(
            name.to_string(),
            Measured {
                value,
                count,
                note: None,
            },
        );
    }

    /// Record a metric with a qualifier.
    pub fn set_noted(&mut self, name: &str, value: f64, count: u64, note: String) {
        self.metrics.insert(
            name.to_string(),
            Measured {
                value,
                count,
                note: Some(note),
            },
        );
    }

    /// Record a correctness problem.
    pub fn problem(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// The metric set a run of the given mode prints.
    fn selected(traced: bool) -> &'static [(&'static str, &'static str)] {
        if traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Human-readable lines: one per printed metric (value, unit, sample
    /// count), then the accounting and any problems.
    pub fn summary(&self, traced: bool) -> Vec<String> {
        let mut lines: Vec<String> = Self::selected(traced)
            .iter()
            .map(|&(name, unit)| match self.metrics.get(name) {
                Some(m) => {
                    let mut line = format!("{name} {} {unit} (n={})", m.value, m.count);
                    if let Some(note) = &m.note {
                        let _ = write!(line, " [{note}]");
                    }
                    line
                }
                None => format!("{name} missing"),
            })
            .collect();
        lines.push(format!(
            "failed_share {} ratio ({} failed of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        ));
        lines.extend(self.problems.iter().map(|p| format!("problem: {p}")));
        lines
    }

    /// The machine-readable result line. A metric the mode requires but
    /// the run did not measure makes the run incorrect rather than
    /// silently absent.
    pub fn json_line(&self, traced: bool) -> String {
        let mut correct = self.correct;
        let mut body = String::new();
        for (i, &(name, unit)) in Self::selected(traced).iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(m) if m.value.is_finite() => m.value,
                _ => {
                    correct = false;
                    0.0
                }
            };
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A JSON number with every digit of the measurement.
fn json_number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_lists_every_metric_of_the_mode() {
        let mut report = Report {
            correct: true,
            attempted: 10,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            report.set(name, 1.25, 3);
        }
        let line = report.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!(
                    "\"{name}\": {{\"value\": 1.25, \"unit\": \"{unit}\"}}"
                )),
                "{line}"
            );
        }
        // Missing per-layer metrics turn the traced line incorrect.
        assert!(report.json_line(true).starts_with("{\"correct\": false"));
    }

    #[test]
    fn names_and_units_fit_the_result_format() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok_name(name) && ok_unit(unit), "{name} {unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
    }
}
