//! The correctness oracle: every verdict the deployment emits must equal
//! the one `Validator::validate` gives directly on the same generated
//! frame, arrive exactly once and in seq order, and the telemetry must
//! account for every row sent.

use dquag_core::CellFlag;
use dquag_validate::{Validator, Verdict};

/// The parts of a verdict that must match bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictKey {
    /// Dataset-level dirty flag.
    pub is_dirty: bool,
    /// Anomaly score (DQuaG: the flagged-instance rate).
    pub score: f64,
    /// Flagged instance indices.
    pub flagged: Vec<usize>,
    /// Flagged cells with their errors.
    pub cells: Vec<CellFlag>,
}

impl VerdictKey {
    /// Extract the compared fields, consuming the verdict's detail vectors.
    pub fn from_verdict(verdict: Verdict) -> Self {
        Self {
            is_dirty: verdict.is_dirty,
            score: verdict.score,
            flagged: verdict.flagged_instances.unwrap_or_default(),
            cells: verdict.cell_flags.unwrap_or_default(),
        }
    }
}

/// Direct verdicts, one per distinct frame, from a validator that never
/// served traffic.
pub fn direct_verdicts(
    validator: &dyn Validator,
    frames: &[crate::frames::Frame],
) -> Result<Vec<VerdictKey>, String> {
    frames
        .iter()
        .map(|frame| {
            validator
                .validate(&frame.data)
                .map(VerdictKey::from_verdict)
                .map_err(|e| format!("direct validation failed: {e}"))
        })
        .collect()
}

/// How many `(frame, served verdict)` pairs differ from the direct verdict
/// of their frame.
pub fn count_mismatches<'a>(
    served: impl IntoIterator<Item = (usize, &'a VerdictKey)>,
    direct: &[VerdictKey],
) -> usize {
    served
        .into_iter()
        .filter(|(frame, key)| direct.get(*frame) != Some(*key))
        .count()
}

/// Check that the emitted seqs are exactly `0..n` in ascending order and
/// that every acknowledged seq is among them exactly once.
pub fn exactly_once_in_order(emitted: &[u64], acked: &[u64]) -> Result<(), String> {
    if let Some(position) = emitted
        .iter()
        .enumerate()
        .position(|(i, &seq)| seq != i as u64)
    {
        return Err(format!(
            "verdict #{position} carried seq {} (expected {position}): duplicate, gap or reordering",
            emitted[position]
        ));
    }
    let mut sorted = acked.to_vec();
    sorted.sort_unstable();
    if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(format!("seq {} was acknowledged twice", pair[0]));
    }
    if let Some(seq) = sorted.iter().find(|&&seq| seq >= emitted.len() as u64) {
        return Err(format!("acknowledged seq {seq} never got a verdict"));
    }
    if sorted.len() != emitted.len() {
        return Err(format!(
            "{} verdicts emitted for {} acknowledged batches",
            emitted.len(),
            sorted.len()
        ));
    }
    Ok(())
}

/// Read one counter's value out of a Prometheus text exposition.
pub fn prometheus_counter(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (metric, value) = line.split_once(char::is_whitespace)?;
            (metric == name).then(|| value.trim().parse().ok())?
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(is_dirty: bool, score: f64) -> VerdictKey {
        VerdictKey {
            is_dirty,
            score,
            flagged: vec![1, 4],
            cells: vec![CellFlag {
                row: 1,
                column: 2,
                error: 0.5,
            }],
        }
    }

    #[test]
    fn any_field_difference_is_a_mismatch() {
        let direct = vec![key(false, 0.0), key(true, 0.25)];
        let same = direct.clone();
        let served: Vec<(usize, &VerdictKey)> = vec![(0, &same[0]), (1, &same[1]), (0, &same[0])];
        assert_eq!(count_mismatches(served, &direct), 0);

        let mut cell = key(true, 0.25);
        cell.cells[0].error = 0.500_001;
        let mut flagged = key(true, 0.25);
        flagged.flagged.push(9);
        let tampered = [key(true, 0.0), key(true, 0.250_000_1), cell, flagged];
        for bad in &tampered {
            assert_eq!(count_mismatches([(1, bad)], &direct), 1, "{bad:?}");
        }
        assert_eq!(count_mismatches([(5, &same[0])], &direct), 1);
    }

    #[test]
    fn order_and_exactly_once() {
        assert!(exactly_once_in_order(&[0, 1, 2], &[2, 0, 1]).is_ok());
        assert!(exactly_once_in_order(&[0, 2, 1], &[0, 1, 2]).is_err());
        assert!(exactly_once_in_order(&[0, 1, 1], &[0, 1]).is_err());
        assert!(exactly_once_in_order(&[0, 1], &[0, 1, 1]).is_err());
        assert!(exactly_once_in_order(&[0, 1], &[0, 1, 2]).is_err());
        assert!(exactly_once_in_order(&[0, 1, 2], &[0, 1]).is_err());
    }

    #[test]
    fn counters_parse_from_exposition_text() {
        let text = "# HELP dquag_gnn_rows_scored_total rows\n\
                    # TYPE dquag_gnn_rows_scored_total counter\n\
                    dquag_gnn_rows_scored_total 4096\n\
                    dquag_gnn_forward_passes_total 12\n";
        assert_eq!(
            prometheus_counter(text, "dquag_gnn_rows_scored_total"),
            Some(4096.0)
        );
        assert_eq!(
            prometheus_counter(text, "dquag_gnn_forward_passes_total"),
            Some(12.0)
        );
        assert_eq!(prometheus_counter(text, "missing_total"), None);
    }
}
