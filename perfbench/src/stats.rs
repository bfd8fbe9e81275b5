//! Small order statistics and process probes shared by every workload.

/// Median of `values` (mean of the two middle values for even counts);
/// `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Smallest of `values`; `NaN` for an empty sample.
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Nearest-rank quantile of an ascending sample.
fn nearest_rank(sorted: &[f64], q: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// A latency quantile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The quantile value.
    pub value: f64,
    /// The quantile actually reported (may sit below the target, see
    /// [`tail`]).
    pub q: f64,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
    /// Sample size.
    pub n: usize,
}

/// Plain nearest-rank quantile `q` of `values`.
pub fn quantile(values: &[f64], q: f64) -> Quantile {
    if values.is_empty() {
        return Quantile {
            value: f64::NAN,
            q,
            beyond: 0,
            n: 0,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (value, beyond) = nearest_rank(&sorted, q);
    Quantile {
        value,
        q,
        beyond,
        n: sorted.len(),
    }
}

/// A tail quantile that always has at least `min_beyond` samples above it:
/// the `target` quantile when the sample is large enough (`n ≥
/// min_beyond / (1 − target)`), otherwise the highest quantile that still
/// leaves `min_beyond` samples beyond it. A p99 read off a few hundred
/// samples is one or two outliers, not a tail.
pub fn tail(values: &[f64], target: f64, min_beyond: usize) -> Quantile {
    let n = values.len();
    if n == 0 {
        return quantile(values, target);
    }
    let reachable = 1.0 - min_beyond as f64 / n as f64;
    let q = target.min(reachable).max(1.0 / n as f64);
    quantile(values, q)
}

/// The process's peak resident set size (`VmHWM`) in MiB, or `NaN` when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(minimum(&[3.0, 1.0, 2.0]), 1.0);
        assert!(minimum(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        let p99 = tail(&big, 0.99, 10);
        assert_eq!((p99.value, p99.q, p99.beyond), (1980.0, 0.99, 20));

        let small: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&small, 0.99, 10);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 190.0);
        assert!((t.q - 0.95).abs() < 1e-12);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
