//! Order statistics used by every reported metric.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p`% of the samples at or below it. `p` is in `(0, 100]`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    sorted[rank(n, p).clamp(1, n) - 1]
}

/// Nearest rank of percentile `p` among `n` samples; the tolerance keeps
/// `99.9 * 10000 / 100` from rounding up past 9990.
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Median of unsorted samples (mean of the two middle ones for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles a tail latency may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// `min_beyond` of `n` samples strictly above its nearest rank, so the tail
/// is an observed value rather than the single worst sample. `None` when
/// even the 75th percentile is not supported.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(rank(n, p)) >= min_beyond)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond it.
        assert_eq!(tail_percentile(1000, 10), Some(99.0));
        assert_eq!(tail_percentile(10_000, 10), Some(99.9));
        assert_eq!(tail_percentile(100, 10), Some(90.0));
        assert_eq!(tail_percentile(40, 10), Some(75.0));
        assert_eq!(tail_percentile(39, 10), None);
    }
}
