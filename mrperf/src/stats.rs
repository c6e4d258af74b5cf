//! Order statistics: medians, quartiles and the tail-percentile rule.

/// Percentiles a tail may be reported at, lowest first.
const LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of [`LADDER`] that leaves at least
/// [`TAIL_BEYOND`] of `n` samples beyond its nearest-rank position, or
/// `None` when `n` is too small for even the median.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .rev()
        .find(|&p| beyond(p, n) >= TAIL_BEYOND)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples of `n` that lie beyond percentile `p`.
pub fn beyond(p: f64, n: usize) -> usize {
    n.saturating_sub(rank(p, n))
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the "exclusive" method). Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    assert!(len >= 2, "quartiles need at least two values");
    let q = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(60), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        // 188 figure cells: p95 would leave only 9 beyond.
        assert_eq!(tail_percentile(188), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(54 * 188), Some(99.9));
        for n in [20, 60, 100, 188, 200, 999, 1_000, 10_152, 123_456] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(p, n) >= TAIL_BEYOND, "n={n} p={p}");
        }
        assert_eq!(beyond(90.0, 188), 18);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
