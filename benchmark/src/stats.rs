//! The one percentile implementation the benchmark uses.

/// Nearest-rank percentile of `sorted` (ascending), `p` in 0..=100; 0 for
/// an empty sample, so that a round whose ops all failed still reports.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[rank(n, p).clamp(1, n) - 1],
    }
}

/// `ceil(p% of n)`, proof against the last-bit error of `p / 100 * n`.
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail percentiles a report may quote, lowest first.
const TAILS: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The highest of [`TAILS`] that still has at least ten samples beyond it
/// in a sample of `n` — quoting a higher one would report noise.
pub fn top_percentile(n: usize) -> f64 {
    let beyond = |p: f64| n - rank(n, p).min(n);
    TAILS
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(p) >= 10)
        .unwrap_or(TAILS[0])
}

/// Distance between the quartiles as a share of the median — the spread
/// the driver holds against a metric's bound. Needs at least two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    // The inclusive-free ("exclusive") method of Python's
    // statistics.quantiles(values, n=4).
    let s = sorted(values.to_vec());
    let n = s.len();
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    (q(3) - q(1)) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn top_percentile_keeps_ten_samples_beyond() {
        // n → expected: p90 needs n ≥ 100, p95 n ≥ 200, p99 n ≥ 1000.
        assert_eq!(top_percentile(19), 50.0);
        assert_eq!(top_percentile(36), 50.0);
        assert_eq!(top_percentile(99), 50.0);
        assert_eq!(top_percentile(100), 90.0);
        assert_eq!(top_percentile(199), 90.0);
        assert_eq!(top_percentile(200), 95.0);
        assert_eq!(top_percentile(1_000), 99.0);
        assert_eq!(top_percentile(6_000), 99.0);
        assert_eq!(top_percentile(10_000), 99.9);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
