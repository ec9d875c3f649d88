//! The benchmark's own statistics: percentiles, quartiles, drift windows
//! and span self time.

/// Samples a tail percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for an even count).
/// Returns `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`: the smallest
/// sample with at least `p`% of all samples at or below it. `NaN` when
/// empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let s = sorted(samples);
    if s.is_empty() {
        return f64::NAN;
    }
    s[rank(s.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n > 0` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`
/// samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest percentile in `ladder` that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, if any.
pub fn highest_supported(n: usize, ladder: &[f64]) -> Option<f64> {
    ladder
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= MIN_BEYOND)
        .max_by(f64::total_cmp)
}

/// Quartiles `(q1, q2, q3)` by the same rule as Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method).
/// Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(samples);
    let n = s.len() as i64;
    if n < 2 {
        return None;
    }
    // Cut i sits at 1-based position i·(n+1)/4; the bracketing pair is
    // clamped to the sample range, and the weight may then extrapolate.
    let q = |i: i64| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (s[j as usize - 1], s[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Drift over a series in time order: the median of the last `share` of
/// the samples divided by the median of the first `share`. Each window
/// holds at least `min_window` samples (and at least one), or the whole
/// series if it is shorter.
pub fn drift(series: &[f64], share: f64, min_window: usize) -> f64 {
    if series.is_empty() {
        return f64::NAN;
    }
    let w = ((series.len() as f64 * share).round() as usize)
        .max(min_window)
        .clamp(1, series.len());
    median(&series[series.len() - w..]) / median(&series[..w])
}

/// Position-wise minimum of equally long series that repeat the same
/// operations in the same order: each operation's best over the repeats.
pub fn best_of(runs: &[Vec<f64>]) -> Vec<f64> {
    let mut best = runs.first().cloned().unwrap_or_default();
    for run in runs.iter().skip(1) {
        assert_eq!(run.len(), best.len(), "repeats differ in length");
        for (b, &x) in best.iter_mut().zip(run) {
            *b = b.min(x);
        }
    }
    best
}

/// Self time of a span: its duration minus the part its direct children
/// cover, never below zero.
pub fn self_time(total: f64, children: &[f64]) -> f64 {
    (total - children.iter().sum::<f64>()).max(0.0)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 100 ticks: p90 leaves exactly 10 beyond it, p99 only 1.
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(highest_supported(100, &[50.0, 90.0, 99.0]), Some(90.0));
        // 99 samples: p90 sits at rank 90, leaving 9 — only p50 qualifies.
        assert_eq!(highest_supported(99, &[50.0, 90.0, 99.0]), Some(50.0));
        assert_eq!(highest_supported(1000, &[50.0, 90.0, 99.0]), Some(99.0));
        assert_eq!(highest_supported(15, &[50.0, 90.0, 99.0]), None);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of tiny samples.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn drift_compares_first_and_last_windows() {
        // 20 samples, 10% windows of 2: first {1, 1}, last {4, 6}.
        let mut series = vec![1.0; 18];
        series.extend([4.0, 6.0]);
        assert_eq!(drift(&series, 0.1, 0), 5.0);
        let flat = vec![2.0; 50];
        assert_eq!(drift(&flat, 0.1, 0), 1.0);
        // A window never shrinks below one sample.
        assert_eq!(drift(&[1.0, 3.0], 0.1, 0), 3.0);
        // Nor below `min_window`, where 10% would be 2: windows of 3,
        // {1, 1, 1} and {1, 4, 6}, then of 4, {1, 1, 1, 1} and {1, 1, 4, 6}.
        assert_eq!(drift(&series, 0.1, 3), 4.0);
        assert_eq!(drift(&series, 0.1, 4), 2.5);
    }

    #[test]
    fn best_of_takes_each_position_minimum() {
        let runs = vec![vec![3.0, 1.0, 5.0], vec![2.0, 4.0, 5.5], vec![9.0, 9.0, 4.0]];
        assert_eq!(best_of(&runs), vec![2.0, 1.0, 4.0]);
        assert_eq!(best_of(&runs[..1]), runs[0]);
        assert!(best_of(&[]).is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_time(10.0, &[3.0, 2.5]), 4.5);
        assert_eq!(self_time(10.0, &[]), 10.0);
        // Clock jitter never yields a negative self time.
        assert_eq!(self_time(1.0, &[1.5]), 0.0);
    }
}
