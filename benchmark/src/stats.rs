//! Order statistics for timing samples.
//!
//! Every percentile the ledger reports is *nearest-rank*: the smallest
//! sample such that at least `pct` percent of the samples are less than
//! or equal to it. It is always one of the measured values, never an
//! interpolation, so a reported time is a time that happened.

/// 1-based nearest-rank index of the `pct`-th percentile among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    (((pct / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `sorted` (ascending). `0.0` for no samples.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[rank(n, pct) - 1],
    }
}

/// How many of `n` samples lie strictly beyond the `pct`-th percentile's
/// rank. A tail percentile is only quoted with confidence when at least
/// [`MIN_BEYOND`] samples lie beyond it (p90 needs `n >= 100`).
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct).min(n)
}

/// The "at least ten samples beyond it" rule for tail percentiles.
pub const MIN_BEYOND: usize = 10;

/// Sort a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of unsorted `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), which is what the driver's
/// steadiness check uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale, clamped to the data.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Geometric mean of positive ratios; `1.0` for an empty sequence.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Even count: the lower middle, still a measured value.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert!(samples_beyond(100, 90.0) >= MIN_BEYOND);
        assert!(samples_beyond(crate::run::MIN_SWEEPS, 90.0) >= MIN_BEYOND);
        assert!(samples_beyond(99, 90.0) < MIN_BEYOND);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(2, 90.0), 0);
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([4.0, 1.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }
}
