//! Order statistics over samples: median, nearest-rank tail percentiles
//! that refuse to report a tail too thin to trust, quartiles, and the
//! geometric mean used to average per-program ratios.

/// The median: the middle sample, or the mean of the two middle samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `percent`-th percentile: the smallest sample with at
/// least `percent` % of the samples at or below it. Fails when fewer than
/// `min_beyond` samples lie above that rank, since such a percentile is
/// set by a handful of outliers.
pub fn tail_percentile(values: &[f64], percent: usize, min_beyond: usize) -> Result<f64, String> {
    assert!(percent <= 100, "percentile {percent} out of range");
    let v = sorted(values);
    let n = v.len();
    let rank = (percent * n).div_ceil(100).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < min_beyond {
        return Err(format!(
            "p{percent} of {n} samples has {beyond} samples beyond it; {min_beyond} are needed"
        ));
    }
    Ok(v[rank - 1])
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default `exclusive`
/// method), so the spreads printed here match the ones a Python script
/// computes from the same values.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// The geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99, 10), Ok(1980.0));
        assert_eq!(tail_percentile(&v, 50, 10), Ok(1000.0));
        assert_eq!(tail_percentile(&v, 100, 0), Ok(2000.0));
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(tail_percentile(&rev, 99, 10), Ok(1980.0));
    }

    #[test]
    fn tail_percentile_refuses_a_thin_tail() {
        // p99 of 1000 samples leaves exactly 10 beyond it: accepted.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99, 10), Ok(990.0));
        // One sample fewer leaves only 9 beyond: refused.
        let err = tail_percentile(&v[..999], 99, 10).unwrap_err();
        assert!(err.contains("9 samples beyond"), "{err}");
        assert!(tail_percentile(&[], 99, 0).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: Python
        // extrapolates past the ends of very small samples.
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
    }
}
