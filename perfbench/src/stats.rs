//! Smoothed percentiles that carry their sample count, and medians.

use std::time::Instant;

/// A percentile reading may only be reported when at least this many
/// samples lie beyond it.
pub const MIN_BEYOND: u64 = 10;

/// A percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile's value.
    pub value: f64,
    /// Total samples (sum of weights).
    pub n: u64,
    /// Samples ranked after the percentile's position.
    pub beyond: u64,
}

/// Percentile `q` (in `0..1`) of weighted samples `(value, weight)`.
/// Refuses when fewer than [`MIN_BEYOND`] samples lie beyond its nearest
/// rank, so a p99 needs at least 1,000 samples.
///
/// The value is smoothed, in the manner of the Harrell–Davis estimator: a
/// weighted mean of the sorted samples, each weighted by the mass a kernel
/// centred on `q` puts on the share of the ranks it covers. The kernel is
/// a normal with the sampling spread of a quantile's rank, `sqrt(q(1 − q)
/// / (m + 2))`, `m` being the number of distinct timed samples (entries of
/// `samples`; the operations of one call share one timing). A nearest-rank
/// reading where the samples are sparse, such as the gap between two
/// modes, jumps whenever one sample crosses it; the smoothed one moves by
/// that sample's share.
pub fn percentile(samples: &mut [(f64, u64)], q: f64) -> Result<Pct, String> {
    assert!((0.0..1.0).contains(&q), "percentile {q} outside 0..1");
    let n: u64 = samples.iter().map(|&(_, w)| w).sum();
    // Nearest rank, 1-based: the smallest rank whose share reaches q.
    let rank = ((q * n as f64).ceil() as u64).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it, {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    samples.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let sd = (q * (1.0 - q) / (samples.len() as f64 + 2.0)).sqrt();
    let mass_below = |share: f64| normal_cdf((share - q) / sd);
    let mut seen = 0u64;
    let mut below = mass_below(0.0);
    let (mut value, mut mass) = (0.0, 0.0);
    for &(v, w) in samples.iter() {
        seen += w;
        let upto = mass_below(seen as f64 / n as f64);
        value += v * (upto - below);
        mass += upto - below;
        below = upto;
    }
    Ok(Pct {
        value: value / mass,
        n,
        beyond,
    })
}

/// Standard normal CDF, from Abramowitz and Stegun's erf approximation
/// 7.1.26 (absolute error below 1.5e-7).
fn normal_cdf(z: f64) -> f64 {
    let x = z.abs() / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-x * x).exp();
    if z >= 0.0 {
        0.5 * (1.0 + erf)
    } else {
        0.5 * (1.0 - erf)
    }
}

/// Unweighted [`percentile`].
#[cfg(test)]
pub fn percentile_of(values: &[f64], q: f64) -> Result<Pct, String> {
    let mut weighted: Vec<(f64, u64)> = values.iter().map(|&v| (v, 1)).collect();
    percentile(&mut weighted, q)
}

/// Wall seconds from `a` to `b`.
pub fn secs(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64()
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean of `values`.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count() {
        let values: Vec<f64> = (1..=2000).map(f64::from).collect();
        let p50 = percentile_of(&values, 0.50).unwrap();
        assert_eq!((p50.n, p50.beyond), (2000, 1000));
        assert!((p50.value - 1000.5).abs() < 0.01, "{}", p50.value);
        let p99 = percentile_of(&values, 0.99).unwrap();
        assert_eq!((p99.n, p99.beyond), (2000, 20));
        assert!((p99.value - 1980.5).abs() < 0.5, "{}", p99.value);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let ok: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile_of(&ok, 0.99).unwrap().beyond, 10);
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile_of(&short, 0.99).is_err());
        assert!(percentile_of(&[], 0.5).is_err());
    }

    #[test]
    fn weights_count_as_samples() {
        let mut w = vec![(5.0, 990), (1.0, 5), (9.0, 15)];
        let p = percentile(&mut w, 0.99).unwrap();
        assert_eq!((p.n, p.beyond), (1010, 10));
        assert!(p.value > 5.0 && p.value < 9.0, "{}", p.value);
        let p = percentile(&mut w, 0.5).unwrap();
        assert!((p.value - 5.0).abs() < 0.05, "{}", p.value);
        assert!((percentile_of(&[7.0; 50], 0.5).unwrap().value - 7.0).abs() < 1e-9);
    }

    #[test]
    fn a_sample_crossing_a_gap_moves_the_reading_by_its_share() {
        let split = |low: usize| -> f64 {
            let values: Vec<f64> = (0..1000).map(|i| if i < low { 1.0 } else { 2.0 }).collect();
            percentile_of(&values, 0.5).unwrap().value
        };
        assert!((split(500) - 1.5).abs() < 0.01, "{}", split(500));
        assert!((split(500) - split(499)).abs() < 0.05);
        assert!(split(499) > split(500));
    }

    #[test]
    fn normal_cdf_matches_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.959_964) - 0.975).abs() < 1e-6);
        assert!((normal_cdf(-1.0) - 0.158_655_25).abs() < 1e-6);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
