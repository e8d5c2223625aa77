//! Order statistics for timings: medians, percentiles, and the rule for
//! which percentile a sample can support.

/// The percentile ladder latency tables are reported on.
pub const LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported as
/// supported by the data.
pub const MIN_BEYOND: f64 = 10.0;

/// The `p`-th percentile (0–100) by linear interpolation between the
/// closest ranks of the sorted sample; `0.0` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median (see [`percentile`]).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The arithmetic mean; `0.0` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The mean of each sample.
pub fn means(samples: &[Vec<f64>]) -> Vec<f64> {
    samples.iter().map(|s| mean(s)).collect()
}

/// The highest percentile of [`LADDER`] that has at least
/// [`MIN_BEYOND`] samples beyond it in a sample of `n`, or `None` when
/// not even the median does (fewer than 20 samples).
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9)
}

/// A one-line summary of a latency sample: median, the highest
/// supported percentile, and the sample count.
pub fn describe_ms(values: &[f64]) -> String {
    let n = values.len();
    match highest_supported(n) {
        Some(p) if p > 50.0 => format!(
            "p50 {:.2} ms, p{p} {:.2} ms (n={n}; p{p} is the highest percentile with >=10 samples beyond it)",
            median(values),
            percentile(values, p)
        ),
        _ => format!(
            "p50 {:.2} ms (n={n}; too few samples for a supported tail percentile)",
            median(values)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((percentile(&xs, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(means(&[vec![1.0, 3.0], vec![5.0]]), vec![2.0, 5.0]);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(39), Some(50.0));
        assert_eq!(highest_supported(40), Some(75.0));
        assert_eq!(highest_supported(99), Some(75.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(499), Some(95.0));
        assert_eq!(highest_supported(500), Some(98.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }
}
