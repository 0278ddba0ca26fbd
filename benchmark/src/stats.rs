//! Order statistics over small samples of timings.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty sample so a report can still be rendered.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile (0–100) by linear interpolation between the
/// closest ranks; 0 for an empty sample.
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

/// Smallest value; 0 for an empty sample.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Largest value; 0 for an empty sample.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// Spread of the set medians `(max − min) / min`: the "relative gap" the
/// repeatability check compares against a metric's bound.
pub fn relative_gap(values: &[f64]) -> f64 {
    let (lo, hi) = (min(values), max(values));
    if hi <= 0.0 {
        return 0.0;
    }
    // A set with no finished rep reports 0: that is an unbounded gap.
    if lo <= 0.0 {
        return f64::INFINITY;
    }
    (hi - lo) / lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert_eq!(percentile(&[10.0, 20.0], 25.0), 12.5);
    }

    #[test]
    fn gap_is_relative_to_the_smaller_median() {
        assert_eq!(relative_gap(&[2.0, 2.2]), (2.2 - 2.0) / 2.0);
        assert_eq!(relative_gap(&[5.0]), 0.0);
        assert_eq!(relative_gap(&[]), 0.0);
        assert_eq!(relative_gap(&[3.0, 0.0]), f64::INFINITY);
    }
}
