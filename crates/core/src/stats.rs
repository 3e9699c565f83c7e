//! Scalar statistics used by the compression algorithm and the metrics.
//!
//! The paper's Algorithm 1 repeatedly evaluates `μ + 3σ` of current sums and
//! the evaluation section reports 99th-percentile errors; these helpers keep
//! those definitions in one place.

/// Arithmetic mean. Returns 0 for an empty slice.
///
/// # Example
///
/// ```
/// assert_eq!(pdn_core::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation (the `σ` of Algorithm 1, which divides by
/// `N`, not `N − 1`). Returns 0 for an empty slice.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// The `μ + 3σ` statistic that Algorithm 1 preserves when compressing a
/// current sequence.
pub fn mu_plus_3_sigma(xs: &[f64]) -> f64 {
    mean(xs) + 3.0 * std_dev(xs)
}

/// `p`-th percentile (0 ≤ p ≤ 100) with linear interpolation between ranks,
/// matching `numpy.percentile`'s default behaviour so paper-style "99 % AE"
/// numbers are comparable.
///
/// # Panics
///
/// Panics if `xs` is empty or `p` is outside `[0, 100]`.
///
/// # Example
///
/// ```
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(pdn_core::stats::percentile(&xs, 50.0), 2.5);
/// assert_eq!(pdn_core::stats::percentile(&xs, 100.0), 4.0);
/// ```
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Indices that sort `xs` ascending — the `argsort` of Algorithm 1, line 7.
///
/// Ties keep their original relative order (stable sort) so the algorithm is
/// deterministic.
///
/// # Example
///
/// ```
/// assert_eq!(pdn_core::stats::argsort(&[3.0, 1.0, 2.0]), vec![1, 2, 0]);
/// ```
pub fn argsort(xs: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("NaN in argsort input"));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
        assert!((mu_plus_3_sigma(&xs) - 11.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 25.0), 20.0);
        assert_eq!(percentile(&xs, 50.0), 30.0);
        assert_eq!(percentile(&xs, 99.0), 49.6);
        assert_eq!(percentile(&xs, 100.0), 50.0);
    }

    #[test]
    #[should_panic(expected = "percentile of empty slice")]
    fn percentile_empty_panics() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    fn argsort_is_stable() {
        let xs = [2.0, 1.0, 2.0, 0.0];
        assert_eq!(argsort(&xs), vec![3, 1, 0, 2]);
    }
}
