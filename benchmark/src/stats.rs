//! Order statistics shared by every workload and by `compare`.
//!
//! Percentiles use the nearest-rank rule of the serve layer
//! (`src/service/server.rs`): the `q`-quantile of `n` sorted samples is
//! the sample at rank `ceil(q·n)`, clamped to `[1, n]`. Every reported
//! value is therefore an observed sample, never an interpolation.

/// Nearest-rank `q`-quantile of an ascending slice (`0.0` when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts a copy of `xs` ascending (NaN-free input assumed; NaNs sort last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `(q1, median, q3)` of `xs` by the nearest-rank rule.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    (
        percentile(&s, 0.25),
        percentile(&s, 0.50),
        percentile(&s, 0.75),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 5.0);
        assert_eq!(percentile(&xs, 0.99), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(percentile(&xs, 0.25), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_are_observed_samples() {
        // Unsorted input; even count picks the lower middle sample.
        let (q1, med, q3) = quartiles(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((q1, med, q3), (1.0, 2.0, 3.0));
        let (q1, med, q3) = quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]);
        assert_eq!((q1, med, q3), (3.0, 5.0, 7.0));
        assert_eq!(quartiles(&[2.5]), (2.5, 2.5, 2.5));
    }
}
