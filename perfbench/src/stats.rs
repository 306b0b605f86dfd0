//! Order statistics over raw samples.
//!
//! Percentiles here are nearest-rank order statistics: the reported value
//! is always one of the samples. The fixed-bucket interpolation in
//! `adec_loadgen::stats` quantizes to its bucket edges, which hides small
//! shifts, so the benchmark never uses it for a gated number.

/// The nearest-rank order statistic for quantile `q` in `(0, 1]`: the
/// smallest sample such that at least a share `q` of all samples is at
/// or below it. `None` for an empty sample set.
pub fn order_stat(samples: &[f64], q: f64) -> Option<f64> {
    assert!(
        q > 0.0 && q <= 1.0,
        "order_stat: quantile {q} outside (0, 1]"
    );
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // rank = ceil(q * n), 1-based; the epsilon keeps 0.99 * 100 at 99.
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    sorted.get(rank.min(n).checked_sub(1)?).copied()
}

/// The median: the middle sample, or the mean of the two middle samples
/// for an even count. `None` for an empty sample set.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let hi = *sorted.get(n / 2)?;
    if n % 2 == 1 {
        Some(hi)
    } else {
        Some((sorted.get(n / 2 - 1)? + hi) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_hand_computed_samples() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(order_stat(&s, 0.5), Some(3.0));
        assert_eq!(order_stat(&s, 0.2), Some(1.0));
        assert_eq!(order_stat(&s, 0.21), Some(2.0));
        assert_eq!(order_stat(&s, 1.0), Some(5.0));
        assert_eq!(order_stat(&[], 0.5), None);
    }

    #[test]
    fn ties_return_the_tied_value() {
        let s = [2.0, 7.0, 2.0, 2.0, 9.0, 7.0];
        // sorted: 2 2 2 7 7 9
        assert_eq!(order_stat(&s, 0.5), Some(2.0));
        assert_eq!(order_stat(&s, 0.51), Some(7.0));
        assert_eq!(order_stat(&s, 0.99), Some(9.0));
        assert_eq!(median(&s), Some(4.5));
    }

    #[test]
    fn p99_below_one_hundred_samples_is_the_maximum() {
        let s: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(order_stat(&s, 0.99), Some(40.0));
        assert_eq!(order_stat(&s, 0.5), Some(20.0));
        let one = [3.5];
        assert_eq!(order_stat(&one, 0.01), Some(3.5));
        assert_eq!(order_stat(&one, 0.99), Some(3.5));
    }

    #[test]
    fn p99_at_exactly_one_hundred_and_above() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(order_stat(&s, 0.99), Some(99.0));
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(order_stat(&s, 0.99), Some(990.0));
        assert_eq!(order_stat(&s, 0.5), Some(500.0));
    }

    #[test]
    fn failures_as_infinity_sort_last() {
        let s = [1.0, f64::INFINITY, 2.0, 3.0];
        assert_eq!(order_stat(&s, 0.75), Some(3.0));
        assert_eq!(order_stat(&s, 0.99), Some(f64::INFINITY));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
