//! Order statistics over op times, with the tail rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Fewest samples that must lie strictly above a reported tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of an ascending slice (always a sample).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// A tail percentile and the number of samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub beyond: usize,
}

/// The `q`-quantile of an ascending slice, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie above it.
pub fn tail(sorted: &[f64], q: f64) -> Option<Tail> {
    if sorted.is_empty() {
        return None;
    }
    let value = quantile(sorted, q);
    let beyond = sorted.len() - sorted.partition_point(|&x| x <= value);
    (beyond >= MIN_BEYOND).then_some(Tail { value, beyond })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = ramp(100);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(
            tail(&ramp(100), 0.9),
            Some(Tail {
                value: 90.0,
                beyond: 10
            })
        );
        // 99 samples put the p90 at rank 90, leaving only 9 above it.
        assert_eq!(tail(&ramp(99), 0.9), None);
        assert_eq!(tail(&ramp(50), 0.9), None);
        assert_eq!(tail(&[], 0.9), None);
    }

    #[test]
    fn ties_at_the_tail_do_not_count_as_beyond() {
        let mut v = vec![1.0; 95];
        v.extend(ramp(5).iter().map(|x| x + 1.0));
        // p90 is 1.0; only the five larger samples lie beyond it.
        assert_eq!(tail(&v, 0.9), None);
        let mut v = vec![1.0; 80];
        v.extend(vec![2.0; 20]);
        assert_eq!(tail(&v, 0.9).map(|t| t.beyond), None);
        v.extend(vec![3.0; 10]);
        assert_eq!(
            tail(&v, 0.9),
            Some(Tail {
                value: 2.0,
                beyond: 10
            })
        );
    }
}
