//! The benchmark's own arithmetic: medians, tail percentiles with the
//! ten-samples rule, and geometric means of ratios.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the value is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile with the sample counts that support it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The nearest-rank percentile value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Median of `values` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Nearest-rank percentile `q` (in `(0, 1)`) of `values`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie above its rank.
pub fn tail(values: &[f64], q: f64) -> Option<Tail> {
    assert!(q > 0.0 && q < 1.0, "percentile must lie in (0, 1)");
    let n = values.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Geometric mean of `after / before` over `(before, after)` pairs, each
/// count floored at 1 so a circuit optimized down to zero ANDs (or zero
/// depth) stays finite. This is the rule of the paper tables'
/// `xag_bench::normalized_geomean`; the benchmark does not link that
/// crate, because its library installs a counting global allocator that
/// would wrap every allocation of the program under test. The logs are
/// summed in sorted order, so the value does not depend on the order in
/// which answers arrived. Returns `None` for no pairs.
pub fn geomean_ratio(pairs: &[(usize, usize)]) -> Option<f64> {
    if pairs.is_empty() {
        return None;
    }
    let mut logs: Vec<f64> = pairs
        .iter()
        .map(|&(before, after)| (after.max(1) as f64 / before.max(1) as f64).ln())
        .collect();
    logs.sort_by(f64::total_cmp);
    Some((logs.iter().sum::<f64>() / pairs.len() as f64).exp())
}

/// Arithmetic mean, `0` for an empty slice (a layer that did no work).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_its_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = tail(&hundred, 0.9).expect("100 samples leave 10 beyond p90");
        assert_eq!(p90.value, 90.0);
        assert_eq!((p90.samples, p90.beyond), (100, 10));
        // 99 samples: rank ceil(89.1) = 90 leaves only 9 beyond.
        assert_eq!(tail(&hundred[..99], 0.9), None);
        // p99 needs a thousand samples.
        assert_eq!(tail(&hundred, 0.99), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand, 0.99).map(|t| t.value), Some(990.0));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut shuffled: Vec<f64> = (1..=120).map(f64::from).collect();
        shuffled.reverse();
        assert_eq!(tail(&shuffled, 0.9).map(|t| t.value), Some(108.0));
    }

    #[test]
    fn geomean_of_after_over_before() {
        // 8 -> 4 and 2 -> 2: geomean sqrt(1/2).
        let g = geomean_ratio(&[(8, 4), (2, 2)]).expect("two pairs");
        assert!((g - 0.5f64.sqrt()).abs() < 1e-12);
        // 3 -> 1 and 1 -> 7: 1/3 and 7, geomean sqrt(7/3).
        let g = geomean_ratio(&[(3, 1), (1, 7)]).expect("two pairs");
        assert!((g - (7.0f64 / 3.0).sqrt()).abs() < 1e-12);
        // A count of zero is floored at 1, so the mean stays finite.
        assert_eq!(geomean_ratio(&[(4, 0)]), Some(0.25));
        assert_eq!(geomean_ratio(&[(0, 0)]), Some(1.0));
        assert_eq!(geomean_ratio(&[]), None);
    }

    #[test]
    fn geomean_does_not_depend_on_pair_order() {
        let mut pairs: Vec<(usize, usize)> = (1..200).map(|i| (i * 7 + 3, i * 5 + 1)).collect();
        let forward = geomean_ratio(&pairs);
        pairs.reverse();
        assert_eq!(geomean_ratio(&pairs), forward);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
