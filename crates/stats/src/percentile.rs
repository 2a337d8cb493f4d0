//! Exact percentile computation over sample sets.
//!
//! The evaluation harness measures tail latency (95th percentile by default,
//! paper Sec. 5.1) over complete runs and over rolling windows. These helpers
//! compute exact empirical percentiles with the "nearest-rank, ceiling"
//! convention, which never reports a value smaller than the true percentile.

/// Returns the `q`-quantile (`0 <= q <= 1`) of `samples`.
///
/// The input does not need to be sorted: the nearest-rank order statistic
/// is selected in a copy, in expected linear time. Returns `None` for an
/// empty slice. Values that compare equal under [`f64::partial_cmp`] (only
/// `-0.0` and `0.0`) are interchangeable, so when both are present the
/// result may carry either sign.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`, or if there are two or more samples
/// and any of them is NaN.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let rank = nearest_rank(samples.len(), q);
    let mut values = samples.to_vec();
    let (_, value, _) = values.select_nth_unstable_by(rank, |a, b| {
        a.partial_cmp(b).expect("samples must not contain NaN")
    });
    Some(*value)
}

/// Returns the `q`-quantile of an already-sorted, non-empty slice.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn percentile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(
        !sorted.is_empty(),
        "cannot take the percentile of no samples"
    );
    sorted[nearest_rank(sorted.len(), q)]
}

/// The 0-based position of the `q`-quantile among `n >= 1` sorted samples:
/// nearest rank with ceiling, the smallest value v such that at least q·n
/// samples are <= v.
fn nearest_rank(n: usize, q: f64) -> usize {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if q <= 0.0 {
        return 0;
    }
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Fraction of samples strictly greater than `bound`.
pub fn fraction_above(samples: &[f64], bound: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|&&s| s > bound).count() as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_returns_none() {
        assert!(percentile(&[], 0.95).is_none());
    }

    #[test]
    fn single_sample() {
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
    }

    #[test]
    fn median_of_odd_count() {
        let v = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&v, 0.5), Some(3.0));
    }

    #[test]
    fn p95_of_hundred() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
    }

    #[test]
    fn nearest_rank_never_underestimates() {
        // At least q·n of the samples must be <= reported percentile.
        let v: Vec<f64> = (0..37).map(|i| (i * 13 % 37) as f64).collect();
        for q in [0.5, 0.9, 0.95, 0.99] {
            let p = percentile(&v, q).unwrap();
            let frac = v.iter().filter(|&&x| x <= p).count() as f64 / v.len() as f64;
            assert!(frac >= q - 1e-12);
        }
    }

    #[test]
    fn fraction_above_counts_strictly() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(fraction_above(&v, 2.0), 0.5);
        assert_eq!(fraction_above(&v, 0.0), 1.0);
        assert_eq!(fraction_above(&v, 4.0), 0.0);
        assert_eq!(fraction_above(&[], 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn sorted_percentile_rejects_empty() {
        let _ = percentile_of_sorted(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn rejects_a_quantile_above_one() {
        let _ = percentile(&[1.0, 2.0], 1.5);
    }

    #[test]
    #[should_panic(expected = "samples must not contain NaN")]
    fn rejects_nan_samples() {
        let mut v: Vec<f64> = (0..50).map(|i| (i % 7) as f64).collect();
        v[23] = f64::NAN;
        let _ = percentile(&v, 0.95);
    }

    #[test]
    fn selection_matches_a_full_sort_bit_for_bit() {
        let mut rng = crate::DeterministicRng::new(95);
        let mut lengths = vec![1, 2, 3, 2000];
        lengths.extend((0..300).map(|_| 1 + rng.index(2000)));
        for n in lengths {
            // Few distinct values, so most ranks fall inside a run of
            // duplicates; no -0.0, whose sign a selection may not keep.
            let distinct = 1 + rng.index(12);
            let v: Vec<f64> = (0..n)
                .map(|_| (rng.index(distinct) as f64 - 3.0) * 0.75)
                .collect();
            let mut sorted = v.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            for q in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(
                    percentile(&v, q).map(f64::to_bits),
                    Some(percentile_of_sorted(&sorted, q).to_bits()),
                    "n = {n}, q = {q}"
                );
            }
        }
    }
}
