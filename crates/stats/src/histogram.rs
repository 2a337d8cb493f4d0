//! Fixed-bucket discrete probability distributions.
//!
//! Rubik represents per-request service demand as 128-bucket histograms
//! (paper Sec. 4.2, "Cost"). The controller needs to:
//!
//! * build the histogram from online samples,
//! * condition it on work already performed (`P[S = c + ω | S > ω]`),
//! * convolve it with itself repeatedly to model queued requests,
//! * extract tail quantiles.

use crate::fft;

/// A discrete probability distribution over a non-negative quantity
/// (cycles, seconds, ...), represented as equal-width buckets.
///
/// Bucket `i` covers the half-open interval
/// `[i * bucket_width, (i + 1) * bucket_width)`, and the value reported for a
/// bucket is its upper edge (a conservative choice: quantiles never
/// under-estimate the quantity, which is the safe direction for a controller
/// that must meet a latency bound).
///
/// Every histogram caches the prefix sums of its PMF at construction, so
/// [`Histogram::cdf`] is O(1) and [`Histogram::quantile`] is O(log n)
/// instead of re-summing the PMF — these run on Rubik's per-arrival decision
/// path, where the controller consults quantiles on every event.
#[derive(Debug)]
pub struct Histogram {
    bucket_width: f64,
    /// Probability mass per bucket. Always sums to 1 (within fp error) for a
    /// non-empty histogram.
    pmf: Vec<f64>,
    /// Cached running CDF: `cdf[i]` is the total mass of buckets `0..=i`.
    cdf: Vec<f64>,
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        Self {
            bucket_width: self.bucket_width,
            pmf: self.pmf.clone(),
            cdf: self.cdf.clone(),
        }
    }

    /// Field-wise, reusing `self`'s PMF/CDF storage: copying into a
    /// histogram whose buffers already have the capacity allocates nothing
    /// (the table builder's last-build memo relies on this).
    fn clone_from(&mut self, source: &Self) {
        self.bucket_width = source.bucket_width;
        self.pmf.clone_from(&source.pmf);
        self.cdf.clone_from(&source.cdf);
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        // The cached CDF is derived from the PMF; comparing it would be
        // redundant.
        self.bucket_width == other.bucket_width && self.pmf == other.pmf
    }
}

impl Histogram {
    /// Internal constructor: caches the running CDF for the given PMF.
    fn with_pmf(bucket_width: f64, pmf: Vec<f64>) -> Self {
        let mut h = Self {
            bucket_width,
            pmf,
            cdf: Vec::new(),
        };
        h.rebuild_cdf();
        h
    }

    /// Recomputes the cached running CDF in place, reusing its storage.
    fn rebuild_cdf(&mut self) {
        self.cdf.clear();
        self.cdf.reserve(self.pmf.len());
        let mut cum = 0.0;
        for &p in &self.pmf {
            cum += p;
            self.cdf.push(cum);
        }
    }
    /// Builds a histogram from raw samples using `buckets` equal-width
    /// buckets spanning `[0, max_sample]`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0` or if `samples` is empty or contains a
    /// negative or non-finite value.
    pub fn from_samples(samples: &[f64], buckets: usize) -> Self {
        assert!(buckets > 0, "histogram must have at least one bucket");
        assert!(
            !samples.is_empty(),
            "cannot build a histogram from no samples"
        );
        let mut max = 0.0f64;
        for &s in samples {
            assert!(
                s.is_finite() && s >= 0.0,
                "samples must be finite and non-negative"
            );
            if s > max {
                max = s;
            }
        }
        // Degenerate case: all samples are zero. Use a vanishingly small
        // bucket width so the distribution's mean and quantiles are ~0 (a
        // width of 1.0 would invent a full unit of phantom work).
        let bucket_width = if max > 0.0 {
            max / buckets as f64
        } else {
            1e-30
        };
        let mut pmf = vec![0.0; buckets];
        let w = 1.0 / samples.len() as f64;
        for &s in samples {
            let idx = ((s / bucket_width) as usize).min(buckets - 1);
            pmf[idx] += w;
        }
        Self::with_pmf(bucket_width, pmf)
    }

    /// Creates a histogram directly from a probability mass function.
    ///
    /// The PMF is normalized to sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width <= 0`, `pmf` is empty, contains negative mass,
    /// or sums to zero.
    pub fn from_pmf(pmf: Vec<f64>, bucket_width: f64) -> Self {
        assert!(bucket_width > 0.0, "bucket width must be positive");
        assert!(!pmf.is_empty(), "pmf must be non-empty");
        let mut total = 0.0;
        for &p in &pmf {
            assert!(
                p >= 0.0 && p.is_finite(),
                "pmf entries must be non-negative"
            );
            total += p;
        }
        assert!(total > 0.0, "pmf must have positive total mass");
        let pmf = pmf.into_iter().map(|p| p / total).collect();
        Self::with_pmf(bucket_width, pmf)
    }

    /// A distribution that is zero with probability one.
    pub fn zero() -> Self {
        Self::with_pmf(1.0, vec![1.0])
    }

    /// Rebuilds the histogram in place from per-bucket sample counts,
    /// reusing the PMF/CDF storage — the allocation-free path the online
    /// profiler uses to materialize its incrementally maintained counts.
    ///
    /// Produces **bit-identical** PMFs to [`Histogram::from_samples`] on the
    /// same bucketing: `from_samples` accumulates `k` additions of
    /// `w = 1/total` per bucket, which equals `k * w` exactly when `total`
    /// is a power of two (every partial sum `j/total` is then representable);
    /// for other totals the repeated addition is replayed per bucket so the
    /// rounding matches.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty or all-zero, `total` does not equal the
    /// sum of `counts`, or `bucket_width` is not positive.
    pub fn assign_counts(&mut self, counts: &[u32], total: usize, bucket_width: f64) {
        assert!(
            !counts.is_empty(),
            "histogram must have at least one bucket"
        );
        assert!(bucket_width > 0.0, "bucket width must be positive");
        let check: u64 = counts.iter().map(|&k| u64::from(k)).sum();
        assert!(
            check == total as u64 && total > 0,
            "counts must sum to the (non-zero) sample total"
        );
        let w = 1.0 / total as f64;
        self.bucket_width = bucket_width;
        self.pmf.clear();
        if total.is_power_of_two() {
            self.pmf.extend(counts.iter().map(|&k| k as f64 * w));
        } else {
            self.pmf.extend(counts.iter().map(|&k| {
                let mut mass = 0.0;
                for _ in 0..k {
                    mass += w;
                }
                mass
            }));
        }
        self.rebuild_cdf();
    }

    /// Overwrites the histogram with `pmf` and `bucket_width` verbatim,
    /// reusing the PMF/CDF storage. Unlike [`Histogram::from_pmf`] it does
    /// not renormalize, so a PMF read from another histogram's
    /// [`Histogram::pmf`] restores that histogram bit for bit (the table
    /// builder keeps a trimmed base PMF this way and restores it to build
    /// further rungs).
    ///
    /// # Panics
    ///
    /// Panics if `pmf` is empty or `bucket_width` is not positive.
    pub fn assign_pmf(&mut self, pmf: &[f64], bucket_width: f64) {
        assert!(!pmf.is_empty(), "pmf must be non-empty");
        assert!(bucket_width > 0.0, "bucket width must be positive");
        self.bucket_width = bucket_width;
        self.pmf.clear();
        self.pmf.extend_from_slice(pmf);
        self.rebuild_cdf();
    }

    /// The width of each bucket, in the histogram's unit.
    pub fn bucket_width(&self) -> f64 {
        self.bucket_width
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.pmf.len()
    }

    /// Whether the histogram has no buckets (never true for constructed
    /// histograms; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.pmf.is_empty()
    }

    /// The probability mass function.
    pub fn pmf(&self) -> &[f64] {
        &self.pmf
    }

    /// The representative value (upper edge) of bucket `i`.
    #[inline]
    pub fn bucket_value(&self, i: usize) -> f64 {
        (i + 1) as f64 * self.bucket_width
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(i, &p)| p * self.bucket_value(i))
            .sum()
    }

    /// Variance of the distribution.
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        self.pmf
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let v = self.bucket_value(i);
                p * (v - mean) * (v - mean)
            })
            .sum()
    }

    /// The `q`-quantile (e.g. `q = 0.95` for the 95th percentile), reported
    /// conservatively as the upper edge of the bucket where the CDF crosses
    /// `q`. O(log n) via binary search over the cached running CDF.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        self.bucket_value(self.quantile_bucket(q))
    }

    /// The index of the bucket [`Histogram::quantile`] reports — the bucket
    /// where the CDF crosses `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    fn quantile_bucket(&self, q: f64) -> usize {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let i = self.cdf.partition_point(|&c| c < q - 1e-12);
        i.min(self.pmf.len() - 1)
    }

    /// Cumulative probability `P[X <= x]`. O(1) via the cached running CDF.
    pub fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        let idx = (x / self.bucket_width).floor() as usize;
        if idx >= self.pmf.len() {
            return 1.0;
        }
        self.cdf[idx].min(1.0)
    }

    /// Distribution of the *remaining* quantity given that `elapsed` has
    /// already been consumed without the event occurring:
    /// `P[S_rem = c] = P[S = c + elapsed | S > elapsed]`.
    ///
    /// This is how Rubik conditions the service-cycle distribution of the
    /// request currently in service on the ω cycles it has already executed
    /// (paper Sec. 4.1).
    ///
    /// If `elapsed` exceeds the histogram's support, the request has outlived
    /// every observed sample; the conservative choice is to return a
    /// one-bucket distribution at one bucket width (it will complete "soon",
    /// but not instantaneously).
    pub fn conditional_on_elapsed(&self, elapsed: f64) -> Histogram {
        let mut out = Histogram::zero();
        self.conditional_on_elapsed_into(elapsed, &mut out);
        out
    }

    /// In-place variant of [`Histogram::conditional_on_elapsed`]: writes the
    /// conditioned distribution into `out`, reusing its PMF/CDF storage.
    /// Produces bit-identical values to the allocating version (same sums,
    /// same divisions, in the same order); the periodic table rebuild calls
    /// this once per progress row without allocating.
    pub fn conditional_on_elapsed_into(&self, elapsed: f64, out: &mut Histogram) {
        assert!(elapsed >= 0.0, "elapsed must be non-negative");
        out.bucket_width = self.bucket_width;
        out.pmf.clear();
        let shift = (elapsed / self.bucket_width).floor() as usize;
        let tail_mass: f64 = if shift >= self.pmf.len() {
            0.0
        } else {
            self.pmf[shift..].iter().sum()
        };
        if shift >= self.pmf.len() || tail_mass <= 0.0 {
            out.pmf.push(1.0);
        } else {
            out.pmf
                .extend(self.pmf[shift..].iter().map(|&p| p / tail_mass));
        }
        out.rebuild_cdf();
    }

    /// Convolution of two distributions: the distribution of the sum of two
    /// independent draws.
    ///
    /// # Panics
    ///
    /// Panics if the bucket widths differ by more than 1 part in 10⁶: summing
    /// distributions only makes sense on a common grid. Use
    /// [`Histogram::rebucket`] first.
    pub fn convolve(&self, other: &Histogram) -> Histogram {
        let rel = (self.bucket_width - other.bucket_width).abs()
            / self.bucket_width.max(other.bucket_width);
        assert!(
            rel < 1e-6,
            "cannot convolve histograms with different bucket widths ({} vs {})",
            self.bucket_width,
            other.bucket_width
        );
        // Representative values are upper edges ((i+1)·w), so the sum of the
        // representatives of buckets i and j is (i+j+2)·w, which is bucket
        // index i+j+1 in the result. Prepending one empty bucket keeps the
        // convolution exact on representatives: means and variances add.
        let mut pmf = Vec::with_capacity(self.pmf.len() + other.pmf.len());
        pmf.push(0.0);
        pmf.extend(fft::convolve(&self.pmf, &other.pmf));
        Histogram::with_pmf(self.bucket_width, pmf)
    }

    /// Re-expresses the distribution on a grid with `buckets` buckets and the
    /// given `bucket_width`, merging and/or truncating mass as needed. Mass
    /// beyond the new support is accumulated in the last bucket so that
    /// quantiles remain conservative.
    pub fn rebucket(&self, bucket_width: f64, buckets: usize) -> Histogram {
        assert!(bucket_width > 0.0 && buckets > 0);
        let mut pmf = vec![0.0; buckets];
        for (i, &p) in self.pmf.iter().enumerate() {
            let v = self.bucket_value(i);
            let idx = ((v / bucket_width).ceil() as usize)
                .saturating_sub(1)
                .min(buckets - 1);
            pmf[idx] += p;
        }
        Histogram::with_pmf(bucket_width, pmf)
    }

    /// Scales the quantity axis by `factor` (e.g. converting cycles at one
    /// frequency into seconds).
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 0`.
    pub fn scale(&self, factor: f64) -> Histogram {
        assert!(factor > 0.0, "scale factor must be positive");
        Histogram {
            bucket_width: self.bucket_width * factor,
            pmf: self.pmf.clone(),
            cdf: self.cdf.clone(),
        }
    }

    /// Truncates trailing buckets holding less than `epsilon` total mass,
    /// renormalizing. Keeps convolution costs bounded.
    pub fn trim_tail(&self, epsilon: f64) -> Histogram {
        let mut out = Histogram::zero();
        self.trim_tail_into(epsilon, &mut out);
        out
    }

    /// In-place variant of [`Histogram::trim_tail`]: writes the trimmed,
    /// renormalized distribution into `out`, reusing its storage. Replicates
    /// the allocating version's arithmetic exactly (the same
    /// [`Histogram::from_pmf`] normalization sum and divisions, in the same
    /// order), so results are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the retained prefix has no positive mass (mirrors
    /// [`Histogram::from_pmf`]).
    pub fn trim_tail_into(&self, epsilon: f64, out: &mut Histogram) {
        let mut cum = 0.0;
        let mut cut = self.pmf.len();
        for (i, &p) in self.pmf.iter().enumerate().rev() {
            cum += p;
            if cum > epsilon {
                cut = i + 1;
                break;
            }
        }
        let keep = &self.pmf[..cut.max(1)];
        // from_pmf's normalization, in place: same left-to-right total, same
        // per-entry division.
        let mut total = 0.0;
        for &p in keep {
            total += p;
        }
        assert!(total > 0.0, "pmf must have positive total mass");
        out.bucket_width = self.bucket_width;
        out.pmf.clear();
        out.pmf.extend(keep.iter().map(|&p| p / total));
        out.rebuild_cdf();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_samples(n: usize, max: f64) -> Vec<f64> {
        (0..n).map(|i| max * (i as f64 + 0.5) / n as f64).collect()
    }

    #[test]
    fn from_samples_mass_sums_to_one() {
        let h = Histogram::from_samples(&uniform_samples(1000, 10.0), 128);
        let total: f64 = h.pmf().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(h.len(), 128);
    }

    #[test]
    fn mean_of_uniform_is_centered() {
        let h = Histogram::from_samples(&uniform_samples(10_000, 10.0), 128);
        // Upper-edge representative values bias the mean up by at most one
        // bucket width.
        assert!((h.mean() - 5.0).abs() < 0.1);
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let h = Histogram::from_samples(&uniform_samples(1000, 100.0), 64);
        let mut prev = 0.0;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = h.quantile(q);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn quantile_never_underestimates_samples() {
        // Conservative bucketing: the p-quantile of the histogram must be at
        // least the p-quantile of the underlying samples.
        let samples = uniform_samples(5000, 42.0);
        let h = Histogram::from_samples(&samples, 128);
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.9, 0.95, 0.99] {
            let exact = sorted[((sorted.len() - 1) as f64 * q) as usize];
            assert!(h.quantile(q) >= exact - 1e-9);
        }
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let h = Histogram::from_samples(&uniform_samples(1000, 10.0), 32);
        assert_eq!(h.cdf(-1.0), 0.0);
        assert!((h.cdf(1e9) - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for i in 0..100 {
            let c = h.cdf(i as f64 * 0.1);
            assert!(c >= prev - 1e-12);
            prev = c;
        }
    }

    #[test]
    fn conditional_on_zero_elapsed_is_identity() {
        let h = Histogram::from_samples(&uniform_samples(1000, 10.0), 64);
        let c = h.conditional_on_elapsed(0.0);
        assert_eq!(c.len(), h.len());
        for (a, b) in c.pmf().iter().zip(h.pmf()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn conditional_shifts_and_renormalizes() {
        let h = Histogram::from_pmf(vec![0.25, 0.25, 0.25, 0.25], 1.0);
        // After 2 units elapsed, only buckets 2 and 3 remain, renormalized.
        let c = h.conditional_on_elapsed(2.0);
        assert_eq!(c.len(), 2);
        assert!((c.pmf()[0] - 0.5).abs() < 1e-12);
        assert!((c.pmf()[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn conditional_beyond_support_is_one_bucket() {
        let h = Histogram::from_pmf(vec![0.5, 0.5], 1.0);
        let c = h.conditional_on_elapsed(100.0);
        assert_eq!(c.len(), 1);
        assert!((c.pmf()[0] - 1.0).abs() < 1e-12);
        assert_eq!(c.quantile(0.95), c.bucket_width());
    }

    #[test]
    fn convolve_means_add() {
        let a = Histogram::from_samples(&uniform_samples(2000, 4.0), 64);
        let b = Histogram::from_samples(&uniform_samples(2000, 4.0), 64);
        let c = a.convolve(&b);
        assert!((c.mean() - (a.mean() + b.mean())).abs() < 1e-6 * c.mean());
    }

    #[test]
    fn convolve_variances_add() {
        let a = Histogram::from_samples(&uniform_samples(2000, 4.0), 64);
        let c = a.convolve(&a);
        assert!((c.variance() - 2.0 * a.variance()).abs() < 1e-3 * c.variance().max(1.0));
    }

    #[test]
    #[should_panic(expected = "different bucket widths")]
    fn convolve_rejects_mismatched_widths() {
        let a = Histogram::from_pmf(vec![1.0], 1.0);
        let b = Histogram::from_pmf(vec![1.0], 2.0);
        let _ = a.convolve(&b);
    }

    #[test]
    fn scale_scales_quantiles() {
        let h = Histogram::from_samples(&uniform_samples(1000, 10.0), 64);
        let s = h.scale(2.0);
        assert!((s.quantile(0.9) - 2.0 * h.quantile(0.9)).abs() < 1e-9);
        assert!((s.mean() - 2.0 * h.mean()).abs() < 1e-9);
    }

    #[test]
    fn rebucket_preserves_total_mass_and_is_conservative() {
        let h = Histogram::from_samples(&uniform_samples(1000, 10.0), 128);
        let r = h.rebucket(0.5, 16);
        assert!((r.pmf().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Mass beyond the new support is dumped into the last bucket, so the
        // extreme quantile saturates at the new maximum.
        assert!(r.quantile(0.99) <= 8.0 + 1e-9);
        assert!(r.quantile(0.5) >= h.quantile(0.5) - 0.5);
    }

    #[test]
    fn trim_tail_keeps_mass_normalized() {
        let mut pmf = vec![0.0; 100];
        pmf[0] = 0.999;
        pmf[99] = 0.001;
        let h = Histogram::from_pmf(pmf, 1.0);
        let t = h.trim_tail(0.01);
        assert!(t.len() < 100);
        assert!((t.pmf().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn assign_counts_matches_from_samples_bitwise() {
        // Power-of-two and non-power-of-two totals: both paths must replay
        // from_samples' floating-point accumulation exactly.
        for n in [256usize, 1000, 4096, 37] {
            let samples: Vec<f64> = (0..n).map(|i| ((i * 97) % 313) as f64 * 0.37).collect();
            let reference = Histogram::from_samples(&samples, 64);
            let mut counts = vec![0u32; 64];
            for &s in &samples {
                let idx = ((s / reference.bucket_width()) as usize).min(63);
                counts[idx] += 1;
            }
            let mut h = Histogram::zero();
            h.assign_counts(&counts, n, reference.bucket_width());
            assert_eq!(h.pmf(), reference.pmf(), "n = {n}");
            assert_eq!(h.bucket_width(), reference.bucket_width());
            assert_eq!(h.quantile(0.95), reference.quantile(0.95));
        }
    }

    #[test]
    fn assign_counts_reuses_storage() {
        let mut h = Histogram::zero();
        h.assign_counts(&[1, 2, 3, 10], 16, 0.5);
        let before = h.pmf().as_ptr();
        h.assign_counts(&[4, 4, 4, 4], 16, 0.25);
        assert_eq!(before, h.pmf().as_ptr(), "refill must not reallocate");
    }

    #[test]
    fn clone_from_copies_exactly_and_reuses_storage() {
        let wide = Histogram::from_samples(&uniform_samples(500, 10.0), 64);
        let narrow = Histogram::from_samples(&uniform_samples(300, 2.0), 16);
        let mut h = wide.clone();
        let before = h.pmf().as_ptr();
        h.clone_from(&narrow);
        assert_eq!(h, narrow);
        assert_eq!(h.quantile(0.9), narrow.quantile(0.9), "cached CDF copied");
        assert_eq!(before, h.pmf().as_ptr(), "copy must not reallocate");
    }

    #[test]
    #[should_panic(expected = "counts must sum")]
    fn assign_counts_rejects_mismatched_total() {
        let mut h = Histogram::zero();
        h.assign_counts(&[1, 2], 4, 1.0);
    }

    #[test]
    fn into_variants_match_allocating_versions() {
        let h = Histogram::from_samples(&uniform_samples(3000, 12.0), 128);
        let mut scratch = Histogram::zero();
        for eps in [1e-9, 1e-3, 0.2] {
            h.trim_tail_into(eps, &mut scratch);
            let fresh = h.trim_tail(eps);
            assert_eq!(scratch.pmf(), fresh.pmf(), "eps = {eps}");
            assert_eq!(scratch.bucket_width(), fresh.bucket_width());
        }
        for elapsed in [0.0, 3.7, 11.9, 400.0] {
            h.conditional_on_elapsed_into(elapsed, &mut scratch);
            let fresh = h.conditional_on_elapsed(elapsed);
            assert_eq!(scratch.pmf(), fresh.pmf(), "elapsed = {elapsed}");
            assert_eq!(scratch.quantile(0.9), fresh.quantile(0.9));
        }
    }

    #[test]
    fn quantile_bucket_is_the_reported_bucket() {
        let h = Histogram::from_samples(&uniform_samples(500, 7.0), 32);
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            assert_eq!(h.quantile(q), h.bucket_value(h.quantile_bucket(q)));
        }
    }

    #[test]
    fn assign_pmf_restores_a_histogram_bit_for_bit() {
        let h = Histogram::from_samples(&uniform_samples(300, 5.0), 64).trim_tail(1e-3);
        let mut restored = Histogram::zero();
        restored.assign_pmf(h.pmf(), h.bucket_width());
        assert_eq!(
            restored.bucket_width().to_bits(),
            h.bucket_width().to_bits()
        );
        assert_eq!(restored.pmf(), h.pmf());
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            assert_eq!(restored.quantile_bucket(q), h.quantile_bucket(q));
        }
    }

    #[test]
    fn zero_histogram() {
        let z = Histogram::zero();
        assert_eq!(z.quantile(0.99), 1.0);
        assert!((z.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn from_samples_rejects_empty() {
        let _ = Histogram::from_samples(&[], 8);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_samples_rejects_negative() {
        let _ = Histogram::from_samples(&[1.0, -2.0], 8);
    }
}
