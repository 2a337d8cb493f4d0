//! Random sampling helpers.
//!
//! The workload models draw request inter-arrival times (exponential, i.e. a
//! Markov input process, paper Sec. 5.1) and per-request service demands from
//! parametric distributions. [`ServiceSampler`] covers the two work-factor
//! shapes an application profile builds (log-normal, and two-class
//! bimodal), and [`DeterministicRng`] pins the RNG seed so every experiment
//! is reproducible.
//!
//! The generator is a self-contained xoshiro256++ (seeded through SplitMix64)
//! rather than an external RNG crate: the build environment is offline, and a
//! fixed in-tree generator additionally guarantees that experiment streams
//! never shift under a dependency upgrade. Distribution draws use inverse
//! transforms (with the crate's high-precision [`gaussian_quantile`] for
//! normal/log-normal).
//!
//! [`gaussian_quantile`]: crate::gaussian::gaussian_quantile

/// A seeded pseudo-random number generator with convenience draws for the
/// distributions used across the reproduction.
///
/// A newtype over the raw xoshiro256++ state keeps the choice of generator
/// out of the public API and guarantees every consumer seeds explicitly.
#[derive(Debug, Clone)]
pub struct DeterministicRng {
    state: [u64; 4],
}

impl DeterministicRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Expand the seed with SplitMix64, the recommended seeding procedure
        // for xoshiro generators (it cannot produce the all-zero state).
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            state: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// The next raw 64-bit output (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits, the standard u64 → f64 conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer draw in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw an index from an empty range");
        // Lemire's multiply-shift; the modulo bias is at most n / 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Exponential draw with the given `mean`.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // Inverse CDF; uniform() < 1, so the log argument is positive.
        -mean * (1.0 - self.uniform()).ln()
    }

    /// Standard normal draw via the inverse CDF.
    fn standard_normal(&mut self) -> f64 {
        crate::gaussian::gaussian_quantile(self.uniform().clamp(1e-15, 1.0 - 1e-15))
    }

    /// Log-normal draw parameterized by the *target* mean and coefficient of
    /// variation of the resulting distribution (not the underlying normal).
    pub fn lognormal(&mut self, mean: f64, cov: f64) -> f64 {
        assert!(mean > 0.0 && cov >= 0.0);
        if cov == 0.0 {
            return mean;
        }
        let sigma2 = (1.0 + cov * cov).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        (mu + sigma2.sqrt() * self.standard_normal()).exp()
    }

    /// Bernoulli draw with probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p));
        self.uniform() < p
    }
}

/// Parametric per-request service-demand sampler.
///
/// The unit is left to the caller (the workload models use cycles for compute
/// demand and seconds for memory-bound time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceSampler {
    /// Log-normal work with the given mean and coefficient of variation.
    LogNormal {
        /// Mean of the distribution.
        mean: f64,
        /// Coefficient of variation (stddev / mean).
        cov: f64,
    },
    /// Two-class (short/long) bimodal work, as used to mimic applications
    /// with distinct request classes (the situation Adrenaline exploits).
    Bimodal {
        /// Work of a short request.
        short: f64,
        /// Work of a long request.
        long: f64,
        /// Probability that a request is long.
        long_fraction: f64,
    },
}

impl ServiceSampler {
    /// Draws one service demand.
    pub fn sample(&self, rng: &mut DeterministicRng) -> f64 {
        match *self {
            ServiceSampler::LogNormal { mean, cov } => rng.lognormal(mean, cov),
            ServiceSampler::Bimodal {
                short,
                long,
                long_fraction,
            } => {
                if rng.bernoulli(long_fraction) {
                    long
                } else {
                    short
                }
            }
        }
    }

    /// Analytical mean of the sampler.
    pub fn mean(&self) -> f64 {
        match *self {
            ServiceSampler::LogNormal { mean, .. } => mean,
            ServiceSampler::Bimodal {
                short,
                long,
                long_fraction,
            } => short * (1.0 - long_fraction) + long * long_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::OnlineStats;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::new(42);
        let mut b = DeterministicRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DeterministicRng::new(1);
        let mut b = DeterministicRng::new(2);
        let same = (0..100).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 5);
    }

    #[test]
    fn uniform_is_in_unit_interval_and_centered() {
        let mut rng = DeterministicRng::new(13);
        let s: OnlineStats = (0..100_000).map(|_| rng.uniform()).collect();
        assert!(s.min().unwrap() >= 0.0);
        assert!(s.max().unwrap() < 1.0);
        assert!((s.mean() - 0.5).abs() < 0.01);
    }

    #[test]
    fn index_covers_the_range_uniformly() {
        let mut rng = DeterministicRng::new(29);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.index(8)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts: {counts:?}");
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = DeterministicRng::new(7);
        let s: OnlineStats = (0..50_000).map(|_| rng.exponential(3.0)).collect();
        assert!((s.mean() - 3.0).abs() < 0.1);
    }

    #[test]
    fn lognormal_mean_and_cov_converge() {
        let mut rng = DeterministicRng::new(11);
        let s: OnlineStats = (0..100_000).map(|_| rng.lognormal(2.0, 0.5)).collect();
        assert!((s.mean() - 2.0).abs() < 0.05, "mean = {}", s.mean());
        assert!((s.cov() - 0.5).abs() < 0.05, "cov = {}", s.cov());
    }

    #[test]
    fn samplers_are_nonnegative_and_match_mean() {
        let mut rng = DeterministicRng::new(5);
        let samplers = [
            ServiceSampler::LogNormal {
                mean: 4.0,
                cov: 0.3,
            },
            ServiceSampler::Bimodal {
                short: 2.0,
                long: 10.0,
                long_fraction: 0.25,
            },
        ];
        for s in samplers {
            let stats: OnlineStats = (0..50_000).map(|_| s.sample(&mut rng)).collect();
            assert!(stats.min().unwrap() >= 0.0);
            assert!(
                (stats.mean() - s.mean()).abs() < 0.15 * s.mean(),
                "{s:?}: mean {} vs {}",
                stats.mean(),
                s.mean()
            );
        }
    }

    #[test]
    fn bimodal_fraction_is_respected() {
        let mut rng = DeterministicRng::new(17);
        let s = ServiceSampler::Bimodal {
            short: 1.0,
            long: 100.0,
            long_fraction: 0.1,
        };
        let longs = (0..20_000).filter(|_| s.sample(&mut rng) > 50.0).count();
        let frac = longs as f64 / 20_000.0;
        assert!((frac - 0.1).abs() < 0.02);
    }
}
