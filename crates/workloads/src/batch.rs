//! Batch (throughput-oriented) application models.
//!
//! RubikColoc colocates SPEC CPU2006-like batch applications with
//! latency-critical work (paper Sec. 6–7). For the colocation results, a
//! batch application matters only through:
//!
//! * its throughput as a function of core frequency (compute-bound apps scale
//!   nearly linearly with frequency; memory-bound apps barely scale),
//! * its power as a function of frequency (charged by `rubik-power`),
//! * its sensitivity to the LLC partition it receives.
//!
//! [`BatchApp`] captures these with a simple two-component execution model:
//! each "work unit" (normalized to 1 second of execution at nominal frequency
//! with a fair LLC share) consists of a compute part that scales with `1/f`
//! and a memory part that does not.

use rubik_sim::Freq;
use rubik_stats::DeterministicRng;

/// Model of one batch application.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchApp {
    name: String,
    /// Fraction of nominal-frequency execution time that is memory-bound
    /// (with a fair LLC share).
    mem_intensity: f64,
    /// How strongly the memory-bound fraction grows when the LLC share
    /// shrinks (0 = insensitive, 1 = strongly cache-sensitive).
    cache_sensitivity: f64,
}

impl BatchApp {
    /// Creates a batch application model.
    ///
    /// # Panics
    ///
    /// Panics if `mem_intensity` is outside `[0, 1)` or `cache_sensitivity`
    /// is outside `[0, 1]`.
    pub fn new(name: &str, mem_intensity: f64, cache_sensitivity: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&mem_intensity),
            "memory intensity must be in [0, 1)"
        );
        assert!(
            (0.0..=1.0).contains(&cache_sensitivity),
            "cache sensitivity must be in [0, 1]"
        );
        Self {
            name: name.into(),
            mem_intensity,
            cache_sensitivity,
        }
    }

    /// A SPEC CPU2006-like catalogue of batch applications, spanning
    /// compute-bound (namd, povray) to strongly memory-bound (mcf, lbm).
    pub fn spec_catalogue() -> Vec<BatchApp> {
        vec![
            BatchApp::new("perlbench", 0.10, 0.30),
            BatchApp::new("bzip2", 0.20, 0.40),
            BatchApp::new("gcc", 0.25, 0.45),
            BatchApp::new("mcf", 0.65, 0.80),
            BatchApp::new("gobmk", 0.10, 0.20),
            BatchApp::new("hmmer", 0.05, 0.10),
            BatchApp::new("sjeng", 0.08, 0.15),
            BatchApp::new("libquantum", 0.55, 0.30),
            BatchApp::new("h264ref", 0.12, 0.25),
            BatchApp::new("omnetpp", 0.45, 0.70),
            BatchApp::new("astar", 0.30, 0.50),
            BatchApp::new("xalancbmk", 0.40, 0.65),
            BatchApp::new("milc", 0.50, 0.40),
            BatchApp::new("namd", 0.04, 0.05),
            BatchApp::new("soplex", 0.45, 0.60),
            BatchApp::new("povray", 0.03, 0.05),
            BatchApp::new("lbm", 0.70, 0.35),
            BatchApp::new("sphinx3", 0.35, 0.55),
        ]
    }

    /// Application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Memory-bound fraction of execution time at nominal frequency with a
    /// fair LLC share.
    pub fn mem_intensity(&self) -> f64 {
        self.mem_intensity
    }

    /// Cache sensitivity in `[0, 1]`.
    pub fn cache_sensitivity(&self) -> f64 {
        self.cache_sensitivity
    }

    /// Effective memory-bound fraction given an LLC share in `[0, 1]`
    /// relative to a fair share of 1.0. Smaller shares increase memory-bound
    /// time for cache-sensitive applications.
    pub fn effective_mem_fraction(&self, llc_share: f64) -> f64 {
        let share = llc_share.clamp(0.05, 1.0);
        let penalty = self.cache_sensitivity * (1.0 - share);
        (self.mem_intensity * (1.0 + penalty)).min(0.95)
    }

    /// Throughput (work units per second) at frequency `f`, relative to the
    /// given nominal frequency, with the given LLC share.
    ///
    /// One work unit takes 1 second at nominal frequency with a full fair
    /// share.
    pub fn throughput(&self, f: Freq, nominal: Freq, llc_share: f64) -> f64 {
        let mem = self.effective_mem_fraction(llc_share);
        let base_compute = 1.0 - self.mem_intensity;
        // The memory component under reduced share inflates total work.
        let mem_time = self.mem_intensity + (mem - self.mem_intensity);
        let time = base_compute * nominal.hz() / f.hz() + mem_time;
        1.0 / time
    }

    /// Speedup at frequency `f` relative to nominal, with a full LLC share.
    pub fn speedup(&self, f: Freq, nominal: Freq) -> f64 {
        self.throughput(f, nominal, 1.0) / self.throughput(nominal, nominal, 1.0)
    }
}

/// A mix of batch applications co-scheduled on one server (the paper uses 20
/// mixes of six randomly chosen SPEC CPU2006 apps, Sec. 7).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMix {
    /// Mix identifier (0-based).
    pub id: usize,
    /// The applications in the mix.
    pub apps: Vec<BatchApp>,
}

impl BatchMix {
    /// Generates `count` mixes of `per_mix` applications each, drawn with
    /// replacement from the SPEC-like catalogue using the given seed.
    pub fn generate(count: usize, per_mix: usize, seed: u64) -> Vec<BatchMix> {
        let catalogue = BatchApp::spec_catalogue();
        let mut rng = DeterministicRng::new(seed);
        (0..count)
            .map(|id| BatchMix {
                id,
                apps: (0..per_mix)
                    .map(|_| catalogue[rng.index(catalogue.len())].clone())
                    .collect(),
            })
            .collect()
    }

    /// The paper's configuration: 20 mixes of 6 applications.
    pub fn paper_mixes(seed: u64) -> Vec<BatchMix> {
        Self::generate(20, 6, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal() -> Freq {
        Freq::from_mhz(2400)
    }

    #[test]
    fn catalogue_has_diverse_memory_intensity() {
        let apps = BatchApp::spec_catalogue();
        assert!(apps.len() >= 12);
        let min = apps.iter().map(|a| a.mem_intensity()).fold(1.0, f64::min);
        let max = apps.iter().map(|a| a.mem_intensity()).fold(0.0, f64::max);
        assert!(min < 0.1);
        assert!(max > 0.6);
    }

    #[test]
    fn compute_bound_apps_scale_with_frequency() {
        let namd = BatchApp::new("namd", 0.04, 0.05);
        let speedup = namd.speedup(Freq::from_mhz(3400), nominal());
        // Nearly linear: 3.4/2.4 ≈ 1.42
        assert!(speedup > 1.3, "speedup = {speedup}");
    }

    #[test]
    fn memory_bound_apps_barely_scale() {
        let mcf = BatchApp::new("mcf", 0.65, 0.8);
        let speedup = mcf.speedup(Freq::from_mhz(3400), nominal());
        assert!(speedup < 1.2, "speedup = {speedup}");
        assert!(speedup > 1.0);
    }

    #[test]
    fn lower_frequency_reduces_throughput() {
        for app in BatchApp::spec_catalogue() {
            let slow = app.throughput(Freq::from_mhz(800), nominal(), 1.0);
            let fast = app.throughput(Freq::from_mhz(3400), nominal(), 1.0);
            assert!(slow < fast, "{}", app.name());
        }
    }

    #[test]
    fn smaller_llc_share_hurts_cache_sensitive_apps() {
        let omnetpp = BatchApp::new("omnetpp", 0.45, 0.7);
        let full = omnetpp.throughput(nominal(), nominal(), 1.0);
        let small = omnetpp.throughput(nominal(), nominal(), 0.25);
        assert!(small < full);

        let povray = BatchApp::new("povray", 0.03, 0.05);
        let degradation_povray = 1.0
            - povray.throughput(nominal(), nominal(), 0.25)
                / povray.throughput(nominal(), nominal(), 1.0);
        let degradation_omnetpp = 1.0 - small / full;
        assert!(degradation_omnetpp > degradation_povray);
    }

    #[test]
    fn nominal_throughput_with_full_share_is_one() {
        for app in BatchApp::spec_catalogue() {
            let t = app.throughput(nominal(), nominal(), 1.0);
            assert!((t - 1.0).abs() < 1e-9, "{}: {t}", app.name());
        }
    }

    #[test]
    fn mixes_are_reproducible_and_sized() {
        let a = BatchMix::paper_mixes(42);
        let b = BatchMix::paper_mixes(42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        for m in &a {
            assert_eq!(m.apps.len(), 6);
        }
        let c = BatchMix::paper_mixes(43);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "memory intensity")]
    fn rejects_invalid_intensity() {
        let _ = BatchApp::new("bad", 1.2, 0.5);
    }
}
