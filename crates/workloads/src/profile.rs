//! The five latency-critical application models.
//!
//! Each profile captures the properties of one of the paper's benchmarks
//! (Table 3, Fig. 2, Sec. 5.2–5.5) that the evaluation actually depends on:
//!
//! * the mean per-request service time at the nominal 2.4 GHz frequency,
//! * the dispersion (coefficient of variation) and shape of the service-time
//!   distribution — masstree and moses are tightly clustered, shore, xapian
//!   and specjbb are much more variable,
//! * the fraction of service time that is memory-bound (unaffected by core
//!   DVFS),
//! * the number of requests the paper simulates.

use rubik_sim::Freq;
use rubik_stats::ServiceSampler;

/// Shape of the per-request work distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceShape {
    /// Tightly clustered around the mean (log-normal with small CoV).
    Clustered,
    /// Moderately variable (log-normal with CoV near 0.5).
    Variable,
    /// Highly variable / heavy-tailed (log-normal with large CoV).
    HeavyTailed,
    /// Two distinct request classes (short and long), the structure
    /// Adrenaline-style schemes exploit.
    Bimodal,
}

/// Model of one latency-critical application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    name: String,
    description: String,
    /// Mean service time (seconds) at the nominal frequency.
    mean_service_time: f64,
    /// Coefficient of variation of per-request work.
    cov: f64,
    /// Shape of the work distribution.
    shape: ServiceShape,
    /// Fraction of nominal-frequency service time that is memory-bound.
    mem_fraction: f64,
    /// Number of requests the paper simulates for this application (Table 3).
    paper_requests: usize,
    /// Workload configuration string from Table 3.
    workload_config: String,
}

impl AppProfile {
    /// `masstree`: high-performance key-value store, mycsb-a (50% GETs/PUTs),
    /// 1.1 GB table. Very tightly clustered, short requests (median service
    /// time ≈ 240 µs, Sec. 5.5); latency dominated by queueing (Table 1).
    pub fn masstree() -> Self {
        Self {
            name: "masstree".into(),
            description: "high-performance key-value store".into(),
            mean_service_time: 250e-6,
            cov: 0.10,
            shape: ServiceShape::Clustered,
            mem_fraction: 0.35,
            paper_requests: 9000,
            workload_config: "mycsb-a (50% GETs/PUTs), 1.1GB table".into(),
        }
    }

    /// `moses`: statistical machine translation in phrase mode. Long,
    /// uniform requests (median service time ≈ 3.95 ms, Sec. 5.5).
    pub fn moses() -> Self {
        Self {
            name: "moses".into(),
            description: "statistical machine translation".into(),
            mean_service_time: 4.0e-3,
            cov: 0.25,
            shape: ServiceShape::Clustered,
            mem_fraction: 0.25,
            paper_requests: 900,
            workload_config: "opensubtitles.org corpora, phrase mode".into(),
        }
    }

    /// `shore`: OLTP storage manager running TPC-C with 10 warehouses.
    /// Variable service times (Table 1 correlation with service time 0.56).
    pub fn shore() -> Self {
        Self {
            name: "shore".into(),
            description: "online transaction processing database (TPC-C)".into(),
            mean_service_time: 600e-6,
            cov: 0.80,
            shape: ServiceShape::Variable,
            mem_fraction: 0.30,
            paper_requests: 7500,
            workload_config: "TPC-C, 10 warehouses".into(),
        }
    }

    /// `specjbb`: Java middleware benchmark, 1 warehouse. Short requests with
    /// highly variable service times (Sec. 5.3).
    pub fn specjbb() -> Self {
        Self {
            name: "specjbb".into(),
            description: "Java real-time middleware benchmark".into(),
            mean_service_time: 150e-6,
            cov: 1.10,
            shape: ServiceShape::HeavyTailed,
            mem_fraction: 0.25,
            paper_requests: 37500,
            workload_config: "1 warehouse".into(),
        }
    }

    /// `xapian`: web search engine configured as a leaf node, English
    /// Wikipedia with Zipfian query popularity. Variable service times driven
    /// by query length/popularity.
    pub fn xapian() -> Self {
        Self {
            name: "xapian".into(),
            description: "web search engine leaf node".into(),
            mean_service_time: 1.2e-3,
            cov: 0.65,
            shape: ServiceShape::Variable,
            mem_fraction: 0.30,
            paper_requests: 6000,
            workload_config: "English Wikipedia, zipfian query popularity".into(),
        }
    }

    /// All five latency-critical applications, in the order the paper lists
    /// them in its figures.
    pub fn all() -> Vec<AppProfile> {
        vec![
            Self::masstree(),
            Self::moses(),
            Self::shore(),
            Self::specjbb(),
            Self::xapian(),
        ]
    }

    /// A custom profile, for tests and exploratory experiments.
    ///
    /// # Panics
    ///
    /// Panics if `mean_service_time <= 0`, `cov < 0`, or `mem_fraction` is
    /// outside `[0, 1)`.
    pub fn custom(
        name: &str,
        mean_service_time: f64,
        cov: f64,
        shape: ServiceShape,
        mem_fraction: f64,
    ) -> Self {
        assert!(
            mean_service_time > 0.0,
            "mean service time must be positive"
        );
        assert!(cov >= 0.0, "coefficient of variation must be non-negative");
        assert!(
            (0.0..1.0).contains(&mem_fraction),
            "memory fraction must be in [0, 1)"
        );
        Self {
            name: name.into(),
            description: "custom application profile".into(),
            mean_service_time,
            cov,
            shape,
            mem_fraction,
            paper_requests: 1000,
            workload_config: "custom".into(),
        }
    }

    /// Application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Short human-readable description.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Workload configuration string (Table 3).
    pub fn workload_config(&self) -> &str {
        &self.workload_config
    }

    /// Mean service time at the nominal frequency, in seconds.
    pub fn mean_service_time(&self) -> f64 {
        self.mean_service_time
    }

    /// Coefficient of variation of per-request work.
    pub fn cov(&self) -> f64 {
        self.cov
    }

    /// Shape of the work distribution.
    pub fn shape(&self) -> ServiceShape {
        self.shape
    }

    /// Fraction of nominal-frequency service time that is memory-bound.
    pub fn mem_fraction(&self) -> f64 {
        self.mem_fraction
    }

    /// Number of requests simulated in the paper (Table 3).
    pub fn paper_requests(&self) -> usize {
        self.paper_requests
    }

    /// Returns a copy with a different memory-bound fraction. Used to model
    /// the real-system configuration (Sec. 5.5), where the full 8 MB LLC
    /// makes applications less memory-bound and more variable.
    pub fn with_mem_fraction(mut self, mem_fraction: f64) -> Self {
        assert!((0.0..1.0).contains(&mem_fraction));
        self.mem_fraction = mem_fraction;
        self
    }

    /// Returns a copy with a different coefficient of variation.
    pub fn with_cov(mut self, cov: f64) -> Self {
        assert!(cov >= 0.0);
        self.cov = cov;
        self
    }

    /// Mean compute demand in core cycles (work that scales with frequency),
    /// assuming the given nominal frequency.
    pub fn mean_compute_cycles(&self, nominal: Freq) -> f64 {
        self.mean_service_time * (1.0 - self.mem_fraction) * nominal.hz()
    }

    /// Mean memory-bound time in seconds (work core DVFS cannot accelerate).
    pub fn mean_membound_time(&self) -> f64 {
        self.mean_service_time * self.mem_fraction
    }

    /// The sampler for the per-request work factor (mean 1.0), matching the
    /// profile's shape and CoV.
    pub fn work_factor_sampler(&self) -> ServiceSampler {
        match self.shape {
            ServiceShape::Clustered | ServiceShape::Variable | ServiceShape::HeavyTailed => {
                ServiceSampler::LogNormal {
                    mean: 1.0,
                    cov: self.cov,
                }
            }
            ServiceShape::Bimodal => {
                // Choose short/long values with a 10% long fraction that
                // reproduce the requested CoV around a mean of 1.
                let long_fraction: f64 = 0.1;
                let spread = self.cov / (long_fraction * (1.0 - long_fraction)).sqrt();
                let short = (1.0 - spread * long_fraction).max(0.05);
                let long = short + spread;
                ServiceSampler::Bimodal {
                    short,
                    long,
                    long_fraction,
                }
            }
        }
    }

    /// Maximum sustainable throughput (requests per second) at frequency `f`:
    /// the definition of 100% load used throughout the evaluation
    /// (Fig. 9: "a load of 100% corresponds to the maximum request rate at
    /// nominal frequency").
    pub fn capacity_qps(&self, f: Freq, nominal: Freq) -> f64 {
        let compute = self.mean_service_time * (1.0 - self.mem_fraction) * nominal.hz() / f.hz();
        let service = compute + self.mean_membound_time();
        1.0 / service
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_are_distinct_and_well_formed() {
        let all = AppProfile::all();
        assert_eq!(all.len(), 5);
        let mut names: Vec<&str> = all.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
        for p in &all {
            assert!(p.mean_service_time() > 0.0);
            assert!(p.cov() >= 0.0);
            assert!((0.0..1.0).contains(&p.mem_fraction()));
            assert!(p.paper_requests() > 0);
        }
    }

    #[test]
    fn paper_request_counts_match_table3() {
        assert_eq!(AppProfile::xapian().paper_requests(), 6000);
        assert_eq!(AppProfile::masstree().paper_requests(), 9000);
        assert_eq!(AppProfile::moses().paper_requests(), 900);
        assert_eq!(AppProfile::shore().paper_requests(), 7500);
        assert_eq!(AppProfile::specjbb().paper_requests(), 37500);
    }

    #[test]
    fn masstree_is_tight_and_moses_is_long() {
        let masstree = AppProfile::masstree();
        let moses = AppProfile::moses();
        assert!(masstree.cov() < 0.2);
        assert!(moses.mean_service_time() > 10.0 * masstree.mean_service_time());
        assert!(AppProfile::specjbb().cov() > AppProfile::masstree().cov());
    }

    #[test]
    fn compute_and_memory_split_adds_up() {
        let nominal = Freq::from_mhz(2400);
        for p in AppProfile::all() {
            let total = p.mean_compute_cycles(nominal) / nominal.hz() + p.mean_membound_time();
            assert!((total - p.mean_service_time()).abs() < 1e-12);
        }
    }

    #[test]
    fn capacity_decreases_at_lower_frequency() {
        let p = AppProfile::xapian();
        let nominal = Freq::from_mhz(2400);
        let cap_nominal = p.capacity_qps(nominal, nominal);
        let cap_low = p.capacity_qps(Freq::from_mhz(800), nominal);
        let cap_high = p.capacity_qps(Freq::from_mhz(3400), nominal);
        assert!(cap_low < cap_nominal);
        assert!(cap_high > cap_nominal);
        assert!((cap_nominal - 1.0 / p.mean_service_time()).abs() < 1e-6);
    }

    #[test]
    fn work_factor_sampler_has_unit_mean() {
        use rubik_stats::DeterministicRng;
        let mut rng = DeterministicRng::new(1);
        for p in AppProfile::all() {
            let s = p.work_factor_sampler();
            let mean: f64 = (0..20_000).map(|_| s.sample(&mut rng)).sum::<f64>() / 20_000.0;
            assert!((mean - 1.0).abs() < 0.1, "{}: mean {}", p.name(), mean);
        }
    }

    #[test]
    fn bimodal_shape_produces_two_classes() {
        let p = AppProfile::custom("bimodal", 1e-3, 0.8, ServiceShape::Bimodal, 0.2);
        match p.work_factor_sampler() {
            ServiceSampler::Bimodal { short, long, .. } => assert!(long > short),
            other => panic!("expected bimodal sampler, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "memory fraction")]
    fn custom_rejects_invalid_mem_fraction() {
        let _ = AppProfile::custom("bad", 1e-3, 0.5, ServiceShape::Variable, 1.5);
    }
}
