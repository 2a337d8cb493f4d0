//! Simulation configuration, mirroring the paper's Table 2 where relevant.

use crate::freq::DvfsConfig;

/// Configuration of a simulated server core.
///
/// An idle core is clock-gated at its current frequency and wakes at once;
/// the only span the timeline records as deep sleep is a down server's
/// outage.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// DVFS domain of the core.
    pub dvfs: DvfsConfig,
    /// Interval between periodic policy ticks, in seconds. Rubik rebuilds its
    /// target tail tables on this tick (0.1 s in the paper).
    pub tick_interval: f64,
}

impl SimConfig {
    /// The configuration used by the paper's simulated experiments
    /// (Table 2 + Sec. 4.2): Haswell-like DVFS and 100 ms ticks.
    pub fn paper_simulated() -> Self {
        Self {
            dvfs: DvfsConfig::haswell_like(),
            tick_interval: 0.1,
        }
    }

    /// The configuration approximating the paper's real-system evaluation
    /// (Sec. 5.5): 130 µs DVFS transitions.
    pub fn paper_real_system() -> Self {
        Self {
            dvfs: DvfsConfig::real_haswell(),
            tick_interval: 0.1,
        }
    }

    /// Returns a copy with the given tick interval.
    ///
    /// # Panics
    ///
    /// Panics if `interval <= 0`.
    pub fn with_tick_interval(mut self, interval: f64) -> Self {
        assert!(interval > 0.0, "tick interval must be positive");
        self.tick_interval = interval;
        self
    }

    /// Returns a copy with the given DVFS configuration.
    pub fn with_dvfs(mut self, dvfs: DvfsConfig) -> Self {
        self.dvfs = dvfs;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_simulated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_simulated() {
        let c = SimConfig::default();
        assert_eq!(c.dvfs.nominal().mhz(), 2400);
        assert!((c.tick_interval - 0.1).abs() < 1e-12);
    }

    #[test]
    fn real_system_has_slow_dvfs() {
        let c = SimConfig::paper_real_system();
        assert!((c.dvfs.transition_latency() - 130e-6).abs() < 1e-12);
    }

    #[test]
    fn builders_apply() {
        let c = SimConfig::default()
            .with_tick_interval(0.05)
            .with_dvfs(DvfsConfig::real_haswell());
        assert!((c.tick_interval - 0.05).abs() < 1e-12);
        assert_eq!(c.dvfs, DvfsConfig::real_haswell());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_tick() {
        let _ = SimConfig::default().with_tick_interval(0.0);
    }
}
