//! Simulation configuration, mirroring the paper's Table 2 where relevant.

use crate::freq::DvfsConfig;

/// What the core does while it has no pending requests.
///
/// The paper's simulated CMP supports a Haswell C3-like core sleep state
/// (L1s and L2 flushed to the LLC). The power model in `rubik-power` charges
/// different static power for each mode; the simulator only needs to record
/// which mode the idle time was spent in and the wake-up penalty.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum IdleMode {
    /// Clock-gated idle at the current frequency; wake-up is immediate.
    #[default]
    ClockGated,
    /// Haswell C3-like sleep: private caches flushed, wake-up incurs the
    /// given latency (seconds) before the next request starts service.
    Sleep {
        /// Time to wake the core back up.
        wakeup_latency: f64,
    },
}

/// Configuration of a simulated server core.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// DVFS domain of the core.
    pub dvfs: DvfsConfig,
    /// Interval between periodic policy ticks, in seconds. Rubik rebuilds its
    /// target tail tables on this tick (0.1 s in the paper).
    pub tick_interval: f64,
    /// What the core does while idle.
    pub idle_mode: IdleMode,
}

impl SimConfig {
    /// The configuration used by the paper's simulated experiments
    /// (Table 2 + Sec. 4.2): Haswell-like DVFS, 100 ms ticks, clock-gated
    /// idle.
    pub fn paper_simulated() -> Self {
        Self {
            dvfs: DvfsConfig::haswell_like(),
            tick_interval: 0.1,
            idle_mode: IdleMode::ClockGated,
        }
    }

    /// The configuration approximating the paper's real-system evaluation
    /// (Sec. 5.5): 130 µs DVFS transitions.
    pub fn paper_real_system() -> Self {
        Self {
            dvfs: DvfsConfig::real_haswell(),
            tick_interval: 0.1,
            idle_mode: IdleMode::ClockGated,
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

    /// Returns a copy with the given idle mode.
    pub fn with_idle_mode(mut self, mode: IdleMode) -> Self {
        self.idle_mode = mode;
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
        assert_eq!(c.idle_mode, IdleMode::ClockGated);
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
            .with_idle_mode(IdleMode::Sleep {
                wakeup_latency: 10e-6,
            });
        assert!((c.tick_interval - 0.05).abs() < 1e-12);
        assert_eq!(
            c.idle_mode,
            IdleMode::Sleep {
                wakeup_latency: 10e-6
            }
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_tick() {
        let _ = SimConfig::default().with_tick_interval(0.0);
    }
}
