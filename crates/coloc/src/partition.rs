//! Memory-system partitioning.
//!
//! RubikColoc partitions the shared LLC and memory bandwidth between
//! latency-critical and batch applications (as in Ubik and memory channel
//! partitioning, paper Sec. 6), so that the only interference left to manage
//! is in the small, quickly-refilled core-private state. This module models
//! the effect of that choice: with partitioning, the LC application's
//! memory-bound time is unchanged and batch applications see a reduced LLC
//! share; without partitioning, the LC application's memory-bound time is
//! inflated in proportion to the batch mix's memory intensity.

use rubik_workloads::BatchMix;

/// Configuration of the shared memory system of a colocated server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySystemConfig {
    /// Whether LLC capacity and memory bandwidth are partitioned.
    pub partitioned: bool,
    /// Fraction of the LLC reserved for the latency-critical application
    /// (only meaningful when `partitioned`).
    pub lc_llc_share: f64,
    /// Strength of unpartitioned interference: how much a fully memory-bound
    /// batch mix inflates the LC application's memory-bound time.
    pub unpartitioned_penalty: f64,
}

impl MemorySystemConfig {
    /// The configuration used by all colocation schemes in the paper's
    /// evaluation: partitioned, with half of the LLC reserved for the LC
    /// application.
    pub fn partitioned() -> Self {
        Self {
            partitioned: true,
            lc_llc_share: 0.5,
            unpartitioned_penalty: 0.8,
        }
    }

    /// An unpartitioned memory system (used to show why partitioning is
    /// required, not used by RubikColoc itself).
    pub fn unpartitioned() -> Self {
        Self {
            partitioned: false,
            lc_llc_share: 1.0,
            unpartitioned_penalty: 0.8,
        }
    }

    /// The LLC share available to batch applications.
    pub fn batch_llc_share(&self) -> f64 {
        if self.partitioned {
            (1.0 - self.lc_llc_share).max(0.05)
        } else {
            1.0
        }
    }

    /// Multiplier applied to the LC application's memory-bound time when
    /// colocated with the given batch mix.
    pub fn lc_membound_inflation(&self, mix: &BatchMix) -> f64 {
        if self.partitioned {
            1.0
        } else {
            1.0 + self.unpartitioned_penalty * mix.mean_mem_intensity()
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.05..=0.95).contains(&self.lc_llc_share) {
            return Err("LC LLC share must be in [0.05, 0.95]".into());
        }
        if self.unpartitioned_penalty < 0.0 {
            return Err("unpartitioned penalty must be non-negative".into());
        }
        Ok(())
    }
}

impl Default for MemorySystemConfig {
    fn default() -> Self {
        Self::partitioned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioned_system_does_not_inflate_lc_memory_time() {
        let cfg = MemorySystemConfig::partitioned();
        for mix in BatchMix::paper_mixes(1) {
            assert_eq!(cfg.lc_membound_inflation(&mix), 1.0);
        }
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn unpartitioned_system_inflates_with_mix_memory_intensity() {
        let cfg = MemorySystemConfig::unpartitioned();
        let mixes = BatchMix::paper_mixes(2);
        for mix in &mixes {
            let inflation = cfg.lc_membound_inflation(mix);
            assert!(inflation > 1.0);
            assert!(inflation <= 1.0 + cfg.unpartitioned_penalty);
        }
    }

    #[test]
    fn batch_share_is_the_complement_of_lc_share() {
        let cfg = MemorySystemConfig::partitioned();
        assert!((cfg.batch_llc_share() - 0.5).abs() < 1e-12);
        let un = MemorySystemConfig::unpartitioned();
        assert_eq!(un.batch_llc_share(), 1.0);
    }

    #[test]
    fn validation_catches_extreme_shares() {
        let mut cfg = MemorySystemConfig::partitioned();
        cfg.lc_llc_share = 0.99;
        assert!(cfg.validate().is_err());
    }
}
