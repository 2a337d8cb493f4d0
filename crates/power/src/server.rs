//! Full-system (server) power.
//!
//! Rubik only reduces active core power; uncore, DRAM, and "other" components
//! (power supply losses, disks, NICs) keep drawing power even when the
//! machine is idle. This is why the full-system savings in Fig. 12 are much
//! smaller than the core savings in Fig. 6, and why RubikColoc attacks idle
//! power through colocation (Sec. 6). [`ServerPowerModel`] layers those
//! components on top of [`CorePowerModel`].

use rubik_sim::FreqResidency;

use crate::core_power::{CoreEnergy, CorePowerModel};

/// Energy consumed by a whole server over an interval.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerEnergy {
    /// Sum of all per-core energies (J).
    pub cores: f64,
    /// Uncore energy (LLC, ring, memory controller) (J).
    pub uncore: f64,
    /// DRAM energy (J).
    pub dram: f64,
    /// Everything else: PSU losses, disk, NIC, fans (J).
    pub other: f64,
}

impl ServerEnergy {
    /// Total server energy in joules.
    pub fn total(&self) -> f64 {
        self.cores + self.uncore + self.dram + self.other
    }
}

/// Power model for one server: N cores plus shared components.
///
/// Component magnitudes follow the breakdown the paper's power model reports
/// (cores, uncore, DRAM, other) for a single-socket Xeon E3 server, where
/// idle power is a large fraction of peak (Sec. 6, [1, 38, 41]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerPowerModel {
    core_model: CorePowerModel,
    cores: usize,
    /// Static uncore power (W), drawn whenever the server is on.
    uncore_static: f64,
    /// Additional uncore power (W) per active (non-sleeping) core.
    uncore_per_active_core: f64,
    /// Static DRAM power (W).
    dram_static: f64,
    /// Additional DRAM power (W) per core-equivalent of memory activity.
    dram_per_active_core: f64,
    /// Constant "other" platform power (W): PSU losses, disk, NIC, fans.
    other_static: f64,
}

impl ServerPowerModel {
    /// Creates a server power model.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or any component power is negative.
    pub fn new(
        core_model: CorePowerModel,
        cores: usize,
        uncore_static: f64,
        uncore_per_active_core: f64,
        dram_static: f64,
        dram_per_active_core: f64,
        other_static: f64,
    ) -> Self {
        assert!(cores > 0, "a server needs at least one core");
        assert!(
            uncore_static >= 0.0
                && uncore_per_active_core >= 0.0
                && dram_static >= 0.0
                && dram_per_active_core >= 0.0
                && other_static >= 0.0,
            "component powers must be non-negative"
        );
        Self {
            core_model,
            cores,
            uncore_static,
            uncore_per_active_core,
            dram_static,
            dram_per_active_core,
            other_static,
        }
    }

    /// The 6-core server of the paper's simulated experiments (Table 2).
    pub fn paper_simulated() -> Self {
        Self::new(CorePowerModel::haswell_like(), 6, 8.0, 1.0, 6.0, 1.5, 35.0)
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The per-core power model.
    pub fn core_model(&self) -> &CorePowerModel {
        &self.core_model
    }

    /// Idle server power (W): all cores idle at the minimum frequency, no
    /// activity anywhere.
    pub fn idle_power(&self) -> f64 {
        let f_min = rubik_sim::DvfsConfig::haswell_like().min();
        self.cores as f64 * self.core_model.idle_power(f_min)
            + self.uncore_static
            + self.dram_static
            + self.other_static
    }

    /// Peak server power (W): all cores active at the maximum frequency.
    pub fn peak_power(&self) -> f64 {
        let f_max = rubik_sim::DvfsConfig::haswell_like().max();
        self.cores as f64
            * (self.core_model.active_power(f_max)
                + self.uncore_per_active_core
                + self.dram_per_active_core)
            + self.uncore_static
            + self.dram_static
            + self.other_static
    }

    /// Server energy over an interval of `duration` seconds, given the
    /// residency of each occupied core. Cores not listed are charged idle
    /// power at the minimum frequency.
    ///
    /// # Panics
    ///
    /// Panics if more residencies are supplied than the server has cores, or
    /// `duration <= 0`.
    pub fn energy(&self, core_residencies: &[FreqResidency], duration: f64) -> ServerEnergy {
        assert!(
            core_residencies.len() <= self.cores,
            "more core residencies than cores"
        );
        assert!(duration > 0.0, "duration must be positive");

        let f_min = rubik_sim::DvfsConfig::haswell_like().min();
        let mut cores_energy = 0.0;
        let mut busy_core_seconds = 0.0;
        for res in core_residencies {
            let e: CoreEnergy = self.core_model.energy(res);
            cores_energy += e.total();
            // Charge idle power for any part of the interval the residency
            // does not cover (e.g. a short trace on a long interval).
            let uncovered = (duration - res.total_time()).max(0.0);
            cores_energy += self.core_model.idle_power(f_min) * uncovered;
            busy_core_seconds += res.busy_time();
        }
        // Unoccupied cores idle for the whole interval.
        let unoccupied = self.cores - core_residencies.len();
        cores_energy += unoccupied as f64 * self.core_model.idle_power(f_min) * duration;

        let uncore =
            self.uncore_static * duration + self.uncore_per_active_core * busy_core_seconds;
        let dram = self.dram_static * duration + self.dram_per_active_core * busy_core_seconds;
        let other = self.other_static * duration;

        ServerEnergy {
            cores: cores_energy,
            uncore,
            dram,
            other,
        }
    }

    /// Average server power (W) over an interval.
    pub fn average_power(&self, core_residencies: &[FreqResidency], duration: f64) -> f64 {
        self.energy(core_residencies, duration).total() / duration
    }
}

impl Default for ServerPowerModel {
    fn default() -> Self {
        Self::paper_simulated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubik_sim::{CoreActivity, Freq, RunResult, Segment};

    fn busy_residency(busy_s: f64, total_s: f64, mhz: u32) -> FreqResidency {
        let segments = vec![
            Segment {
                start: 0.0,
                end: busy_s,
                freq: Freq::from_mhz(mhz),
                activity: CoreActivity::Busy,
            },
            Segment {
                start: busy_s,
                end: total_s,
                freq: Freq::from_mhz(mhz),
                activity: CoreActivity::Idle,
            },
        ];
        RunResult::new(vec![], segments, total_s).freq_residency()
    }

    #[test]
    fn idle_power_is_a_large_fraction_of_peak() {
        // The motivation for colocation: servers are not energy-proportional.
        let m = ServerPowerModel::paper_simulated();
        let ratio = m.idle_power() / m.peak_power();
        assert!(ratio > 0.3, "idle/peak = {ratio}");
        assert!(ratio < 0.8, "idle/peak = {ratio}");
    }

    #[test]
    fn energy_scales_with_activity() {
        let m = ServerPowerModel::paper_simulated();
        let idle = m.energy(&[], 10.0).total();
        let one_busy = m.energy(&[busy_residency(10.0, 10.0, 2400)], 10.0).total();
        let six_busy = m
            .energy(&vec![busy_residency(10.0, 10.0, 2400); 6], 10.0)
            .total();
        assert!(idle < one_busy);
        assert!(one_busy < six_busy);
        assert!((idle / 10.0 - m.idle_power()).abs() < 1e-9);
    }

    #[test]
    fn uncovered_time_is_charged_as_idle() {
        let m = ServerPowerModel::paper_simulated();
        // A residency covering only 2 s of a 10 s interval.
        let partial = m.energy(&[busy_residency(2.0, 2.0, 2400)], 10.0).total();
        let idle_only = m.energy(&[], 10.0).total();
        assert!(partial > idle_only);
        assert!(partial < idle_only + 200.0);
    }

    #[test]
    fn full_system_savings_are_smaller_than_core_savings() {
        // Fig. 6 vs Fig. 12: a 50% cut in active core time yields a much
        // smaller relative cut in total server power.
        let m = ServerPowerModel::paper_simulated();
        let high = m.average_power(&vec![busy_residency(10.0, 10.0, 2400); 6], 10.0);
        let low = m.average_power(&vec![busy_residency(10.0, 10.0, 1200); 6], 10.0);
        let core_high = m.core_model().active_power(Freq::from_mhz(2400));
        let core_low = m.core_model().active_power(Freq::from_mhz(1200));
        let core_savings = 1.0 - core_low / core_high;
        let system_savings = 1.0 - low / high;
        assert!(system_savings < core_savings);
        assert!(system_savings > 0.0);
    }

    #[test]
    #[should_panic(expected = "more core residencies than cores")]
    fn rejects_too_many_residencies() {
        let m = ServerPowerModel::paper_simulated();
        let _ = m.energy(&vec![FreqResidency::default(); 7], 1.0);
    }
}
