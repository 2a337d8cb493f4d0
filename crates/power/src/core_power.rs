//! Core power and energy.
//!
//! Active core power is modelled as `P = α·V(f)²·f + P_leak(V)`, the standard
//! CMOS decomposition; idle (clock-gated) power retains leakage plus a small
//! clock-tree component, and deep sleep power is a small constant. Energy is
//! integrated directly from the frequency/activity residency produced by the
//! simulator, so every scheme is charged for exactly the time it spent at
//! each frequency (this is what Fig. 1a, Fig. 6 and Fig. 9b report).

use rubik_sim::{Freq, FreqResidency};

use crate::vf::VfCurve;

/// Energy consumed by one core over a run, broken down by activity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CoreEnergy {
    /// Energy (J) while executing requests.
    pub active: f64,
    /// Energy (J) while idle (clock-gated).
    pub idle: f64,
    /// Energy (J) while in deep sleep.
    pub sleep: f64,
}

impl CoreEnergy {
    /// Total core energy in joules.
    pub fn total(&self) -> f64 {
        self.active + self.idle + self.sleep
    }
}

/// Analytic model of a single core's power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorePowerModel {
    vf: VfCurve,
    /// Effective switched capacitance coefficient: dynamic power =
    /// `dyn_coeff · V² · f_ghz` watts.
    dyn_coeff: f64,
    /// Leakage power = `leak_coeff · V` watts.
    leak_coeff: f64,
    /// Fraction of dynamic power still consumed while clock-gated (clock
    /// tree, always-on logic).
    idle_dynamic_fraction: f64,
    /// Deep-sleep power in watts.
    sleep_power: f64,
}

impl CorePowerModel {
    /// Creates a core power model.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient is negative or `idle_dynamic_fraction` is
    /// outside `[0, 1]`.
    pub fn new(
        vf: VfCurve,
        dyn_coeff: f64,
        leak_coeff: f64,
        idle_dynamic_fraction: f64,
        sleep_power: f64,
    ) -> Self {
        assert!(dyn_coeff >= 0.0 && leak_coeff >= 0.0 && sleep_power >= 0.0);
        assert!((0.0..=1.0).contains(&idle_dynamic_fraction));
        Self {
            vf,
            dyn_coeff,
            leak_coeff,
            idle_dynamic_fraction,
            sleep_power,
        }
    }

    /// The Haswell-like model used throughout the reproduction: roughly 6 W
    /// active at the 2.4 GHz nominal frequency, 1.6 W at 0.8 GHz, and 11 W at
    /// 3.4 GHz, with ~1 W of leakage at nominal voltage and 0.1 W in deep
    /// sleep — consistent with the per-core budget of the paper's 65 W TDP,
    /// 4-core Xeon E3 (Table 2, Sec. 5.1).
    pub fn haswell_like() -> Self {
        Self::new(VfCurve::haswell_like(), 2.6, 1.1, 0.10, 0.1)
    }

    /// Dynamic power (W) while executing at frequency `f`.
    pub fn dynamic_power(&self, f: Freq) -> f64 {
        let v = self.vf.voltage(f);
        self.dyn_coeff * v * v * f.ghz()
    }

    /// Leakage power (W) at the voltage required for frequency `f`.
    pub fn leakage_power(&self, f: Freq) -> f64 {
        self.leak_coeff * self.vf.voltage(f)
    }

    /// Total power (W) while actively executing at frequency `f`.
    pub fn active_power(&self, f: Freq) -> f64 {
        self.dynamic_power(f) + self.leakage_power(f)
    }

    /// Power (W) while idle but clock-gated at frequency `f`.
    pub fn idle_power(&self, f: Freq) -> f64 {
        self.idle_dynamic_fraction * self.dynamic_power(f) + self.leakage_power(f)
    }

    /// Power (W) in deep sleep.
    pub fn sleep_power(&self) -> f64 {
        self.sleep_power
    }

    /// Energy for a run, from the simulator's frequency/activity residency.
    pub fn energy(&self, residency: &FreqResidency) -> CoreEnergy {
        let mut e = CoreEnergy::default();
        for (&f, &t) in &residency.busy {
            e.active += self.active_power(f) * t;
        }
        for (&f, &t) in &residency.idle {
            e.idle += self.idle_power(f) * t;
        }
        e.sleep = self.sleep_power * residency.sleep;
        e
    }

    /// Average power (W) over a residency (total energy over total time), or
    /// 0 for an empty residency.
    pub fn average_power(&self, residency: &FreqResidency) -> f64 {
        let t = residency.total_time();
        if t <= 0.0 {
            0.0
        } else {
            self.energy(residency).total() / t
        }
    }

    /// Core energy per request: total energy divided by the request count.
    ///
    /// # Panics
    ///
    /// Panics if `requests == 0`.
    pub fn energy_per_request(&self, residency: &FreqResidency, requests: usize) -> f64 {
        assert!(requests > 0, "cannot attribute energy to zero requests");
        self.energy(residency).total() / requests as f64
    }
}

impl Default for CorePowerModel {
    fn default() -> Self {
        Self::haswell_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubik_sim::{CoreActivity, RunResult, Segment};

    fn residency(busy_s: f64, idle_s: f64, mhz: u32) -> FreqResidency {
        let segments = vec![
            Segment {
                start: 0.0,
                end: busy_s,
                freq: Freq::from_mhz(mhz),
                activity: CoreActivity::Busy,
            },
            Segment {
                start: busy_s,
                end: busy_s + idle_s,
                freq: Freq::from_mhz(mhz),
                activity: CoreActivity::Idle,
            },
        ];
        RunResult::new(vec![], segments, busy_s + idle_s).freq_residency()
    }

    #[test]
    fn power_increases_superlinearly_with_frequency() {
        let m = CorePowerModel::haswell_like();
        let p08 = m.active_power(Freq::from_mhz(800));
        let p24 = m.active_power(Freq::from_mhz(2400));
        let p34 = m.active_power(Freq::from_mhz(3400));
        assert!(p08 < p24 && p24 < p34);
        // Superlinear: tripling frequency more than triples power.
        assert!(p24 / p08 > 3.0, "p24/p08 = {}", p24 / p08);
        // Sanity band around the Haswell-like calibration.
        assert!(p24 > 4.0 && p24 < 9.0, "p24 = {p24}");
        assert!(p34 > 8.0 && p34 < 14.0, "p34 = {p34}");
    }

    #[test]
    fn idle_power_is_much_lower_than_active() {
        let m = CorePowerModel::haswell_like();
        let f = Freq::from_mhz(2400);
        assert!(m.idle_power(f) < 0.5 * m.active_power(f));
        assert!(m.sleep_power() < m.idle_power(Freq::from_mhz(800)));
    }

    #[test]
    fn energy_integrates_residency() {
        let m = CorePowerModel::haswell_like();
        let res = residency(2.0, 1.0, 2400);
        let e = m.energy(&res);
        let f = Freq::from_mhz(2400);
        assert!((e.active - 2.0 * m.active_power(f)).abs() < 1e-9);
        assert!((e.idle - 1.0 * m.idle_power(f)).abs() < 1e-9);
        assert_eq!(e.sleep, 0.0);
        assert!((m.average_power(&res) - e.total() / 3.0).abs() < 1e-9);
    }

    #[test]
    fn running_slower_uses_less_energy_for_fixed_busy_time_split() {
        // Same wall-clock mix of busy/idle, lower frequency → less energy.
        let m = CorePowerModel::haswell_like();
        let fast = m.energy(&residency(1.0, 1.0, 2400)).total();
        let slow = m.energy(&residency(1.0, 1.0, 1200)).total();
        assert!(slow < fast);
    }

    #[test]
    fn race_to_idle_vs_slow_and_steady() {
        // The core must execute 2.4e9 cycles. At 2.4 GHz that is 1 s busy +
        // 2 s idle; at 0.8 GHz it is 3 s busy and no idle. With a convex
        // power curve and low idle power, running slowly should save energy
        // (this is the premise of DVFS for latency-critical work).
        let m = CorePowerModel::haswell_like();
        let race = m.energy(&residency(1.0, 2.0, 2400)).total();
        let steady = m.energy(&residency(3.0, 0.0, 800)).total();
        assert!(steady < race, "steady {steady} vs race {race}");
    }

    #[test]
    fn energy_per_request_divides_total() {
        let m = CorePowerModel::haswell_like();
        let res = residency(1.0, 0.0, 2400);
        let e = m.energy_per_request(&res, 100);
        assert!((e - m.energy(&res).total() / 100.0).abs() < 1e-12);
    }

    #[test]
    fn empty_residency_has_zero_power() {
        let m = CorePowerModel::haswell_like();
        assert_eq!(m.average_power(&FreqResidency::default()), 0.0);
    }

    #[test]
    #[should_panic(expected = "zero requests")]
    fn energy_per_request_rejects_zero() {
        let m = CorePowerModel::haswell_like();
        let _ = m.energy_per_request(&FreqResidency::default(), 0);
    }
}
