//! Thermal design power (TDP) accounting.
//!
//! The paper's chip has a 65 W TDP (Table 2); hardware-coordinated DVFS
//! schemes (HW-T, HW-TPW in Sec. 7) choose per-core frequencies subject to
//! the package staying under TDP, and batch applications never run above
//! nominal frequency "to stay within the TDP" (Sec. 7). [`Tdp`] provides
//! those checks.

use rubik_sim::{DvfsConfig, Freq};

use crate::core_power::CorePowerModel;

/// A package-level power budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tdp {
    budget_watts: f64,
    /// Package power not attributable to cores (uncore share under the lid).
    uncore_watts: f64,
}

impl Tdp {
    /// Creates a TDP budget.
    ///
    /// # Panics
    ///
    /// Panics if the budget is not positive or the uncore share is negative
    /// or exceeds the budget.
    pub fn new(budget_watts: f64, uncore_watts: f64) -> Self {
        assert!(budget_watts > 0.0, "TDP must be positive");
        assert!(
            (0.0..budget_watts).contains(&uncore_watts),
            "uncore power must be within the budget"
        );
        Self {
            budget_watts,
            uncore_watts,
        }
    }

    /// The paper's 65 W TDP with an 8 W uncore share.
    pub fn paper() -> Self {
        Self::new(65.0, 8.0)
    }

    /// The package budget in watts.
    pub fn budget(&self) -> f64 {
        self.budget_watts
    }

    /// The budget available to cores.
    pub fn core_budget(&self) -> f64 {
        self.budget_watts - self.uncore_watts
    }

    /// Whether running every core in `freqs` actively at the given frequency
    /// fits in the budget.
    pub fn fits(&self, model: &CorePowerModel, freqs: &[Freq]) -> bool {
        let total: f64 = freqs.iter().map(|&f| model.active_power(f)).sum();
        total <= self.core_budget() + 1e-9
    }

    /// The highest uniform frequency at which `cores` active cores fit in the
    /// budget, or `None` if even the minimum level does not fit.
    pub fn max_uniform_freq(
        &self,
        model: &CorePowerModel,
        dvfs: &DvfsConfig,
        cores: usize,
    ) -> Option<Freq> {
        assert!(cores > 0);
        dvfs.levels()
            .iter()
            .copied()
            .rev()
            .find(|&f| self.fits(model, &vec![f; cores]))
    }
}

impl Default for Tdp {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_cores_at_nominal_fit_the_paper_tdp() {
        let tdp = Tdp::paper();
        let model = CorePowerModel::haswell_like();
        let freqs = vec![Freq::from_mhz(2400); 6];
        assert!(tdp.fits(&model, &freqs));
    }

    #[test]
    fn six_cores_at_turbo_exceed_the_paper_tdp() {
        let tdp = Tdp::paper();
        let model = CorePowerModel::haswell_like();
        let freqs = vec![Freq::from_mhz(3400); 6];
        assert!(!tdp.fits(&model, &freqs));
    }

    #[test]
    fn max_uniform_freq_is_between_nominal_and_turbo() {
        let tdp = Tdp::paper();
        let model = CorePowerModel::haswell_like();
        let dvfs = DvfsConfig::haswell_like();
        let f = tdp.max_uniform_freq(&model, &dvfs, 6).unwrap();
        assert!(f >= Freq::from_mhz(2400));
        assert!(f < Freq::from_mhz(3400));
        // A single core can always turbo.
        assert_eq!(tdp.max_uniform_freq(&model, &dvfs, 1).unwrap(), dvfs.max());
    }

    #[test]
    fn impossible_budget_returns_none() {
        let tdp = Tdp::new(10.0, 8.0);
        let model = CorePowerModel::haswell_like();
        let dvfs = DvfsConfig::haswell_like();
        assert!(tdp.max_uniform_freq(&model, &dvfs, 6).is_none());
    }

    #[test]
    #[should_panic(expected = "within the budget")]
    fn rejects_uncore_exceeding_budget() {
        let _ = Tdp::new(10.0, 12.0);
    }
}
