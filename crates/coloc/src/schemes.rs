//! Colocation schemes and their frequency selection logic.
//!
//! All four schemes share the same substrate — partitioned memory system,
//! latency-critical (LC) work preempting batch work on each core — and differ
//! only in how core frequency is chosen (paper Sec. 7):
//!
//! * **RubikColoc** — Rubik sets the frequency while LC requests are pending;
//!   batch work runs at its optimal throughput-per-watt (TPW) frequency.
//! * **StaticColoc** — the LC application runs at the StaticOracle frequency
//!   (chosen without accounting for interference); batch at optimal TPW.
//! * **HW-T** — hardware-coordinated DVFS that maximizes aggregate chip IPC
//!   under the TDP. Because IPC gains grow with compute intensity, the
//!   allocation starves memory-bound LC phases of frequency in favour of
//!   compute-bound batch work.
//! * **HW-TPW** — hardware-coordinated DVFS that maximizes aggregate
//!   throughput per watt, which lands at low frequencies regardless of
//!   latency needs.

use rubik_power::{CorePowerModel, Tdp};
use rubik_sim::{DvfsConfig, Freq};
use rubik_workloads::{AppProfile, BatchApp, BatchMix};

/// The colocation schemes compared in Fig. 15 / Fig. 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColocScheme {
    /// Rubik controls the LC frequency; batch runs at optimal TPW.
    RubikColoc,
    /// StaticOracle frequency for LC; batch at optimal TPW.
    StaticColoc,
    /// Hardware DVFS maximizing aggregate IPC under TDP.
    HwThroughput,
    /// Hardware DVFS maximizing aggregate throughput per watt.
    HwThroughputPerWatt,
}

impl ColocScheme {
    /// All schemes, in the order the paper plots them.
    pub fn all() -> [ColocScheme; 4] {
        [
            ColocScheme::StaticColoc,
            ColocScheme::RubikColoc,
            ColocScheme::HwThroughput,
            ColocScheme::HwThroughputPerWatt,
        ]
    }

    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            ColocScheme::RubikColoc => "RubikColoc",
            ColocScheme::StaticColoc => "StaticColoc",
            ColocScheme::HwThroughput => "HW-T",
            ColocScheme::HwThroughputPerWatt => "HW-TPW",
        }
    }
}

/// Relative throughput of a core whose occupant has the given memory-bound
/// fraction `mem`, at frequency `f` (1.0 at the nominal frequency).
fn relative_throughput(mem: f64, f: Freq, nominal: Freq) -> f64 {
    let time = (1.0 - mem) * nominal.hz() / f.hz() + mem;
    1.0 / time
}

/// The frequency that maximizes throughput per watt for a core whose occupant
/// has memory-bound fraction `mem`.
pub fn tpw_optimal_freq(mem: f64, dvfs: &DvfsConfig, power: &CorePowerModel) -> Freq {
    let nominal = dvfs.nominal();
    dvfs.levels()
        .iter()
        .copied()
        .max_by(|&a, &b| {
            let ta = relative_throughput(mem, a, nominal) / power.active_power(a);
            let tb = relative_throughput(mem, b, nominal) / power.active_power(b);
            ta.partial_cmp(&tb).expect("finite TPW")
        })
        .expect("DVFS domain has at least one level")
}

/// The optimal-TPW frequency for a batch application with its LLC share
/// (batch apps never run above nominal, to stay within the TDP — Sec. 7).
pub fn batch_tpw_freq(
    app: &BatchApp,
    llc_share: f64,
    dvfs: &DvfsConfig,
    power: &CorePowerModel,
) -> Freq {
    let nominal = dvfs.nominal();
    dvfs.levels()
        .iter()
        .copied()
        .filter(|&f| f <= nominal)
        .max_by(|&a, &b| {
            let ta = app.throughput(a, nominal, llc_share) / power.active_power(a);
            let tb = app.throughput(b, nominal, llc_share) / power.active_power(b);
            ta.partial_cmp(&tb).expect("finite TPW")
        })
        .expect("at least one level at or below nominal")
}

/// The frequency the HW-T allocator leaves for a core currently serving the
/// LC application, when the other cores of the chip are running the batch
/// mix and the package must stay under TDP.
///
/// HW-T maximizes aggregate instructions per second. Compute-bound batch
/// work converts frequency into IPC far more effectively than the
/// memory-bound LC phases do, so the IPC-optimal allocation boosts the batch
/// cores as high as the TDP allows and hands the LC-serving core only the
/// leftover budget. This latency obliviousness is what produces the large
/// tail degradations the paper reports for HW-T (up to 8.2×, Fig. 15).
pub fn hw_t_lc_freq(
    lc: &AppProfile,
    mix: &BatchMix,
    cores: usize,
    dvfs: &DvfsConfig,
    power: &CorePowerModel,
    tdp: &Tdp,
) -> Freq {
    assert!(cores >= 1);
    let _ = (lc, mix);
    if cores == 1 {
        // No competition for the budget: the single core gets everything.
        return tdp
            .max_uniform_freq(power, dvfs, 1)
            .unwrap_or_else(|| dvfs.min());
    }

    // Step 1: batch cores take the highest uniform frequency that leaves at
    // least the minimum level for the LC core.
    let batch_cores = cores - 1;
    let lc_min_power = power.active_power(dvfs.min());
    let batch_freq = dvfs
        .levels()
        .iter()
        .copied()
        .rev()
        .find(|&f| {
            batch_cores as f64 * power.active_power(f) + lc_min_power <= tdp.core_budget() + 1e-9
        })
        .unwrap_or_else(|| dvfs.min());

    // Step 2: the LC core gets the highest level that still fits in the
    // remaining budget.
    let batch_power = batch_cores as f64 * power.active_power(batch_freq);
    dvfs.levels()
        .iter()
        .copied()
        .rev()
        .find(|&f| batch_power + power.active_power(f) <= tdp.core_budget() + 1e-9)
        .unwrap_or_else(|| dvfs.min())
}

/// The frequency HW-TPW gives a core while it serves the LC application.
pub fn hw_tpw_lc_freq(lc: &AppProfile, dvfs: &DvfsConfig, power: &CorePowerModel) -> Freq {
    tpw_optimal_freq(lc.mem_fraction(), dvfs, power)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DvfsConfig, CorePowerModel, Tdp) {
        (
            DvfsConfig::haswell_like(),
            CorePowerModel::haswell_like(),
            Tdp::paper(),
        )
    }

    #[test]
    fn scheme_names_are_distinct() {
        let names: Vec<&str> = ColocScheme::all().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn tpw_optimal_is_well_below_maximum() {
        let (dvfs, power, _) = setup();
        let f = tpw_optimal_freq(0.3, &dvfs, &power);
        assert!(
            f < Freq::from_mhz(2400),
            "TPW-optimal {f} should be below nominal"
        );
        assert!(f >= dvfs.min());
    }

    #[test]
    fn memory_bound_occupants_prefer_lower_frequencies() {
        let (dvfs, power, _) = setup();
        let compute_bound = tpw_optimal_freq(0.05, &dvfs, &power);
        let memory_bound = tpw_optimal_freq(0.7, &dvfs, &power);
        assert!(memory_bound <= compute_bound);
    }

    #[test]
    fn batch_tpw_never_exceeds_nominal() {
        let (dvfs, power, _) = setup();
        for app in BatchApp::spec_catalogue() {
            let f = batch_tpw_freq(&app, 0.5, &dvfs, &power);
            assert!(f <= dvfs.nominal(), "{}: {f}", app.name());
        }
    }

    #[test]
    fn hw_t_starves_memory_bound_lc_apps() {
        let (dvfs, power, tdp) = setup();
        let mix = &BatchMix::paper_mixes(1)[0];
        // A memory-bound LC app competes badly for TDP headroom against
        // compute-bound batch work.
        let lc = AppProfile::masstree();
        let f = hw_t_lc_freq(&lc, mix, 6, &dvfs, &power, &tdp);
        assert!(
            f < Freq::from_mhz(2400),
            "HW-T gave the LC core {f}, expected below nominal"
        );
    }

    #[test]
    fn hw_t_with_a_single_core_gives_it_everything() {
        let (dvfs, power, tdp) = setup();
        let mix = &BatchMix::paper_mixes(1)[0];
        let lc = AppProfile::masstree();
        let f = hw_t_lc_freq(&lc, mix, 1, &dvfs, &power, &tdp);
        assert_eq!(f, dvfs.max());
    }

    #[test]
    fn hw_tpw_picks_a_low_frequency_for_lc() {
        let (dvfs, power, _) = setup();
        let f = hw_tpw_lc_freq(&AppProfile::xapian(), &dvfs, &power);
        assert!(f <= Freq::from_mhz(2000), "HW-TPW chose {f}");
    }
}
