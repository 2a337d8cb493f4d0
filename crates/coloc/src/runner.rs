//! Single-core colocation simulation.
//!
//! [`ColocatedCore`] evaluates one colocated core: one latency-critical (LC)
//! application instance sharing the core with a batch mix. LC requests
//! preempt batch work; batch work fills every idle gap (achieving the 100%
//! core utilization of Sec. 6). The LC side runs through the full
//! event-driven simulator with the scheme's DVFS policy, on a trace that has
//! been transformed by the interference model; the batch side is accounted
//! for analytically from the core's idle time.

use rubik_core::{RubikConfig, RubikController, StaticOracle};
use rubik_power::CorePowerModel;
use rubik_sim::{FixedFrequencyPolicy, Freq, Server, SimConfig};
use rubik_workloads::{AppProfile, BatchMix, WorkloadGenerator};

use crate::interference::CoreInterferenceModel;
use crate::schemes::{batch_tpw_freq, hw_t_lc_freq, hw_tpw_lc_freq, ColocScheme};

/// The share of the LLC left to batch work on a colocated core.
/// RubikColoc partitions the LLC and memory bandwidth between the LC
/// application and batch work (as in Ubik and memory channel partitioning,
/// paper Sec. 6), half each, so batch work never inflates the LC
/// application's memory-bound time.
pub(crate) const BATCH_LLC_SHARE: f64 = 0.5;

/// Result of simulating one colocated core under one scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColocOutcome {
    /// Tail (95th percentile) latency of the LC application.
    pub tail_latency: f64,
    /// Tail latency divided by the latency bound (1.0 = exactly at bound).
    pub normalized_tail: f64,
    /// Core energy spent serving LC requests (J).
    pub lc_energy: f64,
    /// Core energy spent running batch work in the idle gaps (J).
    pub batch_energy: f64,
    /// Batch work units completed in the idle gaps.
    pub batch_work: f64,
    /// Fraction of wall-clock time the core served LC requests.
    pub lc_utilization: f64,
    /// Wall-clock duration of the run (seconds).
    pub duration: f64,
}

impl ColocOutcome {
    /// Total core energy (LC + batch) in joules.
    pub fn total_energy(&self) -> f64 {
        self.lc_energy + self.batch_energy
    }

    /// Average core power over the run, in watts.
    pub fn average_power(&self) -> f64 {
        if self.duration <= 0.0 {
            0.0
        } else {
            self.total_energy() / self.duration
        }
    }
}

/// Declarative specification of one colocated-core run: which scheme serves
/// which LC application at which load, next to which batch mix, under which
/// tail-latency bound.
///
/// Built with [`ColocRunSpec::new`] plus `with_*` setters (load defaults to
/// 0.5, requests to 1000, seed to 0), and executed by
/// [`ColocatedCore::run`]. This replaces the old seven-positional-argument
/// `run` signature, whose call sites were unreadable and fragile to
/// reordering.
///
/// ```
/// use rubik_coloc::{ColocRunSpec, ColocScheme, ColocatedCore};
/// use rubik_workloads::{AppProfile, BatchMix};
///
/// let core = ColocatedCore::new();
/// let profile = AppProfile::masstree();
/// let mix = BatchMix::paper_mixes(1)[0].clone();
/// let bound = core.latency_bound(&profile, 800, 11);
///
/// let spec = ColocRunSpec::new(ColocScheme::RubikColoc, &profile, &mix, bound)
///     .with_load(0.4)
///     .with_requests(800)
///     .with_seed(1);
/// let outcome = core.run(&spec);
/// assert!(outcome.tail_latency > 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ColocRunSpec<'a> {
    scheme: ColocScheme,
    profile: &'a AppProfile,
    mix: &'a BatchMix,
    latency_bound: f64,
    load: f64,
    requests: usize,
    seed: u64,
}

impl<'a> ColocRunSpec<'a> {
    /// Creates a spec with the required ingredients: the scheme, the LC
    /// application, the colocated batch mix, and the LC tail-latency bound.
    /// Load (0.5), request count (1000), and seed (0) start at defaults.
    ///
    /// # Panics
    ///
    /// Panics if `latency_bound <= 0`.
    pub fn new(
        scheme: ColocScheme,
        profile: &'a AppProfile,
        mix: &'a BatchMix,
        latency_bound: f64,
    ) -> Self {
        assert!(latency_bound > 0.0, "latency bound must be positive");
        Self {
            scheme,
            profile,
            mix,
            latency_bound,
            load: 0.5,
            requests: 1000,
            seed: 0,
        }
    }

    /// Sets the LC load (fraction of one core's nominal capacity).
    ///
    /// # Panics
    ///
    /// Panics if `load <= 0`.
    pub fn with_load(mut self, load: f64) -> Self {
        assert!(load > 0.0, "load must be positive");
        self.load = load;
        self
    }

    /// Sets the number of LC requests to simulate.
    ///
    /// # Panics
    ///
    /// Panics if `requests == 0`.
    pub fn with_requests(mut self, requests: usize) -> Self {
        assert!(requests > 0, "request count must be positive");
        self.requests = requests;
        self
    }

    /// Sets the RNG seed for the trace generator.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The colocation scheme under test.
    pub fn scheme(&self) -> ColocScheme {
        self.scheme
    }

    /// The latency-critical application profile.
    pub fn profile(&self) -> &'a AppProfile {
        self.profile
    }

    /// The colocated batch mix.
    pub fn mix(&self) -> &'a BatchMix {
        self.mix
    }

    /// The LC tail-latency bound.
    pub fn latency_bound(&self) -> f64 {
        self.latency_bound
    }

    /// The LC load.
    pub fn load(&self) -> f64 {
        self.load
    }

    /// Requests per run.
    pub fn requests(&self) -> usize {
        self.requests
    }

    /// The RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Simulator for one colocated core.
#[derive(Debug, Clone)]
pub struct ColocatedCore {
    sim_config: SimConfig,
    power: CorePowerModel,
    interference: CoreInterferenceModel,
    quantile: f64,
    force_rubik_rebuilds: bool,
}

impl ColocatedCore {
    /// Creates a colocated-core simulator with the paper's configuration.
    pub fn new() -> Self {
        Self {
            sim_config: SimConfig::paper_simulated(),
            power: CorePowerModel::haswell_like(),
            interference: CoreInterferenceModel::paper_default(),
            quantile: 0.95,
            force_rubik_rebuilds: false,
        }
    }

    /// Turns off the RubikColoc controller's version gate, so every tick
    /// hands its profile to the table builder (which still serves a
    /// bit-identical repeat of its last build as a copy). Outcomes are
    /// bit-identical either way (property-tested in
    /// `tests/parallel_determinism.rs`); this hook exists for those tests
    /// and for benchmarking the gating win.
    pub fn with_forced_rubik_rebuilds(mut self, forced: bool) -> Self {
        self.force_rubik_rebuilds = forced;
        self
    }

    /// Overrides the interference model.
    pub fn with_interference(mut self, interference: CoreInterferenceModel) -> Self {
        self.interference = interference;
        self
    }

    /// The latency bound used for an LC application: the tail latency of the
    /// fixed-frequency scheme at 50% load without colocation (the same
    /// definition as the standalone Rubik evaluation, Sec. 5.2).
    pub fn latency_bound(&self, profile: &AppProfile, requests: usize, seed: u64) -> f64 {
        let mut generator = WorkloadGenerator::new(profile.clone(), seed);
        let trace = generator.steady_trace(0.5, requests);
        StaticOracle::new(self.sim_config.dvfs.clone(), self.quantile)
            .tail_at(&trace, self.sim_config.dvfs.nominal())
            .unwrap_or(profile.mean_service_time() * 3.0)
    }

    /// Runs one colocated core as described by `spec`: the LC application at
    /// its load sharing the core with the batch mix, under the scheme, with
    /// the LC tail bound.
    pub fn run(&self, spec: &ColocRunSpec<'_>) -> ColocOutcome {
        let &ColocRunSpec {
            scheme,
            profile,
            mix,
            latency_bound,
            load,
            requests,
            seed,
        } = spec;
        let dvfs = &self.sim_config.dvfs;
        let mut generator = WorkloadGenerator::new(profile.clone(), seed);
        let base_trace = generator.steady_trace(load, requests);

        // Interference: warm-up penalties in idle gaps.
        let trace = self
            .interference
            .apply(&base_trace, profile.mean_service_time());

        // Batch frequency: TPW-optimal for the software schemes, the
        // scheme's own preference for the hardware schemes.
        let mean_batch_tpw_freq = self.mean_batch_freq(mix, BATCH_LLC_SHARE);

        let (result, batch_freq) = match scheme {
            ColocScheme::RubikColoc => {
                let mut config = RubikConfig::new(latency_bound).with_profiling_window(2048);
                if self.force_rubik_rebuilds {
                    config = config.without_rebuild_gating();
                }
                let mut rubik =
                    RubikController::seeded_for_trace(config, dvfs.clone(), &trace, 512);
                (
                    Server::new(self.sim_config.clone()).run(&trace, &mut rubik),
                    mean_batch_tpw_freq,
                )
            }
            ColocScheme::StaticColoc => {
                // StaticOracle frequency chosen on the *interference-free*
                // trace: the scheme does not anticipate colocation effects.
                let freq = StaticOracle::new(dvfs.clone(), self.quantile)
                    .lowest_feasible_freq(&base_trace, latency_bound);
                let mut policy = FixedFrequencyPolicy::new(freq);
                (
                    Server::new(self.sim_config.clone()).run(&trace, &mut policy),
                    mean_batch_tpw_freq,
                )
            }
            ColocScheme::HwThroughput => {
                let freq = hw_t_lc_freq(
                    profile,
                    mix,
                    6,
                    dvfs,
                    &self.power,
                    &rubik_power::Tdp::paper(),
                );
                let mut policy = FixedFrequencyPolicy::new(freq);
                let batch = dvfs.nominal(); // IPC-maximizing batch frequency under TDP
                (
                    Server::new(self.sim_config.clone()).run(&trace, &mut policy),
                    batch,
                )
            }
            ColocScheme::HwThroughputPerWatt => {
                let freq = hw_tpw_lc_freq(profile, dvfs, &self.power);
                let mut policy = FixedFrequencyPolicy::new(freq);
                (
                    Server::new(self.sim_config.clone()).run(&trace, &mut policy),
                    mean_batch_tpw_freq,
                )
            }
        };

        let tail = result.tail_latency(self.quantile).unwrap_or(0.0);
        let residency = result.freq_residency();
        let duration = residency.total_time().max(result.end_time());
        let lc_energy = self.power.energy(&residency).active;
        // Batch work fills all non-busy time on the colocated core.
        let idle_time = duration - residency.busy_time();
        let batch_energy = self.power.active_power(batch_freq) * idle_time;
        let batch_work = idle_time * self.mean_batch_throughput(mix, batch_freq, BATCH_LLC_SHARE);

        ColocOutcome {
            tail_latency: tail,
            normalized_tail: tail / latency_bound,
            lc_energy,
            batch_energy,
            batch_work,
            lc_utilization: residency.busy_time() / duration.max(1e-12),
            duration,
        }
    }

    /// Mean TPW-optimal batch frequency over the mix.
    fn mean_batch_freq(&self, mix: &BatchMix, llc_share: f64) -> Freq {
        let dvfs = &self.sim_config.dvfs;
        if mix.apps.is_empty() {
            return dvfs.nominal();
        }
        let mean_mhz: f64 = mix
            .apps
            .iter()
            .map(|a| batch_tpw_freq(a, llc_share, dvfs, &self.power).mhz() as f64)
            .sum::<f64>()
            / mix.apps.len() as f64;
        dvfs.floor_level(mean_mhz * 1e6)
    }

    /// Mean batch throughput (work units per second) over the mix at the
    /// given frequency and LLC share.
    pub fn mean_batch_throughput(&self, mix: &BatchMix, freq: Freq, llc_share: f64) -> f64 {
        if mix.apps.is_empty() {
            return 0.0;
        }
        let nominal = self.sim_config.dvfs.nominal();
        mix.apps
            .iter()
            .map(|a| a.throughput(freq, nominal, llc_share))
            .sum::<f64>()
            / mix.apps.len() as f64
    }

    /// The core power model used by this simulator.
    pub fn power_model(&self) -> &CorePowerModel {
        &self.power
    }

    /// The simulator configuration.
    pub fn sim_config(&self) -> &SimConfig {
        &self.sim_config
    }
}

impl Default for ColocatedCore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ColocatedCore, AppProfile, BatchMix, f64) {
        let core = ColocatedCore::new();
        let profile = AppProfile::masstree();
        let mix = BatchMix::paper_mixes(1)[0].clone();
        let bound = core.latency_bound(&profile, 2000, 11);
        (core, profile, mix, bound)
    }

    #[test]
    fn rubikcoloc_maintains_the_tail_bound() {
        let (core, profile, mix, bound) = setup();
        let outcome = core.run(
            &ColocRunSpec::new(ColocScheme::RubikColoc, &profile, &mix, bound)
                .with_load(0.5)
                .with_requests(2000)
                .with_seed(1),
        );
        assert!(
            outcome.normalized_tail <= 1.15,
            "RubikColoc normalized tail = {}",
            outcome.normalized_tail
        );
        assert!(outcome.batch_work > 0.0);
        assert!(outcome.lc_utilization > 0.2 && outcome.lc_utilization < 0.9);
    }

    #[test]
    fn hardware_schemes_degrade_the_tail_more_than_rubikcoloc() {
        let (core, profile, mix, bound) = setup();
        let at_load = |scheme| {
            ColocRunSpec::new(scheme, &profile, &mix, bound)
                .with_load(0.6)
                .with_requests(1500)
                .with_seed(2)
        };
        let rubik = core.run(&at_load(ColocScheme::RubikColoc));
        let hw_tpw = core.run(&at_load(ColocScheme::HwThroughputPerWatt));
        let hw_t = core.run(&at_load(ColocScheme::HwThroughput));
        assert!(hw_tpw.normalized_tail > rubik.normalized_tail);
        assert!(hw_t.normalized_tail > rubik.normalized_tail);
    }

    #[test]
    fn batch_work_decreases_as_lc_load_increases() {
        let (core, profile, mix, bound) = setup();
        let at_load = |load| {
            ColocRunSpec::new(ColocScheme::RubikColoc, &profile, &mix, bound)
                .with_load(load)
                .with_requests(1500)
                .with_seed(3)
        };
        let low = core.run(&at_load(0.2));
        let high = core.run(&at_load(0.6));
        // Batch throughput is per unit time; compare rates.
        let low_rate = low.batch_work / low.duration;
        let high_rate = high.batch_work / high.duration;
        assert!(low_rate > high_rate);
        assert!(low.lc_utilization < high.lc_utilization);
    }

    #[test]
    fn outcome_energy_accounting_is_consistent() {
        let (core, profile, mix, bound) = setup();
        let o = core.run(
            &ColocRunSpec::new(ColocScheme::StaticColoc, &profile, &mix, bound)
                .with_load(0.4)
                .with_seed(4),
        );
        assert!(o.lc_energy > 0.0);
        assert!(o.batch_energy > 0.0);
        assert!((o.total_energy() - (o.lc_energy + o.batch_energy)).abs() < 1e-12);
        assert!(o.average_power() > 0.0);
    }

    #[test]
    fn interference_free_isolation_matches_standalone_latency() {
        // With no interference and the Rubik scheme, the colocated tail
        // should stay at or under the bound just like the standalone case.
        let core = ColocatedCore::new().with_interference(CoreInterferenceModel::none());
        let profile = AppProfile::moses();
        let mix = BatchMix::paper_mixes(5)[0].clone();
        let bound = core.latency_bound(&profile, 900, 5);
        let o = core.run(
            &ColocRunSpec::new(ColocScheme::RubikColoc, &profile, &mix, bound)
                .with_load(0.4)
                .with_requests(900)
                .with_seed(5),
        );
        assert!(
            o.normalized_tail <= 1.1,
            "normalized tail {}",
            o.normalized_tail
        );
    }

    #[test]
    #[should_panic(expected = "latency bound")]
    fn rejects_nonpositive_bound() {
        let (_, profile, mix, _) = setup();
        let _ = ColocRunSpec::new(ColocScheme::RubikColoc, &profile, &mix, 0.0);
    }
}
