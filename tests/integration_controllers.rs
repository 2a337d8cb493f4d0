//! Cross-crate integration tests: every controller runs end-to-end through
//! the workload generator, the event simulator, and the power model, and the
//! qualitative ordering of the paper's headline comparison (Fig. 6 / Fig. 9)
//! holds: Rubik meets the bound and saves energy over the fixed-frequency
//! baseline and over StaticOracle.

use rubik::core::replay_energy;
use rubik::{
    AppProfile, CorePowerModel, DynamicOracle, FixedFrequencyPolicy, Freq, RubikConfig,
    RubikController, Server, SimConfig, StaticOracle, Trace, WorkloadGenerator,
};

struct SchemeOutcome {
    tail: f64,
    energy_per_request: f64,
}

fn run_fixed(
    trace: &Trace,
    config: &SimConfig,
    freq: Freq,
    power: &CorePowerModel,
) -> SchemeOutcome {
    let mut policy = FixedFrequencyPolicy::new(freq);
    let result = Server::new(config.clone()).run(trace, &mut policy);
    SchemeOutcome {
        tail: result.tail_latency(0.95).unwrap(),
        energy_per_request: power.energy_per_request(&result.freq_residency(), trace.len()),
    }
}

fn run_rubik(
    trace: &Trace,
    config: &SimConfig,
    bound: f64,
    power: &CorePowerModel,
) -> SchemeOutcome {
    let mut rubik = RubikController::seeded_for_trace(
        RubikConfig::new(bound).with_profiling_window(2048),
        config.dvfs.clone(),
        trace,
        512,
    );
    let result = Server::new(config.clone()).run(trace, &mut rubik);
    SchemeOutcome {
        tail: result.tail_latency(0.95).unwrap(),
        energy_per_request: power.energy_per_request(&result.freq_residency(), trace.len()),
    }
}

#[test]
fn rubik_meets_bound_and_beats_fixed_frequency_on_every_app() {
    let config = SimConfig::default();
    let power = CorePowerModel::haswell_like();
    for (i, profile) in AppProfile::all().into_iter().enumerate() {
        let mut generator = WorkloadGenerator::new(profile.clone(), 100 + i as u64);
        let trace = generator.steady_trace(0.4, 2500);

        let fixed = run_fixed(&trace, &config, config.dvfs.nominal(), &power);
        // The bound is the fixed-frequency tail at 50% load; at 40% load the
        // fixed tail is lower, so use the 50%-load calibration.
        let mut calib = WorkloadGenerator::new(profile.clone(), 500 + i as u64);
        let calib_trace = calib.steady_trace(0.5, 2500);
        let bound = run_fixed(&calib_trace, &config, config.dvfs.nominal(), &power).tail;

        let rubik = run_rubik(&trace, &config, bound, &power);
        assert!(
            rubik.tail <= bound * 1.15,
            "{}: Rubik tail {} vs bound {}",
            profile.name(),
            rubik.tail,
            bound
        );
        assert!(
            rubik.energy_per_request < fixed.energy_per_request,
            "{}: Rubik should save energy over fixed frequency ({} vs {})",
            profile.name(),
            rubik.energy_per_request,
            fixed.energy_per_request
        );
    }
}

#[test]
fn rubik_saves_energy_over_static_oracle_at_moderate_load() {
    // The paper's headline comparison (Fig. 1a / Fig. 6): at loads below 50%
    // Rubik's sub-millisecond adaptation beats the best static frequency.
    let config = SimConfig::default();
    let power = CorePowerModel::haswell_like();
    let profile = AppProfile::masstree();

    let mut generator = WorkloadGenerator::new(profile.clone(), 9);
    let trace = generator.steady_trace(0.3, 4000);
    let mut calib = WorkloadGenerator::new(profile.clone(), 10);
    let bound = run_fixed(
        &calib.steady_trace(0.5, 4000),
        &config,
        config.dvfs.nominal(),
        &power,
    )
    .tail;

    let oracle = StaticOracle::new(config.dvfs.clone(), 0.95);
    let static_freq = oracle.lowest_feasible_freq(&trace, bound);
    let static_outcome = run_fixed(&trace, &config, static_freq, &power);
    let rubik = run_rubik(&trace, &config, bound, &power);

    assert!(static_outcome.tail <= bound * 1.001);
    assert!(rubik.tail <= bound * 1.15);
    assert!(
        rubik.energy_per_request < static_outcome.energy_per_request,
        "Rubik {} mJ/req vs StaticOracle {} mJ/req",
        rubik.energy_per_request * 1e3,
        static_outcome.energy_per_request * 1e3
    );
}

#[test]
fn oracle_hierarchy_holds_on_a_replayed_trace() {
    // DynamicOracle (per-request freedom) <= StaticOracle (single frequency)
    // <= fixed nominal, in active energy, all meeting the same bound.
    let config = SimConfig::default();
    let power = CorePowerModel::haswell_like();
    let active = |f: Freq| power.active_power(f);
    let profile = AppProfile::shore();

    let mut generator = WorkloadGenerator::new(profile, 11);
    let trace = generator.steady_trace(0.45, 1200);
    let oracle = StaticOracle::new(config.dvfs.clone(), 0.95);
    let bound = oracle.tail_at(&trace, config.dvfs.nominal()).unwrap();

    let nominal_energy = replay_energy(&trace, &vec![config.dvfs.nominal(); trace.len()], active);
    let static_freq = oracle.lowest_feasible_freq(&trace, bound);
    let static_energy = replay_energy(&trace, &vec![static_freq; trace.len()], active);
    let dynamic = DynamicOracle::new(config.dvfs.clone(), 0.95).schedule(&trace, bound, active);

    assert!(static_energy <= nominal_energy * 1.0001);
    assert!(dynamic.energy <= static_energy * 1.0001);
    assert!(dynamic.tail_latency <= bound * 1.0001);
}

#[test]
fn rubik_without_feedback_is_more_conservative_than_with_feedback() {
    let config = SimConfig::default();
    let profile = AppProfile::masstree();
    let mut generator = WorkloadGenerator::new(profile.clone(), 13);
    let trace = generator.steady_trace(0.35, 4000);
    let bound = 3.0 * profile.mean_service_time();

    let run = |feedback: bool| {
        let mut cfg = RubikConfig::new(bound).with_profiling_window(2048);
        if !feedback {
            cfg = cfg.without_feedback();
        }
        let mut rubik = RubikController::seeded_for_trace(cfg, config.dvfs.clone(), &trace, 512);
        let result = Server::new(config.clone()).run(&trace, &mut rubik);
        result.tail_latency(0.95).unwrap()
    };

    let without = run(false);
    let with = run(true);
    // Feedback relaxes the conservative analytical model, so the measured
    // tail with feedback should be at least as close to the bound.
    assert!(without <= bound * 1.05);
    assert!(with + 1e-9 >= without);
    assert!(with <= bound * 1.15);
}
