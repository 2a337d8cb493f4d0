//! Responsiveness to sudden load changes (the paper's Fig. 1b / Fig. 10).
//!
//! The offered load steps from 25% to 50% to 75% of capacity. A static
//! frequency tuned for the initial load violates the tail bound after the
//! step, while Rubik reacts on the very next request arrivals because longer
//! queues immediately demand higher frequencies from its model.
//!
//! ```text
//! cargo run --release --example load_spike
//! ```

use rubik::load::drain_to_trace;
use rubik::{
    AppProfile, CorePowerModel, FixedFrequencyPolicy, LoadShape, RubikConfig, RubikController,
    Server, ShapedSource, SimConfig, StaticOracle, WorkloadGenerator,
};

/// The load schedule: 25%, 50% and 75% of capacity, 4 s each.
fn load_steps() -> LoadShape {
    LoadShape::Sequence(
        [0.25, 0.50, 0.75]
            .map(|load| LoadShape::Steady {
                load,
                duration: 4.0,
            })
            .to_vec(),
    )
}

fn main() {
    let profile = AppProfile::masstree();
    let config = SimConfig::default();
    let power = CorePowerModel::haswell_like();

    // Latency bound: tail at nominal frequency under 50% load.
    let mut calib = WorkloadGenerator::new(profile.clone(), 1);
    let calib_trace = calib.steady_trace(0.5, 4_000);
    let static_oracle = StaticOracle::new(config.dvfs.clone(), 0.95);
    let bound = static_oracle
        .tail_at(&calib_trace, config.dvfs.nominal())
        .expect("non-empty trace");

    // The load-step trace, drawn as a non-homogeneous Poisson process.
    let trace = drain_to_trace(ShapedSource::new(profile.clone(), load_steps(), 2), None);

    // StaticOracle tuned for the initial 25% load.
    let tuning = WorkloadGenerator::new(profile.clone(), 3).steady_trace(0.25, 4_000);
    let static_freq = static_oracle.lowest_feasible_freq(&tuning, bound);
    let mut static_policy = FixedFrequencyPolicy::new(static_freq);
    let static_result = Server::new(config.clone()).run(&trace, &mut static_policy);

    // Rubik.
    let mut rubik = RubikController::new(RubikConfig::new(bound), config.dvfs.clone());
    let rubik_result = Server::new(config).run(&trace, &mut rubik);

    println!(
        "masstree, load steps 25% -> 50% -> 75% every 4 s, bound = {:.0} us",
        bound * 1e6
    );
    println!("StaticOracle tuned for 25% load runs at {}.", static_freq);
    println!();
    println!(
        "{:>6} {:>8} {:>22} {:>22} {:>16}",
        "t (s)", "load", "static tail (us)", "rubik tail (us)", "rubik power (W)"
    );

    let window = 0.5;
    let static_roll = static_result.rolling_tail(window, 0.95);
    let rubik_roll = rubik_result.rolling_tail(window, 0.95);
    let tail_at = |roll: &[(f64, f64)], t: f64| -> f64 {
        roll.iter()
            .rfind(|&&(time, _)| time <= t)
            .map(|&(_, tail)| tail)
            .unwrap_or(0.0)
    };

    for step in 1..=24 {
        let t = step as f64 * 0.5;
        let load = load_steps().load_at(t - 0.01);
        let res = rubik_result.freq_residency_between(t - window, t);
        let rubik_power = if res.total_time() > 0.0 {
            power.average_power(&res)
        } else {
            0.0
        };
        println!(
            "{:>6.1} {:>7.0}% {:>22.1} {:>22.1} {:>16.2}",
            t,
            load * 100.0,
            tail_at(&static_roll, t) * 1e6,
            tail_at(&rubik_roll, t) * 1e6,
            rubik_power,
        );
    }

    println!();
    println!(
        "Overall: static tail = {:.0} us ({}x bound), Rubik tail = {:.0} us ({:.2}x bound)",
        static_result.tail_latency(0.95).unwrap() * 1e6,
        (static_result.tail_latency(0.95).unwrap() / bound).round(),
        rubik_result.tail_latency(0.95).unwrap() * 1e6,
        rubik_result.tail_latency(0.95).unwrap() / bound,
    );
}
