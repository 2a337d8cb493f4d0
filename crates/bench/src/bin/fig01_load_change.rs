//! Fig. 1b: response to a load change (30% -> 50% at t = 1 s) on masstree:
//! rolling tail latency and Rubik's frequency choices over time.

use rubik::load::drain_to_trace;
use rubik::{AppProfile, LoadShape, ShapedSource, StaticOracle};
use rubik_bench::{print_header, BenchArgs, Harness, TAIL_QUANTILE};

/// The Fig. 1b schedule: 30% load for 1 s, then 50% for 1 s.
fn load_step() -> LoadShape {
    LoadShape::Step {
        before: 0.30,
        after: 0.50,
        at: 1.0,
        duration: 2.0,
    }
}

fn main() {
    let harness = BenchArgs::parse().apply(Harness::new());
    let profile = AppProfile::masstree();
    let bound = harness.latency_bound(&profile);

    let trace = drain_to_trace(ShapedSource::new(profile.clone(), load_step(), 99), None);

    // StaticOracle tuned for the initial 30% load.
    let tuning = harness.trace(&profile, 0.3, 5);
    let static_freq = StaticOracle::new(harness.sim.dvfs.clone(), TAIL_QUANTILE)
        .lowest_feasible_freq(&tuning, bound);
    let static_result = {
        let mut policy = rubik::FixedFrequencyPolicy::new(static_freq);
        rubik::Server::new(harness.sim.clone()).run(&trace, &mut policy)
    };
    let (_, rubik_result) = harness.run_rubik(&trace, bound, true);

    println!(
        "# Fig. 1b: masstree load step 30%->50% at t=1s, bound = {:.0} us, StaticOracle at {}",
        bound * 1e6,
        static_freq
    );
    print_header(&[
        "t_s",
        "load",
        "static_tail_us",
        "rubik_tail_us",
        "rubik_freq_ghz",
    ]);
    let window = 0.2;
    let static_roll = static_result.rolling_tail(window, TAIL_QUANTILE);
    let rubik_roll = rubik_result.rolling_tail(window, TAIL_QUANTILE);
    let freq_trace = rubik_result.freq_trace();
    let at = |roll: &[(f64, f64)], t: f64| {
        roll.iter()
            .rfind(|&&(x, _)| x <= t)
            .map(|&(_, v)| v)
            .unwrap_or(0.0)
    };
    let freq_at = |t: f64| {
        freq_trace
            .iter()
            .rfind(|&&(x, _)| x <= t)
            .map(|&(_, f)| f.ghz())
            .unwrap_or(0.0)
    };
    for step in 1..=20 {
        let t = step as f64 * 0.1;
        println!(
            "{:.1}\t{:.2}\t{:.1}\t{:.1}\t{:.1}",
            t,
            load_step().load_at(t - 1e-3),
            at(&static_roll, t) * 1e6,
            at(&rubik_roll, t) * 1e6,
            freq_at(t)
        );
    }
}
