//! Fig. 10: responsiveness to load changes — for each application, the load
//! steps 25% -> 50% -> 75% (4 s each); the harness prints the rolling tail
//! latency and power of StaticOracle, AdrenalineOracle (replayed) and Rubik,
//! and Rubik's frequency over time.

use rubik::core::replay;
use rubik::load::drain_to_trace;
use rubik::{
    AdrenalineOracle, AppProfile, FixedFrequencyPolicy, LoadShape, Server, ShapedSource,
    StaticOracle,
};
use rubik_bench::{print_header, BenchArgs, Harness, TAIL_QUANTILE};

/// The Fig. 10 schedule: 25%, 50% and 75% load, 4 s each.
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
    let harness = BenchArgs::parse().apply(Harness::new());
    for (i, app) in AppProfile::all().iter().enumerate() {
        let bound = harness.latency_bound(app);
        let trace = drain_to_trace(
            ShapedSource::new(app.clone(), load_steps(), 300 + i as u64),
            None,
        );

        // StaticOracle and AdrenalineOracle tuned for the initial 25% load.
        let tuning = harness.trace(app, 0.25, 400 + i as u64);
        let static_freq = StaticOracle::new(harness.sim.dvfs.clone(), TAIL_QUANTILE)
            .lowest_feasible_freq(&tuning, bound);
        let mut static_policy = FixedFrequencyPolicy::new(static_freq);
        let static_result = Server::new(harness.sim.clone()).run(&trace, &mut static_policy);

        let adren = AdrenalineOracle::new(harness.sim.dvfs.clone(), TAIL_QUANTILE).train(
            &tuning,
            bound,
            harness.active_power(),
        );
        let adren_records = replay(&trace, &adren.assign(&trace));
        let mut adren_roll_tracker = rubik::stats::RollingTailTracker::new(0.2, TAIL_QUANTILE);
        let mut adren_roll = Vec::new();
        let mut sorted = adren_records.clone();
        sorted.sort_by(|a, b| a.completion.partial_cmp(&b.completion).unwrap());
        for r in &sorted {
            adren_roll_tracker.record(r.completion, r.latency());
            adren_roll.push((r.completion, adren_roll_tracker.tail().unwrap_or(0.0)));
        }

        let (_, rubik_result) = harness.run_rubik(&trace, bound, true);

        println!(
            "# Fig. 10: {} — load 25%->50%->75%, bound {:.0} us, StaticOracle @ {}",
            app.name(),
            bound * 1e6,
            static_freq
        );
        print_header(&[
            "t_s",
            "load",
            "static_tail_us",
            "adrenaline_tail_us",
            "rubik_tail_us",
            "rubik_power_W",
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
        for step in 1..=24 {
            let t = step as f64 * 0.5;
            let res = rubik_result.freq_residency_between(t - window, t);
            let rubik_power = if res.total_time() > 0.0 {
                harness.power.average_power(&res)
            } else {
                0.0
            };
            let freq = freq_trace
                .iter()
                .rfind(|&&(x, _)| x <= t)
                .map(|&(_, f)| f.ghz())
                .unwrap_or(0.0);
            println!(
                "{:.1}\t{:.2}\t{:.1}\t{:.1}\t{:.1}\t{:.2}\t{:.1}",
                t,
                load_steps().load_at(t - 1e-3),
                at(&static_roll, t) * 1e6,
                at(&adren_roll, t) * 1e6,
                at(&rubik_roll, t) * 1e6,
                rubik_power,
                freq
            );
        }
        println!();
    }
}
