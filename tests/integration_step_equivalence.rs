//! Step-vs-run equivalence with the real controllers: `Server::run` and the
//! open-loop `ServerSim` stepping surface must be bitwise-identical for
//! every policy in the repository — including Rubik itself, whose spectral
//! table rebuilds and feedback controller fire on the periodic tick and
//! would drift immediately if the stepping surface reordered or dropped a
//! single callback.
//!
//! Policies × transition latencies × seeds; arrivals offered both up front
//! and incrementally (each request only when simulated time reaches it — the
//! cluster driver's pattern).

use rubik::{
    AppProfile, DvfsPolicy, FixedFrequencyPolicy, RubikConfig, RubikController, RunResult, Server,
    ServerSim, SimConfig, Trace, WorkloadGenerator,
};

fn result_bits(r: &RunResult) -> Vec<u64> {
    let mut bits = vec![r.end_time().to_bits()];
    for rec in r.records() {
        bits.extend_from_slice(&[
            rec.id,
            rec.arrival.to_bits(),
            rec.start.to_bits(),
            rec.completion.to_bits(),
            rec.compute_cycles.to_bits(),
            rec.membound_time.to_bits(),
            rec.queue_len_at_arrival as u64,
        ]);
    }
    for s in r.segments() {
        bits.extend_from_slice(&[
            s.start.to_bits(),
            s.end.to_bits(),
            s.freq.mhz() as u64,
            s.activity as u64,
        ]);
    }
    bits
}

/// Builds every controller under test. Rubik is seeded from the head of the
/// trace exactly as the experiment harness does.
fn policies(config: &SimConfig, trace: &Trace, bound: f64) -> Vec<Box<dyn DvfsPolicy>> {
    let seeded_rubik =
        |cfg: RubikConfig| RubikController::seeded_for_trace(cfg, config.dvfs.clone(), trace, 512);
    vec![
        Box::new(FixedFrequencyPolicy::new(config.dvfs.nominal())),
        Box::new(seeded_rubik(
            RubikConfig::new(bound).with_profiling_window(2048),
        )),
        Box::new(seeded_rubik(
            RubikConfig::new(bound)
                .with_profiling_window(2048)
                .without_feedback(),
        )),
    ]
}

#[test]
fn all_controllers_step_bitwise_identically_to_run() {
    let configs = [SimConfig::paper_simulated(), SimConfig::paper_real_system()];
    let profile = AppProfile::masstree();
    let bound = 3.0 * profile.mean_service_time();

    for config in &configs {
        for seed in [1u64, 2015] {
            let trace = WorkloadGenerator::new(profile.clone(), seed).steady_trace(0.5, 800);

            let names: Vec<String> = policies(config, &trace, bound)
                .iter()
                .map(|p| p.name().to_string())
                .collect();

            // Reference: the closed-loop wrapper.
            let reference: Vec<Vec<u64>> = policies(config, &trace, bound)
                .into_iter()
                .map(|mut p| result_bits(&Server::new(config.clone()).run(&trace, &mut p)))
                .collect();

            // Open-loop, everything offered up front.
            for (i, policy) in policies(config, &trace, bound).into_iter().enumerate() {
                let mut sim = ServerSim::new(config.clone(), policy);
                sim.offer_all(trace.requests().iter().copied());
                sim.close();
                sim.run_to_completion();
                assert!(
                    result_bits(&sim.finish()) == reference[i],
                    "up-front stepping diverged: policy {}, seed {seed}",
                    names[i]
                );
            }

            // Open-loop, arrivals offered only as time reaches them.
            for (i, policy) in policies(config, &trace, bound).into_iter().enumerate() {
                let mut sim = ServerSim::new(config.clone(), policy);
                for &req in trace.requests() {
                    while sim.next_event_time().is_some_and(|t| t < req.arrival) {
                        sim.step().expect("a due event must fire");
                    }
                    sim.offer(req);
                }
                sim.close();
                sim.run_to_completion();
                assert!(
                    result_bits(&sim.finish()) == reference[i],
                    "incremental stepping diverged: policy {}, seed {seed}",
                    names[i]
                );
            }
        }
    }
}
