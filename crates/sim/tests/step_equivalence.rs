//! The closed-loop `Server::run` and the open-loop `ServerSim` stepping
//! surface are the **same machine**: replaying a trace up front and offering
//! the same arrivals incrementally (each one only when simulated time
//! reaches it, the way a cluster driver feeds a server) must produce
//! bitwise-identical `RunResult`s — every record field, every timeline
//! segment, the end time, down to the float bit patterns.
//!
//! The grid: policies (fixed-frequency at several levels, a stateful
//! arrival-boost policy, a tick-cycling policy) × configurations (4 µs and
//! 130 µs V/F transitions) × seeds/trace shapes. Rubik runs the same check
//! in the repo-level suite (`tests/integration_step_equivalence.rs`) and
//! the cluster suite.

use rubik_sim::{
    DvfsPolicy, FixedFrequencyPolicy, Freq, PolicyDecision, RequestRecord, RequestSpec, RunResult,
    Server, ServerSim, ServerState, SimConfig, Trace,
};

/// Byte-image of a `RunResult`, comparable with `==` down to NaN payloads.
fn result_bits(r: &RunResult) -> (Vec<[u64; 8]>, Vec<[u64; 4]>, u64) {
    let records = r
        .records()
        .iter()
        .map(|rec| {
            [
                rec.id,
                rec.arrival.to_bits(),
                rec.start.to_bits(),
                rec.completion.to_bits(),
                rec.compute_cycles.to_bits(),
                rec.membound_time.to_bits(),
                rec.queue_len_at_arrival as u64,
                rec.class as u64,
            ]
        })
        .collect();
    let segments = r
        .segments()
        .iter()
        .map(|s| {
            [
                s.start.to_bits(),
                s.end.to_bits(),
                s.freq.mhz() as u64,
                match s.activity {
                    rubik_sim::CoreActivity::Busy => 0,
                    rubik_sim::CoreActivity::Idle => 1,
                    rubik_sim::CoreActivity::Sleep => 2,
                },
            ]
        })
        .collect();
    (records, segments, r.end_time().to_bits())
}

/// SplitMix64, so traces vary by seed without a dependency on the workload
/// generator.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn unit(seed: u64, i: u64) -> f64 {
    (mix64(seed ^ i) >> 11) as f64 / (1u64 << 53) as f64
}

/// A bursty pseudo-random trace: exponential-ish gaps, variable demand, a
/// few zero-work requests, occasional simultaneous arrivals.
fn trace(seed: u64, n: usize) -> Trace {
    let mut now = 0.0;
    let reqs: Vec<RequestSpec> = (0..n as u64)
        .map(|i| {
            let u = unit(seed, 3 * i);
            // ~600 µs mean gap, with every 7th request arriving back-to-back.
            if i % 7 != 0 {
                now += -(1.0 - u.min(0.999_999)).ln() * 6e-4;
            }
            let cycles = if i % 11 == 0 {
                0.0
            } else {
                0.4e6 + 2.4e6 * unit(seed, 3 * i + 1)
            };
            let mem = 1e-5 * unit(seed, 3 * i + 2);
            RequestSpec::new(i, now, cycles, mem)
        })
        .collect();
    Trace::new(reqs)
}

/// Boosts to max while the queue is deep, drops to min when idle — exercises
/// mid-request transitions and the V/F transition latency path.
struct QueueBoost {
    dvfs_max: Freq,
    dvfs_min: Freq,
}

impl DvfsPolicy for QueueBoost {
    fn name(&self) -> &str {
        "queue-boost"
    }

    fn on_arrival(&mut self, state: &ServerState) -> PolicyDecision {
        if state.pending_requests() >= 3 {
            PolicyDecision::SetFrequency(self.dvfs_max)
        } else {
            PolicyDecision::Keep
        }
    }

    fn on_completion(&mut self, state: &ServerState, _r: &RequestRecord) -> PolicyDecision {
        if state.is_idle() {
            PolicyDecision::SetFrequency(self.dvfs_min)
        } else {
            PolicyDecision::Keep
        }
    }

    fn idle_frequency(&self) -> Option<Freq> {
        Some(self.dvfs_min)
    }
}

/// Cycles through frequency levels on every tick — exercises the tick path,
/// including ticks fired during idle gaps (where open-loop drivers must keep
/// ticking for equivalence to hold).
struct TickCycler {
    levels: Vec<Freq>,
    at: usize,
}

impl DvfsPolicy for TickCycler {
    fn name(&self) -> &str {
        "tick-cycler"
    }

    fn on_arrival(&mut self, _state: &ServerState) -> PolicyDecision {
        PolicyDecision::Keep
    }

    fn on_completion(&mut self, _state: &ServerState, _r: &RequestRecord) -> PolicyDecision {
        PolicyDecision::Keep
    }

    fn on_tick(&mut self, _state: &ServerState) -> PolicyDecision {
        self.at = (self.at + 1) % self.levels.len();
        PolicyDecision::SetFrequency(self.levels[self.at])
    }
}

fn configs() -> Vec<SimConfig> {
    vec![
        SimConfig::paper_simulated(),
        // A short tick makes idle-gap ticks frequent; a long transition
        // latency keeps transitions in flight across events.
        SimConfig::paper_real_system().with_tick_interval(2e-3),
    ]
}

fn policies(config: &SimConfig) -> Vec<Box<dyn DvfsPolicy>> {
    vec![
        Box::new(FixedFrequencyPolicy::new(config.dvfs.nominal())),
        Box::new(FixedFrequencyPolicy::new(config.dvfs.min())),
        Box::new(QueueBoost {
            dvfs_max: config.dvfs.max(),
            dvfs_min: config.dvfs.min(),
        }),
        Box::new(TickCycler {
            levels: config.dvfs.levels().to_vec(),
            at: 0,
        }),
    ]
}

/// Drives a `ServerSim` the way the closed-loop wrapper does: everything
/// offered up front.
fn run_offered_upfront(
    config: &SimConfig,
    policy: Box<dyn DvfsPolicy>,
    trace: &Trace,
) -> RunResult {
    let mut sim = ServerSim::new(config.clone(), policy);
    sim.offer_all(trace.requests().iter().copied());
    sim.close();
    sim.run_to_completion();
    sim.finish()
}

/// Drives a `ServerSim` the way a cluster driver does: each arrival is
/// offered only once simulated time reaches it (all earlier events stepped
/// first), with the stream open in between.
fn run_offered_incrementally(
    config: &SimConfig,
    policy: Box<dyn DvfsPolicy>,
    trace: &Trace,
) -> RunResult {
    let mut sim = ServerSim::new(config.clone(), policy);
    for &req in trace.requests() {
        while sim.next_event_time().is_some_and(|t| t < req.arrival) {
            sim.step().expect("a due event must fire");
        }
        sim.offer(req);
    }
    sim.close();
    sim.run_to_completion();
    sim.finish()
}

#[test]
fn offered_stepping_is_bitwise_identical_to_run() {
    for config in configs() {
        for seed in [1u64, 42, 2015] {
            let trace = trace(seed, 400);
            for (p_ref, (p_up, p_inc)) in policies(&config)
                .into_iter()
                .zip(policies(&config).into_iter().zip(policies(&config)))
            {
                let name = p_ref.name().to_string();
                let mut p_ref = p_ref;
                let reference = result_bits(&Server::new(config.clone()).run(&trace, &mut p_ref));

                let upfront = result_bits(&run_offered_upfront(&config, p_up, &trace));
                assert!(
                    upfront == reference,
                    "up-front ServerSim diverged from Server::run: policy {name}, seed {seed}"
                );

                let incremental = result_bits(&run_offered_incrementally(&config, p_inc, &trace));
                assert!(
                    incremental == reference,
                    "incremental ServerSim diverged from Server::run: policy {name}, seed {seed}"
                );
            }
        }
    }
}

#[test]
fn drain_until_in_slices_matches_run() {
    // Draining in arbitrary time slices (including slices that end between
    // events) must not change anything.
    let config = SimConfig::paper_simulated();
    let t = trace(7, 300);
    let mut reference_policy = FixedFrequencyPolicy::new(config.dvfs.nominal());
    let reference = result_bits(&Server::new(config.clone()).run(&t, &mut reference_policy));

    let mut sim = ServerSim::new(
        config.clone(),
        FixedFrequencyPolicy::new(config.dvfs.nominal()),
    );
    sim.offer_all(t.requests().iter().copied());
    sim.close();
    let end = t.duration() + 1.0;
    let mut slice_end = 0.0;
    let mut i = 0u64;
    while sim.next_event_time().is_some() {
        slice_end += 1e-3 * (1.0 + unit(13, i));
        i += 1;
        sim.drain_until(slice_end.min(end));
        if slice_end >= end {
            sim.run_to_completion();
        }
    }
    assert!(result_bits(&sim.finish()) == reference);
}

#[test]
fn borrowed_and_boxed_policies_are_equivalent() {
    // `ServerSim<&mut dyn DvfsPolicy>` (how Server::run drives it) and
    // `ServerSim<Box<dyn DvfsPolicy>>` (how a cluster owns it) run the same
    // machine.
    let config = SimConfig::paper_simulated();
    let t = trace(99, 250);
    let mut borrowed_policy = FixedFrequencyPolicy::new(config.dvfs.min());
    let mut sim_borrowed =
        ServerSim::new(config.clone(), &mut borrowed_policy as &mut dyn DvfsPolicy);
    sim_borrowed.offer_all(t.requests().iter().copied());
    sim_borrowed.close();
    sim_borrowed.run_to_completion();
    let borrowed = result_bits(&sim_borrowed.finish());

    let boxed: Box<dyn DvfsPolicy> = Box::new(FixedFrequencyPolicy::new(config.dvfs.min()));
    let mut sim_boxed = ServerSim::new(config.clone(), boxed);
    sim_boxed.offer_all(t.requests().iter().copied());
    sim_boxed.close();
    sim_boxed.run_to_completion();
    let boxed = result_bits(&sim_boxed.finish());

    assert!(borrowed == boxed);
}
