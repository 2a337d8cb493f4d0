//! The streaming equivalence contract, property-tested across a
//! `router × fleet × fault-plan × seed` grid at 1, 2, and 8 sweep threads
//! (the PR 7/8 neutrality-suite style):
//!
//! 1. **A live `PoissonSource` is its collected trace.** Streaming
//!    arrivals straight from the generator (never materialized) through
//!    `Cluster::run` produces the same bits — outcome, every per-server
//!    `RunResult`, and the telemetry log — as draining the twin source to
//!    a `Trace` first and replaying it through `TraceSource`.
//! 2. **Thread counts don't matter.** The whole grid of bit-images is
//!    identical under serial, 2-thread, and 8-thread sweep execution.

mod common;

use common::{outcome_bits, result_bits};
use rubik_cluster::{
    fleet_trace, Cluster, FaultPlan, HealthAware, JoinShortestQueue, PegasusFleet, RequestPolicy,
    RoundRobin, Router, Telemetry, ThresholdMigrator, TraceLog, TraceSource,
};
use rubik_load::{drain_to_trace, PoissonSource};
use rubik_power::CorePowerModel;
use rubik_sim::{FixedFrequencyPolicy, SimConfig};
use rubik_sweep::{SweepExecutor, SweepSpec};
use rubik_workloads::AppProfile;

fn router(which: usize) -> Box<dyn Router> {
    match which {
        0 => Box::new(HealthAware::new(JoinShortestQueue::new())),
        _ => Box::new(RoundRobin::new()),
    }
}

fn eventful_plan(duration: f64) -> FaultPlan {
    FaultPlan::new()
        .crash(0, 0.25 * duration)
        .recover(0, 0.70 * duration)
        .straggle(1, 0.10 * duration, 0.60 * duration, 4.0)
}

/// One fully-loaded cluster per grid cell: router, watt cap, migrator, and
/// a `plan` — 0 = no faults, 1 = crash and straggle faults with timeouts
/// and retries, 2 = the same plus hedging — so equivalence is proven
/// against every boundary the driver sequences, not just the plain event
/// stream. Plan 2 combines hedging with faults, retries, a power cap and a
/// migrator, so hedge launches and cancellations interleave with every
/// other kind of boundary.
fn cell_cluster(
    config: &SimConfig,
    fleet: usize,
    which_router: usize,
    plan: usize,
    duration: f64,
    seed: u64,
) -> Cluster<FixedFrequencyPolicy> {
    let power = CorePowerModel::haswell_like();
    let mean = AppProfile::masstree().mean_service_time();
    let mut cluster = Cluster::new(config.clone(), fleet, router(which_router), |_| {
        FixedFrequencyPolicy::new(config.dvfs.nominal())
    })
    .with_power(power)
    .with_fleet_controller(Box::new(
        PegasusFleet::new(4.0 * fleet as f64, power).with_epoch(duration / 20.0),
    ))
    .with_migrator(Box::new(ThresholdMigrator::default()));
    if plan > 0 {
        let mut policy = RequestPolicy::new()
            .with_timeout(8.0 * mean)
            .with_retries(4, mean, 16.0 * mean)
            .with_jitter_seed(seed)
            .salvaging_in_flight()
            .draining_on_crash();
        if plan == 2 {
            policy = policy.with_hedging(0.9, 0.5 * mean).with_hedge_window(64);
        }
        cluster = cluster
            .try_with_fault_plan(eventful_plan(duration))
            .expect("the plan names servers of the fleet")
            .with_request_policy(policy);
    }
    cluster
}

#[test]
fn run_streamed_is_bitwise_identical_across_the_grid_and_thread_counts() {
    let fleets = [2usize, 4];
    let seeds = [7u64, 31];
    let spec = SweepSpec::new()
        .axis("router", 2)
        .axis("fleet", fleets.len())
        .axis("plan", 3)
        .axis("seed", seeds.len());

    let cell = |c: &rubik_sweep::Cell<'_>| {
        let config = SimConfig::paper_simulated();
        let fleet = fleets[c.get("fleet")];
        let seed = seeds[c.get("seed")];
        let plan = c.get("plan");
        let requests = 100 * fleet;
        let trace = fleet_trace(&AppProfile::masstree(), 0.5, fleet, requests, seed)
            .expect("a non-empty fleet at a positive load");
        let duration = trace.duration();
        let build = || cell_cluster(&config, fleet, c.get("router"), plan, duration, seed);

        // The materialized trace, replayed.
        let replayed = build()
            .run(TraceSource::new(&trace))
            .expect("a Trace is time-ordered");
        if plan == 2 {
            assert!(
                replayed.outcome.availability.hedged > 0,
                "the hedged plan launched no hedge (cell {})",
                c.index()
            );
        }
        // A live PoissonSource, never materialized. Its draws are
        // bit-identical to `fleet_trace` by construction, so this pins
        // generator-to-engine streaming end to end.
        let source = PoissonSource::new(AppProfile::masstree(), 0.5 * fleet as f64, requests, seed);
        let live = build()
            .run(source)
            .expect("a Poisson source is time-ordered");

        assert_eq!(
            outcome_bits(&replayed.outcome),
            outcome_bits(&live.outcome),
            "the live source changed the ClusterOutcome (cell {})",
            c.index()
        );
        assert_eq!(replayed.results.len(), live.results.len());
        for (i, (b, s)) in replayed.results.iter().zip(&live.results).enumerate() {
            assert_eq!(
                result_bits(b),
                result_bits(s),
                "the live source changed server {i}'s RunResult (cell {})",
                c.index()
            );
        }

        // Fold the full bit-image into the grid result so the cross-thread
        // comparison pins every record and segment, not just the outcome.
        let mut bits = outcome_bits(&replayed.outcome);
        for r in &replayed.results {
            bits.extend(result_bits(r));
        }
        bits
    };

    let reference = SweepExecutor::serial().run(&spec, cell).into_results();
    for threads in [2usize, 8] {
        let swept = SweepExecutor::new(threads).run(&spec, cell).into_results();
        assert_eq!(
            swept, reference,
            "stream equivalence grid diverged at {threads} threads"
        );
    }
}

/// A `PoissonSource` drained to a `Trace` is `fleet_trace`, and replaying
/// that trace is the same run as streaming the live source — the
/// three-way identity the satellite rewrite of `fleet_trace` rests on.
#[test]
fn drained_source_and_live_source_and_fleet_trace_agree() {
    let profile = AppProfile::xapian();
    let trace =
        fleet_trace(&profile, 0.4, 3, 300, 11).expect("a non-empty fleet at a positive load");
    let drained = drain_to_trace(
        PoissonSource::new(profile.clone(), 0.4 * 3.0, 300, 11),
        None,
    );
    assert_eq!(trace.len(), drained.len());
    for (a, b) in trace.requests().iter().zip(drained.requests()) {
        assert_eq!(a.arrival.to_bits(), b.arrival.to_bits());
        assert_eq!(a.compute_cycles.to_bits(), b.compute_cycles.to_bits());
    }

    let config = SimConfig::paper_simulated();
    let build = || {
        Cluster::new(
            config.clone(),
            3,
            Box::new(JoinShortestQueue::new()),
            |_| FixedFrequencyPolicy::new(config.dvfs.nominal()),
        )
    };
    let replayed = build()
        .run(TraceSource::new(&trace))
        .expect("a Trace is time-ordered");
    let streamed = build()
        .run(PoissonSource::new(profile.clone(), 0.4 * 3.0, 300, 11))
        .expect("a Poisson source is time-ordered");
    assert_eq!(
        outcome_bits(&replayed.outcome),
        outcome_bits(&streamed.outcome)
    );
}

/// With recording telemetry attached, a live source and its replayed trace
/// give the same bits and the same serialized trace log.
#[test]
fn run_streamed_traced_matches_run_traced() {
    let profile = AppProfile::masstree();
    let trace =
        fleet_trace(&profile, 0.5, 2, 200, 7).expect("a non-empty fleet at a positive load");
    let config = SimConfig::paper_simulated();
    let build = || {
        Cluster::new(config.clone(), 2, Box::new(RoundRobin::new()), |_| {
            FixedFrequencyPolicy::new(config.dvfs.nominal())
        })
        .with_telemetry(Telemetry::recording())
    };
    let replayed = build()
        .run(TraceSource::new(&trace))
        .expect("a Trace is time-ordered");
    let live = build()
        .run(PoissonSource::new(profile.clone(), 0.5 * 2.0, 200, 7))
        .expect("a Poisson source is time-ordered");
    assert_eq!(outcome_bits(&replayed.outcome), outcome_bits(&live.outcome));
    for (b, s) in replayed.results.iter().zip(&live.results) {
        assert_eq!(result_bits(b), result_bits(s));
    }
    let json = |log: Option<TraceLog>| rubik_telemetry::to_json(&log.expect("recording"));
    assert_eq!(json(replayed.log), json(live.log));
}

/// The driver enforces the `ArrivalSource` time-ordering contract as a
/// typed error on `run`'s result path — a misbehaving user source is a
/// reportable condition, not a panic and not silent garbage.
#[test]
fn run_streamed_rejects_out_of_order_sources() {
    struct Backwards(u64);
    impl rubik_cluster::ArrivalSource for Backwards {
        fn next_arrival(&mut self) -> Option<rubik_sim::RequestSpec> {
            if self.0 >= 2 {
                return None;
            }
            let spec = rubik_sim::RequestSpec {
                id: self.0,
                arrival: 1.0 - self.0 as f64 * 0.5,
                compute_cycles: 1e5,
                membound_time: 1e-5,
                class: 0,
            };
            self.0 += 1;
            Some(spec)
        }
    }
    let config = SimConfig::paper_simulated();
    let cluster = Cluster::new(config.clone(), 1, Box::new(RoundRobin::new()), |_| {
        FixedFrequencyPolicy::new(config.dvfs.nominal())
    });
    let err = cluster
        .run(Backwards(0))
        .expect_err("an out-of-order source must be rejected");
    match &err {
        &rubik_cluster::ClusterError::OutOfOrderArrival { index, at, prev } => {
            assert_eq!(index, 1);
            assert_eq!(at, 0.5);
            assert_eq!(prev, 1.0);
        }
        other => panic!("expected OutOfOrderArrival, got {other:?}"),
    }
    assert!(
        err.to_string().contains("time-ordered"),
        "error message should state the contract: {err}"
    );
}
