//! The hedging contract, property-tested:
//!
//! 1. **Disabled hedging is bitwise invisible.** A cluster with an empty
//!    [`FaultPlan`] and a default [`RequestPolicy`] (hedging off) is
//!    **bitwise identical** to a plain cluster, and an active rescue stack
//!    without hedging never touches the hedge counters.
//! 2. **Hedges conserve requests.** With speculative duplicates in flight,
//!    every offered request still completes *exactly once* or is counted
//!    lost: ids stay unique, cancelled losers leave no record, and
//!    `completed + lost == offered` holds exactly.
//! 3. **Hedged runs are thread-invariant.** The whole hedged grid is
//!    bit-identical at 1, 2, and 8 sweep threads.
//! 4. **Stochastic fault scenarios replay.** The same seed makes
//!    [`StochasticFaults`] compile byte-identical plans, and driving a
//!    fleet with one is bit-identical at any sweep thread count.

mod common;

use common::{outcome_bits, result_bits};
use rubik_cluster::{
    fleet_trace, Cluster, FailureTopology, FaultPlan, HealthAware, JoinShortestQueue,
    RequestPolicy, RoundRobin, RunReport, StochasticFaults, TraceSource,
};
use rubik_sim::{FixedFrequencyPolicy, SimConfig};
use rubik_sweep::{SweepExecutor, SweepSpec};
use rubik_workloads::AppProfile;

/// The scenario hedging exists for: one server straggles hard for the
/// middle half of the run while the router stays failure-blind, so work
/// routed there stalls until its duplicate lands elsewhere.
fn straggler_plan(duration: f64) -> FaultPlan {
    FaultPlan::new().straggle(0, 0.20 * duration, 0.75 * duration, 8.0)
}

// ---------------------------------------------------------------------------
// Property 1: disabled hedging is bitwise invisible.
// ---------------------------------------------------------------------------

#[test]
fn disabled_hedging_is_bitwise_invisible_and_counts_nothing() {
    let config = SimConfig::paper_simulated();
    let profile = AppProfile::masstree();
    let trace =
        fleet_trace(&profile, 0.5, 4, 480, 23).expect("a non-empty fleet at a positive load");

    let plain = Cluster::new(config.clone(), 4, Box::new(RoundRobin::new()), |_| {
        FixedFrequencyPolicy::new(config.dvfs.nominal())
    });
    let RunReport {
        outcome: plain_outcome,
        results: plain_results,
        ..
    } = plain.run(TraceSource::new(&trace)).expect("a valid run");

    // Hedging defaults to off: an otherwise-inert policy stays invisible.
    let unhedged = Cluster::new(config.clone(), 4, Box::new(RoundRobin::new()), |_| {
        FixedFrequencyPolicy::new(config.dvfs.nominal())
    })
    .try_with_fault_plan(FaultPlan::new())
    .expect("the plan names servers of the fleet")
    .with_request_policy(RequestPolicy::new());
    let RunReport {
        outcome: unhedged_outcome,
        results: unhedged_results,
        ..
    } = unhedged.run(TraceSource::new(&trace)).expect("a valid run");

    assert_eq!(
        outcome_bits(&plain_outcome),
        outcome_bits(&unhedged_outcome),
        "a hedging-disabled policy changed the ClusterOutcome"
    );
    for (i, (p, u)) in plain_results.iter().zip(&unhedged_results).enumerate() {
        assert_eq!(
            result_bits(p),
            result_bits(u),
            "a hedging-disabled policy changed server {i}'s RunResult"
        );
    }

    // An *active* rescue stack (timeouts, retries, a straggler to rescue
    // from) still never touches the hedge counters while hedging is off.
    let mean = profile.mean_service_time();
    let rescued = Cluster::new(
        config.clone(),
        4,
        Box::new(HealthAware::new(JoinShortestQueue::new())),
        |_| FixedFrequencyPolicy::new(config.dvfs.nominal()),
    )
    .try_with_fault_plan(straggler_plan(trace.duration()))
    .expect("the plan names servers of the fleet")
    .with_request_policy(RequestPolicy::new().with_timeout(8.0 * mean).with_retries(
        4,
        mean,
        16.0 * mean,
    ));
    let a = rescued
        .run(TraceSource::new(&trace))
        .expect("a valid run")
        .outcome
        .availability;
    assert_eq!(
        (a.hedged, a.hedge_wins, a.hedge_cancelled),
        (0, 0, 0),
        "hedge counters moved with hedging disabled"
    );
}

// ---------------------------------------------------------------------------
// Properties 2 + 3: hedges conserve requests, bit-identically at any
// sweep thread count.
// ---------------------------------------------------------------------------

#[test]
fn hedged_runs_conserve_requests_and_are_thread_invariant() {
    let fleets = [3usize, 6];
    let seeds = [5u64, 71];
    let spec = SweepSpec::new()
        .axis("fleet", fleets.len())
        .axis("seed", seeds.len());

    let cell = |c: &rubik_sweep::Cell<'_>| {
        let config = SimConfig::paper_simulated();
        let profile = AppProfile::masstree();
        let fleet = fleets[c.get("fleet")];
        let requests = 150 * fleet;
        let trace = fleet_trace(&profile, 0.5, fleet, requests, seeds[c.get("seed")])
            .expect("a non-empty fleet at a positive load");
        let mean = profile.mean_service_time();

        // Failure-blind JSQ keeps feeding the straggler; hedging is the
        // only rescue configured, so every win below is hedging's.
        let cluster = Cluster::new(
            config.clone(),
            fleet,
            Box::new(JoinShortestQueue::new()),
            |_| FixedFrequencyPolicy::new(config.dvfs.nominal()),
        )
        .try_with_fault_plan(straggler_plan(trace.duration()))
        .expect("the plan names servers of the fleet")
        .with_request_policy(RequestPolicy::new().with_hedging(0.95, 2.0 * mean));
        let RunReport {
            outcome, results, ..
        } = cluster.run(TraceSource::new(&trace)).expect("a valid run");
        let a = outcome.availability;

        // The straggler forces speculation, and some duplicates win.
        assert!(a.hedged > 0, "no hedges fired under an 8x straggler");
        assert!(a.hedge_wins > 0, "no duplicate ever beat its primary");
        assert!(
            a.hedge_wins <= a.hedge_cancelled && a.hedge_cancelled <= a.hedged,
            "hedge accounting inconsistent: {} wins, {} cancelled, {} hedged",
            a.hedge_wins,
            a.hedge_cancelled,
            a.hedged
        );

        // Conservation: duplicates never double-complete. Every offered
        // request completes exactly once (original id, original arrival)
        // or is lost; cancelled losers leave no record anywhere.
        assert_eq!(a.offered, requests);
        assert_eq!(a.completed + a.lost, a.offered);
        let mut seen: Vec<(u64, u64)> = results
            .iter()
            .flat_map(|r| {
                r.records()
                    .iter()
                    .map(|rec| (rec.id, rec.arrival.to_bits()))
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen.len(), a.completed, "records disagree with the stats");
        for w in seen.windows(2) {
            assert_ne!(w[0].0, w[1].0, "request {} completed twice", w[0].0);
        }
        for &(id, arrival) in &seen {
            assert_eq!(
                arrival,
                trace.requests()[id as usize].arrival.to_bits(),
                "request {id} lost its original arrival through hedging"
            );
        }
        outcome_bits(&outcome)
    };

    let reference = SweepExecutor::serial().run(&spec, cell).into_results();
    for threads in [2usize, 8] {
        let swept = SweepExecutor::new(threads).run(&spec, cell).into_results();
        assert_eq!(
            swept, reference,
            "hedged grid diverged at {threads} threads"
        );
    }
}

// ---------------------------------------------------------------------------
// Property 4: stochastic fault scenarios replay bit-exactly.
// ---------------------------------------------------------------------------

#[test]
fn stochastic_fault_scenarios_replay_bit_exactly_across_threads() {
    let seeds = [9u64, 33];
    let spec = SweepSpec::new().axis("seed", seeds.len());

    let cell = |c: &rubik_sweep::Cell<'_>| {
        let config = SimConfig::paper_simulated();
        let profile = AppProfile::masstree();
        let seed = seeds[c.get("seed")];
        let fleet = 8;
        let trace = fleet_trace(&profile, 0.4, fleet, 120 * fleet, seed)
            .expect("a non-empty fleet at a positive load");
        let mean = profile.mean_service_time();

        // Rack- and server-level renewal processes over the whole run,
        // compiled fresh in every cell: byte-identical each time.
        let topo = FailureTopology::grid(fleet, 4, 2);
        let generator = StochasticFaults::new()
            .with_server_failures(trace.duration(), 0.02 * trace.duration())
            .with_rack_failures(1.5 * trace.duration(), 0.05 * trace.duration())
            .with_recovery_jitter(0.01 * trace.duration());
        let plan = generator.compile(&topo, trace.duration(), seed);
        assert_eq!(
            plan,
            generator.compile(&topo, trace.duration(), seed),
            "same seed must compile the same plan"
        );
        assert!(!plan.is_empty(), "these rates must draw failures");

        let cluster = Cluster::new(
            config.clone(),
            fleet,
            Box::new(HealthAware::new(JoinShortestQueue::new())),
            |_| FixedFrequencyPolicy::new(config.dvfs.nominal()),
        )
        .try_with_fault_plan(plan)
        .expect("the plan names servers of the fleet")
        .with_request_policy(
            RequestPolicy::new()
                .with_timeout(8.0 * mean)
                .with_retries(6, mean, 16.0 * mean)
                .with_jitter_seed(seed)
                .with_hedging(0.95, 2.0 * mean)
                .draining_on_crash()
                .salvaging_in_flight(),
        );
        let outcome = cluster
            .run(TraceSource::new(&trace))
            .expect("a valid run")
            .outcome;
        let a = outcome.availability;
        assert_eq!(a.completed + a.lost, a.offered);
        assert!(
            a.completed >= 3 * a.offered / 4,
            "rescue collapsed: {} of {} completed",
            a.completed,
            a.offered
        );
        outcome_bits(&outcome)
    };

    let reference = SweepExecutor::serial().run(&spec, cell).into_results();
    for threads in [2usize, 8] {
        let swept = SweepExecutor::new(threads).run(&spec, cell).into_results();
        assert_eq!(
            swept, reference,
            "stochastic grid diverged at {threads} threads"
        );
    }
}
