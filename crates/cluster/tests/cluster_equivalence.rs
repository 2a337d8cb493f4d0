//! The cluster contract, pinned bitwise:
//!
//! 1. A **1-server cluster behind the passthrough router is the standalone
//!    simulator**: its `RunResult` equals `Server::run` on the same trace,
//!    bit for bit, for every policy (including Rubik, whose tick-driven
//!    table rebuilds would expose any reordered or dropped callback).
//! 2. A cluster run is a **pure function of its inputs**: sweeping a grid of
//!    cluster cells on `rubik-sweep` returns byte-identical `ClusterOutcome`
//!    vectors at 1, 2, and 8 threads — including a 1000-server fleet in one
//!    process.

mod common;

use common::{outcome_bits, result_bits};
use rubik_cluster::{
    fleet_trace, Cluster, ClusterOutcome, JoinShortestQueue, Passthrough, PowerAware, RoundRobin,
    Router, RunReport, TraceSource,
};
use rubik_core::{PegasusConfig, PegasusPolicy, RubikConfig, RubikController};
use rubik_sim::{DvfsPolicy, FixedFrequencyPolicy, IdleMode, Server, SimConfig, Trace};
use rubik_sweep::{SweepExecutor, SweepSpec};
use rubik_workloads::{AppProfile, WorkloadGenerator};

/// Every policy the 1-server equivalence runs, built fresh per invocation.
fn policies(config: &SimConfig, trace: &Trace, bound: f64) -> Vec<(String, Box<dyn DvfsPolicy>)> {
    let mut rubik = RubikController::new(
        RubikConfig::new(bound).with_profiling_window(2048),
        config.dvfs.clone(),
    );
    rubik.seed_profile(
        trace
            .requests()
            .iter()
            .take(512)
            .map(|r| (r.compute_cycles, r.membound_time)),
    );
    vec![
        (
            "fixed".into(),
            Box::new(FixedFrequencyPolicy::new(config.dvfs.nominal())) as Box<dyn DvfsPolicy>,
        ),
        ("rubik".into(), Box::new(rubik)),
        (
            "pegasus".into(),
            Box::new(PegasusPolicy::new(
                PegasusConfig::new(bound),
                config.dvfs.clone(),
            )),
        ),
    ]
}

#[test]
fn one_server_passthrough_cluster_reproduces_server_run_bitwise() {
    let configs = [
        SimConfig::paper_simulated(),
        SimConfig::paper_simulated().with_idle_mode(IdleMode::Sleep {
            wakeup_latency: 100e-6,
        }),
    ];
    let profile = AppProfile::masstree();
    let bound = 3.0 * profile.mean_service_time();

    for config in &configs {
        for seed in [3u64, 2015] {
            let trace = WorkloadGenerator::new(profile.clone(), seed).steady_trace(0.5, 700);

            for (name, mut policy) in policies(config, &trace, bound) {
                let reference = result_bits(&Server::new(config.clone()).run(&trace, &mut policy));

                let (name2, cluster_policy) = policies(config, &trace, bound)
                    .into_iter()
                    .find(|(n, _)| *n == name)
                    .expect("same policy set");
                assert_eq!(name, name2);
                // The factory is called exactly once for the 1-server
                // fleet; hand it the prebuilt (seeded) policy.
                let mut slot = Some(cluster_policy);
                let cluster = Cluster::new(config.clone(), 1, Box::new(Passthrough), |_| {
                    slot.take().expect("policy factory called once per server")
                });
                let RunReport { results, .. } =
                    cluster.run(TraceSource::new(&trace)).expect("a valid run");
                assert_eq!(results.len(), 1);
                assert!(
                    result_bits(&results[0]) == reference,
                    "1-server cluster diverged from Server::run: policy {name}, seed {seed}"
                );
            }
        }
    }
}

fn routers() -> Vec<Box<dyn Router>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(JoinShortestQueue::new()),
        Box::new(PowerAware::default()),
    ]
}

/// One cluster cell: `fleet` Rubik servers behind router `r`, at `load` per
/// server. Deterministic per (r, fleet, load, seed).
fn run_cell(router_idx: usize, fleet: usize, load: f64, seed: u64) -> ClusterOutcome {
    let config = SimConfig::paper_simulated();
    let profile = AppProfile::masstree();
    let bound = 3.0 * profile.mean_service_time();
    // Scale the request count with the fleet so every server sees work.
    let trace = fleet_trace(&profile, load, fleet, 120 * fleet, seed)
        .expect("a non-empty fleet at a positive load");
    let router = routers().swap_remove(router_idx);
    let cluster = Cluster::new(config.clone(), fleet, router, |_| {
        RubikController::seeded_for_trace(
            RubikConfig::new(bound).with_profiling_window(1024),
            config.dvfs.clone(),
            &trace,
            256,
        )
    });
    cluster
        .run(TraceSource::new(&trace))
        .expect("a valid run")
        .outcome
}

#[test]
fn cluster_sweep_is_bit_identical_across_thread_counts() {
    let fleets = [2usize, 8];
    let loads = [0.3, 0.6];
    let spec = SweepSpec::new()
        .axis("router", routers().len())
        .axis("fleet", fleets.len())
        .axis("load", loads.len());
    let cell = |c: &rubik_sweep::Cell<'_>| {
        outcome_bits(&run_cell(
            c.get("router"),
            fleets[c.get("fleet")],
            loads[c.get("load")],
            41 + c.index() as u64,
        ))
    };

    let reference = SweepExecutor::serial().run(&spec, cell).into_results();
    for threads in [2usize, 8] {
        let swept = SweepExecutor::new(threads).run(&spec, cell).into_results();
        assert_eq!(
            swept, reference,
            "ClusterOutcome grid diverged at {threads} threads"
        );
    }
}

#[test]
fn thousand_server_fleet_runs_in_one_process_and_is_thread_invariant() {
    // The acceptance bar: 1000 `ServerSim`s multiplexed through one event
    // loop, swept via rubik-sweep, byte-identical at 1/2/8 threads. Cheap
    // per-server policies keep the test fast; the Rubik-per-server variant
    // is covered by the grid above.
    let fleet = 1000;
    let config = SimConfig::paper_simulated();
    let profile = AppProfile::masstree();
    let trace = fleet_trace(&profile, 0.25, fleet, 6000, 2015)
        .expect("a non-empty fleet at a positive load");

    let spec = SweepSpec::new().axis("router", routers().len());
    let cell = |c: &rubik_sweep::Cell<'_>| {
        let cluster = Cluster::new(
            config.clone(),
            fleet,
            routers().swap_remove(c.get("router")),
            |_| FixedFrequencyPolicy::new(config.dvfs.nominal()),
        );
        let outcome = cluster
            .run(TraceSource::new(&trace))
            .expect("a valid run")
            .outcome;
        assert_eq!(outcome.requests, 6000);
        assert_eq!(outcome.servers(), fleet);
        outcome_bits(&outcome)
    };

    let reference = SweepExecutor::serial().run(&spec, cell).into_results();
    for threads in [2usize, 8] {
        let swept = SweepExecutor::new(threads).run(&spec, cell).into_results();
        assert_eq!(
            swept, reference,
            "1000-server ClusterOutcome diverged at {threads} threads"
        );
    }
}

#[test]
fn router_choice_changes_outcomes_but_not_request_conservation() {
    // Sanity: the three routers genuinely behave differently on a bursty
    // stream, yet every request completes exactly once under each.
    let config = SimConfig::paper_simulated();
    let profile = AppProfile::xapian();
    let trace =
        fleet_trace(&profile, 0.5, 4, 800, 7).expect("a non-empty fleet at a positive load");
    let mut tails = Vec::new();
    for router in routers() {
        let name = router.name().to_string();
        let cluster = Cluster::new(config.clone(), 4, router, |_| {
            FixedFrequencyPolicy::new(config.dvfs.nominal())
        });
        let outcome = cluster
            .run(TraceSource::new(&trace))
            .expect("a valid run")
            .outcome;
        assert_eq!(outcome.requests, 800, "router {name} lost requests");
        tails.push((name, outcome.tail_latency));
    }
    // JSQ must not be worse than round-robin on this bursty stream.
    let tail = |n: &str| tails.iter().find(|(name, _)| name == n).unwrap().1;
    assert!(tail("join-shortest-queue") <= tail("round-robin") + 1e-12);
}
