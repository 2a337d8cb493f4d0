//! The telemetry neutrality contract, property-tested across a
//! `router × fleet × fault-plan × seed` grid at 1, 2, and 8 sweep threads:
//!
//! 1. **Disabled telemetry is bitwise-invisible.** A cluster with
//!    [`Telemetry::disabled`] attached produces exactly the bytes of a
//!    cluster that never heard of telemetry.
//! 2. **Recording is observation, not perturbation.** Even
//!    [`Telemetry::recording`] leaves every simulation output — outcome,
//!    per-server `RunResult`s — bit-identical; it only *adds* the trace
//!    log. Sampling boundaries partition the event drain without
//!    reordering it.
//! 3. **The log itself is deterministic.** Serialized trace JSON from a
//!    recording run is byte-identical across sweep thread counts.

mod common;

use common::{outcome_bits, result_bits};
use rubik_cluster::{
    fleet_trace, Cluster, FaultPlan, HealthAware, JoinShortestQueue, PegasusFleet, RequestPolicy,
    RoundRobin, Router, RunReport, Telemetry, ThresholdMigrator, TraceSource,
};
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

/// Builds one fully-loaded cluster for a grid cell: router, watt cap,
/// migrator, and (for half the grid) faults with timeouts and retries — so
/// neutrality is proven against every boundary the driver sequences, not
/// just the plain event stream.
fn cell_cluster(
    config: &SimConfig,
    fleet: usize,
    which_router: usize,
    faulted: bool,
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
    if faulted {
        cluster = cluster
            .try_with_fault_plan(eventful_plan(duration))
            .expect("the plan names servers of the fleet")
            .with_request_policy(
                RequestPolicy::new()
                    .with_timeout(8.0 * mean)
                    .with_retries(4, mean, 16.0 * mean)
                    .with_jitter_seed(seed)
                    .salvaging_in_flight()
                    .draining_on_crash(),
            );
    }
    cluster
}

#[test]
fn telemetry_is_bitwise_neutral_across_the_grid_and_thread_counts() {
    let fleets = [2usize, 4];
    let seeds = [7u64, 31];
    let spec = SweepSpec::new()
        .axis("router", 2)
        .axis("fleet", fleets.len())
        .axis("plan", 2)
        .axis("seed", seeds.len());

    let cell = |c: &rubik_sweep::Cell<'_>| {
        let config = SimConfig::paper_simulated();
        let fleet = fleets[c.get("fleet")];
        let seed = seeds[c.get("seed")];
        let faulted = c.get("plan") == 1;
        let trace = fleet_trace(&AppProfile::masstree(), 0.5, fleet, 100 * fleet, seed)
            .expect("a non-empty fleet at a positive load");
        let duration = trace.duration();
        let build = || cell_cluster(&config, fleet, c.get("router"), faulted, duration, seed);

        // The three contenders: no telemetry, disabled telemetry, recording.
        let RunReport {
            outcome: plain_o,
            results: plain_r,
            log: plain_log,
        } = build().run(TraceSource::new(&trace)).expect("a valid run");
        let RunReport {
            outcome: disabled_o,
            results: disabled_r,
            log: disabled_log,
        } = build()
            .with_telemetry(Telemetry::disabled())
            .run(TraceSource::new(&trace))
            .expect("a valid run");
        // A log comes back exactly when recording was attached.
        assert!(plain_log.is_none() && disabled_log.is_none());
        let RunReport {
            outcome: recorded_o,
            results: recorded_r,
            log,
        } = build()
            .with_telemetry(Telemetry::recording())
            .run(TraceSource::new(&trace))
            .expect("a valid run");
        let log = log.expect("recording telemetry returns a log");

        for (label, o, r) in [
            ("disabled", &disabled_o, &disabled_r),
            ("recording", &recorded_o, &recorded_r),
        ] {
            assert_eq!(
                outcome_bits(&plain_o),
                outcome_bits(o),
                "{label} telemetry changed the ClusterOutcome (cell {})",
                c.index()
            );
            for (i, (p, t)) in plain_r.iter().zip(r).enumerate() {
                assert_eq!(
                    result_bits(p),
                    result_bits(t),
                    "{label} telemetry changed server {i}'s RunResult (cell {})",
                    c.index()
                );
            }
        }
        // The log is not a shadow: it accounts for every offered request
        // (lost ones included) and took samples across the whole run.
        assert_eq!(log.requests.len(), plain_o.availability.offered);
        assert_eq!(log.completed(), plain_o.availability.completed);
        assert!(!log.epochs.is_empty());

        // Fold the serialized log into the grid result so the cross-thread
        // comparison also pins the trace bytes themselves.
        let mut bits = outcome_bits(&plain_o);
        let json = rubik_telemetry::to_json(&log);
        bits.push(json.len() as u64);
        bits.extend(json.as_bytes().iter().map(|&b| b as u64));
        bits
    };

    let reference = SweepExecutor::serial().run(&spec, cell).into_results();
    for threads in [2usize, 8] {
        let swept = SweepExecutor::new(threads).run(&spec, cell).into_results();
        assert_eq!(
            swept, reference,
            "telemetry neutrality grid diverged at {threads} threads"
        );
    }
}
