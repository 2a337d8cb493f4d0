//! Pins the order in which the cluster driver steps server events.
//!
//! Each test hashes the full bit-image of one run — every outcome field,
//! and every record and power segment of every server — and compares it
//! with a constant. The constants were recorded on the driver that kept a
//! lazily invalidated binary heap of `(time, server)` entries, so any
//! other event queue must step events in exactly that order: at equal
//! times, the lowest server index first.
//!
//! 1. **Tied ticks.** 200 Rubik servers behind `PowerAware` run for 0.25 s
//!    of simulated time, so every server's 100 ms tick falls on the same
//!    instants, and each tick's table rebuild and decision depend on the
//!    order the fleet is stepped in.
//! 2. **Every boundary at once.** `stream_equivalence`'s hedged cell (4
//!    servers, seed 7): crash and straggle faults, timeouts, retries,
//!    salvage and drain, hedging, a `PegasusFleet` watt cap and a
//!    `ThresholdMigrator`, so scheduling from every kind of boundary
//!    interleaves with the event stream. It runs behind round robin, where
//!    the migrator moves work, and behind health-aware JSQ, whose keyed
//!    routes read every server's view as of its last scheduling.

mod common;

use common::{outcome_bits, result_bits};
use rubik_cluster::{
    fleet_trace, Cluster, ClusterOutcome, FaultPlan, HealthAware, JoinShortestQueue, PegasusFleet,
    PowerAware, RequestPolicy, RoundRobin, Router, RunReport, ThresholdMigrator, TraceSource,
};
use rubik_core::{RubikConfig, RubikController};
use rubik_power::CorePowerModel;
use rubik_sim::{FixedFrequencyPolicy, RunResult, SimConfig};
use rubik_workloads::AppProfile;

/// FNV-1a over the little-endian bytes of a run's bit-image, each server's
/// image preceded by its length.
fn fingerprint(outcome: &ClusterOutcome, results: &[RunResult]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    outcome_bits(outcome).into_iter().for_each(&mut eat);
    for r in results {
        let bits = result_bits(r);
        eat(bits.len() as u64);
        bits.into_iter().for_each(&mut eat);
    }
    hash
}

#[test]
fn a_rubik_fleet_whose_ticks_tie_keeps_its_event_order() {
    const FLEET: usize = 200;
    let config = SimConfig::paper_simulated();
    let profile = AppProfile::masstree();
    let bound = 3.0 * profile.mean_service_time();
    let trace = fleet_trace(&profile, 0.1, FLEET, 100 * FLEET, 7331)
        .expect("a non-empty fleet at a positive load");
    assert!(
        trace.duration() > 2.0 * config.tick_interval,
        "the run must cross at least two tick instants, not {} s",
        trace.duration()
    );
    let cluster = Cluster::new(
        config.clone(),
        FLEET,
        Box::new(PowerAware::default()),
        |_| {
            RubikController::seeded_for_trace(
                RubikConfig::new(bound).with_profiling_window(1024),
                config.dvfs.clone(),
                &trace,
                256,
            )
        },
    );
    let RunReport {
        outcome, results, ..
    } = cluster.run(TraceSource::new(&trace)).expect("a valid run");
    assert_eq!(outcome.requests, trace.len());
    assert_eq!(fingerprint(&outcome, &results), 16_933_077_010_830_300_069);
}

/// `stream_equivalence`'s hedged cell behind `router`: 4 servers at seed 7.
fn hedged_cell(router: Box<dyn Router>) -> (ClusterOutcome, Vec<RunResult>) {
    const FLEET: usize = 4;
    const SEED: u64 = 7;
    let config = SimConfig::paper_simulated();
    let power = CorePowerModel::haswell_like();
    let profile = AppProfile::masstree();
    let mean = profile.mean_service_time();
    let trace = fleet_trace(&profile, 0.5, FLEET, 100 * FLEET, SEED)
        .expect("a non-empty fleet at a positive load");
    let duration = trace.duration();
    let cluster = Cluster::new(config.clone(), FLEET, router, |_| {
        FixedFrequencyPolicy::new(config.dvfs.nominal())
    })
    .with_power(power)
    .with_fleet_controller(Box::new(
        PegasusFleet::new(4.0 * FLEET as f64, power).with_epoch(duration / 20.0),
    ))
    .with_migrator(Box::new(ThresholdMigrator::default()))
    .try_with_fault_plan(
        FaultPlan::new()
            .crash(0, 0.25 * duration)
            .recover(0, 0.70 * duration)
            .straggle(1, 0.10 * duration, 0.60 * duration, 4.0),
    )
    .expect("the plan names servers of the fleet")
    .with_request_policy(
        RequestPolicy::new()
            .with_timeout(8.0 * mean)
            .with_retries(4, mean, 16.0 * mean)
            .with_jitter_seed(SEED)
            .salvaging_in_flight()
            .draining_on_crash()
            .with_hedging(0.9, 0.5 * mean)
            .with_hedge_window(64),
    );
    let RunReport {
        outcome, results, ..
    } = cluster.run(TraceSource::new(&trace)).expect("a valid run");
    let a = &outcome.availability;
    assert!(a.hedged > 0, "the cell launched no hedge");
    assert!(a.retries > 0, "the cell retried nothing");
    assert!(a.requeued_on_failure > 0, "the crash requeued nothing");
    (outcome, results)
}

#[test]
fn the_hedged_cell_behind_round_robin_keeps_its_event_order() {
    let (outcome, results) = hedged_cell(Box::new(RoundRobin::new()));
    assert!(outcome.migrated_requests > 0, "the cell migrated nothing");
    assert_eq!(fingerprint(&outcome, &results), 16_436_559_940_566_874_791);
}

/// Keyed routing reads each server's view as of its last scheduling, so
/// this cell also pins that every boundary reschedules what it touched.
#[test]
fn the_hedged_cell_behind_keyed_routing_keeps_its_event_order() {
    let (outcome, results) = hedged_cell(Box::new(HealthAware::new(JoinShortestQueue::new())));
    assert_eq!(fingerprint(&outcome, &results), 8_733_760_123_556_228_228);
}
