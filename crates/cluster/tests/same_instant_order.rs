//! The order of fault-layer work at one instant, pinned.
//!
//! At a boundary the driver applies every piece of fault work due there in
//! a fixed order of kinds: scripted ops, then retry deliveries, then hedge
//! launches, then attempt timeouts. Each run below is built so that
//! swapping any two adjacent kinds changes what it reports:
//!
//! - **op before retry**: two crashes at one instant both apply before
//!   either salvaged request is re-routed, so neither retry lands on the
//!   second server to crash;
//! - **retry before hedge**: a salvaged retry claims the emptiest server
//!   before a hedge launch at the same instant picks its target;
//! - **hedge before timeout**: a hedge launch due with its attempt's
//!   timeout supersedes the timeout.

use rubik_cluster::{
    Cluster, FaultPlan, HealthAware, JoinShortestQueue, Passthrough, RequestPolicy, Router,
    Telemetry, TraceSource,
};
use rubik_sim::{FixedFrequencyPolicy, RequestSpec, SimConfig, Trace};
use rubik_telemetry::RequestEventKind;

/// 0.1 ms: the instant every run's same-instant work falls on.
const T: f64 = 1e-4;

/// `n` fixed-frequency servers behind `router`. At nominal frequency each
/// request below takes 0.5 ms, so every request is still in service or
/// queued when the boundary at `T` runs.
fn cluster(n: usize, router: Box<dyn Router>) -> Cluster<FixedFrequencyPolicy> {
    let config = SimConfig::paper_simulated();
    let nominal = config.dvfs.nominal();
    Cluster::new(config, n, router, move |_| {
        FixedFrequencyPolicy::new(nominal)
    })
}

fn requests(arrivals: &[f64]) -> Trace {
    arrivals
        .iter()
        .enumerate()
        .map(|(i, &at)| RequestSpec::new(i as u64, at, 1.2e6, 0.0))
        .collect()
}

fn health_aware_jsq() -> Box<dyn Router> {
    Box::new(HealthAware::new(JoinShortestQueue::new()))
}

#[test]
fn a_hedge_launch_supersedes_a_timeout_due_at_the_same_instant() {
    // Both requests queue behind `Passthrough` on server 0. Each attempt's
    // hedge delay (the floor, with no completions tracked yet) equals its
    // timeout, so launch and timeout fall due together, and the launch
    // must win: the duplicate races on server 1 and nothing times out.
    let policy = RequestPolicy::new()
        .with_timeout(T)
        .with_retries(2, 1e-3, 1e-2)
        .with_hedging(0.5, T);
    let outcome = cluster(2, Box::new(Passthrough))
        .with_request_policy(policy)
        .run(TraceSource::new(&requests(&[0.0, 1e-6])))
        .expect("a valid run")
        .outcome;
    let a = &outcome.availability;
    assert_eq!((a.timeouts, a.retries, a.hedged), (0, 0, 2));
    assert_eq!((a.completed, a.lost), (2, 0));
}

#[test]
fn every_crash_at_an_instant_applies_before_its_salvaged_retries_route() {
    // JSQ puts one request on each server. Servers 0 and 1 crash together
    // and both in-service requests are salvaged. Had server 0's retry been
    // routed before server 1 crashed, it would have joined server 1's
    // queue (the lowest index among the equal queues) and been stranded
    // there for good.
    let outcome = cluster(3, health_aware_jsq())
        .try_with_fault_plan(FaultPlan::new().crash(0, T).crash(1, T))
        .expect("the plan names servers of the fleet")
        .with_request_policy(RequestPolicy::new().salvaging_in_flight())
        .run(TraceSource::new(&requests(&[0.0; 3])))
        .expect("a valid run")
        .outcome;
    let a = &outcome.availability;
    assert_eq!(a.salvaged_in_flight, 2);
    assert_eq!((a.completed, a.lost), (3, 0));
}

#[test]
fn a_salvaged_retry_routes_before_a_hedge_launch_at_the_same_instant() {
    // Requests 0 and 1 start on servers 0 and 1, and both hedge launches
    // fall due at `T`, when server 0 crashes. Request 0's salvaged retry
    // takes server 2 (the lowest of the two idle servers), so request 1's
    // hedge goes to server 3; a hedge placed first would have taken server
    // 2 and pushed the retry to server 3. Request 0's first hedge is stale
    // once the crash salvaged its attempt; its retry hedges at `2T`, onto
    // server 1.
    let report = cluster(4, health_aware_jsq())
        .try_with_fault_plan(FaultPlan::new().crash(0, T))
        .expect("the plan names servers of the fleet")
        .with_request_policy(
            RequestPolicy::new()
                .salvaging_in_flight()
                .with_hedging(0.5, T),
        )
        .with_telemetry(Telemetry::recording())
        .run(TraceSource::new(&requests(&[0.0, 0.0])))
        .expect("a valid run");
    let (outcome, log) = (report.outcome, report.log.expect("recording"));
    let mut retries = Vec::new();
    let mut hedges = Vec::new();
    for request in &log.requests {
        for event in &request.events {
            match event.kind {
                RequestEventKind::Routed { server, attempt } if attempt > 1 => {
                    retries.push((request.id, server));
                }
                RequestEventKind::Hedged { server, .. } => hedges.push(server),
                _ => {}
            }
        }
    }
    assert_eq!(retries, vec![(0, 2)], "the salvaged retry's route");
    assert_eq!(hedges, vec![1, 3], "hedge targets, by request id");
    assert_eq!(outcome.availability.hedged, 2);
    assert_eq!(outcome.availability.lost, 0);
}
