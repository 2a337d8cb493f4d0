//! Edge accounting for [`AvailabilityStats`]: the corners where requests
//! fail in compound ways.
//!
//! 1. **Timeout-then-crash conservation.** A request that times out, is
//!    retried onto a server that then crashes, and finally exhausts its
//!    retry budget must be counted *lost* exactly once — `completed + lost
//!    == offered` even when the loss path runs through the timeout
//!    machinery first.
//! 2. **No successes means no goodput tail.** When zero requests complete
//!    (total crash) or every completion blows its deadline,
//!    `tail_latency_ok` is `None` — not a `0.0` that would masquerade as a
//!    perfect tail.

use rubik_cluster::{
    fleet_trace, Cluster, FaultPlan, Passthrough, RequestPolicy, RoundRobin, Telemetry, TraceSource,
};
use rubik_sim::{FixedFrequencyPolicy, SimConfig};
use rubik_telemetry::RequestEventKind;
use rubik_workloads::AppProfile;

/// Two servers, but `Passthrough` pins every arrival — and every retry — to
/// server 0, which is overloaded (~1.2x one core's capacity) and then
/// crashes for good. Early requests complete; queued work times out, backs
/// off, is re-offered to the same dead server, and runs out its budget.
#[test]
fn timeout_then_crash_losses_partition_the_offered_load() {
    let config = SimConfig::paper_simulated();
    let profile = AppProfile::masstree();
    let mean = profile.mean_service_time();
    let trace =
        fleet_trace(&profile, 0.6, 2, 300, 5).expect("a non-empty fleet at a positive load");
    let duration = trace.duration();

    let cluster = Cluster::new(config.clone(), 2, Box::new(Passthrough), |_| {
        FixedFrequencyPolicy::new(config.dvfs.nominal())
    })
    .try_with_fault_plan(FaultPlan::new().crash(0, 0.5 * duration))
    .expect("the plan names servers of the fleet")
    .with_request_policy(RequestPolicy::new().with_timeout(4.0 * mean).with_retries(
        2,
        mean,
        8.0 * mean,
    ))
    .with_telemetry(Telemetry::recording());
    let report = cluster.run(TraceSource::new(&trace)).expect("a valid run");
    let (outcome, log) = (report.outcome, report.log.expect("recording"));
    let a = outcome.availability;

    assert_eq!(a.offered, 300);
    assert!(a.completed > 0, "the pre-crash prefix must complete");
    assert!(a.lost > 0, "the stranded tail must be lost");
    assert!(a.timeouts > 0, "the overload must drive timeouts");
    assert_eq!(
        a.completed + a.lost,
        a.offered,
        "completions and losses must partition the offered load"
    );
    assert_eq!(log.completed(), a.completed);
    assert_eq!(log.lost(), a.lost);

    // The compound path actually happened: at least one request that was
    // never completed carries both a timeout and a terminal drop.
    let compound = log.requests.iter().filter(|r| {
        !r.completed()
            && r.events
                .iter()
                .any(|e| matches!(e.kind, RequestEventKind::TimedOut { .. }))
            && r.events
                .iter()
                .any(|e| matches!(e.kind, RequestEventKind::Dropped { .. }))
    });
    assert!(
        compound.count() > 0,
        "no lost request went through timeout-then-drop"
    );
}

/// A fleet that crashes outright before serving anything: zero completions,
/// and the goodput tail is absent rather than zero.
#[test]
fn zero_completions_leave_the_goodput_tail_absent() {
    let config = SimConfig::paper_simulated();
    let profile = AppProfile::masstree();
    let trace =
        fleet_trace(&profile, 0.4, 2, 100, 9).expect("a non-empty fleet at a positive load");

    let cluster = Cluster::new(config.clone(), 2, Box::new(RoundRobin::new()), |_| {
        FixedFrequencyPolicy::new(config.dvfs.nominal())
    })
    .try_with_fault_plan(FaultPlan::new().crash(0, 0.0).crash(1, 0.0))
    .expect("the plan names servers of the fleet");
    let outcome = cluster
        .run(TraceSource::new(&trace))
        .expect("a valid run")
        .outcome;
    let a = outcome.availability;

    assert_eq!(a.completed, 0);
    assert_eq!(a.lost, a.offered);
    assert_eq!(a.goodput, 0);
    assert!(
        a.tail_latency_ok.is_none(),
        "no successful request can have a goodput tail, got {:?}",
        a.tail_latency_ok
    );
}

/// Every request completes, but an impossible deadline disqualifies them
/// all: the goodput tail is again `None`, while the plain tail is real.
#[test]
fn all_late_completions_leave_the_goodput_tail_absent() {
    let config = SimConfig::paper_simulated();
    let profile = AppProfile::masstree();
    let trace =
        fleet_trace(&profile, 0.4, 2, 100, 13).expect("a non-empty fleet at a positive load");

    let cluster = Cluster::new(config.clone(), 2, Box::new(RoundRobin::new()), |_| {
        FixedFrequencyPolicy::new(config.dvfs.nominal())
    })
    .with_request_policy(RequestPolicy::new().with_deadline(1e-12));
    let outcome = cluster
        .run(TraceSource::new(&trace))
        .expect("a valid run")
        .outcome;
    let a = outcome.availability;

    assert_eq!(a.completed, a.offered, "everything still completes");
    assert_eq!(a.deadline_exceeded, a.offered);
    assert_eq!(a.goodput, 0);
    assert!(a.tail_latency_ok.is_none());
    assert!(outcome.tail_latency > 0.0, "the plain tail is unaffected");
}
