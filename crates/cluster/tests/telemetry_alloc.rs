//! Disabled telemetry costs zero allocations.
//!
//! A counting global allocator pins the other half of the neutrality
//! contract (`tests/telemetry_neutrality.rs` pins the bitwise half):
//! attaching [`Telemetry::disabled`] to a cluster must not add a single
//! allocation over a cluster that never heard of telemetry — the disabled
//! path keeps its sampling boundary at infinity and never constructs a
//! sample, an event, or a recorder.

use rubik_cluster::{fleet_trace, Cluster, JoinShortestQueue, Telemetry, TraceSource};
use rubik_sim::{FixedFrequencyPolicy, SimConfig, Trace};
use rubik_testalloc::{allocations, CountingAllocator};
use rubik_workloads::AppProfile;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_for_run(trace: &Trace, telemetry: Option<Telemetry>) -> u64 {
    let config = SimConfig::paper_simulated();
    let mut cluster = Cluster::new(
        config.clone(),
        4,
        Box::new(JoinShortestQueue::new()),
        |_| FixedFrequencyPolicy::new(config.dvfs.nominal()),
    );
    if let Some(t) = telemetry {
        cluster = cluster.with_telemetry(t);
    }
    let before = allocations();
    let outcome = cluster
        .run(TraceSource::new(trace))
        .expect("a valid run")
        .outcome;
    let after = allocations();
    assert_eq!(outcome.requests, trace.len());
    after - before
}

#[test]
fn disabled_telemetry_adds_zero_allocations() {
    let trace = fleet_trace(&AppProfile::masstree(), 0.5, 4, 1200, 17)
        .expect("a non-empty fleet at a positive load");

    // Warm-up faults in lazy one-time costs on both code paths.
    let _ = allocations_for_run(&trace, None);
    let _ = allocations_for_run(&trace, Some(Telemetry::disabled()));

    let plain = allocations_for_run(&trace, None);
    let disabled = allocations_for_run(&trace, Some(Telemetry::disabled()));
    assert_eq!(
        plain, disabled,
        "Telemetry::disabled() must be allocation-free: {plain} allocations \
         without telemetry vs {disabled} with it"
    );

    // And recording, for contrast, really is doing work.
    let recording = allocations_for_run(&trace, Some(Telemetry::recording()));
    assert!(
        recording > disabled,
        "a recording run should allocate for its log ({recording} vs {disabled})"
    );
}
