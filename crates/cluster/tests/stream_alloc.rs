//! `Cluster::run_streamed` holds memory at O(in-flight), not O(requests):
//! arrivals are pulled one at a time from the source and handed straight to
//! the per-server simulators, so no request backlog is ever materialized.
//!
//! A counting global allocator pins that directly (the cluster-level twin of
//! `rubik-sim`'s `event_loop_alloc` test): after a warm-up run has faulted in
//! code paths and sized allocator pools, an 8x-longer streamed run may only
//! pay for run-scoped containers — per-server record vectors and segment
//! timelines that amortize to O(log n) reallocations — while the per-arrival
//! path (source pull, route, offer, schedule) stays allocation-free. The
//! allocation count of the long run must therefore stay within a fixed slack
//! of the short run instead of scaling with the request count. Both router
//! inputs, JSQ and `HealthAware(PowerAware)`, are keyed, so "route" here
//! includes flushing the driver's route tree.
//!
//! The same contract is pinned with a fault layer attached (hedging +
//! deadlines + timeouts): the hedge trigger tracker is a bounded rolling
//! window, so completions past the window's capacity cost zero allocations —
//! this is the regression test for the unbounded sorted-`Vec` tracker, whose
//! per-completion `insert` made allocations (and work) scale with the total
//! completion count.

use rubik_cluster::{Cluster, HealthAware, JoinShortestQueue, PowerAware, RequestPolicy, Router};
use rubik_load::PoissonSource;
use rubik_sim::{FixedFrequencyPolicy, SimConfig};
use rubik_testalloc::{allocations, CountingAllocator};
use rubik_workloads::AppProfile;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const FLEET: usize = 4;

fn jsq() -> Box<dyn Router> {
    Box::new(JoinShortestQueue::new())
}

fn health_aware_power_aware() -> Box<dyn Router> {
    Box::new(HealthAware::new(PowerAware::default()))
}

fn cluster(config: &SimConfig, router: fn() -> Box<dyn Router>) -> Cluster<FixedFrequencyPolicy> {
    Cluster::new(config.clone(), FLEET, router(), |_| {
        FixedFrequencyPolicy::new(config.dvfs.nominal())
    })
}

fn source(requests: usize) -> PoissonSource {
    PoissonSource::new(AppProfile::masstree(), 0.5 * FLEET as f64, requests, 42)
}

fn allocations_for_streamed_run(router: fn() -> Box<dyn Router>, requests: usize) -> u64 {
    let config = SimConfig::paper_simulated();
    let cluster = cluster(&config, router);
    let source = source(requests);
    let before = allocations();
    let outcome = cluster
        .run_streamed(source)
        .expect("a Poisson source is time-ordered");
    let after = allocations();
    assert_eq!(outcome.requests, requests);
    after - before
}

/// Same streamed run, but with the full fault layer engaged: hedging (with
/// a small rolling trigger window so the 4096-request run evicts heavily),
/// per-request deadlines, and attempt timeouts with retries.
fn allocations_for_hedged_run(requests: usize) -> u64 {
    let config = SimConfig::paper_simulated();
    let mean = AppProfile::masstree().mean_service_time();
    let policy = RequestPolicy::new()
        .with_hedging(0.95, 0.5 * mean)
        .with_hedge_window(128)
        .with_deadline(64.0 * mean)
        .with_timeout(16.0 * mean)
        .with_retries(2, mean, 8.0 * mean)
        .with_jitter_seed(7);
    let cluster = cluster(&config, jsq).with_request_policy(policy);
    let source = source(requests);
    let before = allocations();
    let outcome = cluster
        .run_streamed(source)
        .expect("a Poisson source is time-ordered");
    let after = allocations();
    assert_eq!(outcome.requests, requests);
    after - before
}

#[test]
fn run_streamed_allocations_do_not_scale_with_request_count() {
    for router in [jsq, health_aware_power_aware] {
        let name = router().name().to_string();
        // Warm-up run (fills allocator pools, faults in code paths).
        let _ = allocations_for_streamed_run(router, 512);

        let small = allocations_for_streamed_run(router, 512);
        let large = allocations_for_streamed_run(router, 4096);

        // 8x the requests must not cost 8x the allocations: each arrival is
        // pulled from the source, routed, and offered without allocating, so
        // the only growth is the amortized doubling of per-server record
        // vectors and segment timelines — O(fleet * log n) reallocations in
        // total.
        assert!(
            large < small + 160,
            "{name} run_streamed allocations grew with request count: {small} -> {large}"
        );
    }
}

#[test]
fn hedged_streamed_allocations_do_not_scale_with_request_count() {
    // Warm-up run (fills allocator pools, faults in code paths).
    let _ = allocations_for_hedged_run(512);

    let small = allocations_for_hedged_run(512);
    let large = allocations_for_hedged_run(4096);

    // With hedging + deadlines + timeouts enabled, steady state may only
    // allocate for the in-flight tracking maps at their high-water mark and
    // the bounded hedge window — none of which grow with the stream length.
    // The old unbounded latency tracker failed exactly this bound: its
    // sorted Vec doubled all the way to O(completions).
    assert!(
        large < small + 160,
        "hedged run_streamed allocations grew with request count: {small} -> {large}"
    );
}
