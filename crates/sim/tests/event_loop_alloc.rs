//! The simulator's event loop performs zero steady-state allocations per
//! event once its buffers reach their high-water marks.
//!
//! A counting global allocator measures the loop directly (complementing the
//! pointer-stability test in `src/server.rs`): after a warm-up run of the
//! same trace shape has sized the scratch snapshot, the records vector, and
//! the segment timeline, a second identical run may only allocate the fresh
//! per-run containers — bounded up-front costs — while the per-event path
//! (snapshot refresh, queue push/pop, progress accounting) stays
//! allocation-free. The test pins that by checking the allocation count of
//! a long run does not grow with the event count.

use rubik_sim::{FixedFrequencyPolicy, RequestSpec, Server, SimConfig, Trace};
use rubik_testalloc::{allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn trace(requests: usize) -> Trace {
    // A burst to set the queue high-water mark, then steady arrivals.
    (0..requests as u64)
        .map(|i| {
            let arrival = if i < 8 { 0.0 } else { i as f64 * 5e-4 };
            RequestSpec::new(i, arrival, 1.2e6, 1e-5)
        })
        .collect()
}

fn allocations_for_run(requests: usize) -> u64 {
    let server = Server::new(SimConfig::default());
    let t = trace(requests);
    let mut policy = FixedFrequencyPolicy::new(server.config().dvfs.nominal());
    let before = allocations();
    let result = server.run(&t, &mut policy);
    let after = allocations();
    assert_eq!(result.records().len(), requests);
    after - before
}

#[test]
fn event_loop_allocations_do_not_scale_with_event_count() {
    // Warm-up run (fills allocator pools, faults in code paths).
    let _ = allocations_for_run(512);

    let small = allocations_for_run(512);
    let large = allocations_for_run(4096);

    // 8x the events (arrivals + completions + ticks) must not cost 8x the
    // allocations: everything per-event reuses the scratch snapshot and the
    // retained queue. Only run-scoped containers (records with known
    // capacity, the amortized-doubling segment timeline) may grow, and those
    // amortize to O(log n) reallocations plus one records reservation.
    assert!(
        large < small + 64,
        "event-loop allocations grew with event count: {small} -> {large}"
    );
}
