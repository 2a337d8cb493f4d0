//! Zero steady-state allocations across the controller's warm hot loop.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! phase that drives every buffer (profiler window, incremental bucket
//! counts, the table builder's plans/spectra/rows, the rolling tail
//! tracker's sort scratch) to its high-water size, a full
//! completion → tick (with a *performed* rebuild) → arrival cycle must not
//! allocate at all. This is the structural guarantee behind the
//! "incremental, allocation-free rebuilds" contract: the 100 ms tick costs
//! arithmetic, never the allocator.

use rubik_core::{RubikConfig, RubikController};
use rubik_sim::{DvfsConfig, DvfsPolicy, InServiceView, QueuedView, RequestRecord, ServerState};
use rubik_stats::DeterministicRng;
use rubik_testalloc::{allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn state(now: f64, dvfs: &DvfsConfig, queue: &mut Vec<QueuedView>) -> ServerState {
    // The queued vector is moved in and out of the state so the test itself
    // performs no steady-state allocation either.
    ServerState {
        now,
        current_freq: dvfs.min(),
        target_freq: dvfs.min(),
        in_service: Some(InServiceView {
            id: 0,
            arrival: now - 1e-4,
            elapsed_compute_cycles: 3e5,
            elapsed_membound_time: 20e-6,
            oracle_compute_cycles: 1e6,
            oracle_membound_time: 60e-6,
            class: 0,
        }),
        queued: std::mem::take(queue),
    }
}

/// One steady-state iteration: a completion (new profile sample), the
/// periodic tick (which must perform a full rebuild — the profile changed),
/// and an arrival decision. Cycles are spaced 4 ms apart so the 1 s
/// feedback window saturates and fires during warm-up and steady state
/// alike.
fn drive_cycle(
    rubik: &mut RubikController,
    dvfs: &DvfsConfig,
    demands: &[(f64, f64)],
    cycle: u64,
    queue: &mut Vec<QueuedView>,
) {
    let now = 0.2 + cycle as f64 * 4e-3;
    let (c, m) = demands[(cycle as usize) % demands.len()];
    let record = RequestRecord {
        id: cycle,
        arrival: now - 5e-4,
        start: now - 4e-4,
        completion: now,
        compute_cycles: c,
        membound_time: m,
        queue_len_at_arrival: 1,
        class: 0,
    };
    let mut s = state(now, dvfs, queue);
    rubik.on_completion(&s, &record);
    rubik.on_tick(&s);
    rubik.on_arrival(&s);
    *queue = std::mem::take(&mut s.queued);
}

#[test]
fn warm_completion_tick_arrival_cycle_allocates_nothing() {
    let dvfs = DvfsConfig::haswell_like();
    // Small profiling window so the test exercises eviction (and the
    // incremental count maintenance) on every cycle, not just appends.
    let config = RubikConfig::new(2e-3).with_profiling_window(256);
    let mut rubik = RubikController::new(config, dvfs.clone());

    // Demands are drawn up front from a fixed pool: the pool's maximum
    // enters the window during warm-up, so the steady-state phase never
    // grows the bucket grid past its high-water shape.
    let mut rng = DeterministicRng::new(42);
    let demands: Vec<(f64, f64)> = (0..64)
        .map(|_| (rng.lognormal(1e6, 0.4), rng.lognormal(60e-6, 0.4)))
        .collect();
    rubik.seed_profile(demands.iter().copied());

    let mut queue: Vec<QueuedView> = (1..4)
        .map(|i| QueuedView {
            id: i,
            arrival: 0.0,
            oracle_compute_cycles: 1e6,
            oracle_membound_time: 60e-6,
            class: 0,
        })
        .collect();

    // Warm-up: fill the window past capacity (forcing evictions and grid
    // recounts), saturate the rolling feedback window, and perform many
    // real rebuilds so every buffer reaches its high-water size.
    for cycle in 0..512 {
        drive_cycle(&mut rubik, &dvfs, &demands, cycle, &mut queue);
    }

    let before_rebuilds = rubik.stats().table_rebuilds_performed;
    let before = allocations();
    for cycle in 512..768 {
        drive_cycle(&mut rubik, &dvfs, &demands, cycle, &mut queue);
    }
    let after = allocations();
    let stats = rubik.stats();

    // The steady-state cycles really did rebuild (no accidental gating) ...
    assert_eq!(
        stats.table_rebuilds_performed - before_rebuilds,
        256,
        "each steady-state tick must perform a rebuild"
    );
    // ... and did so without touching the allocator.
    assert_eq!(
        after - before,
        0,
        "steady-state completion+tick+arrival cycles must not allocate"
    );
}

#[test]
fn version_gated_tick_allocates_nothing_and_skips() {
    let dvfs = DvfsConfig::haswell_like();
    let mut rubik = RubikController::new(RubikConfig::new(2e-3), dvfs.clone());
    let mut rng = DeterministicRng::new(7);
    rubik.seed_profile((0..128).map(|_| (rng.lognormal(1e6, 0.3), rng.lognormal(40e-6, 0.3))));

    let mut queue = Vec::new();
    let s = state(0.5, &dvfs, &mut queue);
    rubik.on_tick(&s); // settle any first-tick work
    let before = allocations();
    for _ in 0..64 {
        rubik.on_tick(&s);
    }
    assert_eq!(
        allocations() - before,
        0,
        "gated ticks must not allocate a byte"
    );
    assert!(rubik.stats().table_rebuilds_skipped >= 64);
}
