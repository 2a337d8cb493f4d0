//! Zero steady-state allocations across the controller's warm hot loop, and
//! a small per-controller heap.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! phase that drives every buffer (profiler window, incremental bucket
//! counts, the process-wide FFT plans, the thread's table builder's
//! spectra/rows and last-build memo, the rolling tail tracker's sort
//! scratch) to its high-water size, a full completion → tick (with a
//! *performed* rebuild) → arrival cycle must not allocate at all, nor must
//! the decisions that extend the rebuilt tables to the positions they read.
//! This is the structural guarantee behind the "incremental,
//! allocation-free rebuilds" contract: the 100 ms tick costs arithmetic,
//! never the allocator.
//!
//! The heap-budget test pins the other half of that design: the build
//! engine lives per thread, not per controller, so a fleet's N-th seeded
//! controller (and a clone of one) costs its profile and tables only.

use rubik_core::tables::DEFAULT_GAUSSIAN_CUTOFF;
use rubik_core::{RubikConfig, RubikController, TargetTailTables};
use rubik_sim::{DvfsConfig, DvfsPolicy, InServiceView, QueuedView, RequestRecord, ServerState};
use rubik_stats::DeterministicRng;
use rubik_testalloc::{allocations, bytes_allocated, CountingAllocator};

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
/// periodic tick (which must perform a rebuild — the profile changed — and
/// whose decision extends the rebuilt tables to the queue's depth), and an
/// arrival decision. Cycles are spaced 4 ms apart so the 1 s feedback
/// window saturates and fires during warm-up and steady state alike.
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

/// Two controllers whose profiles move on every tick (see
/// [`warm_rebuilds_that_miss_the_memo_allocate_nothing`]), seeded on this
/// thread, with their demand pools.
fn moving_profiles(
    config: RubikConfig,
    dvfs: &DvfsConfig,
) -> (Vec<RubikController>, Vec<Vec<(f64, f64)>>) {
    let pools: Vec<Vec<(f64, f64)>> = [(42, 65), (43, 67)]
        .into_iter()
        .map(|(seed, n)| {
            let mut rng = DeterministicRng::new(seed);
            (0..n)
                .map(|_| (rng.lognormal(1e6, 0.4), rng.lognormal(60e-6, 0.4)))
                .collect()
        })
        .collect();
    let rubiks = pools
        .iter()
        .map(|demands| {
            let mut rubik = RubikController::new(config, dvfs.clone());
            rubik.seed_profile(demands.iter().copied());
            rubik
        })
        .collect();
    (rubiks, pools)
}

/// The test above cycles a 64-demand pool through a 256-sample window, so
/// once the window is full each new sample equals the one it evicts: the
/// profile stops moving and the thread's last-build memo serves its
/// "performed" rebuilds as copies. Here every tick takes the memo's miss
/// path instead — a row-setup rebuild plus the memo's record of it — as
/// periodic rebuilds do in the fleets and the figure sweeps. Two
/// controllers share the thread and alternate ticks, so the memo always
/// holds the other one's last build; their pools of 65 and 67 demands
/// still fit the window (the bucket grid stays at its high-water shape),
/// but each evicted sample differs from the new one, so each profile moves
/// from tick to tick. The queue stays empty, so no decision extends the
/// tables (see [`warm_extensions_allocate_nothing`]).
#[test]
fn warm_rebuilds_that_miss_the_memo_allocate_nothing() {
    let dvfs = DvfsConfig::haswell_like();
    let config = RubikConfig::new(2e-3).with_profiling_window(256);
    let (mut rubiks, pools) = moving_profiles(config, &dvfs);
    let mut queue: Vec<QueuedView> = Vec::new();

    for cycle in 0..512 {
        for (rubik, demands) in rubiks.iter_mut().zip(&pools) {
            drive_cycle(rubik, &dvfs, demands, cycle, &mut queue);
        }
    }

    let before_rebuilds: Vec<u64> = rubiks
        .iter()
        .map(|r| r.stats().table_rebuilds_performed)
        .collect();
    let mut previous: Vec<TargetTailTables> = rubiks
        .iter()
        .map(|r| r.tables().expect("seeded").clone())
        .collect();
    let mut changed = [0u32; 2];
    let mut allocated = 0;
    for cycle in 512..768 {
        for (i, (rubik, demands)) in rubiks.iter_mut().zip(&pools).enumerate() {
            let before = allocations();
            drive_cycle(rubik, &dvfs, demands, cycle, &mut queue);
            allocated += allocations() - before;
            // Outside the counted section: did this tick move the tables?
            let tables = rubik.tables().expect("seeded");
            if *tables != previous[i] {
                changed[i] += 1;
                previous[i].clone_from(tables);
            }
        }
    }

    for (i, rubik) in rubiks.iter().enumerate() {
        assert_eq!(
            rubik.stats().table_rebuilds_performed - before_rebuilds[i],
            256,
            "each steady-state tick must perform a rebuild"
        );
        assert_eq!(
            changed[i], 256,
            "every steady-state tick must change controller {i}'s tables"
        );
    }
    assert_eq!(
        allocated, 0,
        "warm rebuilds that miss the memo must not allocate"
    );
}

/// Decisions build the table positions they read on demand, through the
/// thread's build workspace. Two controllers alternate on the memo's miss
/// path, as in the test above, while their queues grow from empty to past
/// the Gaussian cutoff and back every 20 cycles: each tick sets its tables
/// up at depth 1 and its own decision extends them to the queue's depth,
/// through every transform size of the ladder, within the counted cycles.
#[test]
fn warm_extensions_allocate_nothing() {
    const PERIOD: usize = 20;
    let dvfs = DvfsConfig::haswell_like();
    let config = RubikConfig::new(2e-3).with_profiling_window(256);
    let cutoff = DEFAULT_GAUSSIAN_CUTOFF;
    assert!(PERIOD > cutoff);
    let (mut rubiks, pools) = moving_profiles(config, &dvfs);
    let mut queue: Vec<QueuedView> = Vec::with_capacity(PERIOD);
    let resize_queue = |queue: &mut Vec<QueuedView>, cycle: u64| {
        let len = cycle as usize % PERIOD;
        queue.truncate(len);
        while queue.len() < len {
            queue.push(QueuedView {
                id: queue.len() as u64 + 1,
                arrival: 0.19,
                oracle_compute_cycles: 1e6,
                oracle_membound_time: 60e-6,
                class: 0,
            });
        }
    };

    for cycle in 0..512 {
        resize_queue(&mut queue, cycle);
        for (rubik, demands) in rubiks.iter_mut().zip(&pools) {
            drive_cycle(rubik, &dvfs, demands, cycle, &mut queue);
        }
    }

    let before_rebuilds: Vec<u64> = rubiks
        .iter()
        .map(|r| r.stats().table_rebuilds_performed)
        .collect();
    let mut full_depth = [0u32; 2];
    let mut allocated = 0;
    for cycle in 512..768 {
        resize_queue(&mut queue, cycle);
        for (i, (rubik, demands)) in rubiks.iter_mut().zip(&pools).enumerate() {
            let before = allocations();
            drive_cycle(rubik, &dvfs, demands, cycle, &mut queue);
            allocated += allocations() - before;
            // Outside the counted section: how deep did this cycle build?
            let depth = rubik.tables().expect("seeded").depth();
            assert_eq!(depth, (queue.len() + 1).min(cutoff), "cycle {cycle}");
            if depth == cutoff {
                full_depth[i] += 1;
            }
        }
    }

    for (i, rubik) in rubiks.iter().enumerate() {
        assert_eq!(
            rubik.stats().table_rebuilds_performed - before_rebuilds[i],
            256,
            "each steady-state tick must perform a rebuild"
        );
        assert!(
            full_depth[i] >= 12,
            "controller {i}'s tables must reach the cutoff in the counted cycles"
        );
    }
    assert_eq!(allocated, 0, "warm extensions must not allocate");
}

/// An arrival decision at `now` with `queue` waiting.
fn arrive(rubik: &mut RubikController, dvfs: &DvfsConfig, now: f64, queue: &mut Vec<QueuedView>) {
    let s = state(now, dvfs, queue);
    rubik.on_arrival(&s);
    *queue = s.queued;
}

/// Between ticks a queue usually grows one request at a time, so each
/// decision extends its tables by one rung. Two controllers on the memo's
/// miss path (see [`warm_rebuilds_that_miss_the_memo_allocate_nothing`])
/// share the thread: each ticks with an empty queue (its tables set up at
/// depth 1), then decides with 1, 2, … requests queued up to the cutoff,
/// one rung per decision through every transform size of the ladder. In
/// even cycles the two take turns at every decision, so each extension
/// rebuilds the thread builder's ladder from its own tables; in odd cycles
/// each makes its decisions back to back, so each extension continues the
/// ladder the last one left.
#[test]
fn warm_one_rung_extensions_allocate_nothing() {
    let dvfs = DvfsConfig::haswell_like();
    let config = RubikConfig::new(2e-3).with_profiling_window(256);
    let cutoff = DEFAULT_GAUSSIAN_CUTOFF;
    let (mut rubiks, pools) = moving_profiles(config, &dvfs);
    let mut queue: Vec<QueuedView> = Vec::with_capacity(cutoff);
    let grow = |queue: &mut Vec<QueuedView>| {
        queue.push(QueuedView {
            id: queue.len() as u64 + 1,
            arrival: 0.19,
            oracle_compute_cycles: 1e6,
            oracle_membound_time: 60e-6,
            class: 0,
        })
    };
    let mut run_cycle = |rubiks: &mut [RubikController], cycle: u64| {
        for (rubik, demands) in rubiks.iter_mut().zip(&pools) {
            queue.clear();
            drive_cycle(rubik, &dvfs, demands, cycle, &mut queue);
        }
        let now = 0.2 + cycle as f64 * 4e-3 + 1e-3;
        if cycle.is_multiple_of(2) {
            queue.clear();
            for _ in 1..cutoff {
                grow(&mut queue);
                for rubik in rubiks.iter_mut() {
                    arrive(rubik, &dvfs, now, &mut queue);
                }
            }
        } else {
            for rubik in rubiks.iter_mut() {
                queue.clear();
                for _ in 1..cutoff {
                    grow(&mut queue);
                    arrive(rubik, &dvfs, now, &mut queue);
                }
            }
        }
    };

    for cycle in 0..512 {
        run_cycle(&mut rubiks, cycle);
    }

    let before_rebuilds: Vec<u64> = rubiks
        .iter()
        .map(|r| r.stats().table_rebuilds_performed)
        .collect();
    let mut allocated = 0;
    for cycle in 512..768 {
        let before = allocations();
        run_cycle(&mut rubiks, cycle);
        allocated += allocations() - before;
        for rubik in &rubiks {
            assert_eq!(rubik.tables().expect("seeded").depth(), cutoff);
        }
    }

    for (i, rubik) in rubiks.iter().enumerate() {
        assert_eq!(
            rubik.stats().table_rebuilds_performed - before_rebuilds[i],
            256,
            "each steady-state tick must perform a rebuild"
        );
    }
    assert_eq!(allocated, 0, "warm one-rung extensions must not allocate");
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

/// A fleet seeds every server from one trace prefix. Once one controller has
/// been seeded on this thread, seeding another from the same demands reuses
/// the thread's build workspace (its memo serves the tables as a copy), and
/// cloning a seeded controller copies no build engine either: each costs
/// its profiler window, its tables and its feedback state, nothing more.
/// The window and seed size match the benchmark fleets (1024 and 256).
#[test]
fn identical_seeds_and_clones_stay_within_a_per_controller_heap_budget() {
    const SEED_BUDGET: u64 = 32 * 1024;
    const CLONE_BUDGET: u64 = 16 * 1024;
    let dvfs = DvfsConfig::haswell_like();
    let config = RubikConfig::new(2e-3).with_profiling_window(1024);
    let mut rng = DeterministicRng::new(11);
    let demands: Vec<(f64, f64)> = (0..256)
        .map(|_| (rng.lognormal(1e6, 0.4), rng.lognormal(60e-6, 0.4)))
        .collect();
    let seeded = || {
        let mut rubik = RubikController::new(config, dvfs.clone());
        rubik.seed_profile(demands.iter().copied());
        rubik
    };

    let first = seeded();
    let before = bytes_allocated();
    let second = seeded();
    let seed_bytes = bytes_allocated() - before;
    let before = bytes_allocated();
    let copy = second.clone();
    let clone_bytes = bytes_allocated() - before;

    assert!(first.tables().is_some());
    assert_eq!(second.tables(), first.tables());
    assert_eq!(copy.tables(), first.tables());
    assert!(
        seed_bytes < SEED_BUDGET,
        "seeding an identical controller allocated {seed_bytes} bytes (budget {SEED_BUDGET})"
    );
    assert!(
        clone_bytes < CLONE_BUDGET,
        "cloning a seeded controller allocated {clone_bytes} bytes (budget {CLONE_BUDGET})"
    );
}
