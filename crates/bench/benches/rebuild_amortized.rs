//! Amortized cost of the periodic table rebuild (paper Sec. 4.2: the tables
//! are refreshed every 100 ms tick), and of setting up a fleet's
//! controllers.
//!
//! Seven tiers, from the common case to the worst case:
//!
//! * `on_tick_unchanged_profile` — no request completed since the last
//!   build: the version gate short-circuits the whole rebuild, so a tick is
//!   the version compare plus one frequency decision (~ns, vs a full
//!   ~ms-class rebuild before gating).
//! * `on_tick_depth_2` — one completion recorded, then the tick, with one
//!   request queued behind the one in service: the incremental profiler
//!   updates its bucket counts in O(1), the thread's persistent
//!   `TableBuilder` rebuilds the tables up to row setup (boundaries,
//!   conditionals, moments, position 0), and the tick's decision extends
//!   them to the two positions it reads — the depth most decisions read
//!   before the next rebuild. Zero allocations; when the new sample lands
//!   in the evicted sample's bucket the histograms repeat and the builder's
//!   last-build memo serves the rebuild as a copy.
//! * `on_tick_one_new_sample` — the same with the five queued requests of
//!   the bench's busy state: a row-setup rebuild plus an extension to
//!   depth 6. Before tick rebuilds stopped at row setup this tier timed a
//!   full warm rebuild, and its acceptance bar was ≥ 20% under the
//!   pre-builder `table_rebuild/spectral_8x16_128_buckets` median (855 µs,
//!   recorded when that build also constructed its FFT plans).
//!   `table_rebuild` still times full builds, with fresh buffers over the
//!   shared plans.
//! * `tick_then_arrivals_to_depth_6` — one completion recorded, then a
//!   tick with an empty queue (the tables set up at depth 1), then five
//!   arrivals that leave 1 to 5 requests queued: each decision reads one
//!   position more than the last and extends the tables by one rung
//!   (depths 2 to 6), continuing the ladder the thread's builder keeps for
//!   the table it last set up or extended.
//! * `cold_build_8x16_128` — a throwaway builder with fresh buffers and an
//!   empty memo (the FFT plans are process-wide, so they already exist):
//!   what a thread's first build pays.
//! * `seed_identical_controller` — a new controller seeded (window 1024,
//!   256 demands, as the fleet harnesses seed) from demands already built
//!   on this thread: what servers 2..N pay in `Cluster::new`. The thread's
//!   memo serves the tables as a copy.
//! * `clone_seeded_controller` — cloning such a controller: its profile,
//!   tables and feedback state (it owns no build engine).
//!
//! Results merge into `BENCH_controller.json` so the trajectory records the
//! gating/builder win; its `per_controller_build_engine` section holds this
//! bench and `table_rebuild` run on the engine before the build engine left
//! the controller, and its `extend_replays_ladder` section holds the tiers
//! that extend tables run on the builder before it kept a ladder per table
//! kind.

use criterion::{criterion_group, criterion_main, Criterion};

use rubik::core::OnlineProfiler;
use rubik::stats::DeterministicRng;
use rubik::{DvfsConfig, DvfsPolicy, RubikConfig, RubikController, TargetTailTables};
use rubik_sim::{InServiceView, QueuedView, RequestRecord, ServerState};

const BENCH_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_controller.json");

/// A busy server at `now`: a request in service and `queued` behind it.
fn busy_state(now: f64, dvfs: &DvfsConfig, queued: u64) -> ServerState {
    ServerState {
        now,
        current_freq: dvfs.min(),
        target_freq: dvfs.min(),
        in_service: Some(InServiceView {
            id: 0,
            arrival: now - 1e-4,
            elapsed_compute_cycles: 3e5,
            elapsed_membound_time: 40e-6,
            oracle_compute_cycles: 6e5,
            oracle_membound_time: 80e-6,
            class: 0,
        }),
        queued: (1..=queued)
            .map(|i| QueuedView {
                id: i,
                arrival: now - 5e-5,
                oracle_compute_cycles: 6e5,
                oracle_membound_time: 80e-6,
                class: 0,
            })
            .collect(),
    }
}

fn warm_controller() -> (RubikController, DvfsConfig) {
    let dvfs = DvfsConfig::haswell_like();
    let mut rubik = RubikController::new(RubikConfig::new(1e-3), dvfs.clone());
    let mut rng = DeterministicRng::new(2);
    rubik.seed_profile((0..4096).map(|_| (rng.lognormal(6e5, 0.3), rng.lognormal(80e-6, 0.3))));
    (rubik, dvfs)
}

fn bench_rebuild_amortized(c: &mut Criterion) {
    let mut group = c.benchmark_group("rebuild_amortized");

    // Tier 1: version-gated no-op tick.
    {
        let (mut rubik, dvfs) = warm_controller();
        let state = busy_state(0.5, &dvfs, 5);
        rubik.on_tick(&state); // settle: first tick performs nothing new
        group.bench_function("on_tick_unchanged_profile", |b| {
            b.iter(|| rubik.on_tick(&state))
        });
        assert!(rubik.stats().table_rebuilds_skipped > 0);
    }

    // Tiers 2 and 3: one new sample per tick — the warm incremental
    // rebuild, extended by the tick's decision to 2 and 6 positions.
    for (name, queued) in [("on_tick_depth_2", 1), ("on_tick_one_new_sample", 5)] {
        let (mut rubik, dvfs) = warm_controller();
        let state = busy_state(0.5, &dvfs, queued);
        let mut rng = DeterministicRng::new(3);
        group.bench_function(name, |b| {
            b.iter(|| {
                let record = RequestRecord {
                    id: 1,
                    arrival: 0.4999,
                    start: 0.49995,
                    completion: 0.5,
                    compute_cycles: rng.lognormal(6e5, 0.3),
                    membound_time: rng.lognormal(80e-6, 0.3),
                    queue_len_at_arrival: 1,
                    class: 0,
                };
                rubik.on_completion(&state, &record);
                rubik.on_tick(&state)
            })
        });
        assert!(rubik.stats().table_rebuilds_performed > 1);
        assert_eq!(rubik.tables().map(|t| t.depth()), Some(queued as usize + 1));
    }

    // Tier 4: a tick with an empty queue, then arrivals that extend the
    // tables one rung each, to depth 6.
    {
        let (mut rubik, dvfs) = warm_controller();
        let states: Vec<ServerState> = (0..=5).map(|q| busy_state(0.5, &dvfs, q)).collect();
        let mut rng = DeterministicRng::new(5);
        group.bench_function("tick_then_arrivals_to_depth_6", |b| {
            b.iter(|| {
                let record = RequestRecord {
                    id: 1,
                    arrival: 0.4999,
                    start: 0.49995,
                    completion: 0.5,
                    compute_cycles: rng.lognormal(6e5, 0.3),
                    membound_time: rng.lognormal(80e-6, 0.3),
                    queue_len_at_arrival: 1,
                    class: 0,
                };
                rubik.on_completion(&states[0], &record);
                rubik.on_tick(&states[0]);
                for state in &states[1..] {
                    rubik.on_arrival(state);
                }
            })
        });
        assert!(rubik.stats().table_rebuilds_performed > 1);
        assert_eq!(rubik.tables().map(|t| t.depth()), Some(6));
    }

    // Tier 5: cold build through the public wrapper (throwaway builder).
    {
        let mut profiler = OnlineProfiler::new(4096);
        let mut rng = DeterministicRng::new(1);
        for _ in 0..4096 {
            profiler.record(rng.lognormal(6e5, 0.3), rng.lognormal(80e-6, 0.3));
        }
        let compute = profiler.compute_histogram().unwrap();
        let membound = profiler.membound_histogram().unwrap();
        group.bench_function("cold_build_8x16_128", |b| {
            b.iter(|| TargetTailTables::build(&compute, &membound, 0.95))
        });
    }

    // Tiers 6 and 7: a fleet's controllers, seeded from one trace prefix.
    {
        let dvfs = DvfsConfig::haswell_like();
        let config = RubikConfig::new(1e-3).with_profiling_window(1024);
        let mut rng = DeterministicRng::new(4);
        let demands: Vec<(f64, f64)> = (0..256)
            .map(|_| (rng.lognormal(6e5, 0.3), rng.lognormal(80e-6, 0.3)))
            .collect();
        let seeded = || {
            let mut rubik = RubikController::new(config, dvfs.clone());
            rubik.seed_profile(demands.iter().copied());
            rubik
        };
        // The fleet's first server: a real build on this thread.
        let prototype = seeded();
        group.bench_function("seed_identical_controller", |b| b.iter(seeded));
        group.bench_function("clone_seeded_controller", |b| b.iter(|| prototype.clone()));
        assert_eq!(seeded().tables(), prototype.tables());
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).output_json(BENCH_JSON);
    targets = bench_rebuild_amortized
}
criterion_main!(benches);
