//! Determinism contract of the parallel sweep engine, end-to-end on the
//! colocation grids: a parallel sweep at 1, 2, and 8 threads must return
//! **byte-identical** `ColocOutcome` / `DatacenterPoint` vectors to the
//! serial path, across seeds.
//!
//! Float equality is deliberately checked on the bit pattern
//! (`f64::to_bits`), not with a tolerance: the engine's contract is that
//! threading cannot be observed at all, not that it is "close".

use rubik_coloc::{
    ColocOutcome, ColocRunSpec, ColocScheme, ColocatedCore, DatacenterComparison, DatacenterConfig,
    DatacenterPoint,
};
use rubik_sweep::{SweepExecutor, SweepSpec};
use rubik_workloads::{AppProfile, BatchMix};

/// Byte-image of a `ColocOutcome`, comparable with `==` down to NaN
/// payloads.
fn outcome_bits(o: &ColocOutcome) -> [u64; 7] {
    [
        o.tail_latency.to_bits(),
        o.normalized_tail.to_bits(),
        o.lc_energy.to_bits(),
        o.batch_energy.to_bits(),
        o.batch_work.to_bits(),
        o.lc_utilization.to_bits(),
        o.duration.to_bits(),
    ]
}

/// Byte-image of a `DatacenterPoint`.
fn point_bits(p: &DatacenterPoint) -> [u64; 6] {
    [
        p.lc_load.to_bits(),
        p.segregated_power.to_bits(),
        p.coloc_power.to_bits(),
        p.segregated_servers as u64,
        p.coloc_servers as u64,
        p.worst_normalized_tail.to_bits(),
    ]
}

#[test]
fn coloc_grid_is_bit_identical_across_thread_counts() {
    let requests = 400;
    let core = ColocatedCore::new();
    let apps = AppProfile::all();
    let schemes = ColocScheme::all();
    let loads = [0.3, 0.6];

    for base_seed in [3u64, 2015] {
        let mixes = BatchMix::paper_mixes(base_seed);
        let bounds: Vec<f64> = apps
            .iter()
            .enumerate()
            .map(|(i, app)| core.latency_bound(app, requests, base_seed + i as u64))
            .collect();

        let spec = SweepSpec::new()
            .axis("scheme", schemes.len())
            .axis("app", apps.len())
            .axis("load", loads.len());
        let run_cell = |cell: &rubik_sweep::Cell<'_>| -> ColocOutcome {
            let (s, a, l) = (cell.get("scheme"), cell.get("app"), cell.get("load"));
            core.run(
                &ColocRunSpec::new(schemes[s], &apps[a], &mixes[a % mixes.len()], bounds[a])
                    .with_load(loads[l])
                    .with_requests(requests)
                    .with_seed(base_seed + cell.index() as u64),
            )
        };

        let serial: Vec<[u64; 7]> = SweepExecutor::serial()
            .run(&spec, run_cell)
            .into_results()
            .iter()
            .map(outcome_bits)
            .collect();
        for threads in [1usize, 2, 8] {
            let parallel: Vec<[u64; 7]> = SweepExecutor::new(threads)
                .run(&spec, run_cell)
                .into_results()
                .iter()
                .map(outcome_bits)
                .collect();
            assert_eq!(
                parallel, serial,
                "ColocOutcome grid diverged at {threads} threads, seed {base_seed}"
            );
        }
    }
}

/// Version-gated rebuilds are an optimization, not a behavior change:
/// skipping a rebuild whose input histograms are unchanged must leave every
/// `ColocOutcome` bit-identical to an ungated controller, whose every tick
/// reaches the table builder (a repeat of the builder's last build is served
/// from its memo, which keys on the same exact input bits).
/// RubikColoc cells across apps, loads, and seeds — low loads especially,
/// where long idle stretches between completions make ticks overlap an
/// unchanged profile and the gate actually fires.
#[test]
fn version_gated_rebuilds_match_forced_rebuilds_bitwise() {
    let requests = 400;
    let gated = ColocatedCore::new();
    let forced = ColocatedCore::new().with_forced_rubik_rebuilds(true);
    let apps = AppProfile::all();
    let loads = [0.1, 0.4, 0.7];

    for base_seed in [11u64, 2015] {
        let mixes = BatchMix::paper_mixes(base_seed);
        for (a, app) in apps.iter().enumerate() {
            let bound = gated.latency_bound(app, requests, base_seed + a as u64);
            for (l, &load) in loads.iter().enumerate() {
                let seed = base_seed + (a * 10 + l) as u64;
                let mix = &mixes[a % mixes.len()];
                let spec = ColocRunSpec::new(ColocScheme::RubikColoc, app, mix, bound)
                    .with_load(load)
                    .with_requests(requests)
                    .with_seed(seed);
                let g = gated.run(&spec);
                let f = forced.run(&spec);
                assert_eq!(
                    outcome_bits(&g),
                    outcome_bits(&f),
                    "gated vs forced rebuilds diverged: app {}, load {load}, seed {seed}",
                    app.name()
                );
            }
        }
    }
}

#[test]
fn datacenter_sweep_is_bit_identical_across_thread_counts() {
    let loads = [0.2, 0.5];
    for seed in [7u64, 41] {
        let mut config = DatacenterConfig::small();
        config.seed = seed;
        config.requests_per_sample = 300;
        let dc = DatacenterComparison::new(config);

        // Serial reference: the pre-engine code path (a serial context
        // rebuilt for each load) — the engine must reproduce it exactly.
        let reference: Vec<[u64; 6]> = loads
            .iter()
            .map(|&l| point_bits(&dc.evaluate_with(&dc.context_with_threads(1), l)))
            .collect();
        for threads in [1usize, 2, 8] {
            let swept: Vec<[u64; 6]> = dc
                .sweep_with_threads(&loads, threads)
                .iter()
                .map(point_bits)
                .collect();
            assert_eq!(
                swept, reference,
                "DatacenterPoint sweep diverged at {threads} threads, seed {seed}"
            );
        }
    }
}
