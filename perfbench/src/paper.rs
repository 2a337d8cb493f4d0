//! `paper_figures`: the fig09 load-sweep grid (5 apps x 8 loads x 5
//! schemes) and the fig16 datacenter sweep, both on `rubik-sweep`. No
//! cluster code runs here: it covers single-server simulation, Rubik's
//! decisions and table rebuilds, the replay oracles, coloc and the sweep
//! executor.

use std::time::Instant;

use rubik::{
    AppProfile, DatacenterComparison, DatacenterConfig, RubikConfig, RubikController, RunResult,
    Server, SweepExecutor, SweepSpec, Trace,
};
use rubik_bench::{Harness, SchemeResult, TAIL_QUANTILE};

use crate::probe::{current_span, Mode, LAYERS};
use crate::{derive_seed, fingerprint, Rep, SimMetrics};

/// Requests per fig09 cell.
pub const REQUESTS: usize = 2500;
/// Requests in each app's bound-calibration trace (the fixed-frequency
/// p95 at 50% load). A 2500-request p95 moved the bounds, and with them
/// Rubik's tails, by ~6% from seed to seed.
const CALIBRATION_REQUESTS: usize = 20_000;
const LOADS: [f64; 8] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
/// Requests per fig16 (app, load) sample, for each of the segregated and
/// colocated runs.
const FIG16_REQUESTS: usize = 1500;
const FIG16_LOADS: [f64; 6] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
const THREADS: usize = 2;
/// Times the setup is repeated in one repetition: it takes milliseconds,
/// so a single timing would be mostly noise.
const SETUP_REPEATS: usize = 9;

/// One fig09 cell: the five schemes, and Rubik's own run in detail.
#[derive(Debug)]
struct Cell {
    schemes: [SchemeResult; 5],
    rubik_p99: f64,
    rubik_within_bound: usize,
    rubik_served: usize,
    offered: usize,
}

pub fn rep<M: Mode>(seed: u64) -> Rep {
    let mut harness = Harness::new().with_requests(REQUESTS);
    harness.seed = derive_seed(seed, "grid");
    let apps = AppProfile::all();

    let calibration = Harness {
        requests: CALIBRATION_REQUESTS,
        ..harness.clone()
    };
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut bounds = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        bounds = M::time(&LAYERS.setup, || {
            apps.iter()
                .map(|app| calibration.latency_bound(app))
                .collect::<Vec<f64>>()
        });
        setup_s.push(start.elapsed().as_secs_f64());
    }

    let run = Instant::now();
    let (grid, points) = M::time(&LAYERS.run, || {
        let parent = current_span();
        let spec = SweepSpec::new()
            .axis("app", apps.len())
            .axis("load", LOADS.len());
        let grid = SweepExecutor::new(THREADS).run(&spec, |cell| {
            M::time_under(parent, &LAYERS.cell, || {
                let (i, j) = (cell.get("app"), cell.get("load"));
                // As in fig09, the 50% point draws its trace from the
                // bound-defining seed.
                let offset = if LOADS[j] == 0.5 {
                    777
                } else {
                    (i * 100 + j) as u64
                };
                fig09_cell::<M>(&harness, &apps[i], LOADS[j], offset, bounds[i])
            })
        });

        let dc = DatacenterComparison::new(DatacenterConfig {
            requests_per_sample: FIG16_REQUESTS,
            seed: derive_seed(seed, "coloc"),
            ..DatacenterConfig::paper()
        });
        let ctx = M::time(&LAYERS.coloc_context, || dc.context_with_threads(THREADS));
        let spec = SweepSpec::new().axis("lc_load", FIG16_LOADS.len());
        let points = SweepExecutor::new(THREADS).run(&spec, |cell| {
            M::time_under(parent, &LAYERS.cell, || {
                M::time(&LAYERS.coloc, || {
                    dc.evaluate_with(&ctx, FIG16_LOADS[cell.get("lc_load")])
                })
            })
        });
        (grid, points)
    });
    let run_s = run.elapsed().as_secs_f64();

    let mut failures = Vec::new();
    let cells = &grid.results;
    let n = cells.len() as f64;
    let rubik = |c: &Cell| c.schemes[4];
    let offered: usize = cells.iter().map(|c| c.offered).sum();
    let sim = SimMetrics {
        p95_ms: cells.iter().map(|c| rubik(c).tail_latency).sum::<f64>() / n * 1e3,
        p99_ms: cells.iter().map(|c| c.rubik_p99).sum::<f64>() / n * 1e3,
        energy_mj_per_req: cells
            .iter()
            .map(|c| rubik(c).energy_per_request)
            .sum::<f64>()
            / n
            * 1e3,
        goodput_frac: cells.iter().map(|c| c.rubik_within_bound).sum::<usize>() as f64
            / offered as f64,
    };
    sim.check_finite(&mut failures);
    for c in cells.iter().filter(|c| c.rubik_served != c.offered) {
        failures.push(format!(
            "a Rubik run served {} of {} requests",
            c.rubik_served, c.offered
        ));
    }
    for p in &points.results {
        if p.coloc_power.partial_cmp(&p.segregated_power) != Some(std::cmp::Ordering::Less) {
            failures.push(format!(
                "fig16 at {:.0}% load: colocated power {} W is not below segregated {} W",
                p.lc_load * 100.0,
                p.coloc_power,
                p.segregated_power
            ));
        }
    }

    // Scheme-requests across the grid, plus fig16's segregated and
    // colocated sample runs for every app at every load.
    let fig16_samples = FIG16_LOADS.len() * apps.len() * 2 * FIG16_REQUESTS;
    let served = (cells.len() * 5 * REQUESTS + fig16_samples) as u64;
    let sweeps = [
        (
            grid.cell_times.iter().sum::<std::time::Duration>(),
            grid.wall_time,
            grid.threads,
        ),
        (
            points.cell_times.iter().sum(),
            points.wall_time,
            points.threads,
        ),
    ];
    let cell_busy: f64 = sweeps.iter().map(|s| s.0.as_secs_f64()).sum();
    let capacity: f64 = sweeps.iter().map(|s| s.1.as_secs_f64() * s.2 as f64).sum();
    let layer = vec![
        (
            "sweep.cells",
            (grid.cell_times.len() + points.cell_times.len()) as f64,
        ),
        ("sweep.cell_busy_s", cell_busy),
        (
            "sweep.max_cell_s",
            grid.max_cell_time()
                .max(points.max_cell_time())
                .as_secs_f64(),
        ),
        ("sweep.efficiency", cell_busy / capacity),
    ];
    Rep {
        setup_s,
        run_s,
        served,
        offered: served,
        lost: 0,
        fingerprint: fingerprint(&(cells, &points.results, &bounds, &sim)),
        sim,
        failures,
        layer,
    }
}

fn fig09_cell<M: Mode>(
    harness: &Harness,
    app: &AppProfile,
    load: f64,
    offset: u64,
    bound: f64,
) -> Cell {
    let trace = M::time(&LAYERS.trace_gen, || harness.trace(app, load, offset));
    let nominal = harness.sim.dvfs.nominal();
    let fixed = M::time(&LAYERS.fixed, || harness.run_fixed(&trace, nominal));
    let (static_oracle, _) = M::time(&LAYERS.static_oracle, || {
        harness.run_static_oracle(&trace, bound)
    });
    let dynamic = M::time(&LAYERS.dynamic_oracle, || {
        harness.run_dynamic_oracle(&trace, bound)
    });
    let (rubik_nofb, _) = M::time(&LAYERS.rubik_scheme, || {
        run_rubik::<M>(harness, &trace, bound, false)
    });
    let (rubik, result) = M::time(&LAYERS.rubik_scheme, || {
        run_rubik::<M>(harness, &trace, bound, true)
    });
    let records = result.records();
    Cell {
        schemes: [fixed, static_oracle, dynamic, rubik_nofb, rubik],
        rubik_p99: result.tail_latency(0.99).unwrap_or(f64::NAN),
        rubik_within_bound: records.iter().filter(|r| r.latency() <= bound).count(),
        rubik_served: records.len(),
        offered: trace.len(),
    }
}

/// `Harness::run_rubik` for the measured run. The traced run builds the
/// same controller the same way, wraps it in the mode's policy timer and
/// summarizes the run as the harness does; the bit-identity check between
/// the two runs holds this copy to the harness.
fn run_rubik<M: Mode>(
    harness: &Harness,
    trace: &Trace,
    bound: f64,
    feedback: bool,
) -> (SchemeResult, RunResult) {
    if !M::TRACED {
        return harness.run_rubik(trace, bound, feedback);
    }
    let mut config = RubikConfig::new(bound).with_profiling_window(2048);
    if !feedback {
        config = config.without_feedback();
    }
    let rubik = M::time(&LAYERS.seed, || {
        let mut rubik = RubikController::new(config, harness.sim.dvfs.clone());
        rubik.seed_profile(
            trace
                .requests()
                .iter()
                .take(512)
                .map(|r| (r.compute_cycles, r.membound_time)),
        );
        rubik
    });
    let mut policy = M::policy(rubik);
    let result = Server::new(harness.sim.clone()).run(trace, &mut policy);
    let residency = result.freq_residency();
    let summary = SchemeResult {
        tail_latency: result.tail_latency(TAIL_QUANTILE).unwrap_or(0.0),
        energy_per_request: harness
            .power
            .energy_per_request(&residency, trace.len().max(1)),
        busy_time: residency.busy_time(),
    };
    (summary, result)
}
