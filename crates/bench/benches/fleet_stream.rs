//! Streamed fleet serving under time-varying load: a 100-server Rubik fleet
//! fed through `Cluster::run` from a live non-homogeneous Poisson source
//! (a diurnal swing followed by a load step), with a `PegasusFleet` cap
//! re-apportioning a 300 W global budget every epoch.
//!
//! This is the acceptance experiment for the `rubik-load` streaming layer:
//! the arrival stream is never materialized as a `Trace` (memory stays
//! O(in-flight) — `stream_alloc.rs` pins that with a counting allocator);
//! the per-server Rubik controllers are seeded from a short drained prefix
//! of a twin source; and the cap must *hold* — the max epoch-window power at
//! or under the budget — through both the diurnal trough-to-peak swing and
//! the step up to the high plateau.
//!
//! Criterion tracks the wall time of the capped streamed runs in
//! `BENCH_controller.json`; the experiment's power/tail numbers are merged
//! into the `"fleet_stream"` section of `BENCH_cluster.json`.
//!
//! Env knobs: `RUBIK_FLEET_STREAM_REQUESTS` (default 60) sets the expected
//! requests per server; `RUBIK_BENCH_SAMPLE_MS` / `RUBIK_BENCH_SAMPLES` are
//! the usual criterion smoke knobs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rubik::cluster::{PegasusFleet, RoundRobin};
use rubik::load::{drain_to_trace, ShapedSource};
use rubik::{
    AppProfile, Cluster, ClusterOutcome, CorePowerModel, LoadShape, RubikConfig, RubikController,
    RunResult, SimConfig, WorkloadGenerator,
};

const BENCH_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_controller.json");
const CLUSTER_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");

const FLEET: usize = 100;
/// Watts per server: far under the 6 W a busy core draws at nominal, so the
/// apportioned ceilings genuinely bind through the diurnal peak.
const BUDGET_PER_SERVER: f64 = 3.0;
/// Fleet-controller epoch; short enough that a bench-sized run spans many
/// epochs on both sides of the load step.
const EPOCH: f64 = 0.02;
const SEED: u64 = 2015;

/// Diurnal per-server loads: a 0.45 mean with a +/-0.2 swing, then a step
/// up to a steady 0.65 plateau.
const DIURNAL_MEAN: f64 = 0.45;
const DIURNAL_AMPLITUDE: f64 = 0.2;
const STEP_LOAD: f64 = 0.65;

fn requests_per_server() -> usize {
    std::env::var("RUBIK_FLEET_STREAM_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// Two diurnal periods over the first two thirds of the window, then the
/// step to the high plateau for the final third.
fn shape(duration: f64) -> LoadShape {
    let swing = 2.0 * duration / 3.0;
    LoadShape::Sequence(vec![
        LoadShape::Diurnal {
            mean: DIURNAL_MEAN,
            amplitude: DIURNAL_AMPLITUDE,
            period: swing / 2.0,
            duration: swing,
        },
        LoadShape::Steady {
            load: STEP_LOAD,
            duration: duration / 3.0,
        },
    ])
}

/// A fresh live source over the shaped window. Same seed every call: the
/// capped, uncapped, and criterion-timed runs all see the identical stream,
/// and the controller-seeding prefix is drained from the same twin.
fn source(profile: &AppProfile, duration: f64) -> ShapedSource {
    ShapedSource::new(profile.clone(), shape(duration), SEED).for_fleet(FLEET)
}

fn run_fleet(
    profile: &AppProfile,
    duration: f64,
    bound: f64,
    budget: f64,
) -> (ClusterOutcome, Vec<RunResult>) {
    let power = CorePowerModel::haswell_like();
    let config = SimConfig::paper_simulated();
    // Seed each controller's latency tables from a short prefix of a twin
    // source — the only part of the stream that is ever materialized.
    let prefix = drain_to_trace(source(profile, duration), Some(256));
    let mut cluster = Cluster::new(config.clone(), FLEET, Box::new(RoundRobin::new()), |_| {
        RubikController::seeded_for_trace(
            RubikConfig::new(bound).with_profiling_window(1024),
            config.dvfs.clone(),
            &prefix,
            256,
        )
    })
    .with_power(power);
    if budget.is_finite() {
        cluster = cluster
            .with_fleet_controller(Box::new(PegasusFleet::new(budget, power).with_epoch(EPOCH)));
    }
    let report = cluster
        .run(source(profile, duration))
        .expect("generated sources are time-ordered");
    (report.outcome, report.results)
}

fn bench_fleet_stream(c: &mut Criterion) {
    let profile = AppProfile::masstree();
    let bound = 3.0 * profile.mean_service_time();
    let per_server = requests_per_server();
    let budget = BUDGET_PER_SERVER * FLEET as f64;
    // Size the window so the shaped stream draws roughly the request budget.
    let capacity = WorkloadGenerator::new(profile.clone(), SEED).steady_rate(1.0);
    let average_load = shape(1.0).average_load();
    let duration = (per_server * FLEET) as f64 / (average_load * capacity * FLEET as f64);
    let expected = source(&profile, duration).expected_requests();

    let mut group = c.benchmark_group("fleet_stream");
    group.bench_with_input(BenchmarkId::new("mode", "capped"), &budget, |b, &budget| {
        b.iter(|| {
            let (outcome, _) = run_fleet(&profile, duration, bound, budget);
            assert!(outcome.requests > 0);
            outcome.fleet_energy // checksum against dead-code elimination
        })
    });
    group.finish();

    // One measured run per mode for the recorded experiment numbers.
    let (uncapped, uncapped_results) = run_fleet(&profile, duration, bound, f64::INFINITY);
    let (capped, capped_results) = run_fleet(&profile, duration, bound, budget);
    let power = CorePowerModel::haswell_like();
    let uncapped_max =
        rubik_bench::max_epoch_power(&uncapped_results, uncapped.duration, EPOCH, &power);
    let capped_max = rubik_bench::max_epoch_power(&capped_results, capped.duration, EPOCH, &power);

    let section = format!(
        "{{\n    \"servers\": {FLEET},\n    \"arrivals\": \"streamed (Cluster::run, live NHPP source)\",\n    \
         \"shape\": \"diurnal {DIURNAL_MEAN}+/-{DIURNAL_AMPLITUDE} (2 periods), then step to {STEP_LOAD}\",\n    \
         \"expected_requests\": {expected:.0},\n    \"requests\": {},\n    \
         \"policy\": \"rubik-per-server (256-request prefix seed)\",\n    \
         \"budget_w\": {budget:.1},\n    \"epoch_s\": {EPOCH},\n    \
         \"uncapped\": {{\"p95_ms\": {:.4}, \"mean_power_w\": {:.2}, \
         \"max_epoch_power_w\": {uncapped_max:.2}}},\n    \
         \"capped\": {{\"p95_ms\": {:.4}, \"mean_power_w\": {:.2}, \
         \"max_epoch_power_w\": {capped_max:.2}}},\n    \
         \"cap_held\": {}\n  }}",
        capped.requests,
        uncapped.tail_latency * 1e3,
        uncapped.fleet_power,
        capped.tail_latency * 1e3,
        capped.fleet_power,
        capped_max <= budget,
    );
    match rubik_bench::merge_bench_section(CLUSTER_JSON, "fleet_stream", &section) {
        Ok(()) => println!("fleet_stream: merged into {CLUSTER_JSON}"),
        Err(e) => eprintln!("fleet_stream: could not write {CLUSTER_JSON}: {e}"),
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(5).output_json(BENCH_JSON);
    targets = bench_fleet_stream
}
criterion_main!(benches);
