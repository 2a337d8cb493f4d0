//! Fleet power capping at scale: a 100-server big/little Rubik fleet under
//! a finite global budget, with and without queue migration.
//!
//! This is the acceptance experiment for the fleet-management layer: the
//! `PegasusFleet` controller must *hold* the cap (max epoch-window power at
//! or under the budget), and `ThresholdMigrator` must claw back the tail
//! latency the cap costs. The fleet is deliberately heterogeneous (50 big
//! cores, 50 little cores at half capacity) behind a capacity-*blind*
//! round-robin router: the littles saturate under their equal share of the
//! stream while the bigs coast, a persistent imbalance routing alone cannot
//! fix — exactly what queue migration exists for.
//!
//! Criterion tracks the wall time of the capped runs (the hook overhead) in
//! `BENCH_controller.json`; the experiment's power/tail numbers are merged
//! into the `"fleet_cap"` section of `BENCH_cluster.json` (shared with
//! `cluster_throughput`).
//!
//! Env knobs: `RUBIK_FLEET_CAP_REQUESTS` (default 60) sets requests per
//! server; `RUBIK_BENCH_SAMPLE_MS` / `RUBIK_BENCH_SAMPLES` are the usual
//! criterion smoke knobs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rubik::cluster::{fleet_trace, FleetSpec, PegasusFleet, RoundRobin, ThresholdMigrator};
use rubik::{
    AppProfile, Cluster, ClusterOutcome, CorePowerModel, DvfsConfig, Freq, RubikConfig,
    RubikController, RunResult, SimConfig, Trace, TraceSource,
};

const BENCH_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_controller.json");
const CLUSTER_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");

const FLEET: usize = 100;
const LOAD: f64 = 0.5;
/// Watts per server: far under the 6 W a busy core draws at nominal, so the
/// apportioned ceilings genuinely bind (bigs near 1.8 GHz, littles near
/// 1.0 GHz under their half-capacity share).
const BUDGET_PER_SERVER: f64 = 3.0;
/// Fleet-controller epoch; short enough that a bench-sized run spans many
/// epochs.
const EPOCH: f64 = 0.02;

fn requests_per_server() -> usize {
    std::env::var("RUBIK_FLEET_CAP_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// 50 big cores plus 50 littles (half capacity, 0.8-1.8 GHz domain).
fn fleet_spec() -> FleetSpec {
    let big = SimConfig::paper_simulated();
    let little = big.clone().with_dvfs(DvfsConfig::new(
        Freq::from_mhz(800),
        Freq::from_mhz(1800),
        200,
        Freq::from_mhz(1200),
        4e-6,
    ));
    FleetSpec::new()
        .class("big", big, 1.0, FLEET / 2)
        .class("little", little, 0.5, FLEET / 2)
}

fn run_fleet(
    spec: &FleetSpec,
    trace: &Trace,
    bound: f64,
    budget: f64,
    migrate: bool,
) -> (ClusterOutcome, Vec<RunResult>) {
    let power = CorePowerModel::haswell_like();
    let mut cluster = Cluster::from_spec(
        spec,
        // Round-robin is deliberately capacity-blind: it saturates the
        // littles, showing what migration buys when routing alone cannot
        // keep queues level.
        Box::new(RoundRobin::new()),
        |_, config| {
            RubikController::seeded_for_trace(
                RubikConfig::new(bound).with_profiling_window(1024),
                config.dvfs.clone(),
                trace,
                256,
            )
        },
    )
    .with_power(power);
    if budget.is_finite() {
        cluster = cluster
            .with_fleet_controller(Box::new(PegasusFleet::new(budget, power).with_epoch(EPOCH)));
    }
    if migrate {
        cluster = cluster.with_migrator(Box::new(ThresholdMigrator::new(2, 1).with_interval(1e-3)));
    }
    let report = cluster
        .run(TraceSource::new(trace))
        .expect("a valid fleet run");
    (report.outcome, report.results)
}

/// The largest power drawn over any epoch-aligned window of the run.
fn max_epoch_power(results: &[RunResult], duration: f64) -> f64 {
    rubik_bench::max_epoch_power(results, duration, EPOCH, &CorePowerModel::haswell_like())
}

fn bench_fleet_cap(c: &mut Criterion) {
    let profile = AppProfile::shore();
    let bound = 3.0 * profile.mean_service_time();
    let per_server = requests_per_server();
    let budget = BUDGET_PER_SERVER * FLEET as f64;
    let spec = fleet_spec();
    let trace = fleet_trace(&profile, LOAD, FLEET, per_server * FLEET, 2015)
        .expect("a non-empty fleet at a positive load");

    let mut group = c.benchmark_group("fleet_cap");
    for (label, migrate) in [("capped", false), ("capped_migrating", true)] {
        group.bench_with_input(BenchmarkId::new("mode", label), &migrate, |b, &migrate| {
            b.iter(|| {
                let (outcome, _) = run_fleet(&spec, &trace, bound, budget, migrate);
                assert_eq!(outcome.requests, trace.len());
                outcome.fleet_energy // checksum against dead-code elimination
            })
        });
    }
    group.finish();

    // One measured run per mode for the recorded experiment numbers.
    let (uncapped, _) = run_fleet(&spec, &trace, bound, f64::INFINITY, false);
    let (capped, capped_results) = run_fleet(&spec, &trace, bound, budget, false);
    let (migrating, migrating_results) = run_fleet(&spec, &trace, bound, budget, true);
    let capped_max = max_epoch_power(&capped_results, capped.duration);
    let migrating_max = max_epoch_power(&migrating_results, migrating.duration);

    let section = format!(
        "{{\n    \"servers\": {FLEET},\n    \"load_per_server\": {LOAD},\n    \
         \"requests_per_server\": {per_server},\n    \"router\": \"round-robin (capacity-blind)\",\n    \
         \"policy\": \"rubik-per-server\",\n    \"fleet\": \"50 big + 50 little (cap 0.5)\",\n    \"budget_w\": {budget:.1},\n    \
         \"epoch_s\": {EPOCH},\n    \
         \"uncapped\": {{\"p95_ms\": {:.4}, \"mean_power_w\": {:.2}}},\n    \
         \"capped\": {{\"p95_ms\": {:.4}, \"mean_power_w\": {:.2}, \
         \"max_epoch_power_w\": {capped_max:.2}}},\n    \
         \"capped_migrating\": {{\"p95_ms\": {:.4}, \"mean_power_w\": {:.2}, \
         \"max_epoch_power_w\": {migrating_max:.2}, \"migrated_requests\": {}}},\n    \
         \"cap_held\": {},\n    \"migration_improves_p95\": {}\n  }}",
        uncapped.tail_latency * 1e3,
        uncapped.fleet_power,
        capped.tail_latency * 1e3,
        capped.fleet_power,
        migrating.tail_latency * 1e3,
        migrating.fleet_power,
        migrating.migrated_requests,
        capped_max <= budget && migrating_max <= budget,
        migrating.tail_latency < capped.tail_latency,
    );
    match rubik_bench::merge_bench_section(CLUSTER_JSON, "fleet_cap", &section) {
        Ok(()) => println!("fleet_cap: merged into {CLUSTER_JSON}"),
        Err(e) => eprintln!("fleet_cap: could not write {CLUSTER_JSON}: {e}"),
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(5).output_json(BENCH_JSON);
    targets = bench_fleet_cap
}
criterion_main!(benches);
