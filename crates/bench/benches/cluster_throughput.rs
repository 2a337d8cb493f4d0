//! Fleet-scale cluster throughput: requests per second of one `Cluster::run`
//! per router as the fleet grows. Only the run is timed — every cluster is
//! built (servers, policies, router) in `iter_batched` setup.
//!
//! Cells:
//!
//! * router {round-robin, JSQ, power-aware} × servers {1k, 10k}, each
//!   server at a fixed nominal frequency;
//! * power-aware at 100k servers, fixed frequency (100k Rubik controllers
//!   would need ~21 GB);
//! * power-aware at 1k servers with a Rubik controller per server — one
//!   controller seeded from the trace's head, cloned into every server.
//!
//! Round-robin is the routing-free baseline: JSQ and power-aware are keyed
//! routers, which the driver serves from a tournament tree in O(log n) per
//! changed server, so their per-request cost should stay within a small
//! factor of round-robin's as the fleet grows.
//!
//! Results merge into `BENCH_controller.json` like the other controller
//! benches, and a summary (per-cell median wall time and requests/s, plus
//! the host's parallelism) is merged into the `"cluster_throughput"`
//! section of `BENCH_cluster.json`.
//!
//! Env knobs: `RUBIK_CLUSTER_BENCH_REQUESTS` (default 20) sets requests per
//! server; `RUBIK_BENCH_SAMPLE_MS` / `RUBIK_BENCH_SAMPLES` are the usual
//! criterion smoke knobs.

use criterion::{
    criterion_group, criterion_main, BatchSize, BenchmarkGroup, BenchmarkId, Criterion,
};

use rubik::cluster::{fleet_trace, JoinShortestQueue, PowerAware, RoundRobin};
use rubik::{
    AppProfile, Cluster, DvfsPolicy, FixedFrequencyPolicy, Router, RubikConfig, RubikController,
    SimConfig, Trace,
};

const BENCH_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_controller.json");
const CLUSTER_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");

const LOAD: f64 = 0.3;

fn round_robin() -> Box<dyn Router> {
    Box::new(RoundRobin::new())
}

fn jsq() -> Box<dyn Router> {
    Box::new(JoinShortestQueue::new())
}

fn power_aware() -> Box<dyn Router> {
    Box::new(PowerAware::default())
}

/// One benchmark cell: a router, a per-server policy, and a fleet size.
#[derive(Debug, Clone, Copy)]
struct Cell {
    router: fn() -> Box<dyn Router>,
    rubik: bool,
    servers: usize,
}

impl Cell {
    fn router_name(&self) -> String {
        (self.router)().name().to_string()
    }

    fn policy(&self) -> &'static str {
        if self.rubik {
            "rubik"
        } else {
            "fixed"
        }
    }

    /// `router/policy/servers`, the cell's benchmark id within the group.
    fn name(&self) -> String {
        format!("{}/{}/{}", self.router_name(), self.policy(), self.servers)
    }
}

fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for router in [round_robin, jsq, power_aware] {
        for servers in [1_000, 10_000] {
            cells.push(Cell {
                router,
                rubik: false,
                servers,
            });
        }
    }
    cells.push(Cell {
        router: power_aware,
        rubik: false,
        servers: 100_000,
    });
    cells.push(Cell {
        router: power_aware,
        rubik: true,
        servers: 1_000,
    });
    cells
}

fn requests_per_server() -> usize {
    std::env::var("RUBIK_CLUSTER_BENCH_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

/// Times one cell: each iteration builds a fresh cluster in (untimed)
/// setup, then runs `trace` through it. The checksum returned by the run
/// keeps it from being optimized away.
fn bench_cell<P: DvfsPolicy>(
    group: &mut BenchmarkGroup<'_>,
    cell: &Cell,
    config: &SimConfig,
    trace: &Trace,
    policy: impl Fn() -> P,
) {
    group.bench_with_input(BenchmarkId::from_parameter(cell.name()), cell, |b, cell| {
        b.iter_batched(
            || Cluster::new(config.clone(), cell.servers, (cell.router)(), |_| policy()),
            |cluster| {
                let outcome = cluster.run(trace);
                assert_eq!(outcome.requests, trace.len());
                outcome.fleet_energy
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_cluster_throughput(c: &mut Criterion) {
    let config = SimConfig::paper_simulated();
    let profile = AppProfile::masstree();
    let bound = 3.0 * profile.mean_service_time();
    let per_server = requests_per_server();

    let mut group = c.benchmark_group("cluster_throughput");
    for cell in cells() {
        let requests = per_server * cell.servers;
        let trace = fleet_trace(&profile, LOAD, cell.servers, requests, 2015);
        if cell.rubik {
            let seeded = RubikController::seeded_for_trace(
                RubikConfig::new(bound).with_profiling_window(1024),
                config.dvfs.clone(),
                &trace,
                256,
            );
            bench_cell(&mut group, &cell, &config, &trace, || seeded.clone());
        } else {
            let nominal = config.dvfs.nominal();
            bench_cell(&mut group, &cell, &config, &trace, || {
                FixedFrequencyPolicy::new(nominal)
            });
        }
    }
    group.finish();

    write_cluster_summary(c, per_server);
}

/// Distills the group's results into the `"cluster_throughput"` section of
/// `BENCH_cluster.json`: per-cell median wall time and request throughput.
fn write_cluster_summary(c: &Criterion, per_server: usize) {
    let mut entries = Vec::new();
    for cell in cells() {
        let id = format!("cluster_throughput/{}", cell.name());
        if let Some(r) = c.results().iter().find(|r| r.id == id) {
            let requests = per_server * cell.servers;
            let rps = requests as f64 / (r.median_ns * 1e-9);
            entries.push(format!(
                "      {{\"router\": \"{}\", \"policy\": \"{}\", \"servers\": {}, \
                 \"requests\": {requests}, \"median_ns\": {:.1}, \"requests_per_sec\": {rps:.1}}}",
                cell.router_name(),
                cell.policy(),
                cell.servers,
                r.median_ns
            ));
        }
    }
    if entries.is_empty() {
        return;
    }
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let section = format!(
        "{{\n    \"load_per_server\": {LOAD},\n    \"requests_per_server\": {per_server},\n    \
         \"host_parallelism\": {parallelism},\n    \
         \"timed\": \"Cluster::run only; clusters built in iter_batched setup\",\n    \
         \"cells\": [\n{}\n    ]\n  }}",
        entries.join(",\n")
    );
    if let Err(e) = rubik_bench::merge_bench_section(CLUSTER_JSON, "cluster_throughput", &section) {
        eprintln!("cluster_throughput: could not write {CLUSTER_JSON}: {e}");
    } else {
        println!("cluster_throughput: merged into {CLUSTER_JSON}");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(5).output_json(BENCH_JSON);
    targets = bench_cluster_throughput
}
criterion_main!(benches);
