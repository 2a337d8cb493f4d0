//! Cluster-scale serving: global tail latency and fleet power across
//! `routing × load × fleet-size`, with one Rubik controller per server.
//!
//! There is no figure like this in the paper — its evaluation is per-core —
//! but it is the experiment the paper's datacenter claims point at: N
//! servers behind a load balancer, each running Rubik, serving one pooled
//! arrival stream. The grid runs on `rubik-sweep` (one cluster per cell);
//! pass `--threads N` to control the worker pool, `--requests N` for the
//! per-server request count, `--seed N` for the trace seed, and
//! `--trace-out PATH` to write a telemetry trace of the representative
//! cell (JSQ at the largest fleet and highest load).

use rubik::cluster::{fleet_trace, JoinShortestQueue, PowerAware, RoundRobin, Router};
use rubik::{
    AppProfile, Cluster, ClusterOutcome, RubikConfig, RubikController, SimConfig, SweepSpec,
    TraceSource,
};
use rubik_bench::{print_header, BenchArgs};

const FLEETS: [usize; 3] = [4, 16, 64];
const LOADS: [f64; 3] = [0.2, 0.4, 0.6];

fn router(idx: usize) -> Box<dyn Router> {
    match idx {
        0 => Box::new(RoundRobin::new()),
        1 => Box::new(JoinShortestQueue::new()),
        _ => Box::new(PowerAware::default()),
    }
}

fn main() {
    let args = BenchArgs::parse();
    let per_server_requests = args.requests.unwrap_or(150);
    let seed = args.seed.unwrap_or(2015);
    let config = SimConfig::paper_simulated();
    let profile = AppProfile::masstree();
    let bound = 3.0 * profile.mean_service_time();

    let routers = 3;
    let spec = SweepSpec::new()
        .axis("router", routers)
        .axis("fleet", FLEETS.len())
        .axis("load", LOADS.len());

    let outcomes: Vec<ClusterOutcome> = args
        .executor()
        .run(&spec, |cell| {
            let fleet = FLEETS[cell.get("fleet")];
            let load = LOADS[cell.get("load")];
            // The seed must not depend on the router axis: routers are
            // compared on identical arrival streams (as fig15 does for
            // schemes).
            let trace_seed = seed + (cell.get("fleet") * LOADS.len() + cell.get("load")) as u64;
            let trace = fleet_trace(
                &profile,
                load,
                fleet,
                per_server_requests * fleet,
                trace_seed,
            )
            .expect("a non-empty fleet at a positive load");
            let cluster = Cluster::new(config.clone(), fleet, router(cell.get("router")), |_| {
                RubikController::seeded_for_trace(
                    RubikConfig::new(bound).with_profiling_window(1024),
                    config.dvfs.clone(),
                    &trace,
                    256,
                )
            });
            cluster
                .run(TraceSource::new(&trace))
                .expect("a valid fleet run")
                .outcome
        })
        .into_results();

    println!(
        "# Cluster serving: {} with Rubik per server, bound {:.2} ms, {} requests/server",
        profile.name(),
        bound * 1e3,
        per_server_requests
    );
    print_header(&[
        "router",
        "fleet",
        "load",
        "tail_norm",
        "fleet_power_w",
        "j_per_req",
        "imbalance",
    ]);
    let router_names: Vec<String> = (0..routers).map(|i| router(i).name().to_string()).collect();
    for cell in spec.cells() {
        let o = &outcomes[cell.index()];
        println!(
            "{}\t{}\t{:.1}\t{:.3}\t{:.2}\t{:.5}\t{:.2}",
            router_names[cell.get("router")],
            FLEETS[cell.get("fleet")],
            LOADS[cell.get("load")],
            o.tail_latency / bound,
            o.fleet_power,
            o.energy_per_request(),
            o.load_imbalance(),
        );
    }

    if args.tracing() {
        // Re-run the representative cell — JSQ at the largest fleet and
        // highest load — with telemetry recording (bit-identical to the
        // grid cell by the neutrality contract) and emit its trace.
        let fleet = *FLEETS.last().expect("non-empty fleets");
        let load = *LOADS.last().expect("non-empty loads");
        let trace_seed = seed + ((FLEETS.len() - 1) * LOADS.len() + (LOADS.len() - 1)) as u64;
        let trace = fleet_trace(
            &profile,
            load,
            fleet,
            per_server_requests * fleet,
            trace_seed,
        )
        .expect("a non-empty fleet at a positive load");
        let cluster = Cluster::new(config.clone(), fleet, router(1), |_| {
            RubikController::seeded_for_trace(
                RubikConfig::new(bound).with_profiling_window(1024),
                config.dvfs.clone(),
                &trace,
                256,
            )
        })
        .with_telemetry(args.telemetry());
        let report = cluster
            .run(TraceSource::new(&trace))
            .expect("a valid fleet run");
        args.emit_trace(&report.log.expect("--trace-out records telemetry"));
    }
}
