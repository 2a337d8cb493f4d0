//! Fleet-level power management: global tail, fleet power, and cap holding
//! across `budget × fleet × router × migration`, with one Rubik controller
//! per server and a `PegasusFleet` capper over the whole cluster.
//!
//! There is no such figure in the paper — its evaluation is per-core — but
//! this is the experiment its datacenter framing points at once fleets
//! exist: N servers (optionally a big/little mix) behind a load balancer,
//! each running Rubik against its own bound, with a Pegasus-style global
//! controller apportioning a watt budget into per-server frequency ceilings
//! and a threshold migrator rebalancing queue pile-ups. The grid runs on
//! `rubik-sweep` (one cluster per cell); pass `--threads N` to control the
//! worker pool, `--requests N` for the per-server request count, `--seed N`
//! for the trace seed, and `--trace-out PATH` to write a telemetry trace
//! of the representative cell (the capped big/little fleet with routing
//! and migration live). `--load-shape SPEC` (`ramp:0.2:0.7`,
//! `step:0.3:0.6`, `diurnal:0.45:0.2`, …) replaces the steady arrival
//! process with a time-varying non-homogeneous Poisson stream from
//! `rubik-load`, sized to the same request budget; output without the flag
//! is byte-identical to before the flag existed.
//!
//! Columns: `budget_w` is the per-server budget share ("inf" = uncapped),
//! `max_epoch_w` the largest fleet power over any controller epoch (the
//! number the cap is judged by), `migrated` the requests moved by the
//! migrator, and `big_share` the fraction of requests served by the "big"
//! class (1.0 for the homogeneous fleet).

use rubik::cluster::{
    fleet_trace, FleetSpec, PegasusFleet, PowerAware, RoundRobin, Router, ThresholdMigrator,
};
use rubik::load::{drain_to_trace, ShapedSource};
use rubik::{
    AppProfile, Cluster, CorePowerModel, DvfsConfig, Freq, RubikConfig, RubikController, RunReport,
    SimConfig, SweepSpec, Trace, TraceSource, WorkloadGenerator,
};
use rubik_bench::{print_header, BenchArgs, LoadShapeArg};

/// Per-server watt shares of the global budget; `f64::INFINITY` = uncapped.
/// A busy core draws 6 W at nominal and 1.6 W at the minimum level; at this
/// load the uncapped fleet averages ~2 W/server, so 3.2 W caps mildly
/// (ceiling ~1.6 GHz) and 2.5 W caps hard (ceiling ~1.2 GHz).
const BUDGETS: [f64; 3] = [f64::INFINITY, 3.2, 2.5];
const LOAD: f64 = 0.45;
const EPOCH: f64 = 0.02;
const SERVERS: usize = 8;

fn big_config() -> SimConfig {
    SimConfig::paper_simulated()
}

fn little_config() -> SimConfig {
    SimConfig::paper_simulated().with_dvfs(DvfsConfig::new(
        Freq::from_mhz(800),
        Freq::from_mhz(1800),
        200,
        Freq::from_mhz(1200),
        4e-6,
    ))
}

fn fleet_spec(idx: usize) -> FleetSpec {
    match idx {
        0 => FleetSpec::homogeneous(big_config(), SERVERS),
        _ => FleetSpec::new()
            .class("big", big_config(), 1.0, SERVERS / 2)
            .class("little", little_config(), 0.5, SERVERS / 2),
    }
}

const FLEET_NAMES: [&str; 2] = ["hom-8", "biglittle-8"];

fn router(idx: usize) -> Box<dyn Router> {
    match idx {
        0 => Box::new(RoundRobin::new()),
        _ => Box::new(PowerAware::default()),
    }
}

const MIGRATION_NAMES: [&str; 2] = ["off", "threshold"];

/// The fleet's arrival stream: the classic steady pooled Poisson process
/// when `--load-shape` is absent (byte-identical to the pre-flag binary),
/// or a shaped non-homogeneous Poisson stream whose window is sized so the
/// run draws roughly the same request budget.
fn build_trace(
    shape: Option<LoadShapeArg>,
    profile: &AppProfile,
    servers: usize,
    requests: usize,
    seed: u64,
) -> Trace {
    match shape {
        None => fleet_trace(profile, LOAD, servers, requests, seed)
            .expect("a non-empty fleet at a positive load"),
        Some(arg) => {
            let capacity = WorkloadGenerator::new(profile.clone(), seed).steady_rate(1.0);
            let duration = requests as f64 / (arg.average_load(LOAD) * capacity * servers as f64);
            let source = ShapedSource::new(profile.clone(), arg.to_shape(LOAD, duration), seed)
                .for_fleet(servers);
            drain_to_trace(source, None)
        }
    }
}

struct Row {
    tail_norm: f64,
    fleet_power: f64,
    max_epoch: f64,
    j_per_req: f64,
    migrated: usize,
    big_share: f64,
}

fn main() {
    let args = BenchArgs::parse();
    let per_server_requests = args.requests.unwrap_or(150);
    let seed = args.seed.unwrap_or(2015);
    let power = CorePowerModel::haswell_like();
    let profile = AppProfile::masstree();
    let bound = 3.0 * profile.mean_service_time();

    let spec = SweepSpec::new()
        .axis("budget", BUDGETS.len())
        .axis("fleet", FLEET_NAMES.len())
        .axis("router", 2)
        .axis("migration", MIGRATION_NAMES.len());

    let rows: Vec<Row> = args
        .executor()
        .run(&spec, |cell| {
            let fleet = fleet_spec(cell.get("fleet"));
            // The trace depends only on the fleet axis: budgets, routers,
            // and migration policies are compared on identical streams.
            let trace = build_trace(
                args.load_shape,
                &profile,
                fleet.len(),
                per_server_requests * fleet.len(),
                seed + cell.get("fleet") as u64,
            );
            let mut cluster =
                Cluster::from_spec(&fleet, router(cell.get("router")), |_i, config| {
                    RubikController::seeded_for_trace(
                        RubikConfig::new(bound).with_profiling_window(1024),
                        config.dvfs.clone(),
                        &trace,
                        256,
                    )
                })
                .with_power(power);
            let budget = BUDGETS[cell.get("budget")];
            if budget.is_finite() {
                cluster = cluster.with_fleet_controller(Box::new(
                    PegasusFleet::new(budget * fleet.len() as f64, power).with_epoch(EPOCH),
                ));
            }
            if cell.get("migration") == 1 {
                cluster = cluster
                    .with_migrator(Box::new(ThresholdMigrator::new(2, 1).with_interval(2e-3)));
            }
            let RunReport {
                outcome, results, ..
            } = cluster
                .run(TraceSource::new(&trace))
                .expect("a valid fleet run");
            let big_requests: usize = outcome
                .class_totals()
                .iter()
                .filter(|t| t.class == 0)
                .map(|t| t.requests)
                .sum();
            Row {
                tail_norm: outcome.tail_latency / bound,
                fleet_power: outcome.fleet_power,
                max_epoch: rubik_bench::max_epoch_power(&results, outcome.duration, EPOCH, &power),
                j_per_req: outcome.energy_per_request(),
                migrated: outcome.migrated_requests,
                big_share: big_requests as f64 / outcome.requests.max(1) as f64,
            }
        })
        .into_results();

    println!(
        "# Fleet power management: {} with Rubik per server, bound {:.2} ms, \
         {} requests/server, epoch {} ms",
        profile.name(),
        bound * 1e3,
        per_server_requests,
        EPOCH * 1e3,
    );
    // Only shaped runs get the extra header line, keeping the flag-absent
    // stdout byte-identical to the golden capture.
    if let Some(arg) = args.load_shape {
        println!("# load shape: {} (per-server loads)", arg.label());
    }
    print_header(&[
        "budget_w",
        "fleet",
        "router",
        "migration",
        "tail_norm",
        "fleet_power_w",
        "max_epoch_w",
        "j_per_req",
        "migrated",
        "big_share",
    ]);
    let router_names: [String; 2] = [router(0).name().to_string(), router(1).name().to_string()];
    for cell in spec.cells() {
        let r = &rows[cell.index()];
        let budget = BUDGETS[cell.get("budget")];
        let budget = if budget.is_finite() {
            format!("{budget:.1}")
        } else {
            "inf".to_string()
        };
        println!(
            "{}\t{}\t{}\t{}\t{:.3}\t{:.2}\t{:.2}\t{:.5}\t{}\t{:.3}",
            budget,
            FLEET_NAMES[cell.get("fleet")],
            router_names[cell.get("router")],
            MIGRATION_NAMES[cell.get("migration")],
            r.tail_norm,
            r.fleet_power,
            r.max_epoch,
            r.j_per_req,
            r.migrated,
            r.big_share,
        );
    }

    if args.tracing() {
        // Re-run the representative cell — the mildly-capped big/little
        // fleet behind the capacity-aware router with migration on — with
        // telemetry recording (bit-identical to the grid cell by the
        // neutrality contract) and emit its trace.
        let fleet = fleet_spec(1);
        let trace = build_trace(
            args.load_shape,
            &profile,
            fleet.len(),
            per_server_requests * fleet.len(),
            seed + 1,
        );
        let cluster = Cluster::from_spec(&fleet, router(1), |_i, config| {
            RubikController::seeded_for_trace(
                RubikConfig::new(bound).with_profiling_window(1024),
                config.dvfs.clone(),
                &trace,
                256,
            )
        })
        .with_power(power)
        .with_fleet_controller(Box::new(
            PegasusFleet::new(BUDGETS[1] * fleet.len() as f64, power).with_epoch(EPOCH),
        ))
        .with_migrator(Box::new(ThresholdMigrator::new(2, 1).with_interval(2e-3)))
        .with_telemetry(args.telemetry());
        let report = cluster
            .run(TraceSource::new(&trace))
            .expect("a valid fleet run");
        args.emit_trace(&report.log.expect("--trace-out records telemetry"));
    }
}
