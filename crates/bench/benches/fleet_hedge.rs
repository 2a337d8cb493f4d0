//! Hedging the tail at scale: a 32-server Rubik fleet with one rack
//! straggling 6x slow behind a failure-blind JSQ router, with and without
//! speculative hedging ([`RequestPolicy::with_hedging`](rubik::RequestPolicy)).
//!
//! The experiment lives in [`rubik_bench::hedge`]; this bench measures it
//! and records the `"fleet_hedge"` section of `BENCH_cluster.json`:
//!
//! 1. **Hedging fires where it should.** The straggling rack pushes
//!    attempts past the tracked latency quantile, duplicates launch onto
//!    healthy servers, and some of them win.
//! 2. **Hedging cuts the p99.** The recorded `p99_ms` pair shows the
//!    hedged run's tail below the unhedged baseline on the same trace and
//!    fault plan — the acceptance criterion for the hedging layer.
//! 3. **Nothing is double-counted.** Completions plus losses still
//!    partition the offered load exactly, duplicates notwithstanding.
//!
//! Criterion tracks the wall time of both runs (the hedging layer's
//! overhead) in `BENCH_controller.json`.
//!
//! Env knobs: `RUBIK_FLEET_HEDGE_REQUESTS` (default 60) sets requests per
//! server; `RUBIK_BENCH_SAMPLE_MS` / `RUBIK_BENCH_SAMPLES` are the usual
//! criterion smoke knobs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rubik::{ClusterOutcome, RunResult, Trace, TraceSource};
use rubik_bench::hedge::{p99_latency, HedgeScenario};

const BENCH_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_controller.json");
const CLUSTER_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");

fn scenario() -> HedgeScenario {
    let mut scenario = HedgeScenario::default();
    if let Some(requests) = std::env::var("RUBIK_FLEET_HEDGE_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        scenario.requests_per_server = requests;
    }
    scenario
}

fn run(scenario: &HedgeScenario, trace: &Trace, hedged: bool) -> (ClusterOutcome, Vec<RunResult>) {
    let report = scenario
        .cluster(trace, hedged)
        .run(TraceSource::new(trace))
        .expect("a valid fleet run");
    (report.outcome, report.results)
}

fn bench_fleet_hedge(c: &mut Criterion) {
    let scenario = scenario();
    let trace = scenario.trace();

    let mut group = c.benchmark_group("fleet_hedge");
    for (label, hedged) in [("unhedged", false), ("hedged", true)] {
        group.bench_with_input(BenchmarkId::new("mode", label), &hedged, |b, &hedged| {
            b.iter(|| {
                let (outcome, _) = run(&scenario, &trace, hedged);
                assert_eq!(outcome.availability.offered, trace.len());
                outcome.fleet_energy // checksum against dead-code elimination
            })
        });
    }
    group.finish();

    // One measured run per mode for the recorded experiment numbers.
    let (off, off_results) = run(&scenario, &trace, false);
    let (on, on_results) = run(&scenario, &trace, true);
    let (p99_off, p99_on) = (p99_latency(&off_results), p99_latency(&on_results));
    let a = &on.availability;

    let section = format!(
        "{{\n    \"servers\": {},\n    \"per_rack\": {},\n    \
         \"straggling_rack\": {},\n    \"slowdown\": {},\n    \
         \"load_per_server\": {},\n    \"requests_per_server\": {},\n    \
         \"policy\": \"rubik-per-server\",\n    \"router\": \"jsq (failure-blind)\",\n    \
         \"hedge_quantile\": {},\n    \"hedge_min_delay_ms\": {:.4},\n    \
         \"unhedged\": {{\"p99_ms\": {:.4}, \"completed\": {}}},\n    \
         \"hedged\": {{\"p99_ms\": {:.4}, \"completed\": {}, \"hedged\": {}, \
         \"hedge_wins\": {}, \"hedge_cancelled\": {}}},\n    \
         \"hedging_cuts_p99\": {},\n    \"requests_conserved\": {}\n  }}",
        scenario.fleet,
        scenario.per_rack,
        scenario.straggling_rack,
        scenario.slowdown,
        scenario.load,
        scenario.requests_per_server,
        scenario.hedge_quantile,
        scenario.hedge_min_delay() * 1e3,
        p99_off * 1e3,
        off.availability.completed,
        p99_on * 1e3,
        a.completed,
        a.hedged,
        a.hedge_wins,
        a.hedge_cancelled,
        p99_on < p99_off,
        a.completed + a.lost == a.offered,
    );
    match rubik_bench::merge_bench_section(CLUSTER_JSON, "fleet_hedge", &section) {
        Ok(()) => println!("fleet_hedge: merged into {CLUSTER_JSON}"),
        Err(e) => eprintln!("fleet_hedge: could not write {CLUSTER_JSON}: {e}"),
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(5).output_json(BENCH_JSON);
    targets = bench_fleet_hedge
}
criterion_main!(benches);
