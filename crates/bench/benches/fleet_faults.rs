//! Serving through failures at scale: a 100-server capped Rubik fleet loses
//! ten servers in a crash wave and gets them back, under a scripted
//! [`FaultPlan`](rubik::FaultPlan).
//!
//! The experiment itself lives in [`rubik_bench::faults`], shared with the
//! `trace_report` binary so the recorded numbers and the attribution tables
//! always describe the same runs. Three things must hold, and all three are
//! recorded in the `"fleet_faults"` section of `BENCH_cluster.json`:
//!
//! 1. **The watt cap holds through the wave.** `PegasusFleet` re-apportions
//!    its budget over the survivors, so no epoch window — before, during,
//!    or after the outage — exceeds the budget.
//! 2. **Goodput recovers.** Completions-within-deadline dip while a tenth
//!    of the fleet is dark and climb back after recovery; the recorded
//!    recovery curve (per-window goodput fraction) shows the dip and the
//!    return.
//! 3. **The rescue stack earns its keep.** Health-aware routing plus
//!    timeouts and retries strictly cuts deadline violations against a
//!    failure-blind baseline on the same fault schedule.
//!
//! The measured runs are re-run with telemetry recording (bit-identical by
//! the neutrality contract) and their tail-attribution breakdowns — where
//! the p95 cohort's latency goes: queueing, service, backoff, downtime —
//! land in the `"tail_attribution"` section of the same file.
//!
//! Criterion tracks the wall time of the faulted runs (the fault-layer
//! overhead) in `BENCH_controller.json`.
//!
//! Env knobs: `RUBIK_FLEET_FAULTS_REQUESTS` (default 60) sets requests per
//! server; `RUBIK_FLEET_FAULTS_TRACE` names a file to receive the
//! health-aware run's telemetry trace (Chrome `trace_event` JSON if it ends
//! in `.trace.json`, `rubik-trace-v1` otherwise — CI uploads one as an
//! artifact); `RUBIK_BENCH_SAMPLE_MS` / `RUBIK_BENCH_SAMPLES` are the usual
//! criterion smoke knobs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rubik::telemetry::{to_chrome_json, to_json, AttributionReport};
use rubik::{CorePowerModel, RunResult, Telemetry, Trace, TraceSource};
use rubik_bench::faults::FaultsScenario;

const BENCH_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_controller.json");
const CLUSTER_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");

fn scenario() -> FaultsScenario {
    let mut scenario = FaultsScenario::default();
    if let Some(requests) = std::env::var("RUBIK_FLEET_FAULTS_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        scenario.requests_per_server = requests;
    }
    scenario
}

/// Goodput fraction (completions within deadline / arrivals) per
/// epoch-aligned window: the recovery curve.
fn recovery_curve(
    results: &[RunResult],
    trace: &Trace,
    deadline: f64,
    duration: f64,
    windows: usize,
) -> Vec<f64> {
    let window = duration / windows as f64;
    let mut offered = vec![0usize; windows];
    for r in trace.requests() {
        let w = ((r.arrival / window) as usize).min(windows - 1);
        offered[w] += 1;
    }
    let mut good = vec![0usize; windows];
    for r in results {
        for rec in r.records() {
            if rec.completion - rec.arrival <= deadline {
                let w = ((rec.arrival / window) as usize).min(windows - 1);
                good[w] += 1;
            }
        }
    }
    offered
        .iter()
        .zip(&good)
        .map(|(&o, &g)| if o == 0 { 1.0 } else { g as f64 / o as f64 })
        .collect()
}

/// One attribution object for the JSON section, components in milliseconds.
fn attribution_json(report: &AttributionReport) -> String {
    let m = &report.cohort_mean;
    format!(
        "{{\"cohort\": {}, \"threshold_ms\": {:.4}, \"queueing_ms\": {:.4}, \
         \"service_ms\": {:.4}, \"backoff_ms\": {:.4}, \"downtime_ms\": {:.4}, \
         \"total_ms\": {:.4}}}",
        report.cohort,
        report.threshold * 1e3,
        m.queueing * 1e3,
        m.service * 1e3,
        m.backoff * 1e3,
        m.downtime * 1e3,
        m.total * 1e3,
    )
}

fn bench_fleet_faults(c: &mut Criterion) {
    let scenario = scenario();
    let per_server = scenario.requests_per_server;
    let budget = scenario.budget();
    let deadline = scenario.deadline();
    let trace = scenario.trace();

    let mut group = c.benchmark_group("fleet_faults");
    for (label, aware) in [("blind", false), ("health_aware", true)] {
        group.bench_with_input(BenchmarkId::new("mode", label), &aware, |b, &aware| {
            b.iter(|| {
                let outcome = scenario
                    .cluster(&trace, aware)
                    .run(TraceSource::new(&trace))
                    .expect("a valid fleet run")
                    .outcome;
                assert_eq!(outcome.availability.offered, trace.len());
                outcome.fleet_energy // checksum against dead-code elimination
            })
        });
    }
    group.finish();

    // One measured run per mode for the recorded experiment numbers — with
    // telemetry recording, which the neutrality suite proves is invisible
    // to every simulation output.
    let traced = |aware| {
        let report = scenario
            .cluster(&trace, aware)
            .with_telemetry(Telemetry::recording())
            .run(TraceSource::new(&trace))
            .expect("a valid fleet run");
        let log = report.log.expect("recording");
        (report.outcome, report.results, log)
    };
    let (blind, blind_results, blind_log) = traced(false);
    let (aware, aware_results, aware_log) = traced(true);
    let power = CorePowerModel::haswell_like();
    let max_power =
        rubik_bench::max_epoch_power(&aware_results, aware.duration, scenario.epoch, &power);
    // The blind fleet's curve dips while the wave is down and climbs back
    // after recovery; the rescue stack's job is to flatten that dip.
    let blind_curve = recovery_curve(&blind_results, &trace, deadline, blind.duration, 12);
    let aware_curve = recovery_curve(&aware_results, &trace, deadline, aware.duration, 12);
    // The wave is down for [0.33, 0.66) of the run: windows 4..8 of 12.
    let during = blind_curve[4..8]
        .iter()
        .fold(f64::INFINITY, |m, &g| m.min(g));
    let after = blind_curve[10];
    let aware_during = aware_curve[4..8]
        .iter()
        .fold(f64::INFINITY, |m, &g| m.min(g));
    let b = &blind.availability;
    let a = &aware.availability;

    let curve_json = |curve: &[f64]| {
        curve
            .iter()
            .map(|g| format!("{g:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let blind_curve_json = curve_json(&blind_curve);
    let aware_curve_json = curve_json(&aware_curve);
    let section = format!(
        "{{\n    \"servers\": {},\n    \"crashed\": {},\n    \
         \"load_per_server\": {},\n    \"requests_per_server\": {per_server},\n    \
         \"policy\": \"rubik-per-server\",\n    \"budget_w\": {budget:.1},\n    \
         \"epoch_s\": {},\n    \"deadline_ms\": {:.3},\n    \
         \"blind\": {{\"router\": \"jsq\", \"goodput_fraction\": {:.4}, \
         \"deadline_exceeded\": {}, \"lost\": {}, \
         \"recovery_curve_goodput\": [{blind_curve_json}]}},\n    \
         \"health_aware\": {{\"router\": \"health-aware(jsq) + retries\", \
         \"goodput_fraction\": {:.4}, \"deadline_exceeded\": {}, \"lost\": {}, \
         \"timeouts\": {}, \"retries\": {}, \"requeued_on_failure\": {}, \
         \"max_epoch_power_w\": {max_power:.2}, \
         \"recovery_curve_goodput\": [{aware_curve_json}]}},\n    \
         \"cap_held_under_failures\": {},\n    \"goodput_recovers\": {},\n    \
         \"rescue_flattens_the_dip\": {},\n    \
         \"rescue_cuts_deadline_misses\": {}\n  }}",
        scenario.fleet,
        scenario.crashed,
        scenario.load,
        scenario.epoch,
        deadline * 1e3,
        b.goodput_fraction(),
        b.deadline_exceeded,
        b.lost,
        a.goodput_fraction(),
        a.deadline_exceeded,
        a.lost,
        a.timeouts,
        a.retries,
        a.requeued_on_failure,
        max_power <= budget,
        after > during,
        aware_during > during,
        a.deadline_exceeded < b.deadline_exceeded,
    );
    match rubik_bench::merge_bench_section(CLUSTER_JSON, "fleet_faults", &section) {
        Ok(()) => println!("fleet_faults: merged into {CLUSTER_JSON}"),
        Err(e) => eprintln!("fleet_faults: could not write {CLUSTER_JSON}: {e}"),
    }

    // Where the tail goes: p95 cohort attribution for both stacks. The
    // blind run's tail is dominated by downtime (requests parked on dead
    // servers); the rescue stack converts that into bounded retry backoff.
    let quantile = 0.95;
    let (blind_attr, aware_attr) = (blind_log.attribute(quantile), aware_log.attribute(quantile));
    if let (Some(blind_attr), Some(aware_attr)) = (&blind_attr, &aware_attr) {
        let section = format!(
            "{{\n    \"quantile\": {quantile},\n    \"blind\": {},\n    \
             \"health_aware\": {},\n    \
             \"rescue_removes_downtime_from_the_tail\": {}\n  }}",
            attribution_json(blind_attr),
            attribution_json(aware_attr),
            aware_attr.cohort_mean.downtime < blind_attr.cohort_mean.downtime,
        );
        match rubik_bench::merge_bench_section(CLUSTER_JSON, "tail_attribution", &section) {
            Ok(()) => println!("tail_attribution: merged into {CLUSTER_JSON}"),
            Err(e) => eprintln!("tail_attribution: could not write {CLUSTER_JSON}: {e}"),
        }
    }

    if let Ok(path) = std::env::var("RUBIK_FLEET_FAULTS_TRACE") {
        if !path.is_empty() {
            let body = if path.ends_with(".trace.json") {
                to_chrome_json(&aware_log)
            } else {
                to_json(&aware_log)
            };
            match std::fs::write(&path, body) {
                Ok(()) => println!("fleet_faults: wrote telemetry trace to {path}"),
                Err(e) => eprintln!("fleet_faults: could not write {path}: {e}"),
            }
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(5).output_json(BENCH_JSON);
    targets = bench_fleet_faults
}
criterion_main!(benches);
