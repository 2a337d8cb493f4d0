//! The two fleet workloads: a routing-bound 1000-server fleet behind
//! `PowerAware`, and a 100-server fleet under a diurnal load with faults,
//! a power cap, migration and the full request lifecycle.

use std::time::Instant;

use rubik::load::drain_to_trace;
use rubik::{
    AppProfile, ArrivalSource, Cluster, ClusterError, ClusterOutcome, CorePowerModel, DvfsPolicy,
    FailureTopology, HealthAware, JoinShortestQueue, LoadShape, PegasusFleet, PoissonSource,
    PowerAware, RequestPolicy, RubikConfig, RubikController, RunResult, ShapedSource, SimConfig,
    StochasticFaults, StreamingTraceReader, StreamingTraceWriter, ThresholdMigrator, Trace,
    WorkloadGenerator,
};

use crate::probe::{Mode, LAYERS};
use crate::{derive_seed, fingerprint, rss_kb, Rep, SimMetrics};

/// Arrivals every Rubik controller is seeded from (the head of the stream).
const SEED_REQUESTS: usize = 256;
/// Rubik's latency bound, in mean service times.
const BOUND_SERVICES: f64 = 3.0;
/// The latency limit `goodput_frac` counts against, in mean service times
/// (also the request deadline of the faulted fleet).
const LIMIT_SERVICES: f64 = 15.0;

/// The one call into `Cluster::run*` in the benchmark. Every workload and
/// mode goes through here, so a change to the run API edits one place.
pub fn serve<P: DvfsPolicy, S: ArrivalSource>(
    cluster: Cluster<P>,
    source: S,
) -> Result<(ClusterOutcome, Vec<RunResult>), ClusterError> {
    cluster.run_streamed_with_results(source)
}

fn rubik(bound: f64, config: &SimConfig, prefix: &Trace) -> RubikController {
    RubikController::seeded_for_trace(
        RubikConfig::new(bound).with_profiling_window(1024),
        config.dvfs.clone(),
        prefix,
        SEED_REQUESTS,
    )
}

/// Fleet tails, energy and goodput from the outcome and the per-server
/// records, plus the output checks every fleet run must pass.
fn summarize(
    outcome: &ClusterOutcome,
    results: &[RunResult],
    expected_offered: usize,
    limit: f64,
    failures: &mut Vec<String>,
) -> SimMetrics {
    let latencies: Vec<f64> = results
        .iter()
        .flat_map(|r| r.records().iter().map(|rec| rec.latency()))
        .collect();
    let within = latencies.iter().filter(|&&l| l <= limit).count();
    let avail = &outcome.availability;
    let sim = SimMetrics {
        p95_ms: outcome.tail_latency * 1e3,
        p99_ms: rubik::stats::percentile(&latencies, 0.99).unwrap_or(f64::NAN) * 1e3,
        energy_mj_per_req: outcome.energy_per_request() * 1e3,
        goodput_frac: within as f64 / avail.offered.max(1) as f64,
    };
    if avail.offered != expected_offered {
        failures.push(format!(
            "offered {} requests, the stream holds {expected_offered}",
            avail.offered
        ));
    }
    if avail.completed + avail.lost != avail.offered {
        failures.push(format!(
            "completed {} + lost {} != offered {}",
            avail.completed, avail.lost, avail.offered
        ));
    }
    if latencies.len() != avail.completed {
        failures.push(format!(
            "{} completion records for {} completions",
            latencies.len(),
            avail.completed
        ));
    }
    sim.check_finite(failures);
    sim
}

/// `fleet_poweraware_1k`: 1000 Rubik servers running masstree at 0.3 load
/// each, fed by a live Poisson source and routed by `PowerAware`.
pub mod poweraware {
    use super::*;

    pub const FLEET: usize = 1000;
    pub const LOAD: f64 = 0.3;
    pub const REQUESTS_PER_SERVER: usize = 50;

    pub fn rep<M: Mode>(seed: u64) -> Rep {
        let profile = AppProfile::masstree();
        let config = SimConfig::paper_simulated();
        let power = CorePowerModel::haswell_like();
        let mean = profile.mean_service_time();
        let requests = FLEET * REQUESTS_PER_SERVER;
        let arrivals = derive_seed(seed, "arrivals");
        let source =
            || PoissonSource::new(profile.clone(), LOAD * FLEET as f64, requests, arrivals);
        let mut layer = Vec::new();

        let setup = Instant::now();
        let cluster = M::time(&LAYERS.setup, || {
            let prefix = drain_to_trace(source(), Some(SEED_REQUESTS));
            let rss_before = M::TRACED.then(rss_kb);
            let cluster = Cluster::new(
                config.clone(),
                FLEET,
                M::router(PowerAware::new(power)),
                |_| {
                    M::policy(M::time(&LAYERS.seed, || {
                        rubik(BOUND_SERVICES * mean, &config, &prefix)
                    }))
                },
            )
            .with_power(power);
            if let (Some(before), Some(after)) = (rss_before, M::TRACED.then(rss_kb)) {
                layer.push(("rubik.kb_per_controller", (after - before) / FLEET as f64));
            }
            cluster
        });
        let setup_s = setup.elapsed().as_secs_f64();

        let run = Instant::now();
        let served = M::time(&LAYERS.run, || serve(cluster, M::source(source())));
        let run_s = run.elapsed().as_secs_f64();

        let mut failures = Vec::new();
        let (outcome, results) = match served {
            Ok(served) => served,
            Err(e) => return Rep::failed(setup_s, run_s, requests, format!("run failed: {e}")),
        };
        let sim = summarize(
            &outcome,
            &results,
            requests,
            LIMIT_SERVICES * mean,
            &mut failures,
        );
        layer.push(("migrate.moved", outcome.migrated_requests as f64));
        Rep {
            setup_s: vec![setup_s],
            run_s,
            served: outcome.requests as u64,
            offered: outcome.availability.offered as u64,
            lost: outcome.availability.lost as u64,
            fingerprint: fingerprint(&(&outcome, &sim)),
            sim,
            failures,
            layer,
        }
    }
}

/// `fleet_faults_diurnal`: 100 Rubik servers under a diurnal load, with
/// stochastic server and rack failures, deadlines, timeouts, retries,
/// salvage/drain, hedging, a power cap and queue migration. The stream is
/// captured once in setup and replayed from memory in the run.
pub mod faults {
    use super::*;

    pub const FLEET: usize = 100;
    pub const REQUESTS_PER_SERVER: usize = 1500;
    const DIURNAL_MEAN: f64 = 0.5;
    const DIURNAL_AMPLITUDE: f64 = 0.2;
    /// Watts per server. At 3.0 W the cap raises p99 by ~40% and times out
    /// thousands of requests; 3.5 W still binds at the diurnal peak.
    const BUDGET_PER_SERVER: f64 = 3.5;
    const EPOCH: f64 = 0.02;
    const MIGRATION_INTERVAL: f64 = 0.002;
    const PER_RACK: usize = 5;
    const RACKS_PER_ROW: usize = 5;
    /// Per-server and per-rack (MTBF, MTTR) in seconds: about 37 server
    /// failures and 7 outages of a 5-server rack over the 0.75 s window.
    /// Many short outages keep the tail steady from seed to seed; a few
    /// long outages of 10-server racks moved p99 by up to 15%.
    const SERVER_FAILURES: (f64, f64) = (2.0, 0.01);
    const RACK_FAILURES: (f64, f64) = (2.0, 0.005);
    const RECOVERY_JITTER: f64 = 0.002;
    /// Per-attempt timeout, in mean service times. It sits below the hedge
    /// trigger (the p95 latency, ~2.8x mean service under Rubik's 3x
    /// bound), so a request still queued after it is pulled back and
    /// retried before a hedge fires; an attempt already in service runs
    /// on and may be hedged. A timeout above the trigger lets the hedge
    /// fire first, and then no retry runs.
    const TIMEOUT_SERVICES: f64 = 2.25;

    pub fn rep<M: Mode>(seed: u64) -> Rep {
        let profile = AppProfile::masstree();
        let config = SimConfig::paper_simulated();
        let power = CorePowerModel::haswell_like();
        let mean = profile.mean_service_time();
        let deadline = LIMIT_SERVICES * mean;
        // One server's arrival rate at load 1 sets the window that draws
        // REQUESTS_PER_SERVER at the diurnal mean.
        let capacity = WorkloadGenerator::new(profile.clone(), 0).steady_rate(1.0);
        let duration = REQUESTS_PER_SERVER as f64 / (DIURNAL_MEAN * capacity);
        let shape = LoadShape::Diurnal {
            mean: DIURNAL_MEAN,
            amplitude: DIURNAL_AMPLITUDE,
            period: duration / 2.0,
            duration,
        };
        let arrivals = derive_seed(seed, "arrivals");
        let stream =
            || ShapedSource::new(profile.clone(), shape.clone(), arrivals).for_fleet(FLEET);
        let policy = RequestPolicy::new()
            .with_deadline(deadline)
            .with_timeout(TIMEOUT_SERVICES * mean)
            .with_retries(4, mean, 10.0 * mean)
            .with_jitter_seed(derive_seed(seed, "jitter"))
            .salvaging_in_flight()
            .draining_on_crash()
            .with_hedging(0.95, 2.0 * mean);
        let mut layer = Vec::new();

        let setup = Instant::now();
        let built = M::time(&LAYERS.setup, || {
            let (captured, offered) = M::time(&LAYERS.capture, || capture(stream()));
            let captured = captured.map_err(|e| format!("capture failed: {e}"))?;
            let prefix = drain_to_trace(stream(), Some(SEED_REQUESTS));
            let plan = M::time(&LAYERS.compile, || {
                StochasticFaults::new()
                    .with_server_failures(SERVER_FAILURES.0, SERVER_FAILURES.1)
                    .with_rack_failures(RACK_FAILURES.0, RACK_FAILURES.1)
                    .with_recovery_jitter(RECOVERY_JITTER)
                    .compile(
                        &FailureTopology::grid(FLEET, PER_RACK, RACKS_PER_ROW),
                        duration,
                        derive_seed(seed, "faults"),
                    )
            });
            layer.push(("fault.plan_events", plan.events().len() as f64));
            let rss_before = M::TRACED.then(rss_kb);
            let cluster = Cluster::new(
                config.clone(),
                FLEET,
                M::router(HealthAware::new(JoinShortestQueue::new())),
                |_| {
                    M::policy(M::time(&LAYERS.seed, || {
                        rubik(BOUND_SERVICES * mean, &config, &prefix)
                    }))
                },
            );
            if let (Some(before), Some(after)) = (rss_before, M::TRACED.then(rss_kb)) {
                layer.push(("rubik.kb_per_controller", (after - before) / FLEET as f64));
            }
            let cluster = cluster
                .with_power(power)
                .with_fleet_controller(M::fleet(
                    PegasusFleet::new(BUDGET_PER_SERVER * FLEET as f64, power).with_epoch(EPOCH),
                ))
                .with_migrator(M::migrator(
                    ThresholdMigrator::new(2, 1).with_interval(MIGRATION_INTERVAL),
                ))
                .with_request_policy(policy)
                .try_with_fault_plan(plan)
                .map_err(|e| format!("fault plan rejected: {e}"))?;
            Ok::<_, String>((cluster, captured, offered))
        });
        let setup_s = setup.elapsed().as_secs_f64();
        let (cluster, captured, offered) = match built {
            Ok(built) => built,
            Err(why) => return Rep::failed(setup_s, 0.0, 1, why),
        };

        let run = Instant::now();
        let served = M::time(&LAYERS.run, || {
            let mut reader = StreamingTraceReader::new(captured.as_slice())
                .map_err(|e| format!("replay failed: {e}"))?;
            let served = serve(cluster, M::source(&mut reader)).map_err(|e| e.to_string())?;
            reader.finish().map_err(|e| format!("replay failed: {e}"))?;
            Ok::<_, String>(served)
        });
        let run_s = run.elapsed().as_secs_f64();

        let (outcome, results) = match served {
            Ok(served) => served,
            Err(why) => return Rep::failed(setup_s, run_s, offered, why),
        };
        let mut failures = Vec::new();
        let sim = summarize(&outcome, &results, offered, deadline, &mut failures);
        let avail = outcome.availability;
        if sim.goodput_frac != avail.goodput_fraction() {
            failures.push(format!(
                "goodput from records {} != AvailabilityStats::goodput_fraction {}",
                sim.goodput_frac,
                avail.goodput_fraction()
            ));
        }
        // The workload exists to exercise the request lifecycle; a path
        // that never ran would leave its regressions unmeasured.
        for (path, count) in [
            ("retry", avail.retries),
            ("hedge", avail.hedged),
            ("crash drain", avail.requeued_on_failure),
            ("in-flight salvage", avail.salvaged_in_flight),
        ] {
            if count == 0 {
                failures.push(format!("no {path} ran"));
            }
        }
        layer.extend([
            ("migrate.moved", outcome.migrated_requests as f64),
            ("fault.timeouts", avail.timeouts as f64),
            ("fault.retries", avail.retries as f64),
            ("fault.requeued", avail.requeued_on_failure as f64),
            ("fault.hedged", avail.hedged as f64),
            (
                "fault.hedge_win_frac",
                avail.hedge_wins as f64 / avail.hedged.max(1) as f64,
            ),
        ]);
        Rep {
            setup_s: vec![setup_s],
            run_s,
            served: outcome.requests as u64,
            offered: avail.offered as u64,
            lost: avail.lost as u64,
            fingerprint: fingerprint(&(&outcome, &sim)),
            sim,
            failures,
            layer,
        }
    }

    /// Writes the whole stream into memory through the streaming trace
    /// writer; returns the bytes and the number of requests written.
    fn capture(mut source: ShapedSource) -> (std::io::Result<Vec<u8>>, usize) {
        let mut written = 0;
        let bytes = (|| {
            let mut writer = StreamingTraceWriter::new(Vec::new())?;
            while let Some(request) = source.next_arrival() {
                writer.write(&request)?;
                written += 1;
            }
            writer.finish()
        })();
        (bytes, written)
    }
}
