//! The fault-injection contract, property-tested:
//!
//! 1. **An empty plan is bit-neutral.** A cluster with an empty
//!    [`FaultPlan`] and an inert [`RequestPolicy`] attached is **bitwise
//!    identical** to a plain cluster across `router × fleet × seed` grids —
//!    and the grids themselves are bit-identical at 1, 2, and 8 sweep
//!    threads.
//! 2. **Fault runs are deterministic.** A non-trivial plan (crashes,
//!    recoveries, stragglers) with timeouts and jittered retries produces
//!    the same bits at any sweep thread count.
//! 3. **Faults conserve requests.** Every offered request either completes
//!    exactly once (with its original id and arrival time) or is counted
//!    lost — never duplicated, never silently dropped.
//! 4. **The cap holds through a crash wave.** A capped fleet that loses
//!    servers mid-run keeps every epoch window within one DVFS step of the
//!    budget, before, during, and after the outage.
//! 5. **The failure-aware stack earns its keep.** Health-aware routing plus
//!    timeouts and retries strictly cuts deadline violations against a
//!    failure-blind baseline on the same fault schedule.
//!
//! Plus: [`HealthAware`] is bitwise invisible on an all-healthy fleet, and
//! every keyed router gives the same bits through the driver's route tree
//! as through the full-slice path.

mod common;

use common::{outcome_bits, result_bits};
use rubik_cluster::{
    fleet_trace, Cluster, FaultPlan, FleetSpec, HealthAware, JoinShortestQueue, PegasusFleet,
    PowerAware, RequestPolicy, RoundRobin, Router, RunReport, ServerView, Telemetry,
    ThresholdMigrator, TraceSource,
};
use rubik_core::{RubikConfig, RubikController};
use rubik_power::CorePowerModel;
use rubik_sim::{DvfsConfig, FixedFrequencyPolicy, RequestSpec, RunResult, SimConfig, Trace};
use rubik_sweep::{SweepExecutor, SweepSpec};
use rubik_workloads::AppProfile;

fn routers() -> Vec<Box<dyn Router>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(JoinShortestQueue::new()),
        Box::new(PowerAware::default()),
    ]
}

fn rubik_factory<'a>(
    config: &'a SimConfig,
    trace: &'a Trace,
    bound: f64,
) -> impl Fn(usize) -> RubikController + 'a {
    move |_| {
        RubikController::seeded_for_trace(
            RubikConfig::new(bound).with_profiling_window(1024),
            config.dvfs.clone(),
            trace,
            256,
        )
    }
}

// ---------------------------------------------------------------------------
// Property 1: an empty plan and an inert policy are bitwise invisible.
// ---------------------------------------------------------------------------

#[test]
fn empty_fault_plan_and_inert_policy_are_bitwise_invisible() {
    let fleets = [2usize, 6];
    let seeds = [11u64, 97];
    let spec = SweepSpec::new()
        .axis("router", routers().len())
        .axis("fleet", fleets.len())
        .axis("seed", seeds.len());

    let cell = |c: &rubik_sweep::Cell<'_>| {
        let config = SimConfig::paper_simulated();
        let profile = AppProfile::masstree();
        let bound = 3.0 * profile.mean_service_time();
        let fleet = fleets[c.get("fleet")];
        let trace = fleet_trace(&profile, 0.5, fleet, 120 * fleet, seeds[c.get("seed")])
            .expect("a non-empty fleet at a positive load");

        let plain = Cluster::new(
            config.clone(),
            fleet,
            routers().swap_remove(c.get("router")),
            rubik_factory(&config, &trace, bound),
        );
        let RunReport {
            outcome: plain_outcome,
            results: plain_results,
            ..
        } = plain.run(TraceSource::new(&trace)).expect("a valid run");

        let faulted = Cluster::new(
            config.clone(),
            fleet,
            routers().swap_remove(c.get("router")),
            rubik_factory(&config, &trace, bound),
        )
        .try_with_fault_plan(FaultPlan::new())
        .expect("the plan names servers of the fleet")
        .with_request_policy(RequestPolicy::new());
        let RunReport {
            outcome: faulted_outcome,
            results: faulted_results,
            ..
        } = faulted.run(TraceSource::new(&trace)).expect("a valid run");

        // Same simulation, byte for byte...
        assert_eq!(
            outcome_bits(&plain_outcome),
            outcome_bits(&faulted_outcome),
            "an empty plan changed the ClusterOutcome (cell {})",
            c.index()
        );
        for (i, (p, f)) in plain_results.iter().zip(&faulted_results).enumerate() {
            assert_eq!(
                result_bits(p),
                result_bits(f),
                "an empty plan changed server {i}'s RunResult (cell {})",
                c.index()
            );
        }
        // ...and the availability block is the all-is-well identity.
        let a = faulted_outcome.availability;
        assert_eq!(a.offered, trace.len());
        assert_eq!(a.completed, trace.len());
        assert_eq!(a.goodput, trace.len());
        assert_eq!(
            (a.lost, a.deadline_exceeded, a.timeouts, a.retries),
            (0, 0, 0, 0)
        );
        assert_eq!(a.goodput_fraction(), 1.0);
        assert_eq!(
            a.tail_latency_ok
                .expect("every request completed in deadline")
                .to_bits(),
            faulted_outcome.tail_latency.to_bits(),
            "with no deadline, the goodput tail is the plain tail"
        );
        assert!(faulted_outcome.per_server.iter().all(|s| s.downtime == 0.0));
        outcome_bits(&faulted_outcome)
    };

    let reference = SweepExecutor::serial().run(&spec, cell).into_results();
    for threads in [2usize, 8] {
        let swept = SweepExecutor::new(threads).run(&spec, cell).into_results();
        assert_eq!(swept, reference, "grid diverged at {threads} threads");
    }
}

// ---------------------------------------------------------------------------
// Property 2 + 3: fault runs are thread-invariant and conserve requests.
// ---------------------------------------------------------------------------

/// A plan that exercises every op: a crash with recovery, a straggler
/// window, and a stuck frequency, timed relative to the trace.
fn eventful_plan(duration: f64, fleet: usize) -> FaultPlan {
    let mut plan = FaultPlan::new()
        .crash(0, 0.25 * duration)
        .recover(0, 0.70 * duration)
        .straggle(1 % fleet.max(1), 0.10 * duration, 0.60 * duration, 4.0);
    if fleet > 2 {
        plan = plan
            .stick_freq(2, 0.20 * duration, Some(rubik_sim::Freq::from_mhz(1200)))
            .recover(2, 0.80 * duration);
    }
    plan
}

#[test]
fn fault_runs_are_deterministic_across_sweep_threads_and_conserve_requests() {
    let fleets = [3usize, 5];
    let seeds = [1u64, 42];
    let spec = SweepSpec::new()
        .axis("fleet", fleets.len())
        .axis("seed", seeds.len());

    let cell = |c: &rubik_sweep::Cell<'_>| {
        let config = SimConfig::paper_simulated();
        let profile = AppProfile::masstree();
        let fleet = fleets[c.get("fleet")];
        let requests = 150 * fleet;
        let trace = fleet_trace(&profile, 0.5, fleet, requests, seeds[c.get("seed")])
            .expect("a non-empty fleet at a positive load");
        let mean = profile.mean_service_time();

        let cluster = Cluster::new(
            config.clone(),
            fleet,
            Box::new(HealthAware::new(JoinShortestQueue::new())),
            |_| FixedFrequencyPolicy::new(config.dvfs.nominal()),
        )
        .try_with_fault_plan(eventful_plan(trace.duration(), fleet))
        .expect("the plan names servers of the fleet")
        .with_request_policy(
            RequestPolicy::new()
                .with_timeout(8.0 * mean)
                .with_retries(6, mean, 16.0 * mean)
                .with_jitter_seed(seeds[c.get("seed")])
                .salvaging_in_flight()
                .draining_on_crash(),
        );
        let RunReport {
            outcome, results, ..
        } = cluster.run(TraceSource::new(&trace)).expect("a valid run");
        let a = outcome.availability;

        // Conservation: completions and losses partition the offered load,
        // and every completed id is unique with its original arrival.
        assert_eq!(a.offered, requests);
        assert_eq!(a.completed + a.lost, a.offered);
        let mut seen: Vec<(u64, u64)> = results
            .iter()
            .flat_map(|r| {
                r.records()
                    .iter()
                    .map(|rec| (rec.id, rec.arrival.to_bits()))
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen.len(), a.completed, "records disagree with the stats");
        for w in seen.windows(2) {
            assert_ne!(w[0].0, w[1].0, "request {} completed twice", w[0].0);
        }
        for &(id, arrival) in &seen {
            assert_eq!(
                arrival,
                trace.requests()[id as usize].arrival.to_bits(),
                "request {id} lost its original arrival through the faults"
            );
        }
        // The fault window overloads the survivors (one straggler, one stuck
        // slow), so the rescue stack has real work: timeouts fire, retries
        // run, and most of the load still lands.
        if fleet == 3 {
            // The 3-server cells lose a third of their capacity to the crash
            // and more to the straggler, so every rescue path gets exercised.
            assert!(a.timeouts > 0, "the timeout path never fired");
            assert!(a.retries > 0, "the retry path never fired");
        }
        assert!(
            a.completed >= 4 * a.offered / 5,
            "rescue collapsed: {} of {} completed",
            a.completed,
            a.offered
        );
        assert!(
            outcome.per_server[0].downtime > 0.0,
            "the crashed server accrued downtime"
        );
        assert_eq!(
            outcome
                .per_server
                .iter()
                .filter(|s| s.downtime > 0.0)
                .count(),
            1,
            "only the crashed server was ever down"
        );
        outcome_bits(&outcome)
    };

    let reference = SweepExecutor::serial().run(&spec, cell).into_results();
    for threads in [2usize, 8] {
        let swept = SweepExecutor::new(threads).run(&spec, cell).into_results();
        assert_eq!(
            swept, reference,
            "faulted grid diverged at {threads} threads"
        );
    }
}

// ---------------------------------------------------------------------------
// Property 4: the watt cap holds through a crash wave.
// ---------------------------------------------------------------------------

fn window_power(results: &[RunResult], power: &CorePowerModel, from: f64, to: f64) -> f64 {
    let energy: f64 = results
        .iter()
        .map(|r| power.energy(&r.freq_residency_between(from, to)).total())
        .sum();
    energy / (to - from)
}

fn step_granularity(dvfs: &DvfsConfig, power: &CorePowerModel) -> f64 {
    dvfs.levels()
        .windows(2)
        .map(|w| power.active_power(w[1]) - power.active_power(w[0]))
        .fold(0.0, f64::max)
}

#[test]
fn the_watt_cap_holds_through_a_crash_wave() {
    let fleet = 6usize;
    let config = SimConfig::paper_simulated();
    let power = CorePowerModel::haswell_like();
    let profile = AppProfile::masstree();
    let bound = 3.0 * profile.mean_service_time();
    let budget = 3.5 * fleet as f64;
    let floor = fleet as f64 * power.active_power(config.dvfs.min());
    let step = step_granularity(&config.dvfs, &power);

    let trace = fleet_trace(&profile, 0.6, fleet, 300 * fleet, 23)
        .expect("a non-empty fleet at a positive load");
    let duration = trace.duration();
    // ~40 control epochs across the run, whatever the trace duration is.
    let epoch = duration / 40.0;
    // Two servers die a third of the way in and come back at two thirds.
    let plan = FaultPlan::new()
        .crash(0, 0.33 * duration)
        .crash(1, 0.34 * duration)
        .recover(0, 0.66 * duration)
        .recover(1, 0.67 * duration);

    let cluster = Cluster::new(
        config.clone(),
        fleet,
        Box::new(HealthAware::new(JoinShortestQueue::new())),
        rubik_factory(&config, &trace, bound),
    )
    .with_power(power)
    .with_fleet_controller(Box::new(PegasusFleet::new(budget, power).with_epoch(epoch)))
    .try_with_fault_plan(plan)
    .expect("the plan names servers of the fleet")
    .with_request_policy(
        RequestPolicy::new()
            .with_timeout(8.0 * bound)
            .with_retries(4, bound, 8.0 * bound)
            .salvaging_in_flight()
            .draining_on_crash(),
    );
    let RunReport {
        outcome, results, ..
    } = cluster.run(TraceSource::new(&trace)).expect("a valid run");
    let a = &outcome.availability;
    assert_eq!(a.completed + a.lost, a.offered);
    assert!(
        a.completed >= 4 * a.offered / 5,
        "the capped survivors still served the bulk: {} of {}",
        a.completed,
        a.offered
    );
    assert!(outcome.per_server[0].downtime > 0.0);
    assert!(outcome.per_server[1].downtime > 0.0);

    // Every epoch window respects the cap — including the windows where
    // two servers are down and the survivors absorbed their share.
    let end = outcome.duration;
    let mut from = 0.0;
    let mut epochs = 0;
    while from < end {
        let to = (from + epoch).min(end);
        let measured = window_power(&results, &power, from, to);
        assert!(
            measured <= budget.max(floor) + step + 1e-6,
            "epoch [{from:.3}, {to:.3}) drew {measured:.3} W against {budget:.3} W \
             through the crash wave"
        );
        from = to;
        epochs += 1;
    }
    assert!(epochs >= 8, "the run must span several epochs");
}

// ---------------------------------------------------------------------------
// Property 5: health-aware routing + retries beat a failure-blind stack.
// ---------------------------------------------------------------------------

#[test]
fn health_aware_retries_cut_deadline_violations_versus_failure_blind() {
    let fleet = 4usize;
    let config = SimConfig::paper_simulated();
    let profile = AppProfile::masstree();
    let mean = profile.mean_service_time();
    let trace = fleet_trace(&profile, 0.5, fleet, 150 * fleet, 7)
        .expect("a non-empty fleet at a positive load");
    let duration = trace.duration();
    // One server is dead for the middle 40% of the run. Round-robin keeps
    // offering it work regardless; the stranded queue waits for recovery.
    let plan = FaultPlan::new()
        .crash(2, 0.30 * duration)
        .recover(2, 0.70 * duration);
    let deadline = 12.0 * mean;

    let blind = Cluster::new(config.clone(), fleet, Box::new(RoundRobin::new()), |_| {
        FixedFrequencyPolicy::new(config.dvfs.nominal())
    })
    .try_with_fault_plan(plan.clone())
    .expect("the plan names servers of the fleet")
    .with_request_policy(RequestPolicy::new().with_deadline(deadline));
    let blind_out = blind
        .run(TraceSource::new(&trace))
        .expect("a valid run")
        .outcome;

    let aware = Cluster::new(
        config.clone(),
        fleet,
        Box::new(HealthAware::new(RoundRobin::new())),
        |_| FixedFrequencyPolicy::new(config.dvfs.nominal()),
    )
    .try_with_fault_plan(plan)
    .expect("the plan names servers of the fleet")
    .with_request_policy(
        RequestPolicy::new()
            .with_deadline(deadline)
            .with_timeout(4.0 * mean)
            .with_retries(5, mean, 8.0 * mean)
            .salvaging_in_flight()
            .draining_on_crash(),
    );
    let aware_out = aware
        .run(TraceSource::new(&trace))
        .expect("a valid run")
        .outcome;

    let b = blind_out.availability;
    let a = aware_out.availability;
    assert_eq!(b.offered, a.offered);
    assert!(
        b.deadline_exceeded > 0,
        "the blind stack must actually suffer here"
    );
    assert!(
        a.deadline_exceeded < b.deadline_exceeded,
        "health-aware + retries must cut deadline violations \
         ({} vs {} blind)",
        a.deadline_exceeded,
        b.deadline_exceeded
    );
    assert!(
        a.goodput_fraction() > b.goodput_fraction(),
        "goodput must improve ({} vs {})",
        a.goodput_fraction(),
        b.goodput_fraction()
    );
}

// ---------------------------------------------------------------------------
// HealthAware is invisible on a healthy fleet.
// ---------------------------------------------------------------------------

#[test]
fn health_aware_wrapper_is_bitwise_invisible_on_a_healthy_fleet() {
    let config = SimConfig::paper_simulated();
    let profile = AppProfile::masstree();
    let trace =
        fleet_trace(&profile, 0.5, 4, 600, 19).expect("a non-empty fleet at a positive load");

    let inner: Vec<Box<dyn Router>> = vec![
        Box::new(JoinShortestQueue::new()),
        Box::new(PowerAware::default()),
    ];
    let wrapped: Vec<Box<dyn Router>> = vec![
        Box::new(HealthAware::new(JoinShortestQueue::new())),
        Box::new(HealthAware::new(PowerAware::default())),
    ];
    for (inner, wrapped) in inner.into_iter().zip(wrapped) {
        let plain = Cluster::new(config.clone(), 4, inner, |_| {
            FixedFrequencyPolicy::new(config.dvfs.nominal())
        })
        // Hooks attached to prove the wrapper composes with the rest.
        .with_migrator(Box::new(ThresholdMigrator::new(usize::MAX, 0)));
        let RunReport {
            outcome: o1,
            results: r1,
            ..
        } = plain.run(TraceSource::new(&trace)).expect("a valid run");

        let guarded = Cluster::new(config.clone(), 4, wrapped, |_| {
            FixedFrequencyPolicy::new(config.dvfs.nominal())
        })
        .with_migrator(Box::new(ThresholdMigrator::new(usize::MAX, 0)));
        let RunReport {
            outcome: o2,
            results: r2,
            ..
        } = guarded.run(TraceSource::new(&trace)).expect("a valid run");

        assert_eq!(outcome_bits(&o1), outcome_bits(&o2));
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(result_bits(a), result_bits(b));
        }
    }
}

// ---------------------------------------------------------------------------
// Keyed routing is slice routing.
// ---------------------------------------------------------------------------

/// Forwards only `name` and `route`, like a timing wrapper that does not
/// know about keys: the driver routes it over the full view slice.
struct SliceOnly<R>(R);

impl<R: Router> Router for SliceOnly<R> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn route(&mut self, request: &RequestSpec, servers: &[ServerView]) -> usize {
        self.0.route(request, servers)
    }
}

/// Every keyed router, each with its slice-only twin.
fn keyed_twins() -> Vec<(Box<dyn Router>, Box<dyn Router>)> {
    fn twin<R: Router + 'static>(make: impl Fn() -> R) -> (Box<dyn Router>, Box<dyn Router>) {
        (Box::new(make()), Box::new(SliceOnly(make())))
    }
    vec![
        twin(JoinShortestQueue::new),
        twin(PowerAware::default),
        twin(|| HealthAware::new(JoinShortestQueue::new())),
        twin(|| HealthAware::new(PowerAware::default())),
        twin(|| HealthAware::new(HealthAware::new(PowerAware::default()))),
    ]
}

/// Outcome, per-server results, and telemetry JSON of one traced run.
fn traced_bits(cluster: Cluster<RubikController>, trace: &Trace) -> Vec<u64> {
    let report = cluster
        .with_telemetry(Telemetry::recording())
        .run(TraceSource::new(trace))
        .expect("a valid run");
    let mut bits = outcome_bits(&report.outcome);
    for r in &report.results {
        bits.extend(result_bits(r));
    }
    let log = report.log.expect("recording");
    bits.extend(rubik_telemetry::to_json(&log).bytes().map(u64::from));
    bits
}

/// One fleet the keyed-vs-slice comparison runs on.
struct Scenario {
    name: &'static str,
    spec: FleetSpec,
    plan: Option<FaultPlan>,
    policy: Option<RequestPolicy>,
}

impl Scenario {
    fn cluster(
        &self,
        router: Box<dyn Router>,
        rubik: impl Fn(usize) -> RubikController,
    ) -> Cluster<RubikController> {
        let mut cluster = Cluster::from_spec(&self.spec, router, |i, _| rubik(i));
        if let Some(plan) = &self.plan {
            cluster = cluster
                .try_with_fault_plan(plan.clone())
                .expect("the plan names servers of the fleet");
        }
        if let Some(policy) = self.policy {
            cluster = cluster.with_request_policy(policy);
        }
        cluster
    }
}

#[test]
fn keyed_routing_matches_slice_routing_bit_for_bit() {
    let config = SimConfig::paper_simulated();
    let profile = AppProfile::masstree();
    let mean = profile.mean_service_time();
    let bound = 3.0 * mean;
    let fleet = 6usize;
    let trace = fleet_trace(&profile, 0.6, fleet, 120 * fleet, 31)
        .expect("a non-empty fleet at a positive load");
    let duration = trace.duration();
    let homogeneous = FleetSpec::homogeneous(config.clone(), fleet);
    let rescue = RequestPolicy::new()
        .with_deadline(32.0 * mean)
        .with_timeout(6.0 * mean)
        .with_retries(4, mean, 8.0 * mean)
        .with_jitter_seed(3)
        .salvaging_in_flight()
        .draining_on_crash();
    let mut crash_wave = FaultPlan::new();
    let mut all_down = FaultPlan::new();
    for i in 0..fleet {
        let stagger = 0.01 * i as f64;
        if i < 3 {
            crash_wave = crash_wave
                .crash(i, (0.30 + stagger) * duration)
                .recover(i, (0.60 + stagger) * duration);
        }
        all_down = all_down
            .crash(i, (0.40 + stagger) * duration)
            .recover(i, (0.55 + stagger) * duration);
    }
    let scenarios = [
        Scenario {
            name: "healthy",
            spec: homogeneous.clone(),
            plan: None,
            policy: None,
        },
        Scenario {
            name: "crash wave",
            spec: homogeneous.clone(),
            plan: Some(crash_wave),
            policy: Some(rescue),
        },
        Scenario {
            name: "all down",
            spec: homogeneous.clone(),
            plan: Some(all_down),
            policy: Some(rescue),
        },
        Scenario {
            name: "hedged",
            spec: homogeneous,
            plan: Some(FaultPlan::new().straggle(1, 0.2 * duration, 0.8 * duration, 5.0)),
            policy: Some(RequestPolicy::new().with_hedging(0.9, 0.5 * mean)),
        },
        Scenario {
            name: "zero-capacity class",
            spec: FleetSpec::new()
                .class("big", config.clone(), 2.0, 2)
                .class("dark", config.clone(), 0.0, 2)
                .class("little", config.clone(), 1.0, 2),
            plan: None,
            policy: None,
        },
    ];
    let rubik = || rubik_factory(&config, &trace, bound);

    let idle = ServerView {
        index: 0,
        in_flight: 0,
        queued: 0,
        current_freq: config.dvfs.min(),
        capacity: 1.0,
        class: 0,
        health: Default::default(),
    };
    for scenario in &scenarios {
        for (keyed, sliced) in keyed_twins() {
            let name = keyed.name().to_string();
            assert!(keyed.key(&idle).is_some() && sliced.key(&idle).is_none());
            assert!(
                traced_bits(scenario.cluster(keyed, rubik()), &trace)
                    == traced_bits(scenario.cluster(sliced, rubik()), &trace),
                "{name} routed differently through its keys on the {} fleet",
                scenario.name
            );
        }
    }

    // The scenarios reach the paths they are named for.
    let probe = |i: usize| {
        scenarios[i]
            .cluster(Box::new(HealthAware::new(PowerAware::default())), rubik())
            .run(TraceSource::new(&trace))
            .expect("a valid run")
            .outcome
    };
    let wave = probe(1).availability;
    assert!(wave.requeued_on_failure > 0 && wave.salvaged_in_flight > 0);
    assert!(probe(2).per_server.iter().all(|s| s.downtime > 0.0));
    assert!(probe(3).availability.hedged > 0);
    assert!(probe(4).per_server[2..4].iter().all(|s| s.requests == 0));
}
