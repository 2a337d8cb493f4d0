//! The fleet-management contract, property-tested:
//!
//! 1. **Idle hooks are invisible.** A cluster with a [`PegasusFleet`]
//!    controller at an infinite budget and a [`ThresholdMigrator`] that can
//!    never arm is **bitwise identical** to a plain cluster across
//!    `router × fleet × seed` grids — and the grids themselves are
//!    bit-identical at 1, 2, and 8 sweep threads.
//! 2. **A finite budget holds.** For any feasible budget, the measured
//!    fleet power of every epoch window never exceeds the budget by more
//!    than one server's DVFS step granularity (the cap is enforced
//!    analytically through worst-case ceilings, so even load spikes cannot
//!    break it).
//! 3. **Migration conserves requests.** With aggressive migration, every
//!    request of the input stream completes exactly once somewhere in the
//!    fleet, with its original identity and arrival time.
//!
//! Plus the heterogeneous-fleet pins: a big/little fleet whose little class
//! has zero capacity routes 100% of requests to the big servers and
//! reproduces the homogeneous big-only fleet bitwise, and per-class
//! residency stays inside each class's DVFS domain.

mod common;

use common::{outcome_bits, result_bits};
use rubik_cluster::{
    fleet_trace, Cluster, FleetSpec, JoinShortestQueue, PegasusFleet, PowerAware, RoundRobin,
    Router, RunReport, ThresholdMigrator, TraceSource,
};
use rubik_core::{RubikConfig, RubikController};
use rubik_power::CorePowerModel;
use rubik_sim::{DvfsConfig, FixedFrequencyPolicy, Freq, RequestSpec, RunResult, SimConfig, Trace};
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

/// A migrator that is attached and polled but can never arm: the queue gap
/// cannot reach `usize::MAX`.
fn disabled_migrator() -> ThresholdMigrator {
    ThresholdMigrator::new(usize::MAX, 0)
}

// ---------------------------------------------------------------------------
// Property 1: idle hooks are bitwise invisible.
// ---------------------------------------------------------------------------

#[test]
fn infinite_budget_and_disarmed_migration_are_bitwise_invisible() {
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

        let hooked = Cluster::new(
            config.clone(),
            fleet,
            routers().swap_remove(c.get("router")),
            rubik_factory(&config, &trace, bound),
        )
        .with_fleet_controller(Box::new(PegasusFleet::uncapped(
            CorePowerModel::haswell_like(),
        )))
        .with_migrator(Box::new(disabled_migrator()));
        let RunReport {
            outcome: hooked_outcome,
            results: hooked_results,
            ..
        } = hooked.run(TraceSource::new(&trace)).expect("a valid run");

        assert_eq!(hooked_outcome.migrated_requests, 0);
        assert_eq!(
            outcome_bits(&plain_outcome),
            outcome_bits(&hooked_outcome),
            "idle hooks changed the ClusterOutcome (cell {})",
            c.index()
        );
        for (i, (p, h)) in plain_results.iter().zip(&hooked_results).enumerate() {
            assert_eq!(
                result_bits(p),
                result_bits(h),
                "idle hooks changed server {i}'s RunResult (cell {})",
                c.index()
            );
        }
        outcome_bits(&hooked_outcome)
    };

    let reference = SweepExecutor::serial().run(&spec, cell).into_results();
    for threads in [2usize, 8] {
        let swept = SweepExecutor::new(threads).run(&spec, cell).into_results();
        assert_eq!(swept, reference, "grid diverged at {threads} threads");
    }
}

// ---------------------------------------------------------------------------
// Property 2: a finite budget holds, epoch by epoch.
// ---------------------------------------------------------------------------

/// Measured fleet power over `[from, to)`, integrated from the per-server
/// timelines with the same power model the driver uses.
fn window_power(results: &[RunResult], power: &CorePowerModel, from: f64, to: f64) -> f64 {
    let energy: f64 = results
        .iter()
        .map(|r| power.energy(&r.freq_residency_between(from, to)).total())
        .sum();
    energy / (to - from)
}

/// The largest active-power increase of a single DVFS step anywhere in the
/// domain — the cap-holding slack the suite's contract allows.
fn step_granularity(dvfs: &DvfsConfig, power: &CorePowerModel) -> f64 {
    dvfs.levels()
        .windows(2)
        .map(|w| power.active_power(w[1]) - power.active_power(w[0]))
        .fold(0.0, f64::max)
}

#[test]
fn finite_budgets_hold_epoch_power_within_one_step_of_the_cap() {
    let fleet = 4usize;
    let epoch = 0.02;
    let config = SimConfig::paper_simulated();
    let power = CorePowerModel::haswell_like();
    let profile = AppProfile::masstree();
    let bound = 3.0 * profile.mean_service_time();
    let floor = fleet as f64 * power.active_power(config.dvfs.min());
    let step = step_granularity(&config.dvfs, &power);

    // Budgets from "barely above the feasibility floor" to "roomy".
    let budgets = [floor + 1.0, 3.5 * fleet as f64, 6.0 * fleet as f64];
    let seeds = [5u64, 23];
    let spec = SweepSpec::new()
        .axis("budget", budgets.len())
        .axis("seed", seeds.len());

    let cell = |c: &rubik_sweep::Cell<'_>| {
        let budget = budgets[c.get("budget")];
        let trace = fleet_trace(&profile, 0.6, fleet, 400 * fleet, seeds[c.get("seed")])
            .expect("a non-empty fleet at a positive load");
        let cluster = Cluster::new(
            config.clone(),
            fleet,
            Box::new(JoinShortestQueue::new()),
            rubik_factory(&config, &trace, bound),
        )
        .with_power(power)
        .with_fleet_controller(Box::new(PegasusFleet::new(budget, power).with_epoch(epoch)));
        let RunReport {
            outcome, results, ..
        } = cluster.run(TraceSource::new(&trace)).expect("a valid run");
        assert_eq!(outcome.requests, 400 * fleet);

        // Every epoch window (including the trailing partial one) respects
        // the cap to within one DVFS step of one server.
        let end = outcome.duration;
        let mut from = 0.0;
        let mut epochs = 0;
        while from < end {
            let to = (from + epoch).min(end);
            let measured = window_power(&results, &power, from, to);
            assert!(
                measured <= budget.max(floor) + step + 1e-6,
                "epoch [{from:.2}, {to:.2}) drew {measured:.3} W against a \
                 budget of {budget:.3} W (floor {floor:.3} W, step {step:.3} W)"
            );
            from = to;
            epochs += 1;
        }
        assert!(epochs >= 4, "the run must span several epochs");
        outcome_bits(&outcome)
    };

    let reference = SweepExecutor::serial().run(&spec, cell).into_results();
    for threads in [2usize, 8] {
        let swept = SweepExecutor::new(threads).run(&spec, cell).into_results();
        assert_eq!(
            swept, reference,
            "capped grid diverged at {threads} threads"
        );
    }
}

#[test]
fn tighter_budgets_cost_tail_latency_but_save_power() {
    // Sanity that the cap actually bites: the capped fleet consumes less
    // average power and (under a tight cap) suffers a worse tail.
    let fleet = 4usize;
    let config = SimConfig::paper_simulated();
    let power = CorePowerModel::haswell_like();
    let profile = AppProfile::masstree();
    let bound = 3.0 * profile.mean_service_time();
    let trace = fleet_trace(&profile, 0.6, fleet, 300 * fleet, 3)
        .expect("a non-empty fleet at a positive load");

    let run = |budget: f64| {
        let mut cluster = Cluster::new(
            config.clone(),
            fleet,
            Box::new(JoinShortestQueue::new()),
            rubik_factory(&config, &trace, bound),
        )
        .with_power(power);
        if budget.is_finite() {
            cluster = cluster
                .with_fleet_controller(Box::new(PegasusFleet::new(budget, power).with_epoch(0.1)));
        }
        cluster
            .run(TraceSource::new(&trace))
            .expect("a valid run")
            .outcome
    };

    let uncapped = run(f64::INFINITY);
    let tight = run(fleet as f64 * 2.5);
    assert!(
        tight.fleet_power < uncapped.fleet_power,
        "tight cap must reduce average power ({} vs {})",
        tight.fleet_power,
        uncapped.fleet_power
    );
    assert!(
        tight.tail_latency > uncapped.tail_latency,
        "a binding cap trades tail latency for power ({} vs {})",
        tight.tail_latency,
        uncapped.tail_latency
    );
}

// ---------------------------------------------------------------------------
// Property 3: migration conserves requests.
// ---------------------------------------------------------------------------

/// A bursty stream: every `gap` seconds, 8 simultaneous requests of 1 ms
/// (at nominal) each. Behind [`Passthrough`] this overloads server 0 while
/// its neighbours idle — the canonical queue-imbalance migration rescues.
fn bursty_trace(requests: usize, gap: f64) -> Trace {
    (0..requests as u64)
        .map(|i| RequestSpec::new(i, (i / 8) as f64 * gap, 2.4e6, 1e-5))
        .collect()
}

#[test]
fn migration_conserves_requests_and_is_thread_invariant() {
    let fleets = [3usize, 5];
    let seeds = [1u64, 42];
    let spec = SweepSpec::new()
        .axis("fleet", fleets.len())
        .axis("seed", seeds.len());

    let cell = |c: &rubik_sweep::Cell<'_>| {
        let config = SimConfig::paper_simulated();
        let fleet = fleets[c.get("fleet")];
        let requests = 400;
        // Passthrough on a bursty stream: server 0 drowns while the rest of
        // the fleet idles — migration must fire.
        let trace = bursty_trace(requests, 4e-3 + seeds[c.get("seed")] as f64 * 1e-5);
        let cluster = Cluster::new(
            config.clone(),
            fleet,
            Box::new(rubik_cluster::Passthrough),
            |_| FixedFrequencyPolicy::new(config.dvfs.nominal()),
        )
        .with_migrator(Box::new(ThresholdMigrator::new(2, 0).with_interval(5e-4)));
        let RunReport {
            outcome, results, ..
        } = cluster.run(TraceSource::new(&trace)).expect("a valid run");

        assert!(
            outcome.migrated_requests > 0,
            "the bursty stream must actually trigger migration"
        );
        // Conservation: every id completes exactly once, somewhere, with its
        // original arrival time; per-server counts add up.
        let mut seen: Vec<(u64, u64)> = results
            .iter()
            .flat_map(|r| {
                r.records()
                    .iter()
                    .map(|rec| (rec.id, rec.arrival.to_bits()))
            })
            .collect();
        assert_eq!(seen.len(), requests, "lost or duplicated requests");
        seen.sort_unstable();
        for (i, &(id, arrival)) in seen.iter().enumerate() {
            assert_eq!(id, i as u64, "request id {i} missing or duplicated");
            let expected = trace.requests()[i].arrival;
            assert_eq!(
                arrival,
                expected.to_bits(),
                "request {i} lost its original arrival time"
            );
        }
        let per_server: usize = outcome.per_server.iter().map(|s| s.requests).sum();
        assert_eq!(per_server, requests);
        for r in results.iter().flat_map(|r| r.records()) {
            assert!(r.start >= r.arrival);
            assert!(r.completion >= r.start);
        }
        outcome_bits(&outcome)
    };

    let reference = SweepExecutor::serial().run(&spec, cell).into_results();
    for threads in [2usize, 8] {
        let swept = SweepExecutor::new(threads).run(&spec, cell).into_results();
        assert_eq!(
            swept, reference,
            "migration grid diverged at {threads} threads"
        );
    }
}

#[test]
fn migration_reduces_the_tail_of_an_imbalanced_router() {
    // The point of the whole exercise: on a bursty stream behind a router
    // that does not balance, rebalancing queued requests improves the
    // pooled tail.
    let config = SimConfig::paper_simulated();
    let fleet = 4usize;
    let trace = bursty_trace(480, 4e-3);
    let run = |migrate: bool| {
        let mut cluster = Cluster::new(
            config.clone(),
            fleet,
            Box::new(rubik_cluster::Passthrough),
            |_| FixedFrequencyPolicy::new(config.dvfs.nominal()),
        );
        if migrate {
            cluster =
                cluster.with_migrator(Box::new(ThresholdMigrator::new(2, 0).with_interval(5e-4)));
        }
        cluster
            .run(TraceSource::new(&trace))
            .expect("a valid run")
            .outcome
    };
    let without = run(false);
    let with = run(true);
    assert_eq!(without.requests, 480);
    assert_eq!(with.requests, 480);
    assert!(with.migrated_requests > 0);
    assert!(
        with.tail_latency < without.tail_latency,
        "migration must improve the pooled tail here ({} vs {})",
        with.tail_latency,
        without.tail_latency
    );
}

// ---------------------------------------------------------------------------
// Heterogeneous fleets.
// ---------------------------------------------------------------------------

fn little_config() -> SimConfig {
    SimConfig::paper_simulated().with_dvfs(DvfsConfig::new(
        Freq::from_mhz(800),
        Freq::from_mhz(1800),
        200,
        Freq::from_mhz(1200),
        4e-6,
    ))
}

#[test]
fn zero_capacity_littles_reproduce_the_big_only_fleet_bitwise() {
    let big_cfg = SimConfig::paper_simulated();
    let bigs = 4usize;
    let littles = 4usize;
    let profile = AppProfile::masstree();
    let trace = fleet_trace(&profile, 0.4, bigs, 150 * bigs, 2015)
        .expect("a non-empty fleet at a positive load");

    let spec = FleetSpec::new()
        .class("big", big_cfg.clone(), 1.0, bigs)
        .class("little", little_config(), 0.0, littles);

    let hetero = Cluster::from_spec(&spec, Box::new(PowerAware::default()), |_i, config| {
        FixedFrequencyPolicy::new(config.dvfs.nominal())
    });
    let RunReport {
        outcome: hetero_outcome,
        results: hetero_results,
        ..
    } = hetero.run(TraceSource::new(&trace)).expect("a valid run");

    let homo = Cluster::new(
        big_cfg.clone(),
        bigs,
        Box::new(PowerAware::default()),
        |_| FixedFrequencyPolicy::new(big_cfg.dvfs.nominal()),
    );
    let RunReport {
        outcome: homo_outcome,
        results: homo_results,
        ..
    } = homo.run(TraceSource::new(&trace)).expect("a valid run");

    // 100% of the requests landed on big servers...
    let totals = hetero_outcome.class_totals();
    assert_eq!(totals.len(), 2);
    assert_eq!(totals[0].requests, 150 * bigs);
    assert_eq!(totals[1].requests, 0);
    assert_eq!(totals[1].busy_time, 0.0, "littles never execute anything");
    assert!(totals[1].energy > 0.0, "idle littles still burn idle power");

    // ...and each big server's run is bitwise the homogeneous fleet's.
    assert_eq!(homo_outcome.requests, hetero_outcome.requests);
    for i in 0..bigs {
        assert_eq!(
            result_bits(&hetero_results[i]),
            result_bits(&homo_results[i]),
            "big server {i} diverged from the homogeneous fleet"
        );
    }
}

#[test]
fn per_class_residency_stays_inside_each_class_dvfs_domain() {
    let big_cfg = SimConfig::paper_simulated();
    let little_cfg = little_config();
    let spec = FleetSpec::new()
        .class("big", big_cfg.clone(), 1.0, 3)
        .class("little", little_cfg.clone(), 0.5, 3);
    let profile = AppProfile::masstree();
    let trace = fleet_trace(&profile, 0.5, spec.len(), 600, 7)
        .expect("a non-empty fleet at a positive load");

    let cluster = Cluster::from_spec(&spec, Box::new(PowerAware::default()), |_i, config| {
        FixedFrequencyPolicy::new(config.dvfs.nominal())
    });
    let RunReport {
        outcome, results, ..
    } = cluster.run(TraceSource::new(&trace)).expect("a valid run");
    assert_eq!(outcome.requests, 600);

    // Both classes serve work under a capacity-aware router...
    let totals = outcome.class_totals();
    assert_eq!(totals.len(), 2);
    assert!(totals[0].requests > 0 && totals[1].requests > 0);
    assert!(totals.iter().all(|t| t.busy_time > 0.0));

    // ...and every server's timeline stays inside its class's DVFS domain.
    for (i, r) in results.iter().enumerate() {
        let dvfs = if outcome.per_server[i].class == 0 {
            &big_cfg.dvfs
        } else {
            &little_cfg.dvfs
        };
        for s in r.segments() {
            assert!(
                dvfs.is_level(s.freq),
                "server {i} (class {}) ran at {} outside its domain",
                outcome.per_server[i].class,
                s.freq
            );
        }
    }
    // Littles top out at 1.8 GHz.
    for (i, r) in results.iter().enumerate() {
        if outcome.per_server[i].class == 1 {
            for s in r.segments() {
                assert!(s.freq <= Freq::from_mhz(1800));
            }
        }
    }
}

#[test]
fn capped_heterogeneous_fleet_with_migration_serves_everything_under_budget() {
    // The full stack at once: FleetSpec + PegasusFleet + ThresholdMigrator.
    let power = CorePowerModel::haswell_like();
    let spec = FleetSpec::new()
        .class("big", SimConfig::paper_simulated(), 1.0, 3)
        .class("little", little_config(), 0.5, 3);
    let profile = AppProfile::masstree();
    let trace = fleet_trace(&profile, 0.4, spec.len(), 900, 13)
        .expect("a non-empty fleet at a positive load");
    let budget = 4.0 * spec.len() as f64;

    let cluster = Cluster::from_spec(&spec, Box::new(PowerAware::new(power)), |_i, config| {
        FixedFrequencyPolicy::new(config.dvfs.nominal())
    })
    .with_power(power)
    .with_fleet_controller(Box::new(PegasusFleet::new(budget, power).with_epoch(0.1)))
    .with_migrator(Box::new(ThresholdMigrator::default()));

    let RunReport {
        outcome, results, ..
    } = cluster.run(TraceSource::new(&trace)).expect("a valid run");
    assert_eq!(outcome.requests, 900);
    assert!(outcome.fleet_power <= budget + 1e-6);

    // Epoch windows hold the cap too (not just the run average).
    let floor: f64 = (0..spec.len())
        .map(|i| power.active_power(spec.config_of(i).dvfs.min()))
        .sum();
    let step = step_granularity(&SimConfig::paper_simulated().dvfs, &power);
    let mut from = 0.0;
    while from < outcome.duration {
        let to = (from + 0.1).min(outcome.duration);
        let measured = window_power(&results, &power, from, to);
        assert!(measured <= budget.max(floor) + step + 1e-6);
        from = to;
    }
}
