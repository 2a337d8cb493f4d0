//! The shared fleet-faults scenario: a capped Rubik fleet loses a staggered
//! wave of servers mid-run and gets them back.
//!
//! This is the acceptance experiment for the failure-aware serving stack,
//! shared between `benches/fleet_faults.rs` (which measures it and records
//! the `"fleet_faults"` and `"tail_attribution"` sections of
//! `BENCH_cluster.json`) and the `trace_report` binary (whose
//! `--scenario fleet_faults` mode re-runs it at a configurable size and
//! prints the golden-pinned tail-attribution tables). Keeping the scenario
//! in one place guarantees the bench numbers and the report decompose the
//! *same* experiment.
//!
//! The defaults reproduce the bench shape: 100 servers at 0.6 load each,
//! 10 crashing in a staggered wave over `[0.33, 0.66)` of the run, a
//! 3 W/server global budget enforced by `PegasusFleet` on a 20 ms epoch,
//! and Rubik on every core.

use rubik::cluster::fleet_trace;
use rubik::{
    AppProfile, Cluster, CorePowerModel, FaultPlan, HealthAware, JoinShortestQueue, PegasusFleet,
    RequestPolicy, Router, RubikConfig, RubikController, SimConfig, Trace,
};

/// The fleet-faults experiment shape. Construct with [`Default::default`]
/// for the bench configuration and override fields for smaller runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsScenario {
    /// Fleet size.
    pub fleet: usize,
    /// Servers lost to the crash wave (the first `crashed` indices).
    pub crashed: usize,
    /// Per-server offered load (fraction of one core's nominal capacity).
    pub load: f64,
    /// Watts per server of the global budget: far under the ~6 W a busy
    /// core draws at nominal, so the apportioned ceilings genuinely bind.
    pub budget_per_server: f64,
    /// Fleet-controller epoch; short enough that the crash wave straddles
    /// several epochs at bench-sized runs.
    pub epoch: f64,
    /// Requests per server.
    pub requests_per_server: usize,
    /// Trace seed.
    pub seed: u64,
}

impl Default for FaultsScenario {
    fn default() -> Self {
        Self {
            fleet: 100,
            crashed: 10,
            load: 0.6,
            budget_per_server: 3.0,
            epoch: 0.02,
            requests_per_server: 60,
            seed: 2015,
        }
    }
}

impl FaultsScenario {
    /// The application profile the scenario serves.
    pub fn profile(&self) -> AppProfile {
        AppProfile::masstree()
    }

    /// The per-server Rubik latency bound: 3x the mean service time.
    pub fn bound(&self) -> f64 {
        3.0 * self.profile().mean_service_time()
    }

    /// The end-to-end deadline goodput is judged by: 15x the mean.
    pub fn deadline(&self) -> f64 {
        15.0 * self.profile().mean_service_time()
    }

    /// The global watt budget.
    pub fn budget(&self) -> f64 {
        self.budget_per_server * self.fleet as f64
    }

    /// The fleet-wide arrival stream.
    pub fn trace(&self) -> Trace {
        fleet_trace(
            &self.profile(),
            self.load,
            self.fleet,
            self.requests_per_server * self.fleet,
            self.seed,
        )
        .expect("the scenario's fleet and load are valid")
    }

    /// The crash wave: `crashed` servers go down in a staggered wave a
    /// third of the way into the run and recover, equally staggered, at
    /// two thirds.
    pub fn crash_wave(&self, duration: f64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let down = 0.33 * duration;
        let up = 0.66 * duration;
        let stagger = 0.002 * duration;
        for i in 0..self.crashed {
            plan = plan
                .crash(i, down + i as f64 * stagger)
                .recover(i, up + i as f64 * stagger);
        }
        plan
    }

    /// Deadline and retry schedule shared by the health-aware runs, derived
    /// from the app's mean service time.
    pub fn rescue_policy(&self) -> RequestPolicy {
        let mean = self.profile().mean_service_time();
        RequestPolicy::new()
            .with_deadline(self.deadline())
            .with_timeout(6.0 * mean)
            .with_retries(4, mean, 10.0 * mean)
            .salvaging_in_flight()
            .draining_on_crash()
    }

    /// The scenario's fleet for `trace`, ready for [`Cluster::run`]:
    /// `aware` selects the failure-aware stack (health-aware routing +
    /// timeouts + retries) over the blind baseline.
    pub fn cluster(&self, trace: &Trace, aware: bool) -> Cluster<RubikController> {
        let config = SimConfig::paper_simulated();
        let power = CorePowerModel::haswell_like();
        let bound = self.bound();
        let router: Box<dyn Router> = if aware {
            Box::new(HealthAware::new(JoinShortestQueue::new()))
        } else {
            Box::new(JoinShortestQueue::new())
        };
        let mut cluster = Cluster::new(config.clone(), self.fleet, router, |_| {
            RubikController::seeded_for_trace(
                RubikConfig::new(bound).with_profiling_window(1024),
                config.dvfs.clone(),
                trace,
                256,
            )
        })
        .with_power(power)
        .with_fleet_controller(Box::new(
            PegasusFleet::new(self.budget(), power).with_epoch(self.epoch),
        ))
        .try_with_fault_plan(self.crash_wave(trace.duration()))
        .expect("the plan names servers of the fleet");
        cluster = if aware {
            cluster.with_request_policy(self.rescue_policy())
        } else {
            // The blind baseline sees the same deadline but never times
            // out, retries, or routes around the dead servers.
            cluster.with_request_policy(RequestPolicy::new().with_deadline(self.deadline()))
        };
        cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubik::{Telemetry, TraceSource};

    #[test]
    fn traced_scenario_runs_are_bitwise_identical_to_plain_ones() {
        let scenario = FaultsScenario {
            fleet: 6,
            crashed: 2,
            requests_per_server: 30,
            ..Default::default()
        };
        let trace = scenario.trace();
        for aware in [false, true] {
            let run = |telemetry| {
                scenario
                    .cluster(&trace, aware)
                    .with_telemetry(telemetry)
                    .run(TraceSource::new(&trace))
                    .expect("a valid run")
            };
            let plain = run(Telemetry::disabled()).outcome;
            let traced = run(Telemetry::recording());
            let (traced, log) = (traced.outcome, traced.log.expect("recording"));
            assert_eq!(
                plain.fleet_energy.to_bits(),
                traced.fleet_energy.to_bits(),
                "recording perturbed the aware={aware} run"
            );
            assert_eq!(plain.tail_latency.to_bits(), traced.tail_latency.to_bits());
            assert_eq!(log.requests.len(), plain.availability.offered);
            assert_eq!(log.completed(), plain.availability.completed);
        }
    }
}
