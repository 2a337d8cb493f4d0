//! The shared fleet-hedge scenario: a Rubik fleet with one rack of
//! stragglers behind a failure-blind router, with and without hedging.
//!
//! This is the acceptance experiment for speculative hedging: the router
//! (plain JSQ, no health signal) keeps feeding a rack whose members run
//! several times slow for the middle of the run, so the only thing standing
//! between those requests and the p99 is the hedge — a duplicate launched
//! onto a healthy server once the attempt's age crosses the tracked latency
//! quantile. `benches/fleet_hedge.rs` measures it and records the
//! `"fleet_hedge"` section of `BENCH_cluster.json`; keeping the scenario
//! here keeps those numbers reproducible from one definition.
//!
//! The defaults: 32 servers in racks of 4 ([`FailureTopology::grid`]),
//! rack 1 straggling 6x slow over `[0.2, 0.8)` of the run, 0.5 load per
//! server, Rubik on every core.

use rubik::cluster::fleet_trace;
use rubik::{
    AppProfile, Cluster, FailureTopology, FaultPlan, JoinShortestQueue, RequestPolicy, RubikConfig,
    RubikController, RunResult, SimConfig, Trace,
};

/// The fleet-hedge experiment shape. Construct with [`Default::default`]
/// for the bench configuration and override fields for smaller runs.
#[derive(Debug, Clone, PartialEq)]
pub struct HedgeScenario {
    /// Fleet size.
    pub fleet: usize,
    /// Servers per rack in the failure topology.
    pub per_rack: usize,
    /// The rack whose members straggle.
    pub straggling_rack: usize,
    /// Service-time multiplier inside the straggle window.
    pub slowdown: f64,
    /// Per-server offered load (fraction of one core's nominal capacity).
    pub load: f64,
    /// Latency quantile that arms the hedge trigger.
    pub hedge_quantile: f64,
    /// Requests per server.
    pub requests_per_server: usize,
    /// Trace seed.
    pub seed: u64,
}

impl Default for HedgeScenario {
    fn default() -> Self {
        Self {
            fleet: 32,
            per_rack: 4,
            straggling_rack: 1,
            slowdown: 6.0,
            load: 0.5,
            hedge_quantile: 0.95,
            requests_per_server: 60,
            seed: 2015,
        }
    }
}

impl HedgeScenario {
    /// The application profile the scenario serves.
    pub fn profile(&self) -> AppProfile {
        AppProfile::masstree()
    }

    /// The per-server Rubik latency bound: 3x the mean service time.
    pub fn bound(&self) -> f64 {
        3.0 * self.profile().mean_service_time()
    }

    /// The hedge trigger floor: 2x the mean service time, so an empty
    /// latency tracker never hedges instantly.
    pub fn hedge_min_delay(&self) -> f64 {
        2.0 * self.profile().mean_service_time()
    }

    /// The rack/row placement of the fleet.
    pub fn topology(&self) -> FailureTopology {
        FailureTopology::grid(self.fleet, self.per_rack, 2)
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

    /// The fault plan: every member of the straggling rack runs `slowdown`
    /// times slow over the middle `[0.2, 0.8)` of the run.
    pub fn straggling_rack_plan(&self, duration: f64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for member in self.topology().rack_members(self.straggling_rack) {
            plan = plan.straggle(member, 0.2 * duration, 0.8 * duration, self.slowdown);
        }
        plan
    }

    /// The scenario's fleet for `trace`, ready for [`Cluster::run`];
    /// `hedged` arms the hedging policy (the unhedged baseline carries a
    /// default, bit-neutral policy on the same plan).
    pub fn cluster(&self, trace: &Trace, hedged: bool) -> Cluster<RubikController> {
        let config = SimConfig::paper_simulated();
        let bound = self.bound();
        let policy = if hedged {
            RequestPolicy::new().with_hedging(self.hedge_quantile, self.hedge_min_delay())
        } else {
            RequestPolicy::new()
        };
        Cluster::new(
            config.clone(),
            self.fleet,
            // Failure-blind on purpose: JSQ keeps routing to the stragglers,
            // so any p99 relief below is hedging's alone.
            Box::new(JoinShortestQueue::new()),
            |_| {
                RubikController::seeded_for_trace(
                    RubikConfig::new(bound).with_profiling_window(1024),
                    config.dvfs.clone(),
                    trace,
                    256,
                )
            },
        )
        .try_with_fault_plan(self.straggling_rack_plan(trace.duration()))
        .expect("the plan names servers of the fleet")
        .with_request_policy(policy)
    }
}

/// The p99 end-to-end latency over every completion record in a run.
pub fn p99_latency(results: &[RunResult]) -> f64 {
    let latencies: Vec<f64> = results
        .iter()
        .flat_map(|r| r.records().iter().map(|rec| rec.completion - rec.arrival))
        .collect();
    rubik::stats::percentile(&latencies, 0.99).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubik::TraceSource;

    #[test]
    fn hedging_cuts_the_p99_under_a_straggling_rack() {
        let scenario = HedgeScenario {
            fleet: 8,
            requests_per_server: 40,
            ..Default::default()
        };
        let trace = scenario.trace();
        let run = |hedged| {
            let report = scenario
                .cluster(&trace, hedged)
                .run(TraceSource::new(&trace))
                .expect("a valid run");
            (report.outcome, report.results)
        };
        let (off, off_results) = run(false);
        let (on, on_results) = run(true);
        assert_eq!(
            (off.availability.hedged, off.availability.hedge_wins),
            (0, 0)
        );
        assert!(
            on.availability.hedged > 0,
            "the straggler never triggered a hedge"
        );
        assert!(on.availability.hedge_wins > 0, "no duplicate ever won");
        assert_eq!(
            on.availability.completed + on.availability.lost,
            on.availability.offered
        );
        let (p99_off, p99_on) = (p99_latency(&off_results), p99_latency(&on_results));
        assert!(
            p99_on < p99_off,
            "hedging failed to cut the p99: {p99_on} vs {p99_off}"
        );
    }
}
