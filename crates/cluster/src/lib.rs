//! `rubik-cluster`: multi-server serving behind a load balancer.
//!
//! The paper evaluates Rubik one core at a time; a datacenter runs *fleets*.
//! This crate models a cluster of N simulated servers — each an independent
//! open-loop [`rubik_sim::ServerSim`] with its **own** DVFS controller
//! (Rubik per server) — behind a pluggable [`Router`]. A single
//! deterministic event loop multiplexes every server, keeping one event
//! slot per server in a tournament tree whose root is the fleet's next
//! event, so thousands of servers fit in one process with no threads per
//! server.
//! The loop is sequential because its lookahead is zero — the router reads
//! live server views, so every arrival synchronizes the whole fleet — and a
//! loop partitioned across worker threads measured slower than this one at
//! every fleet size. Parallelism lives across *runs*: `rubik-sweep` runs
//! many cluster configurations at once.
//!
//! The pieces:
//!
//! * [`Cluster`] — the driver: routes each arrival of a global request
//!   stream, advances the globally earliest server event, aggregates a
//!   [`ClusterOutcome`] (fleet power, global tail latency, per-server
//!   residency),
//! * [`Router`] — the load-balancing policy, with [`RoundRobin`],
//!   [`JoinShortestQueue`], and [`PowerAware`] (routes on each server's
//!   live occupancy, capacity weight, and DVFS operating point)
//!   implementations, plus the [`Passthrough`] identity router. Scored
//!   routers declare a [`RouteKey`] per server, and the driver routes them
//!   from a tournament tree in O(log n) per changed server,
//! * [`FleetSpec`] — heterogeneous fleets: named core classes (big/little),
//!   each with its own `SimConfig` and a capacity weight,
//! * [`FleetController`] / [`PegasusFleet`] — fleet-level power capping on a
//!   coarse epoch: FastCap-style weighted apportioning of a global watt
//!   budget into per-server frequency ceilings, waterfilling slack from
//!   idle servers into backlogged ones,
//! * [`Migrator`] / [`ThresholdMigrator`] — queue migration between events:
//!   queued (not yet in service) requests move off a backlogged server with
//!   their arrival times preserved, triggered on queue imbalance with
//!   hysteresis,
//! * [`fleet_trace`] — scales an application's arrival process to a fleet,
//! * [`Cluster::run`] — the one way to run a fleet: serves a pull-based
//!   [`ArrivalSource`] (steady Poisson, shaped non-homogeneous Poisson,
//!   merged multi-app, file-backed streaming replay from `rubik-load`, or a
//!   materialized trace through [`TraceSource`]) without materializing the
//!   stream, and returns a [`RunReport`] or a typed [`ClusterError`],
//! * [`FaultPlan`] / [`RequestPolicy`] — deterministic fault injection
//!   (crashes, stragglers, stuck frequencies) and the client-side request
//!   lifecycle (deadlines, timeouts, retries with deterministic jitter).
//!
//! A 1-server cluster behind [`Passthrough`] reproduces the standalone
//! simulator **bitwise** (pinned in `tests/cluster_equivalence.rs`), so
//! cluster results compose with every single-server number in this
//! repository; an uncapped, migration-free cluster is likewise bitwise
//! identical to one with the hooks attached but idle
//! (`tests/fleet_properties.rs`).
//!
//! # Example: a small Rubik fleet behind JSQ
//!
//! ```
//! use rubik_cluster::{fleet_trace, Cluster, JoinShortestQueue, TraceSource};
//! use rubik_sim::{FixedFrequencyPolicy, SimConfig};
//! use rubik_workloads::AppProfile;
//!
//! let config = SimConfig::paper_simulated();
//! let profile = AppProfile::masstree();
//!
//! // 8 servers at 40% load each; 800 requests arriving fleet-wide.
//! let trace = fleet_trace(&profile, 0.4, 8, 800, 42).expect("a valid fleet and load");
//! let cluster = Cluster::new(
//!     config.clone(),
//!     8,
//!     Box::new(JoinShortestQueue::new()),
//!     |_server| FixedFrequencyPolicy::new(config.dvfs.nominal()),
//! );
//! let outcome = cluster.run(TraceSource::new(&trace)).expect("a valid run").outcome;
//!
//! assert_eq!(outcome.requests, 800);
//! assert_eq!(outcome.servers(), 8);
//! assert!(outcome.tail_latency > 0.0);
//! assert!(outcome.fleet_power > 0.0);
//! let per_server: usize = outcome.per_server.iter().map(|s| s.requests).sum();
//! assert_eq!(per_server, 800);
//! ```
//!
//! Swapping `FixedFrequencyPolicy` for `rubik_core::RubikController` (one
//! instance per server, seeded from the head of the trace) gives each
//! server the paper's controller; the cluster driver never looks inside a
//! policy, so every scheme in `rubik-core` works unchanged.
//!
//! # Streaming arrivals and load shapes
//!
//! [`Cluster::run`] pulls arrivals lazily from any [`ArrivalSource`] in
//! `rubik-load`, so the stream itself never occupies memory and the offered
//! load can *change* mid-run — the regime the paper's Fig. 1 story is
//! about. A live source and the trace drained from it are the same run,
//! pinned bitwise in `tests/stream_equivalence.rs`.
//!
//! Here a 4-server fleet rides a diurnal sinusoid into a morning ramp; the
//! fleet sees roughly 3× more arrivals near the diurnal peak than in the
//! trough, and nothing is materialized up front:
//!
//! ```
//! use rubik_cluster::{Cluster, JoinShortestQueue};
//! use rubik_load::{LoadShape, ShapedSource};
//! use rubik_sim::{FixedFrequencyPolicy, SimConfig};
//! use rubik_workloads::AppProfile;
//!
//! let shape = LoadShape::Sequence(vec![
//!     LoadShape::Diurnal { mean: 0.4, amplitude: 0.2, period: 4.0, duration: 4.0 },
//!     LoadShape::Ramp { from: 0.4, to: 0.7, duration: 2.0 },
//! ]);
//! shape.validate().expect("well-formed shape");
//! let source = ShapedSource::new(AppProfile::masstree(), shape, 42).for_fleet(4);
//!
//! let config = SimConfig::paper_simulated();
//! let cluster = Cluster::new(
//!     config.clone(),
//!     4,
//!     Box::new(JoinShortestQueue::new()),
//!     |_server| FixedFrequencyPolicy::new(config.dvfs.nominal()),
//! );
//! let outcome = cluster.run(source).expect("shaped sources are time-ordered").outcome;
//!
//! assert!(outcome.requests > 100, "the shape window draws plenty of load");
//! assert!(outcome.tail_latency > 0.0);
//! // Same seed, same shape => bit-identical rerun, like any fixed trace.
//! ```
//!
//! `ShapedSource` draws a non-homogeneous Poisson process by seeded
//! thinning (ramps, steps, diurnal sinusoids, spikes, piecewise
//! schedules); `StreamingTraceReader` replays a captured trace from any
//! reader without loading it. See the `rubik-load` crate docs for the full tour. A
//! source that hands back a non-monotone arrival, or one before `t = 0`,
//! violates the [`ArrivalSource`] contract and is reported as
//! [`ClusterError::OutOfOrderArrival`] instead of panicking.
//!
//! # Example: a capped heterogeneous fleet with migration
//!
//! Four big cores and four low-frequency little cores serve one stream
//! behind the capacity-aware router, under a 28 W global budget enforced by
//! [`PegasusFleet`], with [`ThresholdMigrator`] rebalancing queue spikes:
//!
//! ```
//! use rubik_cluster::{
//!     fleet_trace, Cluster, FleetSpec, PegasusFleet, PowerAware, ThresholdMigrator, TraceSource,
//! };
//! use rubik_power::CorePowerModel;
//! use rubik_sim::{DvfsConfig, FixedFrequencyPolicy, Freq, SimConfig};
//! use rubik_workloads::AppProfile;
//!
//! let big = SimConfig::paper_simulated();
//! let little = big.clone().with_dvfs(DvfsConfig::new(
//!     Freq::from_mhz(800),
//!     Freq::from_mhz(1800),
//!     200,
//!     Freq::from_mhz(1200),
//!     4e-6,
//! ));
//! let spec = FleetSpec::new()
//!     .class("big", big, 1.0, 4)
//!     .class("little", little, 0.5, 4);
//!
//! let power = CorePowerModel::haswell_like();
//! let trace = fleet_trace(&AppProfile::masstree(), 0.3, spec.len(), 600, 7)
//!     .expect("a valid fleet and load");
//! let cluster = Cluster::from_spec(&spec, Box::new(PowerAware::new(power)), |_i, config| {
//!     FixedFrequencyPolicy::new(config.dvfs.nominal())
//! })
//! .with_power(power)
//! .with_fleet_controller(Box::new(PegasusFleet::new(28.0, power)))
//! .with_migrator(Box::new(ThresholdMigrator::default()));
//!
//! let outcome = cluster.run(TraceSource::new(&trace)).expect("a valid run").outcome;
//! assert_eq!(outcome.requests, 600);
//! // The cap binds: average fleet power stays under the 28 W budget.
//! assert!(outcome.fleet_power <= 28.0);
//! // Class totals split the outcome between big and little cores. At this
//! // light load most routing decisions are idle-vs-idle ties, and the
//! // power tie-break sends those to the cheaper little cores; big cores
//! // still serve a substantial share whenever queues differ.
//! let totals = outcome.class_totals();
//! assert_eq!(totals.len(), 2);
//! assert!(totals[0].requests > 0 && totals[1].requests > 0);
//! assert_eq!(totals[0].requests + totals[1].requests, 600);
//! ```
//!
//! # The fault model: crash, recover, and serve through it
//!
//! A [`FaultPlan`] scripts failures at absolute times — crashes,
//! recoveries, straggler windows, stuck frequencies — and the driver
//! applies them *between* simulation events, so the same plan and trace
//! give bit-identical results on any machine and any sweep thread count.
//! An **empty plan is bit-neutral**: attaching it changes nothing (pinned
//! in `tests/fault_properties.rs`). A [`RequestPolicy`] adds the client's
//! side — per-attempt timeouts, retries with capped exponential backoff and
//! deterministic jitter, end-to-end deadlines — and wrapping the router in
//! [`HealthAware`] keeps new work and retries off servers that are down or
//! straggling. [`PegasusFleet`] re-apportions its watt budget over the
//! survivors at its next epoch, so a crash never inflates the cap.
//!
//! Here a 4-server fleet loses server 2 mid-run and gets it back; timed-out
//! work is retried on the survivors, and the outcome's availability block
//! tells the story:
//!
//! ```
//! use rubik_cluster::{
//!     fleet_trace, Cluster, FaultPlan, HealthAware, JoinShortestQueue, RequestPolicy, TraceSource,
//! };
//! use rubik_sim::{FixedFrequencyPolicy, SimConfig};
//! use rubik_workloads::AppProfile;
//!
//! let config = SimConfig::paper_simulated();
//! let profile = AppProfile::masstree();
//! let trace = fleet_trace(&profile, 0.4, 4, 400, 11).expect("a valid fleet and load");
//! let mid = trace.duration() / 2.0;
//!
//! let cluster = Cluster::new(
//!     config.clone(),
//!     4,
//!     Box::new(HealthAware::new(JoinShortestQueue::new())),
//!     |_server| FixedFrequencyPolicy::new(config.dvfs.nominal()),
//! )
//! // Server 2 is down for the middle third of the run.
//! .try_with_fault_plan(FaultPlan::new().crash(2, mid).recover(2, mid + mid / 1.5))
//! .expect("the plan names servers of the fleet")
//! // Queued work stranded by the crash is re-routed; anything still
//! // queued 10 ms after being routed is pulled back and retried.
//! .with_request_policy(
//!     RequestPolicy::new()
//!         .with_timeout(10e-3)
//!         .with_retries(3, 1e-3, 20e-3)
//!         .draining_on_crash()
//!         .salvaging_in_flight(),
//! );
//!
//! let outcome = cluster.run(TraceSource::new(&trace)).expect("a valid run").outcome;
//! let avail = outcome.availability;
//! assert_eq!(avail.offered, 400);
//! assert_eq!(avail.completed, 400, "everything was rescued");
//! assert!(outcome.per_server[2].downtime > 0.0);
//! assert_eq!(outcome.per_server.iter().filter(|s| s.downtime > 0.0).count(), 1);
//! ```
//!
//! ## Hedged requests
//!
//! Timeouts recover from *failures*; **hedging** attacks the *tail*.
//! [`RequestPolicy::with_hedging`] arms a per-request trigger at the
//! fleet's tracked completion-latency quantile (floored by a minimum
//! delay): when an attempt's age crosses it, the driver speculatively
//! duplicates the request onto the least-loaded *other* healthy server
//! and the first copy to finish wins — the loser is cancelled in place
//! via [`rubik_sim::ServerSim::cancel`], producing no duplicate record,
//! so `completed + lost == offered` still holds exactly. The outcome's
//! [`AvailabilityStats`] counts `hedged` / `hedge_wins` /
//! `hedge_cancelled`, telemetry records `Hedged` / `HedgeWon` /
//! `HedgeCancelled` events, and a policy without hedging is **bitwise
//! identical** to one never constructed (pinned in
//! `tests/hedge_properties.rs`).
//!
//! ## Correlated rack failures and stochastic fault generation
//!
//! Real outages are not independent: a rack PDU or ToR failure takes
//! every server in the rack down at once. [`FailureTopology`] places the
//! fleet into racks and rows, and [`StochasticFaults`] draws entire failure
//! histories from seeded MTBF/MTTR renewal processes, per server and per
//! rack, with per-member deterministic recovery jitter. Both a scripted
//! outage and a drawn history are an ordinary [`FaultPlan`], so every
//! random scenario validates, replays bit-exactly at any sweep thread
//! count, and inherits the empty-plan bit-neutrality contract. Here rack 1
//! of an 8-server fleet goes dark for 20–23 ms and the survivors absorb
//! the re-routed work:
//!
//! ```
//! use rubik_cluster::{
//!     fleet_trace, Cluster, FailureTopology, FaultPlan, HealthAware, JoinShortestQueue,
//!     RequestPolicy, TraceSource,
//! };
//! use rubik_sim::{FixedFrequencyPolicy, SimConfig};
//! use rubik_workloads::AppProfile;
//!
//! let config = SimConfig::paper_simulated();
//! let trace = fleet_trace(&AppProfile::masstree(), 0.3, 8, 600, 13)
//!     .expect("a valid fleet and load");
//!
//! // 8 servers, 4 per rack: rack 1 = servers 4..8. The whole rack
//! // crashes mid-run; members recover 20 ms later, staggered by 1 ms
//! // each, as servers power on one after another.
//! let topo = FailureTopology::grid(8, 4, 2);
//! let mid = trace.duration() / 2.0;
//! let plan = topo
//!     .rack_members(1)
//!     .into_iter()
//!     .enumerate()
//!     .fold(FaultPlan::new(), |plan, (k, server)| {
//!         plan.crash(server, mid)
//!             .recover(server, mid + 20e-3 + k as f64 * 1e-3)
//!     });
//!
//! let cluster = Cluster::new(
//!     config.clone(),
//!     8,
//!     Box::new(HealthAware::new(JoinShortestQueue::new())),
//!     |_server| FixedFrequencyPolicy::new(config.dvfs.nominal()),
//! )
//! .try_with_fault_plan(plan)
//! .expect("the plan names servers of the fleet")
//! .with_request_policy(
//!     RequestPolicy::new()
//!         .with_timeout(10e-3)
//!         .with_retries(3, 1e-3, 20e-3)
//!         .draining_on_crash()
//!         .salvaging_in_flight(),
//! );
//!
//! let outcome = cluster.run(TraceSource::new(&trace)).expect("a valid run").outcome;
//! assert_eq!(outcome.availability.completed, 600, "survivors absorb the rack");
//! // Exactly the four rack members saw downtime.
//! let down: Vec<usize> = (0..8)
//!     .filter(|&i| outcome.per_server[i].downtime > 0.0)
//!     .collect();
//! assert_eq!(down, vec![4, 5, 6, 7]);
//! ```
//!
//! Swapping the scripted outage for
//! `StochasticFaults::new().with_rack_failures(2.0, 0.05)` draws rack
//! outages from a renewal process instead — same plan type, same
//! replayability.
//!
//! # Observability
//!
//! Attaching [`Telemetry::recording`] with [`Cluster::with_telemetry`]
//! records what the driver already sequences, returned as
//! [`RunReport::log`]: every request's lifecycle (routing, timeouts,
//! backoff, requeues, migrations), every scripted fault window, and a
//! per-epoch fleet time series of power, queue depths, and in-flight work.
//! The contract is strict in both directions — [`Telemetry::disabled`]
//! (the default) is bitwise-invisible and allocation-free, and even
//! [`Telemetry::recording`] leaves the simulated outcome bit-identical
//! because samples are taken at boundary instants the event loop already
//! honors. The assembled [`TraceLog`]
//! self-serializes to JSON and Chrome `trace_event` format
//! (`rubik_telemetry::to_json` / `to_chrome_json`), and can decompose the
//! tail cohort's latency into queueing, service, backoff, and downtime:
//!
//! ```
//! use rubik_cluster::{
//!     fleet_trace, Cluster, FaultPlan, HealthAware, JoinShortestQueue, Telemetry, TraceSource,
//! };
//! use rubik_sim::{FixedFrequencyPolicy, SimConfig};
//! use rubik_workloads::AppProfile;
//!
//! let config = SimConfig::paper_simulated();
//! let trace = fleet_trace(&AppProfile::masstree(), 0.4, 4, 400, 11)
//!     .expect("a valid fleet and load");
//! let mid = trace.duration() / 2.0;
//!
//! let cluster = Cluster::new(
//!     config.clone(),
//!     4,
//!     Box::new(HealthAware::new(JoinShortestQueue::new())),
//!     |_server| FixedFrequencyPolicy::new(config.dvfs.nominal()),
//! )
//! .try_with_fault_plan(FaultPlan::new().crash(2, mid).recover(2, mid * 1.5))
//! .expect("the plan names servers of the fleet")
//! .with_telemetry(Telemetry::recording());
//!
//! let report = cluster.run(TraceSource::new(&trace)).expect("a valid run");
//! let (outcome, log) = (report.outcome, report.log.expect("recording"));
//! assert_eq!(log.requests.len(), outcome.availability.offered);
//! assert_eq!(log.completed(), outcome.availability.completed);
//! // Server 2's crash shows up as a down window in the log...
//! assert_eq!(log.down_windows()[2].len(), 1);
//! // ...and the p95 cohort's latency decomposes into components.
//! let report = log.attribute(0.95).expect("requests completed");
//! println!("{}", report.table());
//! assert!(report.cohort > 0);
//! ```
//!
//! The same log powers the `trace_report` binary in `rubik-bench` and the
//! `--trace-out` flag every figure binary shares.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod driver;
mod fault;
mod fleet;
mod migrate;
mod min_tree;
mod outcome;
mod router;
mod topology;

pub use driver::{Cluster, ClusterError, RunReport};
pub use fault::{FaultEvent, FaultPlan, RequestPolicy};
pub use fleet::{
    CoreClass, FleetCommand, FleetController, FleetSpec, PegasusFleet, ServerPowerView,
};
pub use migrate::{Migration, Migrator, ThresholdMigrator};
pub use outcome::{AvailabilityStats, ClassTotals, ClusterOutcome, ServerOutcome};
pub use router::{
    HealthAware, JoinShortestQueue, Passthrough, PowerAware, RoundRobin, RouteKey, Router,
    ServerHealth, ServerView,
};
pub use rubik_load::{ArrivalSource, TraceSource};
pub use rubik_telemetry::{Telemetry, TraceLog};
pub use topology::{FailureTopology, StochasticFaults};

use rubik_load::{drain_to_trace, PoissonSource};
use rubik_sim::Trace;
use rubik_workloads::AppProfile;

/// Generates the arrival stream of a whole fleet: `servers` servers each at
/// `per_server_load` (fraction of one core's nominal capacity) produce a
/// pooled Poisson stream at `per_server_load × servers` times one core's
/// capacity. It drains the steady [`rubik_load::PoissonSource`], so the
/// streamed and batch arrival processes are the same bits by construction.
///
/// # Errors
///
/// Returns [`ClusterError::EmptyFleet`] for a zero-server fleet and
/// [`ClusterError::InvalidLoad`] when the fleet's load is not positive and
/// finite.
pub fn fleet_trace(
    profile: &AppProfile,
    per_server_load: f64,
    servers: usize,
    requests: usize,
    seed: u64,
) -> Result<Trace, ClusterError> {
    if servers == 0 {
        return Err(ClusterError::EmptyFleet);
    }
    let load = per_server_load * servers as f64;
    if !load.is_finite() || load <= 0.0 {
        return Err(ClusterError::InvalidLoad);
    }
    Ok(drain_to_trace(
        PoissonSource::new(profile.clone(), load, requests, seed),
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubik_sim::Freq;

    #[test]
    fn fleet_trace_scales_rate_with_servers() {
        let profile = AppProfile::masstree();
        let one = fleet_trace(&profile, 0.4, 1, 4000, 7).unwrap();
        let four = fleet_trace(&profile, 0.4, 4, 4000, 7).unwrap();
        // Same request count, ~4x the arrival rate => ~1/4 the duration.
        let ratio = one.duration() / four.duration();
        assert!((3.0..5.0).contains(&ratio), "ratio = {ratio}");
        // Offered load relative to one core scales accordingly.
        let nominal = Freq::from_mhz(2400);
        assert!(four.offered_load(nominal) > 3.0 * one.offered_load(nominal) / 2.0);
    }

    /// `fleet_trace` is now a wrapper over the streaming `PoissonSource`;
    /// its output must be bit-for-bit what the batch generator produced
    /// before the rewrite.
    #[test]
    fn fleet_trace_matches_batch_generator_bit_for_bit() {
        let profile = AppProfile::xapian();
        let wrapped = fleet_trace(&profile, 0.45, 8, 1000, 21).unwrap();
        let batch =
            rubik_workloads::WorkloadGenerator::new(profile, 21).steady_trace(0.45 * 8.0, 1000);
        assert_eq!(wrapped.len(), batch.len());
        for (a, b) in wrapped.requests().iter().zip(batch.requests()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.class, b.class);
            assert_eq!(a.arrival.to_bits(), b.arrival.to_bits());
            assert_eq!(a.compute_cycles.to_bits(), b.compute_cycles.to_bits());
            assert_eq!(a.membound_time.to_bits(), b.membound_time.to_bits());
        }
    }

    #[test]
    fn try_fleet_trace_returns_typed_errors() {
        let profile = AppProfile::masstree();
        let empty = fleet_trace(&profile, 0.4, 0, 10, 1).unwrap_err();
        assert_eq!(empty, ClusterError::EmptyFleet);
        assert_eq!(empty.to_string(), "a cluster needs at least one server");
        assert_eq!(
            fleet_trace(&profile, 0.0, 4, 10, 1).unwrap_err(),
            ClusterError::InvalidLoad
        );
        assert_eq!(
            fleet_trace(&profile, f64::NAN, 4, 10, 1).unwrap_err(),
            ClusterError::InvalidLoad
        );
        let trace = fleet_trace(&profile, 0.4, 4, 10, 1).unwrap();
        assert_eq!(trace.len(), 10);
    }
}
