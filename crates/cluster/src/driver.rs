//! The cluster driver: N `ServerSim`s multiplexed through one event loop.
//!
//! Every server is an independent open-loop simulation
//! ([`rubik_sim::ServerSim`]); the driver owns a binary heap of
//! `(next event time, server)` entries and always advances the globally
//! earliest event, so thousands of servers run in one process with no
//! threads and no per-server clocks to reconcile. Arrivals from the global
//! request stream are routed by a [`Router`] and offered to the chosen
//! server, whose own engine then sequences the arrival against its pending
//! completions, transitions, and ticks.
//!
//! # Event ordering and determinism
//!
//! The heap orders events by `(time, server index)`, and every routing
//! decision observes the fleet *after* all server events strictly before
//! the arrival instant have been processed (events at exactly the arrival
//! instant are sequenced by the destination server's own round order, which
//! is what makes a 1-server cluster bitwise-identical to
//! [`rubik_sim::Server::run`]). Entries are stamped and lazily invalidated:
//! whenever a server is stepped or offered work, its stamp advances and a
//! fresh entry is pushed, so stale heap entries are skipped on pop. The
//! whole loop is sequential and deterministic — fleet-scale parallelism
//! comes from sweeping many cluster cells on `rubik-sweep`, not from
//! threading inside one cluster.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc;

use rubik_load::{ArrivalSource, TraceSource};
use rubik_power::CorePowerModel;
use rubik_sim::{DvfsPolicy, RequestSpec, RunResult, ServerSim, SimConfig, SimEvent, Trace};

use crate::fault::{FaultLayer, FaultPlan, HedgeResolution, OpKind, RequestPolicy};
use crate::fleet::{EpochMeter, FleetCommand, FleetController, FleetSpec, ServerPowerView};
use crate::migrate::{Migration, Migrator};
use crate::outcome::ClusterOutcome;
use crate::router::{RouteTree, Router, ServerHealth, ServerView};
use rubik_telemetry::{
    EpochSample, RequestEvent, RequestEventKind, ServerEvent, ServerEventKind, ServerSample,
    Telemetry, TraceLog,
};

/// Why a [`Cluster`] could not be built or a streamed run could not finish.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClusterError {
    /// The fleet has zero servers; a cluster needs at least one.
    EmptyFleet,
    /// The attached [`FaultPlan`] is inconsistent with the fleet (server
    /// out of range, non-finite time, empty straggle window, double crash,
    /// recovery of a healthy server, …). The message says which event.
    InvalidFaultPlan(String),
    /// The offered per-server load is not positive and finite, so no
    /// arrival process can be constructed from it.
    InvalidLoad,
    /// A streamed [`ArrivalSource`] violated its contract: arrival number
    /// `index` (0-based, in pull order) was yielded at time `at` after an
    /// arrival at the later (or non-finite) time `prev`. Requests already
    /// routed before the violation are abandoned — the run produces no
    /// outcome.
    OutOfOrderArrival {
        /// 0-based position of the offending arrival in pull order.
        index: usize,
        /// The offending arrival's time.
        at: f64,
        /// The previous arrival's time.
        prev: f64,
    },
    /// A router chose a server index outside the fleet — for an arrival,
    /// a retry, or a crash-drain requeue. The run is abandoned like an
    /// out-of-order arrival: it produces no outcome.
    RouteOutOfRange {
        /// The router's [`name`](Router::name).
        router: String,
        /// The index it chose.
        server: usize,
        /// The fleet size.
        fleet: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::EmptyFleet => write!(f, "a cluster needs at least one server"),
            ClusterError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
            ClusterError::InvalidLoad => write!(f, "load must be positive and finite"),
            ClusterError::OutOfOrderArrival { index, at, prev } => write!(
                f,
                "arrival source must be time-ordered: arrival #{index} at {at} after {prev}"
            ),
            ClusterError::RouteOutOfRange {
                router,
                server,
                fleet,
            } => write!(
                f,
                "router {router} chose server {server} of a {fleet}-server fleet"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// A heap entry: the next event of one server, stamped for lazy
/// invalidation.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    time: f64,
    server: usize,
    stamp: u64,
}

impl HeapEntry {
    fn key(&self) -> (f64, usize, u64) {
        (self.time, self.server, self.stamp)
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let (t0, s0, v0) = self.key();
        let (t1, s1, v1) = other.key();
        t0.total_cmp(&t1).then(s0.cmp(&s1)).then(v0.cmp(&v1))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// How a run is sharded across worker threads (see
/// [`Cluster::run_sharded`]).
///
/// The fleet is partitioned into `shards` contiguous server blocks, each
/// advancing on its own stamped heap between global boundaries. Shard
/// counts are clamped to the fleet size at run time, and
/// [`ShardSpec::single`] recovers the classic single-heap loop exactly.
/// Sharding never changes results — every `run_sharded*` output is
/// bit-identical to its unsharded twin — so the only tradeoff is
/// throughput: one worker thread per extra shard, paying off once
/// per-event work (e.g. a Rubik controller per server) dominates routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    shards: usize,
}

impl ShardSpec {
    /// Shards the fleet `shards` ways (1 = the classic serial loop).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a run needs at least one shard");
        Self { shards }
    }

    /// One shard per available hardware thread (1 if unknown).
    pub fn auto() -> Self {
        Self {
            shards: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// The single-shard spec: no worker threads, the classic event loop.
    pub fn single() -> Self {
        Self { shards: 1 }
    }

    /// The configured shard count (before clamping to the fleet size).
    pub fn shards(&self) -> usize {
        self.shards
    }
}

impl Default for ShardSpec {
    /// Defaults to [`ShardSpec::auto`].
    fn default() -> Self {
        Self::auto()
    }
}

/// A fleet of simulated servers behind a load balancer.
///
/// Built with one [`DvfsPolicy`] instance per server (Rubik per server, in
/// the paper's setting) and a [`Router`]; consumed by [`Cluster::run`],
/// which drives the global arrival stream through the fleet and aggregates
/// a [`ClusterOutcome`].
pub struct Cluster<P: DvfsPolicy = Box<dyn DvfsPolicy>> {
    servers: Vec<ServerSim<P>>,
    router: Box<dyn Router>,
    power: CorePowerModel,
    quantile: f64,
    /// Per-server capacity weight (1.0 everywhere for homogeneous fleets).
    capacities: Vec<f64>,
    /// Per-server core-class index (0 everywhere for homogeneous fleets).
    classes: Vec<u32>,
    /// Optional fleet-level power manager, run on its epoch.
    fleet: Option<Box<dyn FleetController>>,
    /// Optional queue rebalancer, run on its own interval.
    migrator: Option<Box<dyn Migrator>>,
    /// Optional scripted fault schedule (validated against the fleet size).
    faults: Option<FaultPlan>,
    /// Optional client-side request lifecycle: deadlines, timeouts, retries.
    request_policy: Option<RequestPolicy>,
    /// Instrumentation handle; disabled (and bitwise-invisible) by default.
    telemetry: Telemetry,
}

impl<P: DvfsPolicy> std::fmt::Debug for Cluster<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("servers", &self.servers.len())
            .field("router", &self.router.name())
            .field("quantile", &self.quantile)
            .field("fleet", &self.fleet.as_ref().map(|f| f.name()))
            .field("migrator", &self.migrator.as_ref().map(|m| m.name()))
            .field("telemetry", &self.telemetry.is_enabled())
            .finish()
    }
}

impl<P: DvfsPolicy> Cluster<P> {
    /// Creates a fleet of `servers` identical-hardware servers. `policy` is
    /// called once per server index to build that server's DVFS controller —
    /// per-server instances, never shared.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new<F>(config: SimConfig, servers: usize, router: Box<dyn Router>, mut policy: F) -> Self
    where
        F: FnMut(usize) -> P,
    {
        Self::from_spec(
            &FleetSpec::homogeneous(config, servers),
            router,
            |i, config| {
                let _ = config;
                policy(i)
            },
        )
    }

    /// Creates a possibly heterogeneous fleet from a [`FleetSpec`]: each
    /// server gets its class's [`SimConfig`], and the spec's capacity
    /// weights feed capacity-aware routing
    /// ([`PowerAware`](crate::PowerAware)) and fleet-budget apportioning
    /// ([`PegasusFleet`](crate::PegasusFleet)). `policy` is called once per
    /// server with its index and its class's configuration.
    ///
    /// # Panics
    ///
    /// Panics if the spec is empty.
    pub fn from_spec<F>(spec: &FleetSpec, router: Box<dyn Router>, mut policy: F) -> Self
    where
        F: FnMut(usize, &SimConfig) -> P,
    {
        assert!(!spec.is_empty(), "a cluster needs at least one server");
        let n = spec.len();
        let servers = (0..n)
            .map(|i| {
                let config = spec.config_of(i);
                ServerSim::new(config.clone(), policy(i, config))
            })
            .collect();
        Self {
            servers,
            router,
            power: CorePowerModel::haswell_like(),
            quantile: 0.95,
            capacities: (0..n).map(|i| spec.capacity_of(i)).collect(),
            classes: (0..n).map(|i| spec.class_index_of(i)).collect(),
            fleet: None,
            migrator: None,
            faults: None,
            request_policy: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Fallible [`Cluster::new`]: returns [`ClusterError::EmptyFleet`]
    /// instead of panicking on a zero-server fleet.
    pub fn try_new<F>(
        config: SimConfig,
        servers: usize,
        router: Box<dyn Router>,
        policy: F,
    ) -> Result<Self, ClusterError>
    where
        F: FnMut(usize) -> P,
    {
        if servers == 0 {
            return Err(ClusterError::EmptyFleet);
        }
        Ok(Self::new(config, servers, router, policy))
    }

    /// Fallible [`Cluster::from_spec`]: returns
    /// [`ClusterError::EmptyFleet`] instead of panicking on an empty spec.
    pub fn try_from_spec<F>(
        spec: &FleetSpec,
        router: Box<dyn Router>,
        policy: F,
    ) -> Result<Self, ClusterError>
    where
        F: FnMut(usize, &SimConfig) -> P,
    {
        if spec.is_empty() {
            return Err(ClusterError::EmptyFleet);
        }
        Ok(Self::from_spec(spec, router, policy))
    }

    /// Attaches a fleet-level power manager, run on its epoch (initially at
    /// `t = 0`, before any event). See
    /// [`PegasusFleet`](crate::PegasusFleet).
    pub fn with_fleet_controller(mut self, fleet: Box<dyn FleetController>) -> Self {
        assert!(fleet.epoch() > 0.0, "fleet epoch must be positive");
        self.fleet = Some(fleet);
        self
    }

    /// Attaches a queue rebalancer, run on its own periodic interval. See
    /// [`ThresholdMigrator`](crate::ThresholdMigrator).
    pub fn with_migrator(mut self, migrator: Box<dyn Migrator>) -> Self {
        assert!(
            migrator.interval() > 0.0,
            "migration interval must be positive"
        );
        self.migrator = Some(migrator);
        self
    }

    /// Attaches a scripted fault schedule, applied deterministically
    /// between simulation events. An empty plan is **bit-neutral**: the run
    /// produces exactly the bytes it would without the plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`] against this fleet;
    /// use [`Cluster::try_with_fault_plan`] for the fallible form.
    pub fn with_fault_plan(self, plan: FaultPlan) -> Self {
        match self.try_with_fault_plan(plan) {
            Ok(cluster) => cluster,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Cluster::with_fault_plan`].
    pub fn try_with_fault_plan(mut self, plan: FaultPlan) -> Result<Self, ClusterError> {
        plan.validate(self.servers.len())?;
        self.faults = Some(plan);
        Ok(self)
    }

    /// Attaches the client-side request lifecycle: per-request deadlines,
    /// per-attempt timeouts, retries with capped exponential backoff and
    /// deterministic jitter, and crash salvage/drain behaviour. The default
    /// policy is inert and bit-neutral.
    pub fn with_request_policy(mut self, policy: RequestPolicy) -> Self {
        self.request_policy = Some(policy);
        self
    }

    /// Attaches instrumentation (see [`rubik_telemetry`]). The default,
    /// [`Telemetry::disabled`], is **bitwise-invisible**: the run produces
    /// exactly the bytes it would without telemetry and performs zero
    /// steady-state allocations. [`Telemetry::recording`] captures
    /// per-request lifecycle events, server fault windows, and a per-epoch
    /// fleet time series at the same deterministic boundary instants the
    /// driver already sequences — recording telemetry leaves the simulation
    /// outputs bit-identical too; it only *adds* the log, retrieved with
    /// [`Cluster::run_traced`].
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Overrides the core power model used for fleet energy accounting.
    ///
    /// This does **not** reach into the router: a
    /// [`PowerAware`](crate::PowerAware) router carries its own scoring
    /// model, so
    /// construct it from the same model passed here or its routing
    /// objective will diverge from the reported fleet energy.
    pub fn with_power(mut self, power: CorePowerModel) -> Self {
        self.power = power;
        self
    }

    /// Overrides the tail quantile (default 0.95).
    pub fn with_quantile(mut self, quantile: f64) -> Self {
        assert!(
            quantile > 0.0 && quantile < 1.0,
            "quantile must be in (0, 1)"
        );
        self.quantile = quantile;
        self
    }

    /// Number of servers in the fleet.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the fleet is empty (never true — see [`Cluster::new`]).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The fleet's router.
    pub fn router(&self) -> &dyn Router {
        self.router.as_ref()
    }

    /// Serves the global arrival stream `trace` through the fleet and
    /// returns the aggregated outcome.
    ///
    /// The trace is the *fleet's* arrival process (e.g. from
    /// [`crate::fleet_trace`]); each request is routed on arrival and
    /// offered to one server. Requests must be time-ordered, which
    /// [`Trace`] guarantees.
    ///
    /// # Panics
    ///
    /// Panics with the message of [`ClusterError::RouteOutOfRange`] if the
    /// router picks a server outside the fleet (the batch `run*` methods
    /// all do; [`Cluster::run_streamed`] returns the error instead).
    pub fn run(self, trace: &Trace) -> ClusterOutcome {
        self.run_with_results(trace).0
    }

    /// Serves a pull-based arrival stream through the fleet and returns
    /// the aggregated outcome.
    ///
    /// Arrivals are pulled from `source` one at a time, as the event loop
    /// reaches them: the stream is never materialized, so resident memory
    /// scales with in-flight work (plus the per-request completion records
    /// every run keeps for outcome aggregation), not with the length of
    /// the arrival stream. `run_streamed(TraceSource::new(&trace))` is
    /// bitwise-identical to `run(&trace)` — the batch path is itself built
    /// on this one.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::OutOfOrderArrival`] if the source yields
    /// arrivals out of time order (a violation of the [`ArrivalSource`]
    /// contract), and [`ClusterError::RouteOutOfRange`] if the router sends
    /// an arrival, a retry, or a requeued request outside the fleet.
    pub fn run_streamed<S: ArrivalSource>(self, source: S) -> Result<ClusterOutcome, ClusterError> {
        Ok(self.run_streamed_with_results(source)?.0)
    }

    /// Like [`Cluster::run_streamed`], but also returns each server's raw
    /// [`RunResult`], mirroring [`Cluster::run_with_results`].
    pub fn run_streamed_with_results<S: ArrivalSource>(
        self,
        mut source: S,
    ) -> Result<(ClusterOutcome, Vec<RunResult>), ClusterError> {
        let (outcome, results, _) = self.run_core(&mut source, 1, None)?;
        Ok((outcome, results))
    }

    /// Like [`Cluster::run_streamed_with_results`], but also returns the
    /// assembled [`TraceLog`], mirroring [`Cluster::run_traced`]: if no
    /// recording telemetry was attached, [`Telemetry::recording`] is
    /// enabled with its default sampling epoch.
    pub fn run_streamed_traced<S: ArrivalSource>(
        mut self,
        mut source: S,
    ) -> Result<(ClusterOutcome, Vec<RunResult>, TraceLog), ClusterError> {
        if !self.telemetry.is_enabled() {
            self.telemetry = Telemetry::recording();
        }
        let (outcome, results, log) = self.run_core(&mut source, 1, None)?;
        Ok((outcome, results, log.expect("telemetry is enabled")))
    }

    /// Like [`Cluster::run`], but also returns each server's raw
    /// [`RunResult`] (used by the equivalence suites and for per-server
    /// timelines).
    ///
    /// # Hook ordering
    ///
    /// The attached [`Migrator`] and [`FleetController`] run on their own
    /// periodic clocks, interleaved with the event stream: at a boundary
    /// time `t`, every fleet event strictly before `t` has been processed,
    /// the migrator (if both fire at `t`) rebalances first, and the fleet
    /// controller then observes the post-rebalance queues. Telemetry
    /// sampling (when recording) is its own boundary and runs *last* at
    /// equal instants, observing the post-hook fleet. Boundaries keep
    /// firing through the post-arrival drain so a trailing backlog is still
    /// rebalanced and capped. A cluster without hooks takes the exact code
    /// path (and produces the exact bits) it did before hooks existed.
    pub fn run_with_results(self, trace: &Trace) -> (ClusterOutcome, Vec<RunResult>) {
        let (outcome, results, _) = self
            .run_core(&mut TraceSource::new(trace), 1, None)
            .unwrap_or_else(|e| panic!("{e}"));
        (outcome, results)
    }

    /// Like [`Cluster::run_with_results`], but also returns the assembled
    /// [`TraceLog`]. If no recording telemetry was attached with
    /// [`Cluster::with_telemetry`], this enables [`Telemetry::recording`]
    /// with its default sampling epoch — recording never changes the
    /// simulated outcome, only observes it.
    pub fn run_traced(mut self, trace: &Trace) -> (ClusterOutcome, Vec<RunResult>, TraceLog) {
        if !self.telemetry.is_enabled() {
            self.telemetry = Telemetry::recording();
        }
        let (outcome, results, log) = self
            .run_core(&mut TraceSource::new(trace), 1, None)
            .unwrap_or_else(|e| panic!("{e}"));
        (outcome, results, log.expect("telemetry is enabled"))
    }

    /// The one event loop every public run method funnels into.
    ///
    /// `shard_count` partitions the fleet (1 = the classic single-heap
    /// loop, bit-for-bit); when a [`ShardPool`] is supplied, event windows
    /// between boundaries are drained on its worker threads whenever that
    /// is provably equivalent to the serial order (see
    /// [`EventLoop::drain`]).
    fn run_core<S: ArrivalSource>(
        mut self,
        source: &mut S,
        shard_count: usize,
        pool: Option<&ShardPool<P>>,
    ) -> Result<(ClusterOutcome, Vec<RunResult>, Option<TraceLog>), ClusterError> {
        let n = self.servers.len();
        // One view per server, maintained incrementally: only a stepped or
        // offered server's view changes, so view writes cost O(events), not
        // O(arrivals × fleet). A keyed router also routes in O(log n) per
        // changed view; any other router reads the whole slice per route.
        let mut loop_state = EventLoop::new(
            std::mem::take(&mut self.servers),
            shard_count,
            std::mem::take(&mut self.capacities),
            std::mem::take(&mut self.classes),
            self.router.as_ref(),
        );
        // The fault/lifecycle layer exists only when something was attached;
        // without it every drain takes the pre-existing unwatched path. (An
        // *empty* plan builds a layer whose next boundary is infinite — the
        // same code path with a no-op observer, which is still bit-neutral.)
        let mut layer: Option<FaultLayer> =
            if self.faults.is_some() || self.request_policy.is_some() {
                Some(FaultLayer::new(
                    self.faults.as_ref(),
                    self.request_policy.unwrap_or_default(),
                    n,
                ))
            } else {
                None
            };

        let mut fleet = self.fleet.take();
        let mut migrator = self.migrator.take();
        let epoch = fleet
            .as_deref()
            .map_or(f64::INFINITY, FleetController::epoch);
        let rebalance = migrator
            .as_deref()
            .map_or(f64::INFINITY, Migrator::interval);
        let mut hooks = Hooks {
            meter: EpochMeter::new(n),
            power: self.power,
            powers: Vec::with_capacity(n),
            commands: Vec::new(),
            moves: Vec::new(),
            batch: Vec::new(),
            // The original per-policy latency objectives: `ScaleBound`
            // commands rescale relative to these, never compounding.
            base_bounds: loop_state
                .servers()
                .map(|s| s.policy().latency_bound())
                .collect(),
            migrated: 0,
        };

        // Initial apportioning before any event, so a finite budget is in
        // force from the very first request.
        if let Some(ctl) = fleet.as_deref_mut() {
            hooks.run_epoch(ctl, 0.0, 0.0, &mut loop_state);
        }
        let mut next_epoch = epoch;
        let mut next_rebalance = rebalance;

        // Telemetry sampling shares the boundary mechanism. Disabled
        // telemetry keeps `next_sample` infinite and allocates nothing —
        // every boundary below computes exactly as it did without the
        // `.min(next_sample)` term. Enabled sampling only *partitions* the
        // drains at sample instants (events are still processed in the same
        // order), so even a recording run leaves the simulation bit-exact.
        let mut tele = std::mem::take(&mut self.telemetry);
        let sample_epoch = tele.sample_epoch().unwrap_or(f64::INFINITY);
        let mut tele_meter = tele.is_enabled().then(|| EpochMeter::new(n));
        let mut tele_powers: Vec<f64> = Vec::new();
        let mut next_sample = sample_epoch;

        // Pull arrivals lazily: the stream is consumed one request at a
        // time, so the driver's resident memory tracks in-flight work, not
        // stream length. `offered` replaces the batch path's `trace.len()`
        // in fault-layer conservation accounting.
        let mut offered = 0usize;
        let mut last_arrival = f64::NEG_INFINITY;
        while let Some(request) = source.next_arrival() {
            if !matches!(
                request.arrival.partial_cmp(&last_arrival),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            ) {
                // A misbehaving user source is an input error, not a driver
                // bug: surface it through the result path (this also traps
                // NaN arrivals, which compare as incomparable). Typed here
                // instead of an assert so `run_streamed` callers can
                // handle it.
                return Err(ClusterError::OutOfOrderArrival {
                    index: offered,
                    at: request.arrival,
                    prev: last_arrival,
                });
            }
            last_arrival = request.arrival;
            // Run any hook boundaries at or before the arrival instant
            // (boundary actions happen *between* events; an arrival at
            // exactly the boundary is routed after the hooks ran). Fault
            // work — scripted ops, retry deliveries, attempt timeouts —
            // shares the boundary mechanism and runs first at equal
            // instants, so migration and capping observe the post-fault
            // fleet.
            loop {
                let fault_b = layer
                    .as_ref()
                    .map_or(f64::INFINITY, FaultLayer::next_boundary);
                let boundary = next_rebalance.min(next_epoch).min(fault_b).min(next_sample);
                if boundary > request.arrival {
                    break;
                }
                loop_state.drain(boundary, pool, layer.as_mut(), &mut tele);
                if fault_b <= boundary {
                    let l = layer.as_mut().expect("fault boundary implies layer");
                    run_faults(
                        l,
                        &mut tele,
                        boundary,
                        self.router.as_mut(),
                        &mut loop_state,
                    )?;
                }
                if next_rebalance == boundary {
                    let m = migrator.as_deref_mut().expect("rebalance implies migrator");
                    hooks.run_migration(m, &mut tele, boundary, &mut loop_state);
                    next_rebalance += rebalance;
                }
                if next_epoch == boundary {
                    let ctl = fleet.as_deref_mut().expect("epoch implies controller");
                    hooks.run_epoch(ctl, boundary, epoch, &mut loop_state);
                    next_epoch += epoch;
                }
                if next_sample == boundary {
                    let meter = tele_meter.as_mut().expect("sampling implies telemetry");
                    sample_fleet(
                        &mut tele,
                        meter,
                        &mut tele_powers,
                        boundary,
                        &loop_state,
                        layer.as_ref(),
                        &hooks.power,
                    );
                    next_sample += sample_epoch;
                }
            }

            // Process every fleet event strictly before the arrival; events
            // at exactly the arrival instant are left for the destination
            // server's engine to order against the arrival itself.
            loop_state.drain(request.arrival, pool, layer.as_mut(), &mut tele);

            let target = loop_state.route(self.router.as_mut(), &request)?;
            loop_state.server_mut(target).offer(request);
            loop_state.schedule(target);
            if let Some(l) = layer.as_mut() {
                l.on_routed(request, target, 1, request.arrival);
            }
            tele.request_event(
                request.id,
                RequestEvent {
                    at: request.arrival,
                    kind: RequestEventKind::Routed {
                        server: target as u32,
                        attempt: 1,
                    },
                },
            );
            offered += 1;
        }

        // The stream is exhausted: no more work will ever be offered, so
        // close every server and let the remaining events drain — still
        // honouring hook boundaries while any event, retry, timeout, or
        // scripted op remains (a retried request may be delivered into a
        // closed server, and a late `Recover` must still be applied so
        // downtime closes out).
        for i in 0..n {
            loop_state.server_mut(i).close();
            loop_state.schedule(i);
        }
        loop {
            let fault_b = layer
                .as_ref()
                .map_or(f64::INFINITY, FaultLayer::next_boundary);
            let boundary = next_rebalance.min(next_epoch).min(fault_b).min(next_sample);
            loop_state.drain(boundary, pool, layer.as_mut(), &mut tele);
            if fault_b.is_infinite() && !loop_state.has_events() {
                break;
            }
            if fault_b <= boundary {
                let l = layer.as_mut().expect("fault boundary implies layer");
                run_faults(
                    l,
                    &mut tele,
                    boundary,
                    self.router.as_mut(),
                    &mut loop_state,
                )?;
            }
            if next_rebalance == boundary {
                let m = migrator.as_deref_mut().expect("rebalance implies migrator");
                hooks.run_migration(m, &mut tele, boundary, &mut loop_state);
                next_rebalance += rebalance;
            }
            if next_epoch == boundary {
                let ctl = fleet.as_deref_mut().expect("epoch implies controller");
                hooks.run_epoch(ctl, boundary, epoch, &mut loop_state);
                next_epoch += epoch;
            }
            if next_sample == boundary {
                let meter = tele_meter.as_mut().expect("sampling implies telemetry");
                sample_fleet(
                    &mut tele,
                    meter,
                    &mut tele_powers,
                    boundary,
                    &loop_state,
                    layer.as_ref(),
                    &hooks.power,
                );
                next_sample += sample_epoch;
            }
        }

        // Align every server's timeline with the fleet's end so idle/sleep
        // power is charged through the whole run: without this, a server
        // that drained early would be charged nothing while a backlogged
        // neighbour worked on, flattering imbalanced routings.
        let end = loop_state.servers().map(ServerSim::now).fold(0.0, f64::max);
        for shard in &mut loop_state.shards {
            for server in &mut shard.servers {
                server.coast_to(end);
            }
        }

        // Close out the telemetry time series with the final (possibly
        // partial) window, so the run's whole span is covered.
        if let Some(meter) = tele_meter.as_mut() {
            if end > meter.last_time() {
                sample_fleet(
                    &mut tele,
                    meter,
                    &mut tele_powers,
                    end,
                    &loop_state,
                    layer.as_ref(),
                    &hooks.power,
                );
            }
        }

        let downtimes: Vec<f64> = loop_state.servers().map(|s| s.downtime()).collect();
        let EventLoop {
            shards, classes, ..
        } = loop_state;
        // Shards are contiguous ascending blocks, so flattening them
        // restores global server order.
        let results: Vec<RunResult> = shards
            .into_iter()
            .flat_map(|shard| shard.servers)
            .map(ServerSim::finish)
            .collect();
        let mut outcome =
            ClusterOutcome::aggregate_classed(&results, Some(&classes), &self.power, self.quantile);
        outcome.migrated_requests = hooks.migrated;
        for (server, downtime) in outcome.per_server.iter_mut().zip(&downtimes) {
            server.downtime = *downtime;
        }
        if let Some(mut l) = layer {
            outcome.availability = l.finalize(offered, self.quantile, &results);
        }
        let log = tele.finalize(&results, end);
        Ok((outcome, results, log))
    }
}

impl<P: DvfsPolicy + Send> Cluster<P> {
    /// [`Cluster::run`], sharded: partitions the fleet per `shards` and
    /// drains event windows on worker threads, merging at every boundary
    /// in deterministic `(time, server)` order. **Bit-identical** to
    /// [`Cluster::run`] — outcome, per-server results, and telemetry all
    /// carry the same bytes at any shard count (pinned by the
    /// `shard_equivalence` suite).
    pub fn run_sharded(self, shards: ShardSpec, trace: &Trace) -> ClusterOutcome {
        self.run_sharded_with_results(shards, trace).0
    }

    /// [`Cluster::run_with_results`], sharded (see [`Cluster::run_sharded`]).
    pub fn run_sharded_with_results(
        self,
        shards: ShardSpec,
        trace: &Trace,
    ) -> (ClusterOutcome, Vec<RunResult>) {
        let (outcome, results, _) = self
            .run_sharded_core(&mut TraceSource::new(trace), shards.shards())
            .unwrap_or_else(|e| panic!("{e}"));
        (outcome, results)
    }

    /// [`Cluster::run_traced`], sharded (see [`Cluster::run_sharded`]).
    pub fn run_sharded_traced(
        mut self,
        shards: ShardSpec,
        trace: &Trace,
    ) -> (ClusterOutcome, Vec<RunResult>, TraceLog) {
        if !self.telemetry.is_enabled() {
            self.telemetry = Telemetry::recording();
        }
        let (outcome, results, log) = self
            .run_sharded_core(&mut TraceSource::new(trace), shards.shards())
            .unwrap_or_else(|e| panic!("{e}"));
        (outcome, results, log.expect("telemetry is enabled"))
    }

    /// [`Cluster::run_streamed`], sharded: pulls arrivals lazily from any
    /// [`ArrivalSource`] while draining event windows on worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::OutOfOrderArrival`] if the source yields
    /// arrivals out of time order.
    pub fn run_sharded_streamed<S: ArrivalSource>(
        self,
        shards: ShardSpec,
        source: S,
    ) -> Result<ClusterOutcome, ClusterError> {
        Ok(self.run_sharded_streamed_with_results(shards, source)?.0)
    }

    /// [`Cluster::run_streamed_with_results`], sharded (see
    /// [`Cluster::run_sharded_streamed`]).
    pub fn run_sharded_streamed_with_results<S: ArrivalSource>(
        self,
        shards: ShardSpec,
        mut source: S,
    ) -> Result<(ClusterOutcome, Vec<RunResult>), ClusterError> {
        let (outcome, results, _) = self.run_sharded_core(&mut source, shards.shards())?;
        Ok((outcome, results))
    }

    /// Spawns the worker pool (one thread per shard beyond the first, which
    /// the driver thread drains itself) and runs the shared core loop.
    /// Workers live for the whole run inside a [`std::thread::scope`], so
    /// non-`'static` policies work and a mid-run error still joins them.
    fn run_sharded_core<S: ArrivalSource>(
        self,
        source: &mut S,
        shard_count: usize,
    ) -> Result<(ClusterOutcome, Vec<RunResult>, Option<TraceLog>), ClusterError> {
        let k = shard_count.clamp(1, self.servers.len().max(1));
        if k <= 1 {
            return self.run_core(source, 1, None);
        }
        std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(k - 1);
            for _ in 1..k {
                let (task_tx, task_rx) = mpsc::channel::<Task<P>>();
                let (done_tx, done_rx) = mpsc::channel::<Shard<P>>();
                scope.spawn(move || worker_loop(task_rx, done_tx));
                workers.push(WorkerHandle {
                    tasks: task_tx,
                    done: done_rx,
                });
            }
            let pool = ShardPool { workers };
            self.run_core(source, k, Some(&pool))
        })
    }
}

/// A completion observed during an off-thread shard drain, replayed to the
/// fault layer at the barrier in global `(time, server)` order.
#[derive(Debug, Clone, Copy)]
struct CompletionNote {
    at: f64,
    server: usize,
    id: u64,
    latency: f64,
}

/// One shard of the fleet: a contiguous block of servers
/// `[base, base + servers.len())` with its own stamped heap. Between
/// global boundaries a shard's events are independent of every other
/// shard's, so shards drain concurrently; `dirty` and `notes` carry the
/// side effects (router-view refreshes, fault-layer completions) back to
/// the driver thread for deterministic barrier replay.
struct Shard<P: DvfsPolicy> {
    base: usize,
    servers: Vec<ServerSim<P>>,
    stamps: Vec<u64>,
    /// Heap entries carry *global* server indices, so merged serial drains
    /// order identically to the single-heap loop.
    heap: BinaryHeap<Reverse<HeapEntry>>,
    /// Global indices of servers stepped during an off-thread drain, in
    /// step order (duplicates allowed; view refresh is idempotent).
    dirty: Vec<u32>,
    /// Completions observed during an off-thread drain, in step order —
    /// which within one shard is already `(time, server)` order.
    notes: Vec<CompletionNote>,
}

impl<P: DvfsPolicy> Default for Shard<P> {
    /// An empty placeholder, swapped in while the real shard is away on a
    /// worker thread.
    fn default() -> Self {
        Self {
            base: 0,
            servers: Vec::new(),
            stamps: Vec::new(),
            heap: BinaryHeap::new(),
            dirty: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl<P: DvfsPolicy> Shard<P> {
    /// The earliest still-valid event in this shard, as `(time, global
    /// server index)`. Pops stale entries on the way — safe, because a
    /// stale entry is never processed by any drain order.
    fn peek_due(&mut self) -> Option<(f64, usize)> {
        while let Some(&Reverse(entry)) = self.heap.peek() {
            if entry.stamp == self.stamps[entry.server - self.base] {
                return Some((entry.time, entry.server));
            }
            self.heap.pop();
        }
        None
    }

    /// Steps this shard's events in `(time, server)` order while they lie
    /// strictly before `limit`, recording stepped servers in `dirty` and
    /// (when `collect`) completions in `notes`. Runs on worker threads: no
    /// router views, no fault layer, no telemetry — those are driver-side
    /// and replayed at the barrier.
    fn drain(&mut self, limit: f64, collect: bool) {
        while let Some(&Reverse(entry)) = self.heap.peek() {
            if entry.time >= limit {
                break;
            }
            self.heap.pop();
            let local = entry.server - self.base;
            if entry.stamp != self.stamps[local] {
                continue; // stale: the server was stepped or offered work since
            }
            let stepped = self.servers[local].step();
            debug_assert!(stepped.is_some(), "a scheduled event must fire");
            if collect {
                if let Some(SimEvent::Completion(rec)) = &stepped {
                    self.notes.push(CompletionNote {
                        at: rec.completion,
                        server: entry.server,
                        id: rec.id,
                        latency: rec.latency(),
                    });
                }
            }
            self.dirty.push(entry.server as u32);
            self.stamps[local] += 1;
            if let Some(time) = self.servers[local].next_event_time() {
                self.heap.push(Reverse(HeapEntry {
                    time,
                    server: entry.server,
                    stamp: self.stamps[local],
                }));
            }
        }
    }
}

/// A drain assignment shipped to a worker: the shard travels by value and
/// comes back through the worker's `done` channel.
struct Task<P: DvfsPolicy> {
    shard: Shard<P>,
    limit: f64,
    collect: bool,
}

struct WorkerHandle<P: DvfsPolicy> {
    tasks: mpsc::Sender<Task<P>>,
    done: mpsc::Receiver<Shard<P>>,
}

impl<P: DvfsPolicy> WorkerHandle<P> {
    /// Collects a drained shard, spinning briefly before parking — the
    /// barrier round-trip is the per-arrival hot path.
    fn recv_done(&self) -> Shard<P> {
        for _ in 0..4096 {
            match self.done.try_recv() {
                Ok(shard) => return shard,
                Err(mpsc::TryRecvError::Empty) => std::hint::spin_loop(),
                Err(mpsc::TryRecvError::Disconnected) => panic!("shard worker exited mid-run"),
            }
        }
        self.done.recv().expect("shard worker exited mid-run")
    }
}

/// The per-run worker pool: worker `w` serves shard `w + 1` (the driver
/// thread drains shard 0 itself, overlapping with the workers).
struct ShardPool<P: DvfsPolicy> {
    workers: Vec<WorkerHandle<P>>,
}

/// A pool worker: receives drain tasks until the pool (and its sender) is
/// dropped at the end of the run. Spins briefly between tasks before
/// falling back to a blocking receive, so back-to-back barriers don't pay
/// an OS wakeup but an idle stretch doesn't burn a core.
fn worker_loop<P: DvfsPolicy>(tasks: mpsc::Receiver<Task<P>>, done: mpsc::Sender<Shard<P>>) {
    'serve: loop {
        let mut task = None;
        for spin in 0..4096 {
            match tasks.try_recv() {
                Ok(t) => {
                    task = Some(t);
                    break;
                }
                Err(mpsc::TryRecvError::Empty) if spin % 64 == 63 => std::thread::yield_now(),
                Err(mpsc::TryRecvError::Empty) => std::hint::spin_loop(),
                Err(mpsc::TryRecvError::Disconnected) => break 'serve,
            }
        }
        let mut task = match task {
            Some(t) => t,
            None => match tasks.recv() {
                Ok(t) => t,
                Err(_) => break 'serve,
            },
        };
        task.shard.drain(task.limit, task.collect);
        if done.send(task.shard).is_err() {
            break 'serve;
        }
    }
}

/// The driver's event-loop state: the fleet partitioned into shards (one
/// for the classic serial loop), the incrementally maintained router
/// views, and the static per-server labels the views carry.
struct EventLoop<P: DvfsPolicy> {
    shards: Vec<Shard<P>>,
    /// Global server index → owning shard.
    owner: Vec<u32>,
    views: Vec<ServerView>,
    /// The keys of a keyed router over `views` (`None` for every other
    /// router, decided once per run). Every view write marks the server.
    tree: Option<RouteTree>,
    capacities: Vec<f64>,
    classes: Vec<u32>,
    healths: Vec<ServerHealth>,
    /// Reused per-barrier scratch: which shards had due work this window.
    scratch_active: Vec<bool>,
    /// Reused per-barrier scratch: per-shard cursors for the notes merge.
    scratch_cursors: Vec<usize>,
}

impl<P: DvfsPolicy> EventLoop<P> {
    /// Partitions `servers` into `shard_count` contiguous balanced blocks
    /// (clamped to the fleet size) and seeds each shard's heap, every
    /// router view, and — when `router` is keyed — the route tree.
    fn new(
        servers: Vec<ServerSim<P>>,
        shard_count: usize,
        capacities: Vec<f64>,
        classes: Vec<u32>,
        router: &dyn Router,
    ) -> Self {
        let n = servers.len();
        let k = shard_count.clamp(1, n.max(1));
        let mut owner = vec![0u32; n];
        let mut shards: Vec<Shard<P>> = Vec::with_capacity(k);
        let mut remaining = servers.into_iter();
        let mut base = 0usize;
        for s in 0..k {
            let size = n / k + usize::from(s < n % k);
            let block: Vec<ServerSim<P>> = remaining.by_ref().take(size).collect();
            for slot in &mut owner[base..base + size] {
                *slot = s as u32;
            }
            let mut shard = Shard {
                base,
                servers: block,
                stamps: vec![0; size],
                heap: BinaryHeap::with_capacity(2 * size),
                dirty: Vec::new(),
                notes: Vec::new(),
            };
            for local in 0..size {
                if let Some(time) = shard.servers[local].next_event_time() {
                    shard.heap.push(Reverse(HeapEntry {
                        time,
                        server: base + local,
                        stamp: 0,
                    }));
                }
            }
            base += size;
            shards.push(shard);
        }
        let mut state = Self {
            shards,
            owner,
            views: Vec::with_capacity(n),
            tree: None,
            capacities,
            classes,
            healths: vec![ServerHealth::Up; n],
            scratch_active: Vec::new(),
            scratch_cursors: Vec::new(),
        };
        for i in 0..n {
            let view = state.view_of(i);
            state.views.push(view);
        }
        state.tree = RouteTree::build(router, &state.views);
        state
    }

    /// Number of servers in the fleet.
    fn len(&self) -> usize {
        self.owner.len()
    }

    fn server(&self, i: usize) -> &ServerSim<P> {
        let shard = &self.shards[self.owner[i] as usize];
        &shard.servers[i - shard.base]
    }

    fn server_mut(&mut self, i: usize) -> &mut ServerSim<P> {
        let shard = &mut self.shards[self.owner[i] as usize];
        &mut shard.servers[i - shard.base]
    }

    /// Every server, in global index order (shards are contiguous
    /// ascending blocks).
    fn servers(&self) -> impl Iterator<Item = &ServerSim<P>> {
        self.shards.iter().flat_map(|shard| shard.servers.iter())
    }

    /// Whether any server still has a pending event.
    fn has_events(&self) -> bool {
        self.servers().any(|s| s.next_event_time().is_some())
    }

    fn view_of(&self, i: usize) -> ServerView {
        let s = self.server(i);
        ServerView {
            index: i,
            in_flight: s.in_flight(),
            admitted: s.pending_requests(),
            queued: s.queued_len(),
            current_freq: s.current_freq(),
            target_freq: s.target_freq(),
            busy: !s.is_idle(),
            capacity: self.capacities[i],
            class: self.classes[i],
            health: self.healths[i],
        }
    }

    /// Rewrites server `i`'s router view from its current state.
    fn refresh_view(&mut self, i: usize) {
        self.views[i] = self.view_of(i);
        if let Some(tree) = &mut self.tree {
            tree.mark(i);
        }
    }

    /// Routes `request` — an arrival, a retry, or a crash-drain requeue —
    /// from the route tree when the router is keyed and from the full view
    /// slice otherwise, rejecting a choice outside the fleet.
    fn route(
        &mut self,
        router: &mut dyn Router,
        request: &RequestSpec,
    ) -> Result<usize, ClusterError> {
        let target = match &mut self.tree {
            Some(tree) => tree.route(router, &self.views),
            None => router.route(request, &self.views),
        };
        if target < self.len() {
            Ok(target)
        } else {
            Err(ClusterError::RouteOutOfRange {
                router: router.name().to_string(),
                server: target,
                fleet: self.len(),
            })
        }
    }

    /// Re-registers server `i` after its state changed: refreshes its router
    /// view, advances its stamp (invalidating any entry already in its
    /// shard's heap), and pushes its current next-event time, if any.
    fn schedule(&mut self, i: usize) {
        self.refresh_view(i);
        let shard = &mut self.shards[self.owner[i] as usize];
        let local = i - shard.base;
        shard.stamps[local] += 1;
        if let Some(time) = shard.servers[local].next_event_time() {
            shard.heap.push(Reverse(HeapEntry {
                time,
                server: i,
                stamp: shard.stamps[local],
            }));
        }
    }

    /// Drains every fleet event strictly before `limit`, choosing between
    /// the merged serial order and the sharded parallel path.
    ///
    /// The parallel path is taken only when it is provably bit-identical
    /// to the serial one: server simulations are independent inside an
    /// event window, and with hedging disabled the fault layer's
    /// per-completion bookkeeping (retiring pending attempts) commutes —
    /// the barrier replay in global `(time, server)` order reproduces the
    /// serial layer state exactly. A hedged completion, by contrast,
    /// cancels the losing copy on *another* server mid-window, so hedged
    /// runs always use the merged serial drain.
    fn drain(
        &mut self,
        limit: f64,
        pool: Option<&ShardPool<P>>,
        layer: Option<&mut FaultLayer>,
        tele: &mut Telemetry,
    ) {
        match pool {
            Some(pool) if !layer.as_ref().is_some_and(|l| l.hedging_enabled()) => {
                self.drain_parallel(limit, pool, layer);
            }
            _ => self.drain_serial(limit, layer, tele),
        }
    }

    /// Steps fleet events in `(time, server)` order while they lie strictly
    /// before `limit`, merging across shard heaps (with one shard this is
    /// the classic single-heap loop). When a fault layer is attached,
    /// completions are reported to it so pending timeouts are retired — and
    /// a completion that resolves a hedged pair cancels the losing copy on
    /// the spot (first-completion-wins).
    fn drain_serial(
        &mut self,
        limit: f64,
        mut layer: Option<&mut FaultLayer>,
        tele: &mut Telemetry,
    ) {
        loop {
            // The earliest still-valid entry across shards, ordered by
            // (time, server) — exactly the single-heap pop order, since a
            // server lives in exactly one shard.
            let mut best: Option<(f64, usize, usize)> = None;
            for (s, shard) in self.shards.iter_mut().enumerate() {
                if let Some((time, server)) = shard.peek_due() {
                    if time < limit && best.is_none_or(|(bt, bs, _)| (time, server) < (bt, bs)) {
                        best = Some((time, server, s));
                    }
                }
            }
            let Some((_, server, s)) = best else { break };
            let stepped = {
                let shard = &mut self.shards[s];
                shard.heap.pop();
                shard.servers[server - shard.base].step()
            };
            debug_assert!(stepped.is_some(), "a scheduled event must fire");
            if let (Some(SimEvent::Completion(rec)), Some(l)) = (&stepped, layer.as_deref_mut()) {
                if let Some(res) = l.on_completion(rec.id, server, rec.latency()) {
                    resolve_hedge(self, tele, rec.id, rec.completion, server, res);
                }
            }
            self.schedule(server);
        }
    }

    /// Drains shards concurrently up to `limit`: dispatches every shard
    /// with due work to its worker (the driver thread takes the first
    /// active shard itself), then replays the side effects at the barrier —
    /// router-view refreshes, and fault-layer completions merged across
    /// shards in global `(time, server)` order.
    fn drain_parallel(&mut self, limit: f64, pool: &ShardPool<P>, layer: Option<&mut FaultLayer>) {
        let k = self.shards.len();
        self.scratch_active.clear();
        self.scratch_active.resize(k, false);
        let mut active = 0usize;
        let mut first = usize::MAX;
        for s in 0..k {
            if self.shards[s].peek_due().is_some_and(|(t, _)| t < limit) {
                self.scratch_active[s] = true;
                active += 1;
                first = first.min(s);
            }
        }
        if active == 0 {
            return;
        }
        let collect = layer.is_some();
        for s in (first + 1)..k {
            if self.scratch_active[s] {
                let shard = std::mem::take(&mut self.shards[s]);
                pool.workers[s - 1]
                    .tasks
                    .send(Task {
                        shard,
                        limit,
                        collect,
                    })
                    .expect("shard worker exited mid-run");
            }
        }
        self.shards[first].drain(limit, collect);
        for s in (first + 1)..k {
            if self.scratch_active[s] {
                self.shards[s] = pool.workers[s - 1].recv_done();
            }
        }

        // Barrier, part 1: refresh the router view of every server stepped
        // off-thread. Order doesn't matter (refresh is idempotent and views
        // are only read after the drain); the work is the same O(events)
        // view writes the serial path does inline.
        for s in first..k {
            if !self.scratch_active[s] {
                continue;
            }
            let dirty = std::mem::take(&mut self.shards[s].dirty);
            for &i in &dirty {
                self.refresh_view(i as usize);
            }
            let mut dirty = dirty;
            dirty.clear();
            self.shards[s].dirty = dirty;
        }

        // Barrier, part 2: replay completions to the fault layer in global
        // (time, server) order — a k-way merge over the shards' note lists,
        // each already sorted by its own drain order. With hedging disabled
        // (guaranteed on this path) no completion resolves a hedge, so
        // replay leaves the layer in exactly the serial drain's state.
        if let Some(l) = layer {
            self.scratch_cursors.clear();
            self.scratch_cursors.resize(k, 0);
            loop {
                let mut best: Option<(f64, usize, usize)> = None;
                for s in first..k {
                    if let Some(note) = self.shards[s].notes.get(self.scratch_cursors[s]) {
                        if best.is_none_or(|(bt, bs, _)| (note.at, note.server) < (bt, bs)) {
                            best = Some((note.at, note.server, s));
                        }
                    }
                }
                let Some((_, _, s)) = best else { break };
                let note = self.shards[s].notes[self.scratch_cursors[s]];
                self.scratch_cursors[s] += 1;
                let resolved = l.on_completion(note.id, note.server, note.latency);
                debug_assert!(resolved.is_none(), "hedged runs must drain serially");
            }
            for shard in &mut self.shards {
                shard.notes.clear();
            }
        }
    }
}

/// Cancels the losing copy of a resolved hedged pair after the other copy
/// completed at `at` on `winner`. The layer's `loser` server is a hint — a
/// migrator may have moved the copy since it was tracked — so a miss falls
/// back to a fleet-wide search. Cancellation is safe here because every
/// fleet event strictly before `at` has already been processed: the losing
/// copy's next event (if any) cannot lie in the cancelled past.
fn resolve_hedge<P: DvfsPolicy>(
    state: &mut EventLoop<P>,
    tele: &mut Telemetry,
    id: u64,
    at: f64,
    winner: usize,
    res: HedgeResolution,
) {
    if res.hedge_won {
        tele.request_event(
            id,
            RequestEvent {
                at,
                kind: RequestEventKind::HedgeWon {
                    server: winner as u32,
                },
            },
        );
    }
    // A server that coasted past `at` (e.g. under an earlier fault
    // alignment at this same boundary) cancels at its own clock instead.
    let cancel = |state: &mut EventLoop<P>, j: usize| {
        let t = at.max(state.server(j).now());
        state.server_mut(j).cancel(t, id).is_some()
    };
    let found = if cancel(state, res.loser) {
        Some(res.loser)
    } else {
        (0..state.len()).find(|&j| j != res.loser && cancel(state, j))
    };
    if let Some(j) = found {
        state.schedule(j);
        tele.request_event(
            id,
            RequestEvent {
                at,
                kind: RequestEventKind::HedgeCancelled { server: j as u32 },
            },
        );
    }
}

/// Steps one server's events up to and including `t` (reporting completions
/// to the fault layer, resolving hedged pairs), then aligns its clock to
/// exactly `t` so a fault op applies at its scripted instant — the
/// straggler factor, stuck frequency, or failure takes effect at `t`, not
/// at the server's last event.
fn align_server_to<P: DvfsPolicy>(
    state: &mut EventLoop<P>,
    i: usize,
    t: f64,
    layer: &mut FaultLayer,
    tele: &mut Telemetry,
) {
    while state.server(i).next_event_time().is_some_and(|te| te <= t) {
        if let Some(SimEvent::Completion(rec)) = state.server_mut(i).step() {
            if let Some(res) = layer.on_completion(rec.id, i, rec.latency()) {
                resolve_hedge(state, tele, rec.id, rec.completion, i, res);
            }
        }
    }
    state.server_mut(i).coast_to(t);
}

/// Applies every scripted op, retry delivery, hedge launch, and attempt
/// timeout due at `now`, in that order (ops change health, which retry and
/// hedge routing observe; hedges precede timeouts so a launch due at `now`
/// supersedes a timeout due at the same instant; timeouts run last so a
/// retry delivered at `now` cannot time out at `now`). All server mutation
/// happens here, against the same views and scheduling discipline as
/// routing — one deterministic sequence regardless of sweep threading.
///
/// # Errors
///
/// Returns [`ClusterError::RouteOutOfRange`] if the router sends a retry
/// or a requeued request outside the fleet.
fn run_faults<P: DvfsPolicy>(
    layer: &mut FaultLayer,
    tele: &mut Telemetry,
    now: f64,
    router: &mut dyn Router,
    state: &mut EventLoop<P>,
) -> Result<(), ClusterError> {
    while let Some(op) = layer.pop_due_op(now) {
        align_server_to(state, op.server, now, layer, tele);
        let effective = layer.track_op(&op);
        match op.kind {
            OpKind::Crash => {
                tele.server_event(ServerEvent {
                    at: now,
                    server: op.server as u32,
                    kind: ServerEventKind::Down,
                });
                let in_flight = state.server_mut(op.server).fail(now);
                state.healths[op.server] = layer.health_of(op.server);
                if let Some(spec) = in_flight {
                    if layer.copy_lost(spec.id, op.server) {
                        // One copy of a hedged pair died with the server;
                        // the twin is still live, so there is nothing to
                        // salvage or drop.
                    } else if layer.policy().salvage_in_flight {
                        layer.salvage(spec, now);
                        tele.request_event(
                            spec.id,
                            RequestEvent {
                                at: now,
                                kind: RequestEventKind::Salvaged {
                                    server: op.server as u32,
                                },
                            },
                        );
                    } else {
                        layer.drop_in_flight(spec.id);
                        tele.request_event(
                            spec.id,
                            RequestEvent {
                                at: now,
                                kind: RequestEventKind::Dropped {
                                    server: op.server as u32,
                                },
                            },
                        );
                    }
                }
                state.schedule(op.server);
                if layer.policy().drain_on_crash {
                    let mut stranded = Vec::new();
                    while let Some(spec) = state.server_mut(op.server).steal_queued() {
                        stranded.push(spec);
                    }
                    state.schedule(op.server);
                    // Stealing pops the FIFO back-to-front; re-routing in
                    // reverse preserves arrival order across the receivers.
                    for spec in stranded.into_iter().rev() {
                        let target = state.route(router, &spec)?;
                        state.server_mut(target).inject(now, spec);
                        layer.requeued(spec.id, op.server, target);
                        tele.request_event(
                            spec.id,
                            RequestEvent {
                                at: now,
                                kind: RequestEventKind::Requeued {
                                    from: op.server as u32,
                                    to: target as u32,
                                },
                            },
                        );
                        state.schedule(target);
                    }
                }
            }
            OpKind::Recover => {
                tele.server_event(ServerEvent {
                    at: now,
                    server: op.server as u32,
                    kind: ServerEventKind::Up,
                });
                if state.server(op.server).is_down() {
                    state.server_mut(op.server).recover(now);
                }
                if state.server(op.server).stuck_freq().is_some() {
                    state.server_mut(op.server).stick_freq(None);
                }
                state.healths[op.server] = layer.health_of(op.server);
                state.schedule(op.server);
            }
            OpKind::StraggleStart { slowdown, .. } => {
                tele.server_event(ServerEvent {
                    at: now,
                    server: op.server as u32,
                    kind: ServerEventKind::StraggleStart { slowdown },
                });
                state.server_mut(op.server).set_slowdown(slowdown);
                state.healths[op.server] = layer.health_of(op.server);
                state.schedule(op.server);
            }
            OpKind::StraggleEnd => {
                if effective {
                    state.server_mut(op.server).set_slowdown(1.0);
                    tele.server_event(ServerEvent {
                        at: now,
                        server: op.server as u32,
                        kind: ServerEventKind::StraggleEnd,
                    });
                }
                state.healths[op.server] = layer.health_of(op.server);
                state.schedule(op.server);
            }
            OpKind::Stick { level } => {
                tele.server_event(ServerEvent {
                    at: now,
                    server: op.server as u32,
                    kind: ServerEventKind::FreqStuck {
                        mhz: level.map(|f| f.mhz()),
                    },
                });
                state.server_mut(op.server).stick_freq(level);
                state.schedule(op.server);
            }
        }
    }
    // Retry deliveries due now, including work salvaged from a crash at
    // this very instant. The router sees live (post-fault) views; wrap it
    // in `HealthAware` to keep retries off down or straggling servers.
    while let Some((spec, attempt)) = layer.pop_due_retry(now) {
        let target = state.route(router, &spec)?;
        state.server_mut(target).inject(now, spec);
        layer.on_routed(spec, target, attempt, now);
        tele.request_event(
            spec.id,
            RequestEvent {
                at: now,
                kind: RequestEventKind::Routed {
                    server: target as u32,
                    attempt,
                },
            },
        );
        state.schedule(target);
    }
    // Hedge launches due now: inject a duplicate of the still-pending
    // attempt on the shortest-queue routable server other than the one
    // already holding it (the same `(in_flight, index)` key JSQ uses).
    // With no second routable candidate the launch is skipped — hedging
    // never stacks both copies on one server or feeds a down one.
    while let Some((spec, attempt, primary)) = layer.pop_due_hedge(now) {
        let target = state
            .views
            .iter()
            .filter(|v| v.index != primary && v.health.routable())
            .min_by_key(|v| (v.in_flight, v.index))
            .map(|v| v.index);
        let Some(target) = target else {
            continue;
        };
        state.server_mut(target).inject(now, spec);
        layer.hedge_launched(spec.id, target);
        tele.request_event(
            spec.id,
            RequestEvent {
                at: now,
                kind: RequestEventKind::Hedged {
                    server: target as u32,
                    attempt,
                },
            },
        );
        state.schedule(target);
    }
    // Attempt timeouts: pull timed-out requests off their queues and hand
    // them to the retry schedule. Work already in service is never
    // interrupted — the timeout is recorded and the attempt runs out.
    while let Some((id, attempt, server)) = layer.pop_due_timeout(now) {
        if let Some(spec) = state.server_mut(server).remove_queued(id) {
            tele.request_event(
                id,
                RequestEvent {
                    at: now,
                    kind: RequestEventKind::TimedOut {
                        server: server as u32,
                        attempt,
                    },
                },
            );
            match layer.retry_or_drop(spec, attempt, now) {
                Some(due) => tele.request_event(
                    id,
                    RequestEvent {
                        at: now,
                        kind: RequestEventKind::Backoff { until: due },
                    },
                ),
                None => tele.request_event(
                    id,
                    RequestEvent {
                        at: now,
                        kind: RequestEventKind::Dropped {
                            server: server as u32,
                        },
                    },
                ),
            }
            state.schedule(server);
        }
    }
    Ok(())
}

/// Takes one telemetry sample window ending at `now`: per-server mean power
/// over the window (via a dedicated [`EpochMeter`], independent of the
/// fleet controller's), queue/in-flight/DVFS snapshots from the live router
/// views, and cumulative retry/timeout counters from the fault layer.
#[allow(clippy::too_many_arguments)]
fn sample_fleet<P: DvfsPolicy>(
    tele: &mut Telemetry,
    meter: &mut EpochMeter,
    powers: &mut Vec<f64>,
    now: f64,
    state: &EventLoop<P>,
    layer: Option<&FaultLayer>,
    power: &CorePowerModel,
) {
    let start = meter.last_time();
    meter.measure(state.servers(), power, now, powers);
    let per_server: Vec<ServerSample> = state
        .views
        .iter()
        .zip(powers.iter())
        .map(|(view, &watts)| ServerSample {
            queued: view.queued as u32,
            in_flight: view.in_flight as u32,
            freq_mhz: view.current_freq.mhz(),
            power: watts,
            down: view.health == ServerHealth::Down,
        })
        .collect();
    let (retries, timeouts) = layer.map_or((0, 0), |l| {
        (l.stats().retries as u64, l.stats().timeouts as u64)
    });
    tele.epoch_sample(EpochSample {
        start,
        end: now,
        power: powers.iter().sum(),
        queued: per_server.iter().map(|s| s.queued).sum(),
        in_flight: per_server.iter().map(|s| s.in_flight).sum(),
        completions: 0, // filled at finalize by bucketing records
        retries,
        timeouts,
        per_server,
    });
}

/// Scratch state for the migration and power-capping hooks.
struct Hooks {
    meter: EpochMeter,
    power: CorePowerModel,
    powers: Vec<f64>,
    commands: Vec<FleetCommand>,
    moves: Vec<Migration>,
    batch: Vec<RequestSpec>,
    base_bounds: Vec<Option<f64>>,
    migrated: usize,
}

impl Hooks {
    /// Runs one migration boundary: plan against the live views, then move
    /// each planned batch donor-tail → receiver, preserving arrival order
    /// within the batch.
    fn run_migration<P: DvfsPolicy>(
        &mut self,
        migrator: &mut dyn Migrator,
        tele: &mut Telemetry,
        now: f64,
        state: &mut EventLoop<P>,
    ) {
        self.moves.clear();
        migrator.plan(now, &state.views, &mut self.moves);
        for k in 0..self.moves.len() {
            let m = self.moves[k];
            assert!(
                m.from < state.len() && m.to < state.len() && m.from != m.to,
                "migrator {} planned an invalid move {m:?}",
                migrator.name()
            );
            self.batch.clear();
            for _ in 0..m.count {
                match state.server_mut(m.from).steal_queued() {
                    Some(spec) => self.batch.push(spec),
                    None => break, // queue shorter than planned: move less
                }
            }
            if self.batch.is_empty() {
                continue;
            }
            self.migrated += self.batch.len();
            // Stealing pops the donor's FIFO tail back-to-front; injecting
            // in reverse restores arrival order on the receiver. Injection
            // happens at the boundary instant, advancing the receiver's
            // clock to `now` first.
            for spec in self.batch.drain(..).rev() {
                state.server_mut(m.to).inject(now, spec);
                tele.request_event(
                    spec.id,
                    RequestEvent {
                        at: now,
                        kind: RequestEventKind::Migrated {
                            from: m.from as u32,
                            to: m.to as u32,
                        },
                    },
                );
            }
            state.schedule(m.from);
            state.schedule(m.to);
        }
    }

    /// Runs one fleet-controller epoch: measure per-server power over the
    /// closing window, let the controller command, and apply the commands.
    fn run_epoch<P: DvfsPolicy>(
        &mut self,
        ctl: &mut dyn FleetController,
        now: f64,
        elapsed: f64,
        state: &mut EventLoop<P>,
    ) {
        if elapsed > 0.0 {
            self.meter
                .measure(state.servers(), &self.power, now, &mut self.powers);
        } else {
            self.powers.clear();
            self.powers.resize(state.len(), 0.0);
        }
        let power_views: Vec<ServerPowerView<'_>> = state
            .views
            .iter()
            .zip(state.servers())
            .zip(&self.powers)
            .map(|((&view, server), &measured_power)| ServerPowerView {
                view,
                dvfs: &server.config().dvfs,
                measured_power,
            })
            .collect();
        self.commands.clear();
        ctl.on_epoch(now, elapsed, &power_views, &mut self.commands);
        drop(power_views);
        for k in 0..self.commands.len() {
            match self.commands[k] {
                FleetCommand::SetCeiling { server, ceiling } => {
                    assert!(server < state.len(), "ceiling for unknown server");
                    state.server_mut(server).retarget(ceiling);
                    // A retarget can start a V/F transition, changing the
                    // server's next event time.
                    state.schedule(server);
                }
                FleetCommand::ScaleBound { server, scale } => {
                    assert!(server < state.len(), "bound scale for unknown server");
                    assert!(
                        scale > 0.0 && scale.is_finite(),
                        "bound scale must be positive and finite"
                    );
                    if let Some(base) = self.base_bounds[server] {
                        state
                            .server_mut(server)
                            .policy_mut()
                            .set_latency_bound(base * scale);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{JoinShortestQueue, Passthrough, RoundRobin};
    use rubik_sim::{FixedFrequencyPolicy, RequestSpec};

    fn config() -> SimConfig {
        SimConfig::paper_simulated()
    }

    fn fixed(config: &SimConfig) -> impl FnMut(usize) -> FixedFrequencyPolicy + '_ {
        move |_| FixedFrequencyPolicy::new(config.dvfs.nominal())
    }

    fn burst(n: usize, gap: f64) -> Trace {
        (0..n as u64)
            .map(|i| RequestSpec::new(i, i as f64 * gap, 1.2e6, 0.0))
            .collect()
    }

    #[test]
    fn all_requests_complete_across_the_fleet() {
        let cfg = config();
        let cluster = Cluster::new(cfg.clone(), 4, Box::new(RoundRobin::new()), fixed(&cfg));
        let outcome = cluster.run(&burst(200, 1e-4));
        assert_eq!(outcome.requests, 200);
        assert_eq!(outcome.servers(), 4);
        // Round-robin spreads a uniform stream evenly.
        for s in &outcome.per_server {
            assert_eq!(s.requests, 50);
        }
        assert!(outcome.tail_latency > 0.0);
        assert!(outcome.fleet_energy > 0.0);
    }

    #[test]
    fn jsq_beats_round_robin_on_tail_under_bursts() {
        // Requests arrive in simultaneous pairs; with 2 servers, round-robin
        // sends each pair to both servers (fine), but a skewed stream shows
        // the difference. Use simultaneous triples on 2 servers: JSQ never
        // stacks 3 on one server, round-robin does every other round.
        let cfg = config();
        let trace: Trace = (0..60u64)
            .map(|i| RequestSpec::new(i, (i / 3) as f64 * 2e-3, 2.4e6, 0.0))
            .collect();
        let rr = Cluster::new(cfg.clone(), 2, Box::new(RoundRobin::new()), fixed(&cfg));
        let jsq = Cluster::new(
            cfg.clone(),
            2,
            Box::new(JoinShortestQueue::new()),
            fixed(&cfg),
        );
        let rr_out = rr.run(&trace);
        let jsq_out = jsq.run(&trace);
        assert_eq!(rr_out.requests, 60);
        assert_eq!(jsq_out.requests, 60);
        assert!(
            jsq_out.tail_latency <= rr_out.tail_latency + 1e-12,
            "JSQ tail {} vs RR tail {}",
            jsq_out.tail_latency,
            rr_out.tail_latency
        );
    }

    #[test]
    fn empty_trace_produces_empty_outcome() {
        let cfg = config();
        let cluster = Cluster::new(cfg.clone(), 3, Box::new(Passthrough), fixed(&cfg));
        let (outcome, results) = cluster.run_with_results(&Trace::default());
        assert_eq!(outcome.requests, 0);
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.records().is_empty());
        }
    }

    #[test]
    fn run_is_deterministic_for_a_fixed_input() {
        let cfg = config();
        let trace = burst(120, 3e-4);
        let run =
            |router: Box<dyn Router>| Cluster::new(cfg.clone(), 3, router, fixed(&cfg)).run(&trace);
        let a = run(Box::new(JoinShortestQueue::new()));
        let b = run(Box::new(JoinShortestQueue::new()));
        assert_eq!(a, b);
    }

    #[test]
    fn boxed_policies_allow_heterogeneous_fleets() {
        let cfg = config();
        let slow = cfg.dvfs.min();
        let fast = cfg.dvfs.nominal();
        let cluster = Cluster::new(
            cfg.clone(),
            2,
            Box::new(RoundRobin::new()),
            |i| -> Box<dyn DvfsPolicy> {
                Box::new(FixedFrequencyPolicy::new(if i == 0 { slow } else { fast }))
            },
        );
        let outcome = cluster.run(&burst(40, 2e-3));
        // The slow server burns less power but is slower per request.
        assert!(outcome.per_server[0].tail_latency > outcome.per_server[1].tail_latency);
        assert!(outcome.per_server[0].busy_time > outcome.per_server[1].busy_time);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_server_cluster_panics() {
        let cfg = config();
        let _ = Cluster::new(cfg.clone(), 0, Box::new(Passthrough), fixed(&cfg));
    }

    /// Routes round-robin, except that it answers one past the end of the
    /// fleet for request `bad` and for any request it has seen before (a
    /// retry or a crash-drain requeue).
    struct Rogue {
        next: usize,
        seen: std::collections::HashSet<u64>,
        bad: Option<u64>,
    }

    impl Rogue {
        fn new(bad: Option<u64>) -> Box<Self> {
            Box::new(Self {
                next: 0,
                seen: Default::default(),
                bad,
            })
        }
    }

    impl Router for Rogue {
        fn name(&self) -> &str {
            "rogue"
        }

        fn route(&mut self, request: &RequestSpec, servers: &[ServerView]) -> usize {
            if !self.seen.insert(request.id) || self.bad == Some(request.id) {
                return servers.len();
            }
            self.next += 1;
            (self.next - 1) % servers.len()
        }
    }

    /// Two servers behind `router`, with server 0 crashing mid-burst.
    fn crashing(router: Box<Rogue>, policy: RequestPolicy) -> Cluster<FixedFrequencyPolicy> {
        let cfg = config();
        Cluster::new(cfg.clone(), 2, router, fixed(&cfg))
            .with_fault_plan(FaultPlan::new().crash(0, 2e-3).recover(0, 4e-3))
            .with_request_policy(policy)
    }

    fn out_of_range() -> ClusterError {
        ClusterError::RouteOutOfRange {
            router: "rogue".to_string(),
            server: 2,
            fleet: 2,
        }
    }

    #[test]
    fn a_retry_routed_out_of_range_is_a_typed_error() {
        // The crash salvages server 0's in-service request into a retry:
        // the first repeat sighting, so the first bad choice.
        let cluster = crashing(Rogue::new(None), RequestPolicy::new().salvaging_in_flight());
        let err = cluster
            .run_streamed(TraceSource::new(&burst(40, 1e-4)))
            .unwrap_err();
        assert_eq!(err, out_of_range());
    }

    #[test]
    fn a_requeue_routed_out_of_range_is_a_typed_error() {
        // Without salvage, the crash drains server 0's queue through the
        // router instead.
        let cluster = crashing(Rogue::new(None), RequestPolicy::new().draining_on_crash());
        let err = cluster
            .run_streamed(TraceSource::new(&burst(40, 1e-4)))
            .unwrap_err();
        assert_eq!(err, out_of_range());
    }

    #[test]
    fn an_arrival_routed_out_of_range_is_a_typed_error() {
        let cfg = config();
        let cluster = Cluster::new(cfg.clone(), 2, Rogue::new(Some(5)), fixed(&cfg));
        let err = cluster
            .run_streamed_with_results(TraceSource::new(&burst(40, 1e-4)))
            .unwrap_err();
        assert_eq!(err, out_of_range());
        assert_eq!(
            err.to_string(),
            "router rogue chose server 2 of a 2-server fleet"
        );
    }

    #[test]
    #[should_panic(expected = "router rogue chose server 2 of a 2-server fleet")]
    fn a_batch_run_panics_with_the_route_error() {
        let cfg = config();
        let cluster = Cluster::new(cfg.clone(), 2, Rogue::new(Some(5)), fixed(&cfg));
        let _ = cluster.run(&burst(40, 1e-4));
    }
}
