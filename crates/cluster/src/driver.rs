//! The cluster driver: N `ServerSim`s multiplexed through one event loop.
//!
//! Every server is an independent open-loop simulation
//! ([`rubik_sim::ServerSim`]); the driver keeps one event slot per server,
//! holding that server's next event time, and always advances the globally
//! earliest event, so thousands of servers run in one process with no
//! threads and no per-server clocks to reconcile. Arrivals from the global
//! request stream are routed by a [`Router`] and offered to the chosen
//! server, whose own engine then sequences the arrival against its pending
//! completions, transitions, and ticks.
//!
//! # Event ordering and determinism
//!
//! The slots form a tournament tree ordered by `(time, server index)`, so
//! the root is the fleet's next event and servers whose events tie — every
//! server's periodic tick falls on the same instants — step in index order.
//! Every routing decision observes the fleet *after* all server events
//! strictly before the arrival instant have been processed (events at
//! exactly the arrival instant are sequenced by the destination server's
//! own round order, which is what makes a 1-server cluster
//! bitwise-identical to [`rubik_sim::Server::run`]). Whenever a server is
//! stepped, offered work, or changed by a boundary hook, its slot is
//! rewritten in place with its new next event time (+∞ when it has none),
//! so the tree never holds an out-of-date entry and the root alone says
//! whether the fleet has work left. The whole loop is sequential and
//! deterministic — fleet-scale parallelism comes from sweeping many cluster
//! cells on `rubik-sweep`, not from threading inside one cluster.

use rubik_load::{ArrivalSource, TraceSource};
use rubik_power::CorePowerModel;
use rubik_sim::{DvfsPolicy, RequestSpec, RunResult, ServerSim, SimConfig, SimEvent, Trace};

use crate::fault::{FaultLayer, FaultPlan, HedgeResolution, OpKind, RequestPolicy};
use crate::fleet::{EpochMeter, FleetCommand, FleetController, FleetSpec, ServerPowerView};
use crate::migrate::{Migration, Migrator};
use crate::min_tree::{from_total_order_bits, total_order_bits, MinTree};
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
    /// A [`Migrator`] planned a move that names a server outside the fleet
    /// or moves a server's queue onto itself. The run is abandoned like an
    /// out-of-range route: it produces no outcome.
    InvalidMigration {
        /// The migrator's [`name`](Migrator::name).
        migrator: String,
        /// The offending move.
        migration: Migration,
    },
    /// A [`FleetController`] issued a command that names a server outside
    /// the fleet, or a [`FleetCommand::ScaleBound`] whose scale is not
    /// positive and finite. The run is abandoned like an out-of-range
    /// route: it produces no outcome.
    InvalidFleetCommand {
        /// The controller's [`name`](FleetController::name).
        controller: String,
        /// The offending command.
        command: FleetCommand,
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
            ClusterError::InvalidMigration {
                migrator,
                migration,
            } => write!(
                f,
                "migrator {migrator} planned an invalid move {migration:?}"
            ),
            ClusterError::InvalidFleetCommand {
                controller,
                command,
            } => write!(
                f,
                "fleet controller {controller} issued an invalid command {command:?}"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

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
    /// Panics with the error's message if the router picks a server outside
    /// the fleet ([`ClusterError::RouteOutOfRange`]), the migrator plans an
    /// invalid move ([`ClusterError::InvalidMigration`]), or the fleet
    /// controller issues an invalid command
    /// ([`ClusterError::InvalidFleetCommand`]). The batch `run*` methods all
    /// do; [`Cluster::run_streamed`] returns the error instead.
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
    /// contract), [`ClusterError::RouteOutOfRange`] if the router sends an
    /// arrival, a retry, or a requeued request outside the fleet,
    /// [`ClusterError::InvalidMigration`] if the migrator plans a move that
    /// names a server outside the fleet or moves a server's queue onto
    /// itself, and [`ClusterError::InvalidFleetCommand`] if the fleet
    /// controller commands an unknown server or scales a bound by a
    /// non-positive or non-finite factor.
    pub fn run_streamed<S: ArrivalSource>(self, source: S) -> Result<ClusterOutcome, ClusterError> {
        Ok(self.run_streamed_with_results(source)?.0)
    }

    /// Like [`Cluster::run_streamed`], but also returns each server's raw
    /// [`RunResult`], mirroring [`Cluster::run_with_results`].
    pub fn run_streamed_with_results<S: ArrivalSource>(
        self,
        mut source: S,
    ) -> Result<(ClusterOutcome, Vec<RunResult>), ClusterError> {
        let (outcome, results, _) = self.run_core(&mut source)?;
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
        let (outcome, results, log) = self.run_core(&mut source)?;
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
            .run_core(&mut TraceSource::new(trace))
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
            .run_core(&mut TraceSource::new(trace))
            .unwrap_or_else(|e| panic!("{e}"));
        (outcome, results, log.expect("telemetry is enabled"))
    }

    /// The one event loop every public run method funnels into.
    fn run_core<S: ArrivalSource>(
        mut self,
        source: &mut S,
    ) -> Result<(ClusterOutcome, Vec<RunResult>, Option<TraceLog>), ClusterError> {
        let n = self.servers.len();
        // One view per server, maintained incrementally: only a stepped or
        // offered server's view changes, so view writes cost O(events), not
        // O(arrivals × fleet). A keyed router also routes in O(log n) per
        // changed view; any other router reads the whole slice per route.
        let mut state = EventLoop::new(
            std::mem::take(&mut self.servers),
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

        let fleet = self.fleet.take();
        let migrator = self.migrator.take();
        let epoch = fleet
            .as_deref()
            .map_or(f64::INFINITY, FleetController::epoch);
        let rebalance = migrator
            .as_deref()
            .map_or(f64::INFINITY, Migrator::interval);
        // Telemetry sampling shares the boundary mechanism. Disabled
        // telemetry keeps `next_sample` infinite and allocates nothing —
        // every boundary computes exactly as it did without the sampling
        // clock. Enabled sampling only *partitions* the drains at sample
        // instants (events are still processed in the same order), so even
        // a recording run leaves the simulation bit-exact.
        let mut tele = std::mem::take(&mut self.telemetry);
        let sample_epoch = tele.sample_epoch().unwrap_or(f64::INFINITY);
        let mut hooks = Hooks {
            fleet,
            migrator,
            epoch,
            next_epoch: epoch,
            rebalance,
            next_rebalance: rebalance,
            sample_epoch,
            next_sample: sample_epoch,
            meter: EpochMeter::new(n),
            tele_meter: tele.is_enabled().then(|| EpochMeter::new(n)),
            power: self.power,
            powers: Vec::with_capacity(n),
            tele_powers: Vec::new(),
            commands: Vec::new(),
            moves: Vec::new(),
            batch: Vec::new(),
            // The original per-policy latency objectives: `ScaleBound`
            // commands rescale relative to these, never compounding.
            base_bounds: state
                .servers
                .iter()
                .map(|s| s.policy().latency_bound())
                .collect(),
            migrated: 0,
        };

        // Initial apportioning before any event, so a finite budget is in
        // force from the very first request.
        if hooks.fleet.is_some() {
            hooks.run_epoch(0.0, 0.0, &mut state)?;
        }

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
            hooks.advance(
                request.arrival,
                &mut state,
                layer.as_mut(),
                &mut tele,
                self.router.as_mut(),
            )?;

            let target = state.route(self.router.as_mut(), &request)?;
            state.servers[target].offer(request);
            state.schedule(target);
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
        // close every server and let the remaining events drain through the
        // same boundaries.
        for i in 0..n {
            state.servers[i].close();
            state.schedule(i);
        }
        hooks.advance(
            f64::INFINITY,
            &mut state,
            layer.as_mut(),
            &mut tele,
            self.router.as_mut(),
        )?;

        // Align every server's timeline with the fleet's end so idle/sleep
        // power is charged through the whole run: without this, a server
        // that drained early would be charged nothing while a backlogged
        // neighbour worked on, flattering imbalanced routings.
        let end = state.servers.iter().map(ServerSim::now).fold(0.0, f64::max);
        for server in &mut state.servers {
            server.coast_to(end);
        }

        // Close out the telemetry time series with the final (possibly
        // partial) window, so the run's whole span is covered.
        if hooks
            .tele_meter
            .as_ref()
            .is_some_and(|meter| end > meter.last_time())
        {
            hooks.sample(&mut tele, end, &state, layer.as_ref());
        }

        let downtimes: Vec<f64> = state.servers.iter().map(|s| s.downtime()).collect();
        let EventLoop {
            servers, classes, ..
        } = state;
        // A fresh buffer of exactly `n` results, not an in-place collect
        // over the servers' buffer: the in-place form raised peak RSS.
        let mut results: Vec<RunResult> = Vec::with_capacity(n);
        results.extend(servers.into_iter().map(ServerSim::finish));
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

/// The driver's event-loop state: the fleet, one event slot per server, the
/// incrementally maintained router views, and the static per-server labels
/// the views carry.
struct EventLoop<P: DvfsPolicy> {
    servers: Vec<ServerSim<P>>,
    /// Each server's next event time as [`total_order_bits`] (+∞ when it
    /// has none), as of its last [`schedule`](Self::schedule).
    events: MinTree<u64>,
    views: Vec<ServerView>,
    /// The keys of a keyed router over `views` (`None` for every other
    /// router, decided once per run). Every view write marks the server.
    routes: Option<RouteTree>,
    capacities: Vec<f64>,
    classes: Vec<u32>,
    healths: Vec<ServerHealth>,
}

impl<P: DvfsPolicy> EventLoop<P> {
    /// Seeds every server's event slot with its first event, every router
    /// view, and — when `router` is keyed — the route tree.
    fn new(
        servers: Vec<ServerSim<P>>,
        capacities: Vec<f64>,
        classes: Vec<u32>,
        router: &dyn Router,
    ) -> Self {
        let n = servers.len();
        let mut state = Self {
            events: MinTree::from_fn(n, |i| event_key(&servers[i])),
            servers,
            views: Vec::with_capacity(n),
            routes: None,
            capacities,
            classes,
            healths: vec![ServerHealth::Up; n],
        };
        for i in 0..n {
            let view = state.view_of(i);
            state.views.push(view);
        }
        state.routes = RouteTree::build(router, &state.views);
        state
    }

    /// The fleet's earliest event as `(time, server)`, the lowest index
    /// first among equal times; the time is +∞ when no server has one.
    fn next_event(&self) -> (f64, usize) {
        let (key, server) = self.events.min();
        (from_total_order_bits(key), server)
    }

    /// Whether any server still has a pending event.
    fn has_events(&self) -> bool {
        self.next_event().0 < f64::INFINITY
    }

    fn view_of(&self, i: usize) -> ServerView {
        let s = &self.servers[i];
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
        if let Some(routes) = &mut self.routes {
            routes.mark(i);
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
        let target = match &mut self.routes {
            Some(routes) => routes.route(router, &self.views),
            None => router.route(request, &self.views),
        };
        if target < self.servers.len() {
            Ok(target)
        } else {
            Err(ClusterError::RouteOutOfRange {
                router: router.name().to_string(),
                server: target,
                fleet: self.servers.len(),
            })
        }
    }

    /// Re-registers server `i` after its state changed: refreshes its router
    /// view and rewrites its event slot with its current next event time.
    fn schedule(&mut self, i: usize) {
        self.refresh_view(i);
        self.events.set(i, event_key(&self.servers[i]));
    }

    /// Steps fleet events in `(time, server)` order while they lie strictly
    /// before `limit`. When a fault layer is attached, completions are
    /// reported to it so pending timeouts are retired — and a completion
    /// that resolves a hedged pair cancels the losing copy on the spot
    /// (first-completion-wins).
    fn drain(&mut self, limit: f64, mut layer: Option<&mut FaultLayer>, tele: &mut Telemetry) {
        loop {
            let (time, server) = self.next_event();
            if time >= limit {
                break;
            }
            let stepped = self.servers[server].step();
            debug_assert!(stepped.is_some(), "a scheduled event must fire");
            if let (Some(SimEvent::Completion(rec)), Some(l)) = (&stepped, layer.as_deref_mut()) {
                if let Some(res) = l.on_completion(rec.id, server, rec.latency()) {
                    resolve_hedge(self, tele, rec.id, rec.completion, server, res);
                }
            }
            self.schedule(server);
        }
    }
}

/// The key of a server's event slot: its next event time in total order,
/// +∞ when it has none. An event at +∞ never lies before a drain limit, so
/// it never fires, with or without a slot.
fn event_key<P: DvfsPolicy>(server: &ServerSim<P>) -> u64 {
    total_order_bits(server.next_event_time().unwrap_or(f64::INFINITY))
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
        let t = at.max(state.servers[j].now());
        state.servers[j].cancel(t, id).is_some()
    };
    let found = if cancel(state, res.loser) {
        Some(res.loser)
    } else {
        (0..state.servers.len()).find(|&j| j != res.loser && cancel(state, j))
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
    while state.servers[i].next_event_time().is_some_and(|te| te <= t) {
        if let Some(SimEvent::Completion(rec)) = state.servers[i].step() {
            if let Some(res) = layer.on_completion(rec.id, i, rec.latency()) {
                resolve_hedge(state, tele, rec.id, rec.completion, i, res);
            }
        }
    }
    state.servers[i].coast_to(t);
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
                let in_flight = state.servers[op.server].fail(now);
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
                    while let Some(spec) = state.servers[op.server].steal_queued() {
                        stranded.push(spec);
                    }
                    state.schedule(op.server);
                    // Stealing pops the FIFO back-to-front; re-routing in
                    // reverse preserves arrival order across the receivers.
                    for spec in stranded.into_iter().rev() {
                        let target = state.route(router, &spec)?;
                        state.servers[target].inject(now, spec);
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
                if state.servers[op.server].is_down() {
                    state.servers[op.server].recover(now);
                }
                if state.servers[op.server].stuck_freq().is_some() {
                    state.servers[op.server].stick_freq(None);
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
                state.servers[op.server].set_slowdown(slowdown);
                state.healths[op.server] = layer.health_of(op.server);
                state.schedule(op.server);
            }
            OpKind::StraggleEnd => {
                if effective {
                    state.servers[op.server].set_slowdown(1.0);
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
                state.servers[op.server].stick_freq(level);
                state.schedule(op.server);
            }
        }
    }
    // Retry deliveries due now, including work salvaged from a crash at
    // this very instant. The router sees live (post-fault) views; wrap it
    // in `HealthAware` to keep retries off down or straggling servers.
    while let Some((spec, attempt)) = layer.pop_due_retry(now) {
        let target = state.route(router, &spec)?;
        state.servers[target].inject(now, spec);
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
        state.servers[target].inject(now, spec);
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
        if let Some(spec) = state.servers[server].remove_queued(id) {
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

/// The boundary hooks and their clocks: the attached migrator and fleet
/// controller, telemetry sampling, and the buffers they reuse. Fault
/// work — scripted ops, retry deliveries, hedge launches, attempt timeouts —
/// has its clock in the fault layer and shares the same boundary sequence.
struct Hooks {
    fleet: Option<Box<dyn FleetController>>,
    migrator: Option<Box<dyn Migrator>>,
    /// The fleet controller's epoch and next boundary (infinite without one).
    epoch: f64,
    next_epoch: f64,
    /// The migrator's interval and next boundary (infinite without one).
    rebalance: f64,
    next_rebalance: f64,
    /// The telemetry sampling epoch and next boundary (infinite when
    /// telemetry is disabled).
    sample_epoch: f64,
    next_sample: f64,
    /// Per-window power for the fleet controller.
    meter: EpochMeter,
    /// Per-window power for telemetry samples, independent of the fleet
    /// controller's meter (`None` when telemetry is disabled).
    tele_meter: Option<EpochMeter>,
    power: CorePowerModel,
    powers: Vec<f64>,
    tele_powers: Vec<f64>,
    commands: Vec<FleetCommand>,
    moves: Vec<Migration>,
    batch: Vec<RequestSpec>,
    base_bounds: Vec<Option<f64>>,
    migrated: usize,
}

impl Hooks {
    /// Runs every boundary at or before `until`, then drains every fleet
    /// event strictly before `until`.
    ///
    /// Each boundary first drains the events strictly before it. Then fault
    /// work runs, so migration and capping observe the post-fault fleet;
    /// then the migrator, the fleet controller, and the telemetry sample,
    /// in that order at equal instants. Boundary actions happen *between*
    /// events: an arrival at exactly a boundary is routed after the hooks
    /// ran, and events at exactly `until` are left for the destination
    /// server's engine to order against the arrival itself.
    ///
    /// With `until = ∞` (the closing drain) it returns once no event and no
    /// fault work remain — a retried request may still be delivered into a
    /// closed server, and a late `Recover` must still be applied so
    /// downtime closes out.
    ///
    /// # Errors
    ///
    /// Returns the typed error of a hook's invalid output: an out-of-range
    /// retry or requeue route, an invalid migration, or an invalid fleet
    /// command.
    fn advance<P: DvfsPolicy>(
        &mut self,
        until: f64,
        state: &mut EventLoop<P>,
        mut layer: Option<&mut FaultLayer>,
        tele: &mut Telemetry,
        router: &mut dyn Router,
    ) -> Result<(), ClusterError> {
        loop {
            let fault_b = layer
                .as_deref()
                .map_or(f64::INFINITY, FaultLayer::next_boundary);
            let boundary = self
                .next_rebalance
                .min(self.next_epoch)
                .min(fault_b)
                .min(self.next_sample);
            if boundary > until {
                break;
            }
            state.drain(boundary, layer.as_deref_mut(), tele);
            if until == f64::INFINITY && fault_b == f64::INFINITY && !state.has_events() {
                return Ok(());
            }
            if fault_b <= boundary {
                let l = layer.as_deref_mut().expect("fault boundary implies layer");
                run_faults(l, tele, boundary, router, state)?;
            }
            if self.next_rebalance == boundary {
                self.run_migration(tele, boundary, state)?;
                self.next_rebalance += self.rebalance;
            }
            if self.next_epoch == boundary {
                self.run_epoch(boundary, self.epoch, state)?;
                self.next_epoch += self.epoch;
            }
            if self.next_sample == boundary {
                self.sample(tele, boundary, state, layer.as_deref());
                self.next_sample += self.sample_epoch;
            }
        }
        state.drain(until, layer, tele);
        Ok(())
    }

    /// Runs one migration boundary: plan against the live views, then move
    /// each planned batch donor-tail → receiver, preserving arrival order
    /// within the batch.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidMigration`] for a move that names a
    /// server outside the fleet or moves a server's queue onto itself.
    fn run_migration<P: DvfsPolicy>(
        &mut self,
        tele: &mut Telemetry,
        now: f64,
        state: &mut EventLoop<P>,
    ) -> Result<(), ClusterError> {
        let migrator = self
            .migrator
            .as_deref_mut()
            .expect("rebalance implies migrator");
        self.moves.clear();
        migrator.plan(now, &state.views, &mut self.moves);
        let n = state.servers.len();
        for &m in &self.moves {
            if m.from >= n || m.to >= n || m.from == m.to {
                return Err(ClusterError::InvalidMigration {
                    migrator: migrator.name().to_string(),
                    migration: m,
                });
            }
            self.batch.clear();
            for _ in 0..m.count {
                match state.servers[m.from].steal_queued() {
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
                state.servers[m.to].inject(now, spec);
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
        Ok(())
    }

    /// Runs one fleet-controller epoch: measure per-server power over the
    /// closing window, let the controller command, and apply the commands.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidFleetCommand`] for a command that
    /// names a server outside the fleet or scales a bound by a
    /// non-positive or non-finite factor.
    fn run_epoch<P: DvfsPolicy>(
        &mut self,
        now: f64,
        elapsed: f64,
        state: &mut EventLoop<P>,
    ) -> Result<(), ClusterError> {
        let ctl = self.fleet.as_deref_mut().expect("epoch implies controller");
        if elapsed > 0.0 {
            self.meter
                .measure(&state.servers, &self.power, now, &mut self.powers);
        } else {
            self.powers.clear();
            self.powers.resize(state.servers.len(), 0.0);
        }
        let power_views: Vec<ServerPowerView<'_>> = state
            .views
            .iter()
            .zip(&state.servers)
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
        let n = state.servers.len();
        for &command in &self.commands {
            let valid = match command {
                FleetCommand::SetCeiling { server, .. } => server < n,
                FleetCommand::ScaleBound { server, scale } => {
                    server < n && scale > 0.0 && scale.is_finite()
                }
            };
            if !valid {
                return Err(ClusterError::InvalidFleetCommand {
                    controller: ctl.name().to_string(),
                    command,
                });
            }
            match command {
                FleetCommand::SetCeiling { server, ceiling } => {
                    state.servers[server].retarget(ceiling);
                    // A retarget can start a V/F transition, changing the
                    // server's next event time.
                    state.schedule(server);
                }
                FleetCommand::ScaleBound { server, scale } => {
                    if let Some(base) = self.base_bounds[server] {
                        state.servers[server]
                            .policy_mut()
                            .set_latency_bound(base * scale);
                    }
                }
            }
        }
        Ok(())
    }

    /// Takes one telemetry sample window ending at `now`: per-server mean
    /// power over the window (via the telemetry meter, independent of the
    /// fleet controller's), queue/in-flight/DVFS snapshots from the live
    /// router views, and cumulative retry/timeout counters from the fault
    /// layer.
    fn sample<P: DvfsPolicy>(
        &mut self,
        tele: &mut Telemetry,
        now: f64,
        state: &EventLoop<P>,
        layer: Option<&FaultLayer>,
    ) {
        let meter = self
            .tele_meter
            .as_mut()
            .expect("sampling implies telemetry");
        let start = meter.last_time();
        meter.measure(&state.servers, &self.power, now, &mut self.tele_powers);
        let per_server: Vec<ServerSample> = state
            .views
            .iter()
            .zip(&self.tele_powers)
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
            power: self.tele_powers.iter().sum(),
            queued: per_server.iter().map(|s| s.queued).sum(),
            in_flight: per_server.iter().map(|s| s.in_flight).sum(),
            completions: 0, // filled at finalize by bucketing records
            retries,
            timeouts,
            per_server,
        });
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
    fn the_event_root_reports_ticks_until_the_fleet_is_closed_and_drained() {
        let cfg = config();
        let servers = (0..3)
            .map(|_| ServerSim::new(cfg.clone(), FixedFrequencyPolicy::new(cfg.dvfs.nominal())))
            .collect();
        let mut state = EventLoop::new(servers, vec![1.0; 3], vec![0; 3], &RoundRobin::new());
        let mut tele = Telemetry::disabled();
        // Open and idle, every server waits for the same first tick: the
        // lowest index comes first.
        assert_eq!(state.next_event(), (cfg.tick_interval, 0));
        state.servers[2].offer(RequestSpec::new(0, 1e-3, 1.2e6, 0.0));
        state.schedule(2);
        assert_eq!(state.next_event(), (1e-3, 2));
        for i in [0, 2] {
            state.servers[i].close();
            state.schedule(i);
        }
        // Servers 0 and 2 are closed; 2 still holds its request.
        assert_eq!(state.next_event(), (1e-3, 2));
        state.drain(0.5 * cfg.tick_interval, None, &mut tele);
        assert!(state.servers[2].is_idle());
        // Both closed servers are drained, so only the open, idle server 1
        // has an event left: its pending tick.
        assert!(state.has_events());
        assert_eq!(state.next_event(), (cfg.tick_interval, 1));
        state.servers[1].close();
        state.schedule(1);
        assert!(!state.has_events());
        assert_eq!(state.next_event().0, f64::INFINITY);
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

    /// Plans the same move at every rebalance check.
    struct RogueMigrator(Migration);

    impl Migrator for RogueMigrator {
        fn name(&self) -> &str {
            "rogue"
        }

        fn interval(&self) -> f64 {
            1e-3
        }

        fn plan(&mut self, _now: f64, _servers: &[ServerView], moves: &mut Vec<Migration>) {
            moves.push(self.0);
        }
    }

    #[test]
    fn an_invalid_migration_is_a_typed_error() {
        let cfg = config();
        for (from, to) in [(0, 0), (0, 2), (2, 1)] {
            let migration = Migration { from, to, count: 1 };
            let cluster = Cluster::new(cfg.clone(), 2, Box::new(RoundRobin::new()), fixed(&cfg))
                .with_migrator(Box::new(RogueMigrator(migration)));
            let err = cluster
                .run_streamed(TraceSource::new(&burst(40, 1e-4)))
                .unwrap_err();
            assert_eq!(
                err,
                ClusterError::InvalidMigration {
                    migrator: "rogue".to_string(),
                    migration,
                }
            );
        }
    }

    /// Issues the same command at every epoch, the initial one at `t = 0`
    /// included.
    struct RogueController(FleetCommand);

    impl FleetController for RogueController {
        fn name(&self) -> &str {
            "rogue"
        }

        fn epoch(&self) -> f64 {
            1e-3
        }

        fn on_epoch(
            &mut self,
            _now: f64,
            _elapsed: f64,
            _servers: &[ServerPowerView<'_>],
            commands: &mut Vec<FleetCommand>,
        ) {
            commands.push(self.0);
        }
    }

    #[test]
    fn an_invalid_fleet_command_is_a_typed_error() {
        let cfg = config();
        for command in [
            FleetCommand::SetCeiling {
                server: 2,
                ceiling: None,
            },
            FleetCommand::ScaleBound {
                server: 2,
                scale: 1.0,
            },
            FleetCommand::ScaleBound {
                server: 0,
                scale: 0.0,
            },
            FleetCommand::ScaleBound {
                server: 1,
                scale: f64::INFINITY,
            },
            FleetCommand::ScaleBound {
                server: 1,
                scale: f64::NAN,
            },
        ] {
            let cluster = Cluster::new(cfg.clone(), 2, Box::new(RoundRobin::new()), fixed(&cfg))
                .with_fleet_controller(Box::new(RogueController(command)));
            let err = cluster
                .run_streamed(TraceSource::new(&burst(40, 1e-4)))
                .unwrap_err();
            // Compared through the message: a NaN scale is never `==` itself.
            assert!(matches!(err, ClusterError::InvalidFleetCommand { .. }));
            assert_eq!(
                err.to_string(),
                format!("fleet controller rogue issued an invalid command {command:?}")
            );
        }
    }
}
