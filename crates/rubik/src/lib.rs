//! Rubik: fast analytical power management for latency-critical systems.
//!
//! This is the facade crate of the Rubik reproduction (MICRO-48, 2015). It
//! re-exports the whole public API so applications can depend on a single
//! crate:
//!
//! * [`stats`] — histograms, convolution, Gaussian tails, percentiles,
//! * [`sim`] — the discrete-event server simulator with per-core DVFS,
//! * [`workloads`] — the five latency-critical application models, their
//!   steady-load trace generator, and SPEC-like batch applications,
//! * [`power`] — core and full-system power models,
//! * [`core`] — the Rubik controller and the baseline schemes
//!   (fixed-frequency, StaticOracle, DynamicOracle, AdrenalineOracle,
//!   Pegasus-style feedback),
//! * [`coloc`] — RubikColoc: colocation of batch and latency-critical work,
//! * [`load`] — streaming open-loop arrival sources: steady Poisson,
//!   time-varying shapes (ramps, steps, diurnal sinusoids, spikes) drawn as
//!   non-homogeneous Poisson processes, deterministic multi-app merges, and
//!   file-backed streaming trace replay, each an [`ArrivalSource`] that
//!   [`Cluster::run`] pulls from,
//! * [`cluster`] — multi-server serving: fleets of stepped [`sim`] servers
//!   (heterogeneous via [`FleetSpec`]) behind a routing policy, with
//!   per-server Rubik controllers, fleet-level power capping
//!   ([`PegasusFleet`]), and queue migration ([`ThresholdMigrator`]), run
//!   through the one [`Cluster::run`], which returns a [`RunReport`] or a
//!   typed [`ClusterError`],
//! * [`telemetry`] — zero-cost-when-disabled observability for [`cluster`]:
//!   deterministic request lifecycle traces ([`TraceLog`]), per-epoch fleet
//!   time series, tail-latency attribution, and JSON / Chrome `trace_event`
//!   export.
//!
//! The most common types are also re-exported at the crate root.
//!
//! # Quickstart
//!
//! ```
//! use rubik::{
//!     AppProfile, RubikConfig, RubikController, Server, SimConfig, WorkloadGenerator,
//! };
//!
//! // A masstree-like key-value store at 40% load.
//! let profile = AppProfile::masstree();
//! let mut generator = WorkloadGenerator::new(profile.clone(), 1);
//! let trace = generator.steady_trace(0.4, 1_000);
//!
//! // Meet a 95th-percentile latency bound of 3x the mean service time.
//! let bound = 3.0 * profile.mean_service_time();
//! let config = SimConfig::default();
//! let mut rubik = RubikController::new(RubikConfig::new(bound), config.dvfs.clone());
//! let result = Server::new(config).run(&trace, &mut rubik);
//!
//! assert!(result.tail_latency(0.95).unwrap() <= bound * 1.2);
//! ```

#![warn(missing_docs)]

pub use rubik_cluster as cluster;
pub use rubik_coloc as coloc;
pub use rubik_core as core;
pub use rubik_load as load;
pub use rubik_power as power;
pub use rubik_sim as sim;
pub use rubik_stats as stats;
pub use rubik_sweep as sweep;
pub use rubik_telemetry as telemetry;
pub use rubik_workloads as workloads;

pub use rubik_cluster::{
    AvailabilityStats, ClassTotals, Cluster, ClusterError, ClusterOutcome, CoreClass,
    FailureTopology, FaultEvent, FaultPlan, FleetCommand, FleetController, FleetSpec, HealthAware,
    JoinShortestQueue, Migration, Migrator, Passthrough, PegasusFleet, PowerAware, RequestPolicy,
    RoundRobin, RouteKey, Router, RunReport, ServerHealth, ServerPowerView, ServerView,
    StochasticFaults, ThresholdMigrator,
};
pub use rubik_coloc::{
    ColocOutcome, ColocScheme, ColocatedCore, DatacenterComparison, DatacenterConfig,
    DatacenterContext,
};
pub use rubik_core::{
    AdrenalineOracle, AdrenalinePolicy, DynamicOracle, FixedFrequencyPolicy, PegasusConfig,
    PegasusPolicy, RubikConfig, RubikController, StaticOracle, TableBuilder, TargetTailTables,
};
pub use rubik_load::{
    ArrivalSource, LoadShape, MergedSource, PoissonSource, ShapedSource, StreamingTraceReader,
    StreamingTraceWriter, TraceSource,
};
pub use rubik_power::{CorePowerModel, ServerPowerModel, Tdp};
pub use rubik_sim::{
    DvfsConfig, DvfsPolicy, Freq, RequestRecord, RequestSpec, RunResult, Server, ServerSim,
    SimConfig, SimEvent, Trace,
};
pub use rubik_stats::Histogram;
pub use rubik_sweep::{SweepExecutor, SweepRun, SweepSpec};
pub use rubik_telemetry::{Telemetry, TraceLog};
pub use rubik_workloads::{AppProfile, BatchApp, BatchMix, WorkloadGenerator};
