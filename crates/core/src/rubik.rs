//! The Rubik controller (paper Sec. 4).
//!
//! On every request arrival and completion, Rubik finds the lowest frequency
//! that keeps the tail-latency bound for *every* request currently in the
//! system:
//!
//! ```text
//! f  ≥  max_i   c_i / (L − (t_i + m_i))          (Eq. 2)
//! ```
//!
//! where, for the request at queue position `i`, `t_i` is the time it has
//! already spent in the system, and `c_i` / `m_i` are the tail remaining
//! compute cycles and memory-bound time read from the precomputed
//! [`TargetTailTables`]. Requests whose slack `L − t_i − m_i` is gone force
//! the maximum frequency. When the system is idle, the core drops to the
//! minimum frequency.
//!
//! The tables are rebuilt periodically (every simulator tick, 100 ms in the
//! paper) from the [`OnlineProfiler`]'s sliding window; a PI
//! [`FeedbackController`] trims the internal latency target using the tail
//! latency measured over a rolling window (1 s in the paper).
//!
//! # Rebuild cost
//!
//! The periodic rebuild is incremental and allocation-free end to end, and
//! a controller owns none of the build engine. Every controller on a thread
//! rebuilds through that thread's workspace: one [`TableBuilder`] (reused
//! ladder buffers and a last-build memo, transforming through the
//! process-wide FFT plans) plus the two [`Histogram`]s the profiler's
//! incrementally maintained bucket counts are materialized into. A
//! controller holds only its profile, its tables and its feedback state.
//!
//! A tick's rebuild stops after row setup (band boundaries, per-row
//! moments, queue position 0), and each decision first builds the positions
//! it reads — queue positions 0 to the queue length, up to the Gaussian
//! cutoff — through the same workspace ([`TableBuilder::extend`]). Between
//! two ticks the queue is usually short, so most rebuilds never pay for
//! the deep, large-transform rungs, and it grows one request at a time, so
//! most extensions add one rung to the table the workspace's builder last
//! touched and continue the ladder it keeps for it. Extended positions are
//! bit-identical to a full build's, so no decision changes. Seeds, and a
//! controller's first build, are full.
//!
//! The controller **version-gates** the whole rebuild:
//! [`OnlineProfiler::version`] is bumped on every recorded sample, so a tick
//! on which no request completed short-circuits in nanoseconds — identical
//! histograms would rebuild identical tables, so skipping changes no output
//! bit. [`RubikStats::table_rebuilds_performed`] /
//! [`RubikStats::table_rebuilds_skipped`] count the two cases. A performed
//! rebuild whose histograms, quantile and table shape repeat the thread's
//! last build bit for bit, at least as deep, is served by the memo as a
//! table copy (it still counts as performed): seeding N controllers from
//! one trace prefix on a thread costs one build and N−1 copies.

use std::cell::RefCell;

use rubik_sim::{DvfsConfig, DvfsPolicy, Freq, PolicyDecision, RequestRecord, ServerState, Trace};
use rubik_stats::{Histogram, RollingTailTracker};

use crate::feedback::FeedbackController;
use crate::profiler::OnlineProfiler;
use crate::tables::{
    TableBuilder, TargetTailTables, DEFAULT_GAUSSIAN_CUTOFF, DEFAULT_PROGRESS_ROWS,
};

/// The tail percentile the bound applies to (the paper's 95th).
const QUANTILE: f64 = 0.95;

/// Profiled requests before the analytical model is trusted; until then
/// Rubik runs at the nominal frequency when busy.
const MIN_SAMPLES: usize = 64;

/// Window over which the measured tail latency feeds the PI controller, in
/// seconds (the paper's 1 s).
const FEEDBACK_WINDOW: f64 = 1.0;

/// Configuration of the Rubik controller.
///
/// The rest of the model is fixed at the paper's values: the bound applies
/// to the 95th-percentile latency, the analytical model is trusted from 64
/// profiled requests on (before that a busy core runs at the nominal
/// frequency), the tables have 8 progress rows ([`DEFAULT_PROGRESS_ROWS`])
/// and switch to the Gaussian approximation at queue position 16
/// ([`DEFAULT_GAUSSIAN_CUTOFF`]), and feedback measures the tail over 1 s
/// windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RubikConfig {
    /// The tail-latency bound `L`, in seconds.
    pub latency_bound: f64,
    /// Number of recent requests the online profiler keeps.
    pub profiling_window: usize,
    /// Whether the PI feedback fine-tuning is enabled.
    pub feedback: bool,
    /// Whether periodic table rebuilds are skipped when the profile is
    /// unchanged since the last build (identical histograms rebuild
    /// identical tables, so gating never changes an output bit). On by
    /// default; determinism tests disable it to compare against an ungated
    /// controller, whose every tick reaches the table builder (which still
    /// serves a bit-identical repeat of the thread's last build as a copy).
    pub rebuild_gating: bool,
}

impl RubikConfig {
    /// Creates a configuration with the paper's defaults for the given
    /// tail-latency bound.
    ///
    /// # Panics
    ///
    /// Panics if `latency_bound <= 0`.
    pub fn new(latency_bound: f64) -> Self {
        assert!(latency_bound > 0.0, "latency bound must be positive");
        Self {
            latency_bound,
            profiling_window: 4096,
            feedback: true,
            rebuild_gating: true,
        }
    }

    /// Disables the PI feedback fine-tuning ("Rubik (No Feedback Control)" in
    /// Fig. 9).
    pub fn without_feedback(mut self) -> Self {
        self.feedback = false;
        self
    }

    /// Disables version-gated rebuild skipping: every tick hands the profile
    /// to the thread's table builder. Inputs that repeat that builder's last
    /// build bit for bit are still served from its memo as a copy, so this
    /// does not guarantee a full rebuild ([`TargetTailTables::build`] always
    /// performs one). Only useful for determinism tests and benchmarks — the
    /// gated controller produces bit-identical decisions.
    pub fn without_rebuild_gating(mut self) -> Self {
        self.rebuild_gating = false;
        self
    }

    /// Sets the profiling window size.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn with_profiling_window(mut self, window: usize) -> Self {
        assert!(window > 0);
        self.profiling_window = window;
        self
    }
}

/// Counters describing what the controller did during a run; useful for
/// tests, ablations, and the paper's overhead discussion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RubikStats {
    /// Number of frequency decisions evaluated (arrivals + completions).
    pub decisions: u64,
    /// Number of times the target tail tables were actually rebuilt: seeds
    /// (full tables) and ticks (row setup only). The extensions decisions
    /// make to the positions they read are not counted.
    pub table_rebuilds_performed: u64,
    /// Number of periodic rebuilds skipped because the profiler version was
    /// unchanged since the last build (the histograms — and therefore the
    /// tables — would have been bit-identical).
    pub table_rebuilds_skipped: u64,
    /// Number of decisions made before the model had enough samples.
    pub cold_decisions: u64,
    /// Number of decisions where some request had no slack left (forcing the
    /// maximum frequency).
    pub saturated_decisions: u64,
}

/// A thread's table-build workspace (see the module docs, "Rebuild cost"),
/// shared by every controller that rebuilds on the thread.
struct Workspace {
    builder: TableBuilder,
    /// The histograms the profiler's bucket counts are materialized into on
    /// each performed rebuild.
    compute: Histogram,
    membound: Histogram,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace {
        builder: TableBuilder::new(),
        compute: Histogram::zero(),
        membound: Histogram::zero(),
    });
}

/// The Rubik fine-grain DVFS controller.
#[derive(Debug, Clone)]
pub struct RubikController {
    config: RubikConfig,
    dvfs: DvfsConfig,
    profiler: OnlineProfiler,
    tables: Option<TargetTailTables>,
    /// Profiler version the current tables were built from.
    built_version: Option<u64>,
    feedback: FeedbackController,
    measured: RollingTailTracker,
    last_feedback_update: f64,
    stats: RubikStats,
}

impl RubikController {
    /// Creates a Rubik controller for the given DVFS domain.
    pub fn new(config: RubikConfig, dvfs: DvfsConfig) -> Self {
        let measured = RollingTailTracker::new(FEEDBACK_WINDOW, QUANTILE);
        Self {
            profiler: OnlineProfiler::new(config.profiling_window),
            tables: None,
            built_version: None,
            feedback: FeedbackController::paper_default(),
            measured,
            last_feedback_update: 0.0,
            stats: RubikStats::default(),
            config,
            dvfs,
        }
    }

    /// Seeds the profiler with known per-request demands (compute cycles,
    /// memory-bound time) and builds the tables immediately. Useful when a
    /// trace has been captured previously, and in tests.
    pub fn seed_profile<I>(&mut self, demands: I)
    where
        I: IntoIterator<Item = (f64, f64)>,
    {
        self.profiler.seed(demands);
        self.rebuild_tables(true);
    }

    /// The standard experiment-harness construction: a controller seeded
    /// from the first `seed_requests` demands of `trace`. One definition so
    /// figures, benches, and equivalence tests all measure the same
    /// controller (per-server instances in a cluster call this once per
    /// server with the shared fleet trace).
    ///
    /// The first seed on a thread builds the tables; every identical seed
    /// after it on that thread (same demands, quantile and table shape, with
    /// no other build in between) copies them from the thread's last-build
    /// memo, so seeding an N-server fleet costs one build and N−1 copies.
    pub fn seeded_for_trace(
        config: RubikConfig,
        dvfs: DvfsConfig,
        trace: &Trace,
        seed_requests: usize,
    ) -> Self {
        let mut rubik = Self::new(config, dvfs);
        rubik.seed_profile(
            trace
                .requests()
                .iter()
                .take(seed_requests)
                .map(|r| (r.compute_cycles, r.membound_time)),
        );
        rubik
    }

    /// The controller's configuration.
    pub fn config(&self) -> &RubikConfig {
        &self.config
    }

    /// Run counters.
    pub fn stats(&self) -> RubikStats {
        self.stats
    }

    /// The current target tail tables, if the model has been built. They
    /// are built only as deep as decisions have read since the last tick
    /// ([`TargetTailTables::depth`]); reading a position between that depth
    /// and the Gaussian cutoff panics, so extend a copy with a
    /// [`TableBuilder`] first.
    pub fn tables(&self) -> Option<&TargetTailTables> {
        self.tables.as_ref()
    }

    /// The external tail-latency bound `L` currently in force.
    pub fn latency_bound(&self) -> f64 {
        self.config.latency_bound
    }

    /// Retargets the external tail-latency bound mid-run (fleet-level power
    /// capping scales per-server bounds each epoch). Takes effect from the
    /// next decision; the precomputed tail tables are bound-independent (the
    /// bound enters Eq. 2 as the slack term), so no rebuild is needed.
    ///
    /// # Panics
    ///
    /// Panics if `bound <= 0`.
    pub fn set_latency_bound(&mut self, bound: f64) {
        assert!(bound > 0.0, "latency bound must be positive");
        self.config.latency_bound = bound;
    }

    /// The internal latency target currently in use (external bound scaled by
    /// the feedback controller).
    pub fn internal_target(&self) -> f64 {
        if self.config.feedback {
            self.feedback.internal_target(self.config.latency_bound)
        } else {
            self.config.latency_bound
        }
    }

    /// Rebuilds the tables from the profile: full tables when `full` (a
    /// seed) or when the controller has none yet, row setup only otherwise
    /// (a tick; decisions extend the tables as far as they read).
    fn rebuild_tables(&mut self, full: bool) {
        if self.profiler.len() < MIN_SAMPLES {
            return;
        }
        // Version gate: no sample has entered or left the window since the
        // last build, so the histograms — and therefore the tables — would
        // be bit-identical. Skip the whole rebuild.
        let version = self.profiler.version();
        if self.config.rebuild_gating
            && self.tables.is_some()
            && self.built_version == Some(version)
        {
            self.stats.table_rebuilds_skipped += 1;
            return;
        }
        WORKSPACE.with_borrow_mut(|ws| {
            self.profiler.compute_histogram_into(&mut ws.compute);
            self.profiler.membound_histogram_into(&mut ws.membound);
            let (c, m) = (&ws.compute, &ws.membound);
            let (quantile, rows, cutoff) =
                (QUANTILE, DEFAULT_PROGRESS_ROWS, DEFAULT_GAUSSIAN_CUTOFF);
            match &mut self.tables {
                Some(tables) if full => ws
                    .builder
                    .build_with_into(c, m, quantile, rows, cutoff, tables),
                Some(tables) => ws.builder.set_up_into(c, m, quantile, rows, cutoff, tables),
                None => self.tables = Some(ws.builder.build_with(c, m, quantile, rows, cutoff)),
            }
        });
        self.built_version = Some(version);
        self.stats.table_rebuilds_performed += 1;
    }

    /// Evaluates Eq. 2 for the current state and returns the chosen
    /// frequency.
    fn decide(&mut self, state: &ServerState) -> Freq {
        self.stats.decisions += 1;

        if state.is_idle() {
            return self.dvfs.min();
        }
        let bound = self.internal_target();
        let Some(tables) = &mut self.tables else {
            // Model not warmed up yet: run at nominal, the paper's baseline
            // frequency.
            self.stats.cold_decisions += 1;
            return self.dvfs.nominal();
        };

        // This decision reads positions 0..=queued.len(); build the ones
        // below the cutoff that the tables do not hold yet.
        let depth = (state.queued.len() + 1).min(tables.gaussian_cutoff());
        if tables.depth() < depth {
            WORKSPACE.with_borrow_mut(|ws| ws.builder.extend(tables, depth));
        }

        let in_service = state
            .in_service
            .as_ref()
            .expect("non-idle state has a request in service");

        // Resolve the progress rows once for this decision; per queue
        // position the cursor lookup is two array reads (allocation-free,
        // no transcendental math — see `tables::TailsCursor`).
        let cursor = tables.tails_at(
            in_service.elapsed_compute_cycles,
            in_service.elapsed_membound_time,
        );

        let mut required_hz: f64 = 0.0;
        let mut saturated = false;

        // Position 0: the request in service.
        let mut consider = |pos: usize, arrival: f64| {
            let (c, m) = cursor.tails(pos);
            let waited = state.now - arrival;
            let slack = bound - waited - m;
            if slack <= 0.0 {
                saturated = true;
            } else {
                required_hz = required_hz.max(c / slack);
            }
        };

        consider(0, in_service.arrival);
        for (j, q) in state.queued.iter().enumerate() {
            consider(j + 1, q.arrival);
        }

        if saturated {
            self.stats.saturated_decisions += 1;
            return self.dvfs.max();
        }
        self.dvfs.ceil_level(required_hz)
    }
}

impl DvfsPolicy for RubikController {
    fn name(&self) -> &str {
        if self.config.feedback {
            "rubik"
        } else {
            "rubik-no-feedback"
        }
    }

    fn on_arrival(&mut self, state: &ServerState) -> PolicyDecision {
        PolicyDecision::SetFrequency(self.decide(state))
    }

    fn on_completion(&mut self, state: &ServerState, record: &RequestRecord) -> PolicyDecision {
        self.profiler
            .record(record.compute_cycles, record.membound_time);
        self.measured.record(record.completion, record.latency());
        PolicyDecision::SetFrequency(self.decide(state))
    }

    fn on_tick(&mut self, state: &ServerState) -> PolicyDecision {
        // Rebuild the target tail tables from the latest profile (the 100 ms
        // periodic update of Sec. 4.2).
        self.rebuild_tables(false);

        // Feedback fine-tuning over the rolling measurement window.
        if self.config.feedback && state.now - self.last_feedback_update >= FEEDBACK_WINDOW {
            self.last_feedback_update = state.now;
            self.measured.advance(state.now);
            if let Some(tail) = self.measured.tail() {
                self.feedback.update(tail, self.config.latency_bound);
            }
        }

        PolicyDecision::SetFrequency(self.decide(state))
    }

    fn idle_frequency(&self) -> Option<Freq> {
        Some(self.dvfs.min())
    }

    fn latency_bound(&self) -> Option<f64> {
        Some(self.config.latency_bound)
    }

    fn set_latency_bound(&mut self, bound: f64) -> bool {
        RubikController::set_latency_bound(self, bound);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubik_sim::{Server, SimConfig};
    use rubik_workloads::{AppProfile, WorkloadGenerator};

    fn run_app(profile: AppProfile, load: f64, n: usize, bound: f64, feedback: bool) -> (f64, f64) {
        let sim_config = SimConfig::default();
        let mut generator = WorkloadGenerator::new(profile, 42);
        let trace = generator.steady_trace(load, n);

        let mut cfg = RubikConfig::new(bound).with_profiling_window(1024);
        if !feedback {
            cfg = cfg.without_feedback();
        }
        let mut rubik = RubikController::new(cfg, sim_config.dvfs.clone());
        // Seed from the trace itself so the short test run starts warm, as a
        // long-running server would be.
        rubik.seed_profile(
            trace
                .requests()
                .iter()
                .take(512)
                .map(|r| (r.compute_cycles, r.membound_time)),
        );

        let result = Server::new(sim_config).run(&trace, &mut rubik);
        let tail = result.tail_latency(0.95).unwrap();
        let mean_freq_time_weighted = {
            let res = result.freq_residency();
            let busy = res.busy_time();
            res.busy
                .iter()
                .map(|(f, t)| f.ghz() * t / busy)
                .sum::<f64>()
        };
        (tail, mean_freq_time_weighted)
    }

    #[test]
    fn meets_tail_bound_on_masstree_at_moderate_load() {
        let profile = AppProfile::masstree();
        // Bound chosen near the fixed-frequency tail at 50% load for this
        // model (~3x the mean service time).
        let bound = 3.0 * profile.mean_service_time();
        let (tail, mean_freq) = run_app(profile, 0.4, 3000, bound, false);
        assert!(tail <= bound * 1.10, "tail {tail} vs bound {bound}");
        // And it should actually have slowed down below nominal on average.
        assert!(mean_freq < 2.4, "mean busy frequency {mean_freq} GHz");
    }

    #[test]
    fn low_load_uses_lower_frequencies_than_high_load() {
        let profile = AppProfile::masstree();
        let bound = 3.0 * profile.mean_service_time();
        let (_, freq_low) = run_app(profile.clone(), 0.2, 2000, bound, false);
        let (_, freq_high) = run_app(profile, 0.7, 2000, bound, false);
        assert!(
            freq_low < freq_high,
            "low-load mean freq {freq_low} should be below high-load {freq_high}"
        );
    }

    #[test]
    fn idle_system_requests_minimum_frequency() {
        let dvfs = DvfsConfig::haswell_like();
        let mut rubik = RubikController::new(RubikConfig::new(1e-3), dvfs.clone());
        let state = ServerState {
            now: 0.0,
            current_freq: dvfs.nominal(),
            target_freq: dvfs.nominal(),
            in_service: None,
            queued: vec![],
        };
        assert_eq!(
            rubik.on_tick(&state),
            PolicyDecision::SetFrequency(dvfs.min())
        );
        assert_eq!(rubik.idle_frequency(), Some(dvfs.min()));
    }

    #[test]
    fn cold_controller_runs_at_nominal_when_busy() {
        let dvfs = DvfsConfig::haswell_like();
        let mut rubik = RubikController::new(RubikConfig::new(1e-3), dvfs.clone());
        let state = ServerState {
            now: 0.0,
            current_freq: dvfs.min(),
            target_freq: dvfs.min(),
            in_service: Some(rubik_sim::InServiceView {
                id: 0,
                arrival: 0.0,
                elapsed_compute_cycles: 0.0,
                elapsed_membound_time: 0.0,
                oracle_compute_cycles: 1e6,
                oracle_membound_time: 0.0,
                class: 0,
            }),
            queued: vec![],
        };
        assert_eq!(
            rubik.on_arrival(&state),
            PolicyDecision::SetFrequency(dvfs.nominal())
        );
        assert_eq!(rubik.stats().cold_decisions, 1);
    }

    #[test]
    fn exhausted_slack_forces_maximum_frequency() {
        let dvfs = DvfsConfig::haswell_like();
        let mut rubik =
            RubikController::new(RubikConfig::new(1e-3).without_feedback(), dvfs.clone());
        rubik.seed_profile((0..200).map(|i| (1e6 + (i % 7) as f64 * 1e4, 0.0)));
        // A request that has already waited longer than the bound.
        let state = ServerState {
            now: 0.01,
            current_freq: dvfs.min(),
            target_freq: dvfs.min(),
            in_service: Some(rubik_sim::InServiceView {
                id: 0,
                arrival: 0.0,
                elapsed_compute_cycles: 0.0,
                elapsed_membound_time: 0.0,
                oracle_compute_cycles: 1e6,
                oracle_membound_time: 0.0,
                class: 0,
            }),
            queued: vec![],
        };
        assert_eq!(
            rubik.on_arrival(&state),
            PolicyDecision::SetFrequency(dvfs.max())
        );
        assert_eq!(rubik.stats().saturated_decisions, 1);
    }

    #[test]
    fn longer_queues_demand_higher_frequencies() {
        let dvfs = DvfsConfig::haswell_like();
        let mut rubik =
            RubikController::new(RubikConfig::new(2e-3).without_feedback(), dvfs.clone());
        rubik.seed_profile((0..500).map(|i| (5e5 + (i % 13) as f64 * 1e4, 0.0)));

        let in_service = rubik_sim::InServiceView {
            id: 0,
            arrival: 0.0,
            elapsed_compute_cycles: 0.0,
            elapsed_membound_time: 0.0,
            oracle_compute_cycles: 5e5,
            oracle_membound_time: 0.0,
            class: 0,
        };
        let mk_state = |queued: usize| ServerState {
            now: 1e-4,
            current_freq: dvfs.min(),
            target_freq: dvfs.min(),
            in_service: Some(in_service),
            queued: (0..queued)
                .map(|i| rubik_sim::QueuedView {
                    id: i as u64 + 1,
                    arrival: 1e-4,
                    oracle_compute_cycles: 5e5,
                    oracle_membound_time: 0.0,
                    class: 0,
                })
                .collect(),
        };

        let freq_of = |d: PolicyDecision| match d {
            PolicyDecision::SetFrequency(f) => f,
            PolicyDecision::Keep => panic!("expected a frequency"),
        };
        let short = freq_of(rubik.on_arrival(&mk_state(0)));
        let long = freq_of(rubik.on_arrival(&mk_state(8)));
        assert!(
            long > short,
            "queue of 8 chose {long}, empty queue chose {short}"
        );
    }

    #[test]
    fn retargeting_the_bound_changes_decisions_immediately() {
        let dvfs = DvfsConfig::haswell_like();
        let mut rubik =
            RubikController::new(RubikConfig::new(2e-3).without_feedback(), dvfs.clone());
        rubik.seed_profile((0..500).map(|i| (5e5 + (i % 13) as f64 * 1e4, 0.0)));

        let state = ServerState {
            now: 1e-4,
            current_freq: dvfs.min(),
            target_freq: dvfs.min(),
            in_service: Some(rubik_sim::InServiceView {
                id: 0,
                arrival: 0.0,
                elapsed_compute_cycles: 0.0,
                elapsed_membound_time: 0.0,
                oracle_compute_cycles: 5e5,
                oracle_membound_time: 0.0,
                class: 0,
            }),
            queued: vec![],
        };
        let freq_of = |d: PolicyDecision| match d {
            PolicyDecision::SetFrequency(f) => f,
            PolicyDecision::Keep => panic!("expected a frequency"),
        };
        let relaxed = freq_of(rubik.on_arrival(&state));
        // Through the trait surface the fleet controller uses.
        assert_eq!(DvfsPolicy::latency_bound(&rubik), Some(2e-3));
        assert!(DvfsPolicy::set_latency_bound(&mut rubik, 4e-4));
        assert_eq!(rubik.latency_bound(), 4e-4);
        let tightened = freq_of(rubik.on_arrival(&state));
        assert!(
            tightened > relaxed,
            "tightening the bound must demand a higher frequency \
             ({tightened} vs {relaxed})"
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn retargeting_rejects_nonpositive_bounds() {
        let mut rubik = RubikController::new(RubikConfig::new(1e-3), DvfsConfig::haswell_like());
        rubik.set_latency_bound(0.0);
    }

    #[test]
    fn feedback_relaxes_target_when_there_is_headroom() {
        let profile = AppProfile::masstree();
        let bound = 3.0 * profile.mean_service_time();
        let sim_config = SimConfig::default();
        let mut generator = WorkloadGenerator::new(profile, 7);
        let trace = generator.steady_trace(0.3, 3000);
        let mut rubik = RubikController::new(
            RubikConfig::new(bound).with_profiling_window(1024),
            sim_config.dvfs.clone(),
        );
        rubik.seed_profile(
            trace
                .requests()
                .iter()
                .take(256)
                .map(|r| (r.compute_cycles, r.membound_time)),
        );
        let _ = Server::new(sim_config).run(&trace, &mut rubik);
        // The conservative analytical model leaves headroom at 30% load, so
        // the feedback loop should have relaxed the internal target.
        assert!(rubik.internal_target() >= bound);
        assert!(rubik.stats().table_rebuilds_performed > 1);
    }

    #[test]
    fn unchanged_profile_skips_rebuilds_and_decisions_are_identical() {
        let dvfs = DvfsConfig::haswell_like();
        let seed_demands = || (0..200).map(|i| (1e6 + (i % 7) as f64 * 1e4, 30e-6));
        let mut gated = RubikController::new(RubikConfig::new(2e-3), dvfs.clone());
        let mut forced = RubikController::new(
            RubikConfig::new(2e-3).without_rebuild_gating(),
            dvfs.clone(),
        );
        gated.seed_profile(seed_demands());
        forced.seed_profile(seed_demands());

        let state = ServerState {
            now: 1e-4,
            current_freq: dvfs.min(),
            target_freq: dvfs.min(),
            in_service: Some(rubik_sim::InServiceView {
                id: 0,
                arrival: 0.0,
                elapsed_compute_cycles: 2e5,
                elapsed_membound_time: 5e-6,
                oracle_compute_cycles: 1e6,
                oracle_membound_time: 30e-6,
                class: 0,
            }),
            queued: vec![],
        };
        // Ticks with no intervening completions: the gated controller skips
        // every rebuild, the ungated one hands each to the thread's builder
        // (whose memo copies the repeat) — decisions must agree.
        for _ in 0..5 {
            assert_eq!(gated.on_tick(&state), forced.on_tick(&state));
        }
        assert_eq!(gated.stats().table_rebuilds_performed, 1);
        assert_eq!(gated.stats().table_rebuilds_skipped, 5);
        assert_eq!(forced.stats().table_rebuilds_performed, 6);
        assert_eq!(forced.stats().table_rebuilds_skipped, 0);
        assert_eq!(gated.tables().unwrap(), forced.tables().unwrap());

        // A new sample un-gates the next rebuild.
        let record = RequestRecord {
            id: 1,
            arrival: 0.0,
            start: 0.0,
            completion: 2e-4,
            compute_cycles: 1.1e6,
            membound_time: 25e-6,
            queue_len_at_arrival: 0,
            class: 0,
        };
        assert_eq!(
            gated.on_completion(&state, &record),
            forced.on_completion(&state, &record)
        );
        assert_eq!(gated.on_tick(&state), forced.on_tick(&state));
        assert_eq!(gated.stats().table_rebuilds_performed, 2);
        assert_eq!(gated.tables().unwrap(), forced.tables().unwrap());
    }
}
