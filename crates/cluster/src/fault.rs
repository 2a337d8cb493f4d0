//! Deterministic fault injection and the request-lifecycle layer.
//!
//! A [`FaultPlan`] scripts failures against a fleet: crashes, recoveries,
//! straggler windows (all service stretched by a factor), and stuck
//! frequencies. The plan is a plain list of [`FaultEvent`]s with absolute
//! times; the cluster driver expands it into a time-ordered op stream and
//! applies each op *between* simulation events, so an identical plan
//! produces bit-identical results regardless of how many sweep threads run
//! around the cluster. An **empty plan is bit-neutral**: it introduces no
//! boundaries, so every byte of the simulation is unchanged (pinned in
//! `tests/fault_properties.rs`).
//!
//! A [`RequestPolicy`] adds the client's side of the story: per-request
//! deadlines, attempt timeouts, and capped exponential backoff with
//! deterministic jitter. Timed-out queued requests are pulled back and
//! re-routed (through whatever router the cluster carries — wrap it in
//! [`HealthAware`](crate::HealthAware) to steer retries away from down
//! servers); requests stranded in service on a crashed server can be
//! salvaged and re-delivered, and a dead server's queue can be drained and
//! re-routed wholesale. [`RequestPolicy::with_hedging`] adds speculative
//! duplicates: an attempt that outlives the tracked latency quantile is
//! mirrored onto a second server, and the first copy to complete wins —
//! the driver cancels the other.
//!
//! The accounting lands in
//! [`ClusterOutcome::availability`](crate::ClusterOutcome::availability).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use rubik_sim::{Freq, RequestSpec, RunResult};
use rubik_stats::{percentile, DeterministicRng, RollingQuantileWindow};

use crate::driver::ClusterError;
use crate::outcome::AvailabilityStats;
use crate::router::ServerHealth;

/// One scripted fault against one server, at an absolute simulation time.
///
/// Events are applied between simulation events, after everything strictly
/// earlier has been processed; events at the same instant apply in plan
/// order (a [`FaultPlan`] is a builder, so that is the order you wrote).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// The server fails at `at`: the request in service is lost (or
    /// salvaged, per [`RequestPolicy::salvage_in_flight`]), no new service
    /// starts, and the server burns sleep power until it recovers. Queued
    /// work stays parked on the dead server unless
    /// [`RequestPolicy::drain_on_crash`] re-routes it.
    Crash {
        /// Index of the server that fails.
        server: usize,
        /// Absolute failure time in seconds.
        at: f64,
    },
    /// The server comes back at `at`: service resumes from its queue and a
    /// stuck frequency (if any) is released.
    Recover {
        /// Index of the server that recovers.
        server: usize,
        /// Absolute recovery time in seconds.
        at: f64,
    },
    /// Between `at` and `until` every service time on the server is
    /// stretched by `slowdown` (> 1 is slower). The server keeps serving —
    /// health-aware routing just stops sending it new work.
    Straggle {
        /// Index of the straggling server.
        server: usize,
        /// Window start in seconds.
        at: f64,
        /// Window end in seconds (must be after `at`).
        until: f64,
        /// Service-time multiplier (finite, > 0).
        slowdown: f64,
    },
    /// From `at` the server's core is pinned at `level` (snapped down to a
    /// DVFS level), ignoring its policy and any fleet ceiling, until a
    /// `StickFreq` with `level: None` — or a [`FaultEvent::Recover`] —
    /// releases it. Models a firmware-stuck or thermally capped part.
    StickFreq {
        /// Index of the affected server.
        server: usize,
        /// Absolute time the pin takes effect, in seconds.
        at: f64,
        /// Frequency to pin, or `None` to release an earlier pin.
        level: Option<Freq>,
    },
}

impl FaultEvent {
    fn server(&self) -> usize {
        match *self {
            FaultEvent::Crash { server, .. }
            | FaultEvent::Recover { server, .. }
            | FaultEvent::Straggle { server, .. }
            | FaultEvent::StickFreq { server, .. } => server,
        }
    }

    fn at(&self) -> f64 {
        match *self {
            FaultEvent::Crash { at, .. }
            | FaultEvent::Recover { at, .. }
            | FaultEvent::Straggle { at, .. }
            | FaultEvent::StickFreq { at, .. } => at,
        }
    }
}

/// A scripted, deterministic failure schedule for a whole fleet.
///
/// Built fluently and validated against the fleet size when attached
/// ([`Cluster::with_fault_plan`](crate::Cluster::with_fault_plan)). The
/// default (empty) plan is bit-neutral: attaching it changes nothing.
///
/// ```
/// use rubik_cluster::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .crash(3, 0.050)
///     .recover(3, 0.120)
///     .straggle(1, 0.010, 0.090, 4.0);
/// assert_eq!(plan.events().len(), 3);
/// assert!(plan.validate(8).is_ok());
/// assert!(plan.validate(2).is_err(), "server 3 is out of range");
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; bit-neutral).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a raw event.
    pub fn event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Crashes `server` at `at`.
    pub fn crash(self, server: usize, at: f64) -> Self {
        self.event(FaultEvent::Crash { server, at })
    }

    /// Recovers `server` at `at` (from a crash or a stuck frequency).
    pub fn recover(self, server: usize, at: f64) -> Self {
        self.event(FaultEvent::Recover { server, at })
    }

    /// Makes `server` a straggler between `at` and `until`, stretching its
    /// service times by `slowdown`.
    pub fn straggle(self, server: usize, at: f64, until: f64, slowdown: f64) -> Self {
        self.event(FaultEvent::Straggle {
            server,
            at,
            until,
            slowdown,
        })
    }

    /// Pins `server`'s frequency at `level` from `at` (`None` releases an
    /// earlier pin).
    pub fn stick_freq(self, server: usize, at: f64, level: Option<Freq>) -> Self {
        self.event(FaultEvent::StickFreq { server, at, level })
    }

    /// The scripted events, in the order they were added.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan scripts nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks the plan against a fleet of `servers` servers: every index in
    /// range, every time finite and non-negative, straggle windows
    /// non-empty with a positive finite slowdown, no double crashes, and no
    /// recovery of a server that is neither crashed nor frequency-stuck.
    /// The first offending event is reported as
    /// [`ClusterError::InvalidFaultPlan`].
    pub fn validate(&self, servers: usize) -> Result<(), ClusterError> {
        let invalid = |msg: String| Err(ClusterError::InvalidFaultPlan(msg));
        for (k, ev) in self.events.iter().enumerate() {
            let s = ev.server();
            if s >= servers {
                return invalid(format!(
                    "event {k}: server {s} out of range for a {servers}-server fleet"
                ));
            }
            let at = ev.at();
            if !at.is_finite() || at < 0.0 {
                return invalid(format!(
                    "event {k}: time {at} is not a finite, non-negative instant"
                ));
            }
            if let FaultEvent::Straggle {
                until, slowdown, ..
            } = *ev
            {
                if !until.is_finite() || until <= at {
                    return invalid(format!(
                        "event {k}: straggle window [{at}, {until}] is empty or unbounded"
                    ));
                }
                if !slowdown.is_finite() || slowdown <= 0.0 {
                    return invalid(format!(
                        "event {k}: slowdown {slowdown} must be finite and > 0"
                    ));
                }
            }
        }
        // Replay the schedule in application order and check crash/recover
        // pairing per server.
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by(|&a, &b| {
            self.events[a]
                .at()
                .total_cmp(&self.events[b].at())
                .then(a.cmp(&b))
        });
        let mut crashed = vec![false; servers];
        let mut stuck = vec![false; servers];
        for k in order {
            match self.events[k] {
                FaultEvent::Crash { server, .. } => {
                    if crashed[server] {
                        return invalid(format!(
                            "event {k}: server {server} crashes while already down"
                        ));
                    }
                    crashed[server] = true;
                }
                FaultEvent::Recover { server, .. } => {
                    if !crashed[server] && !stuck[server] {
                        return invalid(format!(
                            "event {k}: server {server} recovers but is neither down nor stuck"
                        ));
                    }
                    crashed[server] = false;
                    stuck[server] = false;
                }
                FaultEvent::StickFreq { server, level, .. } => {
                    stuck[server] = level.is_some();
                }
                FaultEvent::Straggle { .. } => {}
            }
        }
        Ok(())
    }
}

/// The client-side request lifecycle: deadlines, per-attempt timeouts,
/// retries with capped exponential backoff and deterministic jitter, and
/// what to do with work stranded on a crashed server.
///
/// The default is inert — no deadline, no timeout, no retries, nothing
/// salvaged or drained — and is bit-neutral when attached on its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestPolicy {
    /// End-to-end latency deadline per request, in seconds from its
    /// *original* arrival. Completions beyond it count as errors, not
    /// goodput. `None` disables deadline accounting.
    pub deadline: Option<f64>,
    /// Per-attempt timeout in seconds: a request still queued this long
    /// after being routed is pulled back and retried. Requests already in
    /// service are never interrupted. `None` disables timeouts.
    pub timeout: Option<f64>,
    /// Retry attempts allowed after the first (0 = never retry).
    pub max_retries: u32,
    /// Backoff before retry `k` is `backoff_base * 2^(k-1)`, capped at
    /// [`RequestPolicy::backoff_cap`], then jittered to 50–100% of itself.
    pub backoff_base: f64,
    /// Upper bound on the un-jittered backoff delay, in seconds.
    pub backoff_cap: f64,
    /// Seed for the per-(request, attempt) jitter stream. Same seed, same
    /// jitter — on any machine and any sweep thread count.
    pub jitter_seed: u64,
    /// Re-deliver the request that was in service when a server crashed
    /// (at the crash instant, counting one attempt). When `false` that
    /// request is simply lost.
    pub salvage_in_flight: bool,
    /// Drain a crashed server's queue and re-route every queued request at
    /// the crash instant (arrival times preserved). When `false` the queue
    /// stays parked until the server recovers.
    pub drain_on_crash: bool,
    /// Hedge trigger quantile: when an attempt has been outstanding longer
    /// than this quantile of the completion latencies observed so far, a
    /// speculative duplicate is launched on a second server and the first
    /// copy to complete wins. `None` disables hedging (bit-neutral).
    pub hedge_quantile: Option<f64>,
    /// Floor on the hedge trigger delay, in seconds: early in a run (or
    /// under a crashed-estimate workload) the tracked quantile can be tiny,
    /// and this keeps hedges from firing on every request.
    pub hedge_min_delay: f64,
    /// How many recent completion latencies the hedge trigger quantile is
    /// computed over (oldest-out). Bounding the tracker keeps a streamed
    /// run's memory at O(in-flight + window) instead of O(completed), and
    /// lets the trigger adapt when the latency distribution drifts
    /// mid-run. Default 1024.
    pub hedge_window: usize,
}

impl Default for RequestPolicy {
    fn default() -> Self {
        Self {
            deadline: None,
            timeout: None,
            max_retries: 0,
            backoff_base: 1e-3,
            backoff_cap: 100e-3,
            jitter_seed: 0,
            salvage_in_flight: false,
            drain_on_crash: false,
            hedge_quantile: None,
            hedge_min_delay: 0.0,
            hedge_window: 1024,
        }
    }
}

impl RequestPolicy {
    /// The inert policy (same as [`Default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the end-to-end deadline, in seconds.
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        assert!(
            deadline.is_finite() && deadline > 0.0,
            "deadline must be finite and positive"
        );
        self.deadline = Some(deadline);
        self
    }

    /// Sets the per-attempt timeout, in seconds.
    pub fn with_timeout(mut self, timeout: f64) -> Self {
        assert!(
            timeout.is_finite() && timeout > 0.0,
            "timeout must be finite and positive"
        );
        self.timeout = Some(timeout);
        self
    }

    /// Allows up to `max_retries` retries with exponential backoff starting
    /// at `base` seconds and capped at `cap` seconds.
    pub fn with_retries(mut self, max_retries: u32, base: f64, cap: f64) -> Self {
        assert!(base.is_finite() && base > 0.0, "backoff base must be > 0");
        assert!(
            cap.is_finite() && cap >= base,
            "backoff cap must be >= base"
        );
        self.max_retries = max_retries;
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Seeds the deterministic retry jitter.
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Enables salvaging the in-service request of a crashing server.
    pub fn salvaging_in_flight(mut self) -> Self {
        self.salvage_in_flight = true;
        self
    }

    /// Enables draining and re-routing a crashed server's queue.
    pub fn draining_on_crash(mut self) -> Self {
        self.drain_on_crash = true;
        self
    }

    /// Enables hedged requests: when an attempt has been outstanding for
    /// longer than the `quantile` of completion latencies observed so far
    /// (never less than `min_delay` seconds), a speculative duplicate is
    /// launched on the shortest-queue routable server other than the one
    /// already holding the attempt. The first copy to complete wins and the
    /// other is cancelled. The trigger delay is sampled once, when the
    /// attempt is routed.
    pub fn with_hedging(mut self, quantile: f64, min_delay: f64) -> Self {
        assert!(
            quantile > 0.0 && quantile < 1.0,
            "hedge quantile must be in (0, 1)"
        );
        assert!(
            min_delay.is_finite() && min_delay >= 0.0,
            "hedge min delay must be finite and non-negative"
        );
        self.hedge_quantile = Some(quantile);
        self.hedge_min_delay = min_delay;
        self
    }

    /// Sets how many recent completion latencies feed the hedge trigger
    /// quantile (default 1024). Larger windows smooth the trigger; smaller
    /// ones adapt faster to drift. Memory and per-completion work are both
    /// bounded by the window, never by the stream length.
    pub fn with_hedge_window(mut self, window: usize) -> Self {
        assert!(window > 0, "hedge window must be positive");
        self.hedge_window = window;
        self
    }

    /// Un-jittered, capped exponential delay before retry `k` (1-based).
    fn raw_backoff(&self, k: u32) -> f64 {
        let exp = self.backoff_base * 2f64.powi(k.saturating_sub(1).min(30) as i32);
        exp.min(self.backoff_cap)
    }

    /// Jittered backoff for retry `k` of request `id`: deterministic in
    /// `(jitter_seed, id, k)`, uniform over 50–100% of the capped delay.
    pub(crate) fn backoff_delay(&self, id: u64, k: u32) -> f64 {
        let mut rng = DeterministicRng::new(
            self.jitter_seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(k),
        );
        self.raw_backoff(k) * (0.5 + 0.5 * rng.uniform())
    }
}

/// Live fleet health, maintained from the applied fault ops.
#[derive(Debug, Clone)]
pub(crate) struct HealthTracker {
    healths: Vec<ServerHealth>,
    straggle_until: Vec<f64>,
}

impl HealthTracker {
    fn new(servers: usize) -> Self {
        Self {
            healths: vec![ServerHealth::Up; servers],
            straggle_until: vec![f64::NEG_INFINITY; servers],
        }
    }

    fn mark_crashed(&mut self, server: usize) {
        self.healths[server] = ServerHealth::Down;
    }

    fn mark_straggling(&mut self, server: usize, until: f64) {
        self.straggle_until[server] = until;
        if self.healths[server] != ServerHealth::Down {
            self.healths[server] = ServerHealth::Straggling;
        }
    }

    /// Returns whether the straggle window really is over (a later window
    /// may have superseded the one whose end fired).
    fn straggle_ended(&mut self, server: usize, now: f64) -> bool {
        if self.straggle_until[server] > now {
            return false;
        }
        if self.healths[server] == ServerHealth::Straggling {
            self.healths[server] = ServerHealth::Up;
        }
        true
    }

    fn mark_recovered(&mut self, server: usize, now: f64) {
        self.healths[server] = if now < self.straggle_until[server] {
            ServerHealth::Straggling
        } else {
            ServerHealth::Up
        };
    }

    fn health_of(&self, server: usize) -> ServerHealth {
        self.healths[server]
    }
}

/// One expanded, time-ordered fault op (straggle windows split into a start
/// and an end).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TimedOp {
    pub(crate) at: f64,
    seq: u64,
    pub(crate) server: usize,
    pub(crate) kind: OpKind,
}

/// What a [`TimedOp`] does to its server.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpKind {
    Crash,
    Recover,
    StraggleStart { until: f64, slowdown: f64 },
    StraggleEnd,
    Stick { level: Option<Freq> },
}

fn expand(plan: &FaultPlan) -> Vec<TimedOp> {
    let mut ops = Vec::with_capacity(plan.events().len() * 2);
    for (i, ev) in plan.events().iter().enumerate() {
        let seq = 2 * i as u64;
        match *ev {
            FaultEvent::Crash { server, at } => ops.push(TimedOp {
                at,
                seq,
                server,
                kind: OpKind::Crash,
            }),
            FaultEvent::Recover { server, at } => ops.push(TimedOp {
                at,
                seq,
                server,
                kind: OpKind::Recover,
            }),
            FaultEvent::StickFreq { server, at, level } => ops.push(TimedOp {
                at,
                seq,
                server,
                kind: OpKind::Stick { level },
            }),
            FaultEvent::Straggle {
                server,
                at,
                until,
                slowdown,
            } => {
                ops.push(TimedOp {
                    at,
                    seq,
                    server,
                    kind: OpKind::StraggleStart { until, slowdown },
                });
                ops.push(TimedOp {
                    at: until,
                    seq: seq + 1,
                    server,
                    kind: OpKind::StraggleEnd,
                });
            }
        }
    }
    ops.sort_by(|a, b| a.at.total_cmp(&b.at).then(a.seq.cmp(&b.seq)));
    ops
}

/// A pending (routed, not yet completed) request attempt. While `hedge`
/// is `Some(h)`, two copies of the attempt are live — the original on
/// `server` and a speculative duplicate on `h` — and exactly one of them
/// will produce the completion record.
#[derive(Debug, Clone, Copy)]
struct Pending {
    server: usize,
    attempt: u32,
    hedge: Option<usize>,
}

/// A scheduled per-attempt timeout. Ordered by `(due, seq)`.
#[derive(Debug, Clone, Copy)]
struct TimeoutEntry {
    due: f64,
    seq: u64,
    id: u64,
    attempt: u32,
}

impl PartialEq for TimeoutEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for TimeoutEntry {}
impl Ord for TimeoutEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.due
            .total_cmp(&other.due)
            .then(self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for TimeoutEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A scheduled retry delivery. Ordered by `(due, seq)`; the payload is
/// ignored by the ordering.
#[derive(Debug, Clone, Copy)]
struct RetryEntry {
    due: f64,
    seq: u64,
    attempt: u32,
    spec: RequestSpec,
}

impl PartialEq for RetryEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for RetryEntry {}
impl Ord for RetryEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.due
            .total_cmp(&other.due)
            .then(self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for RetryEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A scheduled hedge launch: if the attempt is still pending when `due`
/// arrives, a duplicate of `spec` is injected on a second server. Ordered
/// by `(due, seq)`; the payload is ignored by the ordering.
#[derive(Debug, Clone, Copy)]
struct HedgeEntry {
    due: f64,
    seq: u64,
    attempt: u32,
    spec: RequestSpec,
}

impl PartialEq for HedgeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HedgeEntry {}
impl Ord for HedgeEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.due
            .total_cmp(&other.due)
            .then(self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for HedgeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// How a hedged pair resolved when one copy completed: the driver must
/// cancel the other copy (`loser` is the server the layer last saw it on —
/// a hint, since a migrator may have moved it) and record whether the
/// speculative copy was the one that won.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HedgeResolution {
    pub(crate) loser: usize,
    pub(crate) hedge_won: bool,
}

/// The driver-side fault and request-lifecycle state: the expanded op
/// stream, the timeout and retry schedules, per-request pending bookkeeping,
/// and the availability counters. Pure bookkeeping — the driver owns every
/// touch of the actual [`rubik_sim::ServerSim`]s.
#[derive(Debug)]
pub(crate) struct FaultLayer {
    ops: Vec<TimedOp>,
    cursor: usize,
    timeouts: BinaryHeap<Reverse<TimeoutEntry>>,
    retries: BinaryHeap<Reverse<RetryEntry>>,
    hedges: BinaryHeap<Reverse<HedgeEntry>>,
    pending: HashMap<u64, Pending>,
    /// The most recent completion latencies (bounded, oldest-out); feeds
    /// the hedge trigger quantile. Only populated when hedging is enabled,
    /// and never larger than [`RequestPolicy::hedge_window`] — a streamed
    /// run's memory stays O(in-flight + window), not O(completed).
    latencies: RollingQuantileWindow,
    policy: RequestPolicy,
    tracker: HealthTracker,
    stats: AvailabilityStats,
    seq: u64,
}

impl FaultLayer {
    pub(crate) fn new(plan: Option<&FaultPlan>, policy: RequestPolicy, servers: usize) -> Self {
        Self {
            ops: plan.map(expand).unwrap_or_default(),
            cursor: 0,
            timeouts: BinaryHeap::new(),
            retries: BinaryHeap::new(),
            hedges: BinaryHeap::new(),
            pending: HashMap::new(),
            latencies: RollingQuantileWindow::new(policy.hedge_window.max(1)),
            policy,
            tracker: HealthTracker::new(servers),
            stats: AvailabilityStats::default(),
            seq: 0,
        }
    }

    pub(crate) fn policy(&self) -> &RequestPolicy {
        &self.policy
    }

    pub(crate) fn health_of(&self, server: usize) -> ServerHealth {
        self.tracker.health_of(server)
    }

    /// Earliest instant at which the layer has work: the next scripted op,
    /// retry delivery, hedge launch, or attempt timeout. Infinite when
    /// there is none — an empty plan with an inert policy never produces a
    /// boundary.
    pub(crate) fn next_boundary(&self) -> f64 {
        let mut t = f64::INFINITY;
        if let Some(op) = self.ops.get(self.cursor) {
            t = t.min(op.at);
        }
        if let Some(Reverse(e)) = self.timeouts.peek() {
            t = t.min(e.due);
        }
        if let Some(Reverse(e)) = self.retries.peek() {
            t = t.min(e.due);
        }
        if let Some(Reverse(e)) = self.hedges.peek() {
            t = t.min(e.due);
        }
        t
    }

    /// Pops the next scripted op due at or before `now`.
    pub(crate) fn pop_due_op(&mut self, now: f64) -> Option<TimedOp> {
        let op = *self.ops.get(self.cursor)?;
        if op.at > now {
            return None;
        }
        self.cursor += 1;
        Some(op)
    }

    /// Pops the next retry delivery due at or before `now`.
    pub(crate) fn pop_due_retry(&mut self, now: f64) -> Option<(RequestSpec, u32)> {
        let &Reverse(e) = self.retries.peek()?;
        if e.due > now {
            return None;
        }
        self.retries.pop();
        Some((e.spec, e.attempt))
    }

    /// Pops the next *valid* timeout due at or before `now`, discarding
    /// entries whose request already completed or was re-attempted — or
    /// whose attempt has an active hedge (the duplicate supersedes the
    /// timeout: two copies are racing, pulling one back would defeat the
    /// point). Returns `(id, attempt, server)` — the driver pulls the
    /// request off that server's queue (or leaves it alone if it is in
    /// service).
    pub(crate) fn pop_due_timeout(&mut self, now: f64) -> Option<(u64, u32, usize)> {
        while let Some(&Reverse(e)) = self.timeouts.peek() {
            if e.due > now {
                return None;
            }
            self.timeouts.pop();
            match self.pending.get(&e.id) {
                Some(p) if p.attempt == e.attempt && p.hedge.is_none() => {
                    self.stats.timeouts += 1;
                    return Some((e.id, e.attempt, p.server));
                }
                _ => continue, // stale: completed, superseded, or hedged
            }
        }
        None
    }

    /// Pops the next *valid* hedge launch due at or before `now`,
    /// discarding entries whose attempt already completed, retried, or
    /// hedged. Returns `(spec, attempt, primary)` — the driver injects a
    /// duplicate of `spec` on a server other than `primary`.
    pub(crate) fn pop_due_hedge(&mut self, now: f64) -> Option<(RequestSpec, u32, usize)> {
        while let Some(&Reverse(e)) = self.hedges.peek() {
            if e.due > now {
                return None;
            }
            self.hedges.pop();
            match self.pending.get(&e.spec.id) {
                Some(p) if p.attempt == e.attempt && p.hedge.is_none() => {
                    return Some((e.spec, e.attempt, p.server));
                }
                _ => continue, // stale: completed, retried, or already hedged
            }
        }
        None
    }

    /// Records that attempt `attempt` of request `spec.id` was routed to
    /// `server` at `now`, scheduling its timeout if the policy has one and
    /// its hedge launch if hedging is enabled. The hedge trigger delay is
    /// sampled here, once per routed attempt: the tracked quantile of
    /// completion latencies so far, floored at
    /// [`RequestPolicy::hedge_min_delay`].
    pub(crate) fn on_routed(&mut self, spec: RequestSpec, server: usize, attempt: u32, now: f64) {
        let id = spec.id;
        self.pending.insert(
            id,
            Pending {
                server,
                attempt,
                hedge: None,
            },
        );
        if let Some(timeout) = self.policy.timeout {
            self.seq += 1;
            self.timeouts.push(Reverse(TimeoutEntry {
                due: now + timeout,
                seq: self.seq,
                id,
                attempt,
            }));
        }
        if let Some(q) = self.policy.hedge_quantile {
            let tracked = self.latencies.quantile(q).unwrap_or(0.0);
            self.seq += 1;
            self.hedges.push(Reverse(HedgeEntry {
                due: now + tracked.max(self.policy.hedge_min_delay),
                seq: self.seq,
                attempt,
                spec,
            }));
        }
    }

    /// Records that the duplicate of request `id` was launched on `target`.
    pub(crate) fn hedge_launched(&mut self, id: u64, target: usize) {
        self.stats.hedged += 1;
        if let Some(p) = self.pending.get_mut(&id) {
            p.hedge = Some(target);
        }
    }

    /// Records that request `id` completed on `server` with end-to-end
    /// latency `latency`; its pending attempt (and any outstanding timeout
    /// or hedge launch) is dropped. If the attempt had an active hedge, the
    /// pair resolves first-completion-wins: the returned
    /// [`HedgeResolution`] tells the driver which server to cancel the
    /// losing copy on.
    pub(crate) fn on_completion(
        &mut self,
        id: u64,
        server: usize,
        latency: f64,
    ) -> Option<HedgeResolution> {
        if self.policy.hedge_quantile.is_some() {
            self.latencies.push(latency);
        }
        let p = self.pending.remove(&id)?;
        let twin = p.hedge?;
        // While a hedge is active exactly two copies are live, so the one
        // that did not just complete must still be cancellable somewhere.
        let hedge_won = server == twin;
        self.stats.hedge_wins += usize::from(hedge_won);
        self.stats.hedge_cancelled += 1;
        Some(HedgeResolution {
            loser: if hedge_won { p.server } else { twin },
            hedge_won,
        })
    }

    /// Reports that one copy of request `id` was destroyed on `server` by a
    /// crash. Returns `true` when the attempt had an active hedge — the
    /// surviving copy carries on alone (no salvage, no drop, no loss) —
    /// and `false` for un-hedged requests, which take the normal crash
    /// path.
    pub(crate) fn copy_lost(&mut self, id: u64, server: usize) -> bool {
        let Some(p) = self.pending.get_mut(&id) else {
            return false;
        };
        let Some(twin) = p.hedge.take() else {
            return false;
        };
        if twin != server {
            // The primary (or a copy whose tracked location went stale
            // under migration) died: the duplicate is now the sole copy.
            p.server = twin;
        }
        true
    }

    /// Handles a timed-out request that was pulled off a queue: drop it if
    /// its retry budget is exhausted, otherwise schedule the next attempt
    /// after a jittered backoff. Returns the retry's due time, or `None`
    /// when the request was dropped — the driver's telemetry records a
    /// backoff or a drop accordingly.
    pub(crate) fn retry_or_drop(
        &mut self,
        spec: RequestSpec,
        attempt: u32,
        now: f64,
    ) -> Option<f64> {
        self.pending.remove(&spec.id);
        if attempt > self.policy.max_retries {
            return None; // out of budget: lost, surfaces in `finalize`
        }
        self.stats.retries += 1;
        self.seq += 1;
        let due = now + self.policy.backoff_delay(spec.id, attempt);
        self.retries.push(Reverse(RetryEntry {
            due,
            seq: self.seq,
            attempt: attempt + 1,
            spec,
        }));
        Some(due)
    }

    /// Salvages the request that was in service on a crashing server:
    /// re-delivered at the crash instant, counting one attempt.
    pub(crate) fn salvage(&mut self, spec: RequestSpec, now: f64) {
        let attempt = self.pending.remove(&spec.id).map_or(1, |p| p.attempt);
        self.stats.salvaged_in_flight += 1;
        self.seq += 1;
        self.retries.push(Reverse(RetryEntry {
            due: now,
            seq: self.seq,
            attempt: attempt + 1,
            spec,
        }));
    }

    /// Drops the in-service request of a crashing server (salvage
    /// disabled): it will never complete and counts as lost.
    pub(crate) fn drop_in_flight(&mut self, id: u64) {
        self.pending.remove(&id);
    }

    /// Records that queued request `id` was force-moved from `from` to
    /// `to` by a crash drain (its attempt — and timeout — carry over). If
    /// the moved copy was a hedged duplicate, the duplicate's tracked
    /// location follows it; otherwise the primary's does.
    pub(crate) fn requeued(&mut self, id: u64, from: usize, to: usize) {
        self.stats.requeued_on_failure += 1;
        if let Some(p) = self.pending.get_mut(&id) {
            if p.hedge == Some(from) {
                p.hedge = Some(to);
            } else {
                p.server = to;
            }
        }
    }

    /// Applies a scripted op's bookkeeping (health + straggle windows) and
    /// reports what the driver must do to the server. Returns `true` for a
    /// `StraggleEnd` whose window really is over (reset the slowdown).
    pub(crate) fn track_op(&mut self, op: &TimedOp) -> bool {
        match op.kind {
            OpKind::Crash => {
                self.tracker.mark_crashed(op.server);
                true
            }
            OpKind::Recover => {
                self.tracker.mark_recovered(op.server, op.at);
                true
            }
            OpKind::StraggleStart { until, .. } => {
                self.tracker.mark_straggling(op.server, until);
                true
            }
            OpKind::StraggleEnd => self.tracker.straggle_ended(op.server, op.at),
            OpKind::Stick { .. } => true,
        }
    }

    /// The availability counters accumulated so far (completion-derived
    /// fields are only filled by [`FaultLayer::finalize`]); read by the
    /// driver's telemetry sampling for cumulative retry/timeout series.
    pub(crate) fn stats(&self) -> &AvailabilityStats {
        &self.stats
    }

    /// Whether any scripted op, retry, hedge, or timeout remains
    /// schedulable.
    #[cfg(test)]
    pub(crate) fn exhausted(&self) -> bool {
        self.cursor >= self.ops.len()
            && self.retries.is_empty()
            && self.timeouts.is_empty()
            && self.hedges.is_empty()
    }

    /// Closes the books: folds the per-server completion records into the
    /// availability counters accumulated during the run.
    pub(crate) fn finalize(
        &mut self,
        offered: usize,
        quantile: f64,
        results: &[RunResult],
    ) -> AvailabilityStats {
        let mut ok_latencies = Vec::new();
        let mut completed = 0usize;
        let mut late = 0usize;
        for r in results {
            for rec in r.records() {
                completed += 1;
                let latency = rec.latency();
                match self.policy.deadline {
                    Some(d) if latency > d => late += 1,
                    _ => ok_latencies.push(latency),
                }
            }
        }
        let lost = offered.saturating_sub(completed);
        self.stats.offered = offered;
        self.stats.completed = completed;
        self.stats.lost = lost;
        self.stats.goodput = completed - late;
        self.stats.deadline_exceeded = late + lost;
        self.stats.tail_latency_ok = percentile(&ok_latencies, quantile);
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_plan_has_no_boundaries() {
        let layer = FaultLayer::new(Some(&FaultPlan::new()), RequestPolicy::default(), 4);
        assert!(layer.next_boundary().is_infinite());
        assert!(layer.exhausted());
    }

    #[test]
    fn hedge_trigger_quantile_tracks_a_bounded_window_of_recent_latencies() {
        // Property: the trigger delay `on_routed` samples is the exact
        // quantile of the last `hedge_window` completion latencies — never
        // of the full history — and the tracker retains at most
        // `hedge_window` samples no matter how many completions stream by.
        let window = 32;
        let q = 0.9;
        let policy = RequestPolicy::new()
            .with_hedging(q, 0.0)
            .with_hedge_window(window);
        let mut layer = FaultLayer::new(None, policy, 4);
        let mut rng = DeterministicRng::new(7);
        let mut history: Vec<f64> = Vec::new();
        for id in 0..500u64 {
            layer.on_routed(RequestSpec::new(id, 0.0, 1e6, 0.0), 0, 1, 0.0);
            let trigger = layer
                .hedges
                .iter()
                .map(|&Reverse(e)| e)
                .max_by_key(|e| e.seq)
                .expect("on_routed schedules a hedge")
                .due;
            let tail = &history[history.len().saturating_sub(window)..];
            let mut sorted = tail.to_vec();
            sorted.sort_unstable_by(f64::total_cmp);
            let expected = if sorted.is_empty() {
                0.0
            } else {
                rubik_stats::percentile_of_sorted(&sorted, q)
            };
            assert_eq!(
                trigger.to_bits(),
                expected.to_bits(),
                "trigger diverged from the exact in-window quantile after {} completions",
                history.len()
            );
            let latency = 1e-3 * (1.0 + rng.uniform());
            assert!(layer.on_completion(id, 0, latency).is_none());
            history.push(latency);
            assert!(layer.latencies.len() <= window);
        }
        assert_eq!(layer.latencies.len(), window);
    }

    #[test]
    fn expansion_orders_ops_by_time_then_plan_order() {
        let plan = FaultPlan::new()
            .straggle(1, 0.010, 0.030, 2.0)
            .crash(0, 0.030)
            .recover(0, 0.050);
        let ops = expand(&plan);
        let times: Vec<f64> = ops.iter().map(|o| o.at).collect();
        assert_eq!(times, vec![0.010, 0.030, 0.030, 0.050]);
        // At t = 0.030 the straggle end (written first) precedes the crash.
        assert!(matches!(ops[1].kind, OpKind::StraggleEnd));
        assert!(matches!(ops[2].kind, OpKind::Crash));
    }

    #[test]
    fn validate_rejects_out_of_range_double_crash_and_bad_windows() {
        assert!(FaultPlan::new().crash(5, 0.1).validate(4).is_err());
        assert!(FaultPlan::new()
            .crash(0, 0.1)
            .crash(0, 0.2)
            .validate(4)
            .is_err());
        assert!(FaultPlan::new().recover(0, 0.1).validate(4).is_err());
        assert!(FaultPlan::new()
            .straggle(0, 0.2, 0.1, 2.0)
            .validate(4)
            .is_err());
        assert!(FaultPlan::new()
            .straggle(0, 0.1, 0.2, -1.0)
            .validate(4)
            .is_err());
        assert!(FaultPlan::new().crash(0, f64::NAN).validate(4).is_err());
        assert!(FaultPlan::new()
            .crash(0, 0.1)
            .recover(0, 0.2)
            .crash(0, 0.3)
            .validate(4)
            .is_ok());
        // Recovery is also how a stuck frequency is released.
        assert!(FaultPlan::new()
            .stick_freq(2, 0.1, Some(Freq::from_mhz(1200)))
            .recover(2, 0.3)
            .validate(4)
            .is_ok());
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let policy = RequestPolicy::new()
            .with_retries(8, 1e-3, 4e-3)
            .with_jitter_seed(7);
        assert!((policy.raw_backoff(1) - 1e-3).abs() < 1e-15);
        assert!((policy.raw_backoff(2) - 2e-3).abs() < 1e-15);
        assert!((policy.raw_backoff(3) - 4e-3).abs() < 1e-15);
        assert!((policy.raw_backoff(7) - 4e-3).abs() < 1e-15, "capped");
        for k in 1..6 {
            let d = policy.backoff_delay(42, k);
            let raw = policy.raw_backoff(k);
            assert!(d >= 0.5 * raw && d <= raw, "jitter within 50–100%");
            assert_eq!(
                d.to_bits(),
                policy.backoff_delay(42, k).to_bits(),
                "bitwise repeatable"
            );
        }
        assert_ne!(
            policy.backoff_delay(42, 1).to_bits(),
            policy.backoff_delay(43, 1).to_bits(),
            "different requests jitter differently"
        );
    }

    #[test]
    fn timeouts_are_discarded_once_the_request_completes_or_retries() {
        let policy = RequestPolicy::new()
            .with_timeout(1e-3)
            .with_retries(2, 1e-3, 1e-2);
        let mut layer = FaultLayer::new(None, policy, 2);
        layer.on_routed(RequestSpec::new(7, 0.0, 1e6, 0.0), 0, 1, 0.0);
        layer.on_completion(7, 0, 1e-3);
        assert!(layer.pop_due_timeout(1.0).is_none(), "completed: stale");
        assert_eq!(layer.stats.timeouts, 0);

        layer.on_routed(RequestSpec::new(8, 0.0, 1e6, 0.0), 1, 1, 0.0);
        let (id, attempt, server) = layer.pop_due_timeout(1.0).expect("due");
        assert_eq!((id, attempt, server), (8, 1, 1));
        let spec = RequestSpec::new(8, 0.0, 1e6, 0.0);
        layer.retry_or_drop(spec, attempt, 1e-3);
        assert_eq!(layer.stats.retries, 1);
        let (respec, next_attempt) = layer.pop_due_retry(1.0).expect("scheduled");
        assert_eq!(respec.id, 8);
        assert_eq!(next_attempt, 2);
    }

    #[test]
    fn hedge_trigger_floors_at_min_delay_then_tracks_the_quantile() {
        let policy = RequestPolicy::new().with_hedging(0.5, 4e-3);
        let mut layer = FaultLayer::new(None, policy, 3);
        // No latency history yet: the launch lands at now + min_delay.
        layer.on_routed(RequestSpec::new(0, 0.0, 1e6, 0.0), 0, 1, 0.0);
        assert!((layer.next_boundary() - 4e-3).abs() < 1e-15);
        let (spec, attempt, primary) = layer.pop_due_hedge(4e-3).expect("due");
        assert_eq!((spec.id, attempt, primary), (0, 1, 0));
        layer.hedge_launched(0, 1);
        assert!(
            layer.pop_due_hedge(1.0).is_none(),
            "an attempt hedges at most once"
        );
        // Completions teach the tracker; the median of {10ms, 20ms} at the
        // nearest-rank convention is 10ms, above the 4ms floor.
        layer.on_completion(0, 0, 10e-3);
        layer.on_routed(RequestSpec::new(1, 0.0, 1e6, 0.0), 1, 1, 0.0);
        layer.on_completion(1, 1, 20e-3);
        layer.on_routed(RequestSpec::new(2, 1.0, 1e6, 0.0), 2, 1, 1.0);
        let (spec, _, _) = layer.pop_due_hedge(1.0 + 10e-3).expect("due");
        assert_eq!(spec.id, 2);
    }

    #[test]
    fn hedged_pairs_resolve_first_completion_wins() {
        let policy = RequestPolicy::new()
            .with_timeout(1e-3)
            .with_retries(2, 1e-3, 1e-2)
            .with_hedging(0.9, 0.0);
        let mut layer = FaultLayer::new(None, policy, 4);
        layer.on_routed(RequestSpec::new(5, 0.0, 1e6, 0.0), 0, 1, 0.0);
        layer
            .pop_due_hedge(0.0)
            .expect("floor of zero fires at once");
        layer.hedge_launched(5, 2);
        assert!(
            layer.pop_due_timeout(1.0).is_none(),
            "the duplicate supersedes the attempt timeout"
        );
        assert_eq!(layer.stats.timeouts, 0);
        // The duplicate on server 2 completes first.
        let res = layer.on_completion(5, 2, 5e-4).expect("pair resolves");
        assert_eq!(res.loser, 0);
        assert!(res.hedge_won);
        assert_eq!(layer.stats.hedged, 1);
        assert_eq!(layer.stats.hedge_wins, 1);
        assert_eq!(layer.stats.hedge_cancelled, 1);

        // The mirror case: the primary wins, the duplicate loses. (The
        // first completion taught the tracker, so the trigger now sits at
        // the tracked 0.9-quantile, 5e-4.)
        layer.on_routed(RequestSpec::new(6, 0.0, 1e6, 0.0), 1, 1, 0.0);
        layer.pop_due_hedge(5e-4).expect("due");
        layer.hedge_launched(6, 3);
        let res = layer.on_completion(6, 1, 5e-4).expect("pair resolves");
        assert_eq!(res.loser, 3);
        assert!(!res.hedge_won);
        assert_eq!(layer.stats.hedge_wins, 1, "primary win is not a hedge win");
    }

    #[test]
    fn a_crash_promotes_the_surviving_copy_of_a_hedged_pair() {
        let policy = RequestPolicy::new().with_hedging(0.9, 0.0);
        let mut layer = FaultLayer::new(None, policy, 4);
        layer.on_routed(RequestSpec::new(9, 0.0, 1e6, 0.0), 0, 1, 0.0);
        layer.pop_due_hedge(0.0).expect("due");
        layer.hedge_launched(9, 2);
        // The duplicate's server crashes: the primary carries on alone and
        // a later completion resolves nothing (no copy left to cancel).
        assert!(layer.copy_lost(9, 2), "hedged: survivor carries on");
        assert!(layer.on_completion(9, 0, 1e-3).is_none());
        // Un-hedged requests report false and take the normal crash path.
        layer.on_routed(RequestSpec::new(10, 0.0, 1e6, 0.0), 1, 1, 0.0);
        assert!(!layer.copy_lost(10, 1));
    }

    #[test]
    fn retry_budget_exhaustion_drops_the_request() {
        let policy = RequestPolicy::new()
            .with_timeout(1e-3)
            .with_retries(1, 1e-3, 1e-2);
        let mut layer = FaultLayer::new(None, policy, 1);
        let spec = RequestSpec::new(3, 0.0, 1e6, 0.0);
        layer.retry_or_drop(spec, 1, 0.0);
        assert_eq!(layer.stats.retries, 1);
        let (_, attempt) = layer.pop_due_retry(1.0).expect("first retry runs");
        layer.retry_or_drop(spec, attempt, 0.01);
        assert_eq!(layer.stats.retries, 1, "budget spent: no second retry");
        assert!(layer.pop_due_retry(10.0).is_none());
        assert!(layer.exhausted());
    }

    #[test]
    fn health_tracking_follows_crash_straggle_and_recovery() {
        let plan = FaultPlan::new()
            .straggle(0, 0.0, 1.0, 3.0)
            .crash(1, 0.1)
            .recover(1, 0.2);
        let mut layer = FaultLayer::new(Some(&plan), RequestPolicy::default(), 2);
        let op = layer.pop_due_op(0.0).expect("straggle start");
        layer.track_op(&op);
        assert_eq!(layer.health_of(0), ServerHealth::Straggling);
        let op = layer.pop_due_op(0.1).expect("crash");
        layer.track_op(&op);
        assert_eq!(layer.health_of(1), ServerHealth::Down);
        let op = layer.pop_due_op(0.2).expect("recover");
        layer.track_op(&op);
        assert_eq!(layer.health_of(1), ServerHealth::Up);
        // The straggle end at t = 1.0 restores server 0.
        let op = layer.pop_due_op(1.0).expect("straggle end");
        assert!(layer.track_op(&op), "window over: reset the slowdown");
        assert_eq!(layer.health_of(0), ServerHealth::Up);
        assert!(layer.exhausted());
    }

    #[test]
    fn a_superseded_straggle_end_does_not_heal_the_server() {
        let plan = FaultPlan::new()
            .straggle(0, 0.0, 0.5, 2.0)
            .straggle(0, 0.2, 1.0, 4.0);
        let mut layer = FaultLayer::new(Some(&plan), RequestPolicy::default(), 1);
        for t in [0.0, 0.2] {
            let op = layer.pop_due_op(t).expect("start");
            layer.track_op(&op);
        }
        let op = layer.pop_due_op(0.5).expect("first window's end");
        assert!(!layer.track_op(&op), "superseded by the longer window");
        assert_eq!(layer.health_of(0), ServerHealth::Straggling);
        let op = layer.pop_due_op(1.0).expect("second window's end");
        assert!(layer.track_op(&op));
        assert_eq!(layer.health_of(0), ServerHealth::Up);
    }

    #[test]
    fn finalize_splits_goodput_errors_and_losses() {
        use rubik_sim::RunResult;
        let policy = RequestPolicy::new().with_deadline(2e-3);
        let mut layer = FaultLayer::new(None, policy, 1);
        let mut records = Vec::new();
        for i in 0..8u64 {
            let latency = if i < 6 { 1e-3 } else { 5e-3 };
            records.push(rubik_sim::RequestRecord {
                id: i,
                arrival: 0.0,
                start: 0.0,
                completion: latency,
                compute_cycles: 1e6,
                membound_time: 0.0,
                queue_len_at_arrival: 0,
                class: 0,
            });
        }
        let results = vec![RunResult::new(records, Vec::new(), 1.0)];
        // 10 offered, 8 completed (2 lost), 2 of the completions late.
        let stats = layer.finalize(10, 0.95, &results);
        assert_eq!(stats.offered, 10);
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.lost, 2);
        assert_eq!(stats.goodput, 6);
        assert_eq!(stats.deadline_exceeded, 4);
        assert!((stats.goodput_fraction() - 0.6).abs() < 1e-12);
        let tail_ok = stats
            .tail_latency_ok
            .expect("in-deadline completions exist");
        assert!((tail_ok - 1e-3).abs() < 1e-12);
    }
}
