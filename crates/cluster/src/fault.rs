//! Deterministic fault injection and the request-lifecycle layer.
//!
//! A [`FaultPlan`] scripts failures against a fleet: crashes, recoveries,
//! straggler windows (all service stretched by a factor), and stuck
//! frequencies. The plan is a plain list of [`FaultEvent`]s with absolute
//! times; the cluster driver schedules each event as an op (a straggle
//! window as a start and an end) on one queue that also holds the retry
//! deliveries, hedge launches and attempt timeouts described below, and
//! applies the work *between* simulation events, so an identical plan
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
use crate::min_tree::{from_total_order_bits, total_order_bits};
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
/// ([`Cluster::try_with_fault_plan`](crate::Cluster::try_with_fault_plan)). The
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

/// What a scripted op does to its server (a straggle window is split into
/// a start and an end).
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpKind {
    Crash,
    Recover,
    StraggleStart { until: f64, slowdown: f64 },
    StraggleEnd,
    Stick { level: Option<Freq> },
}

/// One piece of fault work, as [`FaultLayer::pop_due`] hands it to the
/// driver.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultWork {
    /// A scripted op against `server`.
    Op { server: usize, op: OpKind },
    /// Delivery of attempt `attempt` of `spec`: a retry after a timeout's
    /// backoff, or a request salvaged from a crash.
    Retry { spec: RequestSpec, attempt: u32 },
    /// A hedge launch: a duplicate of attempt `attempt` of `spec` goes to
    /// a server other than `primary`, the one holding the attempt.
    Hedge {
        spec: RequestSpec,
        attempt: u32,
        primary: usize,
    },
    /// A timeout of attempt `attempt` of request `id`, queued or in service
    /// on `server`.
    Timeout {
        id: u64,
        attempt: u32,
        server: usize,
    },
}

impl FaultWork {
    /// Where this kind of work runs among work due at the same instant:
    /// ops change health, which retry and hedge routing observe; retries
    /// route before hedge launches pick their targets; a launch due with
    /// its attempt's timeout supersedes it; and timeouts run last, so a
    /// retry delivered at an instant cannot time out at that instant.
    fn rank(&self) -> u8 {
        match self {
            FaultWork::Op { .. } => 0,
            FaultWork::Retry { .. } => 1,
            FaultWork::Hedge { .. } => 2,
            FaultWork::Timeout { .. } => 3,
        }
    }
}

/// An entry of the fault layer's schedule. Entries order by `key` alone:
/// `(total_order_bits(due), work.rank(), seq)`, with `seq` unique.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    key: (u64, u8, u64),
    work: FaultWork,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Scheduled {}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
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

/// How a hedged pair resolved when one copy completed: the driver must
/// cancel the other copy (`loser` is the server the layer last saw it on —
/// a hint, since a migrator may have moved it) and record whether the
/// speculative copy was the one that won.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HedgeResolution {
    pub(crate) loser: usize,
    pub(crate) hedge_won: bool,
}

/// The driver-side fault and request-lifecycle state: one schedule of fault
/// work, per-request pending bookkeeping, each server's straggle-window
/// end, and the availability counters. Pure bookkeeping — the driver owns
/// every touch of the actual [`rubik_sim::ServerSim`]s and the health
/// table its router views read.
#[derive(Debug)]
pub(crate) struct FaultLayer {
    /// Every scripted op, retry delivery, hedge launch and attempt
    /// timeout, earliest first and, at one instant, in [`FaultWork::rank`]
    /// order, so a boundary runs all ops due then, then all retries, then
    /// all hedge launches, then all timeouts. One queue keeps that order
    /// because every entry popped at a boundary is due exactly then: the
    /// boundary is the earliest entry, and work scheduled while a boundary
    /// runs is either due later (a timeout, a backed-off retry) or of a
    /// later kind than the work that scheduled it (an op's salvaged
    /// request is a retry; a retry's route schedules a hedge launch, which
    /// a zero delay makes due at once). Ops are pushed first, in plan
    /// order, so among ops `seq` is plan order; every later entry takes
    /// the next `seq`.
    queue: BinaryHeap<Reverse<Scheduled>>,
    pending: HashMap<u64, Pending>,
    /// The most recent completion latencies (bounded, oldest-out); feeds
    /// the hedge trigger quantile. Only populated when hedging is enabled,
    /// and never larger than [`RequestPolicy::hedge_window`] — a streamed
    /// run's memory stays O(in-flight + window), not O(completed).
    latencies: RollingQuantileWindow,
    policy: RequestPolicy,
    /// The end of each server's latest straggle window (−∞ before its
    /// first), so a superseded window's end leaves the server straggling.
    straggle_until: Vec<f64>,
    stats: AvailabilityStats,
    seq: u64,
}

impl FaultLayer {
    pub(crate) fn new(plan: Option<&FaultPlan>, policy: RequestPolicy, servers: usize) -> Self {
        let mut layer = Self {
            queue: BinaryHeap::new(),
            pending: HashMap::new(),
            latencies: RollingQuantileWindow::new(policy.hedge_window.max(1)),
            policy,
            straggle_until: vec![f64::NEG_INFINITY; servers],
            stats: AvailabilityStats::default(),
            seq: 0,
        };
        for event in plan.map_or(&[][..], FaultPlan::events) {
            let server = event.server();
            let op = match *event {
                FaultEvent::Crash { .. } => OpKind::Crash,
                FaultEvent::Recover { .. } => OpKind::Recover,
                FaultEvent::StickFreq { level, .. } => OpKind::Stick { level },
                FaultEvent::Straggle {
                    until, slowdown, ..
                } => OpKind::StraggleStart { until, slowdown },
            };
            layer.schedule(event.at(), FaultWork::Op { server, op });
            if let OpKind::StraggleStart { until, .. } = op {
                let op = OpKind::StraggleEnd;
                layer.schedule(until, FaultWork::Op { server, op });
            }
        }
        layer
    }

    pub(crate) fn policy(&self) -> &RequestPolicy {
        &self.policy
    }

    fn schedule(&mut self, due: f64, work: FaultWork) {
        self.seq += 1;
        let key = (total_order_bits(due), work.rank(), self.seq);
        self.queue.push(Reverse(Scheduled { key, work }));
    }

    /// Earliest instant at which the layer has work: the next scripted op,
    /// retry delivery, hedge launch, or attempt timeout. Infinite when
    /// there is none — an empty plan with an inert policy never produces a
    /// boundary.
    pub(crate) fn next_boundary(&self) -> f64 {
        self.queue
            .peek()
            .map_or(f64::INFINITY, |Reverse(e)| from_total_order_bits(e.key.0))
    }

    /// Pops the next work due at or before `now`, discarding *stale*
    /// timeouts and hedge launches: those whose request already completed
    /// or was re-attempted, or whose attempt already has an active hedge
    /// (the duplicate supersedes the timeout: two copies are racing, and
    /// pulling one back would defeat the point). A live timeout or launch
    /// carries the attempt's current server, read from its pending record
    /// here; a timeout is counted. The driver pulls a timed-out request
    /// off that server's queue (or leaves it alone if it is in service) and
    /// injects a hedge's duplicate on a server other than that one.
    pub(crate) fn pop_due(&mut self, now: f64) -> Option<FaultWork> {
        let now = total_order_bits(now);
        while self.queue.peek().is_some_and(|Reverse(e)| e.key.0 <= now) {
            let Reverse(Scheduled { mut work, .. }) = self.queue.pop().expect("peeked");
            let (id, attempt, server) = match &mut work {
                FaultWork::Op { .. } | FaultWork::Retry { .. } => return Some(work),
                FaultWork::Hedge {
                    spec,
                    attempt,
                    primary,
                } => (spec.id, *attempt, primary),
                FaultWork::Timeout {
                    id,
                    attempt,
                    server,
                } => (*id, *attempt, server),
            };
            match self.pending.get(&id) {
                Some(p) if p.attempt == attempt && p.hedge.is_none() => {
                    *server = p.server;
                    if let FaultWork::Timeout { .. } = work {
                        self.stats.timeouts += 1;
                    }
                    return Some(work);
                }
                _ => continue, // stale: completed, re-attempted, or hedged
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
            let work = FaultWork::Timeout {
                id,
                attempt,
                server,
            };
            self.schedule(now + timeout, work);
        }
        if let Some(q) = self.policy.hedge_quantile {
            let tracked = self.latencies.quantile(q).unwrap_or(0.0);
            let work = FaultWork::Hedge {
                spec,
                attempt,
                primary: server,
            };
            self.schedule(now + tracked.max(self.policy.hedge_min_delay), work);
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
        let due = now + self.policy.backoff_delay(spec.id, attempt);
        let attempt = attempt + 1;
        self.schedule(due, FaultWork::Retry { spec, attempt });
        Some(due)
    }

    /// Salvages the request that was in service on a crashing server:
    /// re-delivered at the crash instant, counting one attempt.
    pub(crate) fn salvage(&mut self, spec: RequestSpec, now: f64) {
        let attempt = self.pending.remove(&spec.id).map_or(1, |p| p.attempt) + 1;
        self.stats.salvaged_in_flight += 1;
        self.schedule(now, FaultWork::Retry { spec, attempt });
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

    /// Applies op `op` on `server` at `now` to the server's straggle window
    /// and to `health`, its entry in the driver's health table. Returns
    /// whether the op takes effect: `false` only for a `StraggleEnd` whose
    /// window a later one superseded (the slowdown stays).
    pub(crate) fn track_op(
        &mut self,
        server: usize,
        op: OpKind,
        now: f64,
        health: &mut ServerHealth,
    ) -> bool {
        let straggle_until = &mut self.straggle_until[server];
        match op {
            OpKind::Crash => *health = ServerHealth::Down,
            OpKind::Recover if now < *straggle_until => *health = ServerHealth::Straggling,
            OpKind::Recover => *health = ServerHealth::Up,
            OpKind::StraggleStart { until, .. } => {
                *straggle_until = until;
                if *health != ServerHealth::Down {
                    *health = ServerHealth::Straggling;
                }
            }
            OpKind::StraggleEnd if *straggle_until > now => return false,
            OpKind::StraggleEnd => {
                if *health == ServerHealth::Straggling {
                    *health = ServerHealth::Up;
                }
            }
            OpKind::Stick { .. } => {}
        }
        true
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
        self.queue.is_empty()
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

    /// Pops the work due at `now`, which must be a timeout, as `(id,
    /// attempt, server)`.
    fn pop_timeout(layer: &mut FaultLayer, now: f64) -> Option<(u64, u32, usize)> {
        layer.pop_due(now).map(|work| match work {
            FaultWork::Timeout {
                id,
                attempt,
                server,
            } => (id, attempt, server),
            other => panic!("expected a timeout, popped {other:?}"),
        })
    }

    /// Pops the work due at `now`, which must be a retry, as `(spec,
    /// attempt)`.
    fn pop_retry(layer: &mut FaultLayer, now: f64) -> Option<(RequestSpec, u32)> {
        layer.pop_due(now).map(|work| match work {
            FaultWork::Retry { spec, attempt } => (spec, attempt),
            other => panic!("expected a retry, popped {other:?}"),
        })
    }

    /// Pops the work due at `now`, which must be a hedge launch, as
    /// `(spec, attempt, primary)`.
    fn pop_hedge(layer: &mut FaultLayer, now: f64) -> Option<(RequestSpec, u32, usize)> {
        layer.pop_due(now).map(|work| match work {
            FaultWork::Hedge {
                spec,
                attempt,
                primary,
            } => (spec, attempt, primary),
            other => panic!("expected a hedge launch, popped {other:?}"),
        })
    }

    /// Pops the op due at `now` and applies its bookkeeping to `healths`,
    /// returning whether it takes effect.
    fn apply_op(layer: &mut FaultLayer, healths: &mut [ServerHealth], now: f64) -> bool {
        let Some(FaultWork::Op { server, op }) = layer.pop_due(now) else {
            panic!("expected an op due at {now}");
        };
        layer.track_op(server, op, now, &mut healths[server])
    }

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
            let (due, _, _) = layer
                .queue
                .iter()
                .map(|Reverse(e)| e.key)
                .max_by_key(|&(_, _, seq)| seq)
                .expect("on_routed schedules a hedge");
            let trigger = from_total_order_bits(due);
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
        let mut layer = FaultLayer::new(Some(&plan), RequestPolicy::default(), 2);
        let mut times = Vec::new();
        let mut ops = Vec::new();
        while !layer.exhausted() {
            let at = layer.next_boundary();
            let Some(FaultWork::Op { op, .. }) = layer.pop_due(at) else {
                panic!("a plan schedules only ops");
            };
            times.push(at);
            ops.push(op);
        }
        assert_eq!(times, vec![0.010, 0.030, 0.030, 0.050]);
        // At t = 0.030 the straggle end (written first) precedes the crash.
        assert!(matches!(ops[1], OpKind::StraggleEnd));
        assert!(matches!(ops[2], OpKind::Crash));
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
        assert!(pop_timeout(&mut layer, 1.0).is_none(), "completed: stale");
        assert_eq!(layer.stats.timeouts, 0);

        layer.on_routed(RequestSpec::new(8, 0.0, 1e6, 0.0), 1, 1, 0.0);
        let (id, attempt, server) = pop_timeout(&mut layer, 1.0).expect("due");
        assert_eq!((id, attempt, server), (8, 1, 1));
        let spec = RequestSpec::new(8, 0.0, 1e6, 0.0);
        layer.retry_or_drop(spec, attempt, 1e-3);
        assert_eq!(layer.stats.retries, 1);
        let (respec, next_attempt) = pop_retry(&mut layer, 1.0).expect("scheduled");
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
        let (spec, attempt, primary) = pop_hedge(&mut layer, 4e-3).expect("due");
        assert_eq!((spec.id, attempt, primary), (0, 1, 0));
        layer.hedge_launched(0, 1);
        assert!(
            pop_hedge(&mut layer, 1.0).is_none(),
            "an attempt hedges at most once"
        );
        // Completions teach the tracker; the median of {10ms, 20ms} at the
        // nearest-rank convention is 10ms, above the 4ms floor.
        layer.on_completion(0, 0, 10e-3);
        layer.on_routed(RequestSpec::new(1, 0.0, 1e6, 0.0), 1, 1, 0.0);
        layer.on_completion(1, 1, 20e-3);
        layer.on_routed(RequestSpec::new(2, 1.0, 1e6, 0.0), 2, 1, 1.0);
        let (spec, _, _) = pop_hedge(&mut layer, 1.0 + 10e-3).expect("due");
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
        pop_hedge(&mut layer, 0.0).expect("floor of zero fires at once");
        layer.hedge_launched(5, 2);
        assert!(
            pop_timeout(&mut layer, 1.0).is_none(),
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
        pop_hedge(&mut layer, 5e-4).expect("due");
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
        pop_hedge(&mut layer, 0.0).expect("due");
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
        let (_, attempt) = pop_retry(&mut layer, 1.0).expect("first retry runs");
        layer.retry_or_drop(spec, attempt, 0.01);
        assert_eq!(layer.stats.retries, 1, "budget spent: no second retry");
        assert!(pop_retry(&mut layer, 10.0).is_none());
        assert!(layer.exhausted());
    }

    #[test]
    fn health_tracking_follows_crash_straggle_and_recovery() {
        let plan = FaultPlan::new()
            .straggle(0, 0.0, 1.0, 3.0)
            .crash(1, 0.1)
            .recover(1, 0.2);
        let mut layer = FaultLayer::new(Some(&plan), RequestPolicy::default(), 2);
        let mut healths = vec![ServerHealth::Up; 2];
        apply_op(&mut layer, &mut healths, 0.0); // straggle start
        assert_eq!(healths[0], ServerHealth::Straggling);
        apply_op(&mut layer, &mut healths, 0.1); // crash
        assert_eq!(healths[1], ServerHealth::Down);
        apply_op(&mut layer, &mut healths, 0.2); // recover
        assert_eq!(healths[1], ServerHealth::Up);
        // The straggle end at t = 1.0 restores server 0.
        assert!(
            apply_op(&mut layer, &mut healths, 1.0),
            "window over: reset the slowdown"
        );
        assert_eq!(healths[0], ServerHealth::Up);
        assert!(layer.exhausted());
    }

    #[test]
    fn a_superseded_straggle_end_does_not_heal_the_server() {
        let plan = FaultPlan::new()
            .straggle(0, 0.0, 0.5, 2.0)
            .straggle(0, 0.2, 1.0, 4.0);
        let mut layer = FaultLayer::new(Some(&plan), RequestPolicy::default(), 1);
        let mut healths = vec![ServerHealth::Up];
        for t in [0.0, 0.2] {
            apply_op(&mut layer, &mut healths, t); // a window's start
        }
        assert!(
            !apply_op(&mut layer, &mut healths, 0.5), // the first window's end
            "superseded by the longer window"
        );
        assert_eq!(healths[0], ServerHealth::Straggling);
        assert!(apply_op(&mut layer, &mut healths, 1.0)); // the second's end
        assert_eq!(healths[0], ServerHealth::Up);
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
