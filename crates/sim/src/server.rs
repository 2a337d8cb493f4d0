//! The event-driven single-core server simulator.
//!
//! One core serves a FIFO queue of requests. A request with compute demand
//! `C` cycles and memory-bound time `M` seconds, served uninterrupted at
//! frequency `f`, takes `C/f + M` seconds. Compute and memory progress are
//! interleaved proportionally, so frequency changes in the middle of a
//! request take effect smoothly and the controller can observe how many
//! compute cycles (ω) the running request has already executed.
//!
//! The simulator invokes the [`DvfsPolicy`] on every arrival, every
//! completion, and on a periodic tick; requested frequency changes take
//! effect after the configured V/F transition latency, during which the core
//! keeps running at the old frequency (paper Sec. 2.1 / Table 2).
//!
//! # Execution model: advance a machine, not replay a trace
//!
//! The engine is [`ServerSim`]: a **resumable, open-loop simulation** that is
//! fed arrivals as they happen ([`ServerSim::offer`]) and advanced one event
//! at a time ([`ServerSim::step`]). Callers that do not know the future —
//! a cluster load balancer, a live-traffic driver, an interactive debugger —
//! interleave `offer` and `step` freely; [`ServerSim::next_event_time`]
//! exposes the time of the next pending event so many `ServerSim`s can be
//! multiplexed through one event loop (see `rubik-cluster`).
//!
//! Each [`step`](ServerSim::step) processes exactly one [`SimEvent`]. Events
//! that fall on the same instant are handled in a fixed round order —
//! V/F transition, completion, arrivals (one per step), tick — which is the
//! order the closed-loop [`Server::run`] has always used; `Server::run` is
//! now a thin wrapper that offers the whole trace up front,
//! [`close`](ServerSim::close)s the stream, and steps to completion, and is
//! **bitwise-identical** to the pre-`ServerSim` implementation (pinned by
//! the golden stdout fixtures in `rubik-bench` and the step-vs-run
//! equivalence suites).
//!
//! While a `ServerSim` is *open*, more arrivals may still be offered, so the
//! periodic policy tick keeps firing even when the server is momentarily
//! idle — exactly as the closed-loop run ticks through idle gaps in the
//! middle of a trace. Once [`close`](ServerSim::close)d, ticks stop when no
//! admitted work remains, which is how a run ends.
//!
//! # Scratch-state snapshots
//!
//! Policies receive the [`ServerState`] by reference at every decision
//! point. The simulator owns **one** scratch `ServerState` per run and
//! refreshes it in place before each callback: `queued` is a
//! `clear()`-and-`extend()` of a retained `Vec`, so after the queue's
//! high-water mark is reached the event loop performs **zero heap
//! allocations per event** for policy snapshots. Policies must therefore
//! treat the state as valid only for the duration of the callback (the
//! borrow rules already enforce this — `ServerState` is passed as `&`), and
//! clone it if they need to retain history.

use crate::config::{IdleMode, SimConfig};
use crate::freq::Freq;
use crate::policy::{DvfsPolicy, InServiceView, PolicyDecision, QueuedView, ServerState};
use crate::request::{RequestRecord, RequestSpec, Trace};
use crate::result::{CoreActivity, RunResult, Segment};
use std::collections::VecDeque;

/// Tolerance used to batch events that occur at "the same" instant.
const TIME_EPS: f64 = 1e-12;

/// The single-core server simulator (closed-loop entry point).
///
/// `Server` is stateless across runs: [`Server::run`] consumes a trace and a
/// policy and produces a [`RunResult`]. This makes it cheap to sweep loads,
/// policies, and seeds from the benchmark harness. It is a thin wrapper over
/// [`ServerSim`], the resumable open-loop engine.
#[derive(Debug, Clone, Default)]
pub struct Server {
    config: SimConfig,
}

/// One simulation event, as returned by [`ServerSim::step`].
///
/// Events that fall on the same instant are delivered in this order:
/// [`FreqTransition`](SimEvent::FreqTransition), then
/// [`Completion`](SimEvent::Completion), then each
/// [`Arrival`](SimEvent::Arrival), then [`Tick`](SimEvent::Tick).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// A previously requested V/F transition took effect; the core now runs
    /// at the contained frequency.
    FreqTransition(Freq),
    /// The request in service completed; the record carries its timing.
    Completion(RequestRecord),
    /// An offered request entered the server: it started service if the core
    /// was free, otherwise it joined the FIFO queue.
    Arrival {
        /// Identifier of the arriving request.
        id: u64,
    },
    /// The periodic policy tick fired.
    Tick,
}

#[derive(Debug, Clone, Copy)]
struct Running {
    spec: RequestSpec,
    start: f64,
    /// Fraction of the request's work completed, in `[0, 1]`.
    progress: f64,
    /// Remaining core wake-up time before progress accrues (deep sleep only).
    wakeup_remaining: f64,
    queue_len_at_arrival: usize,
}

/// Position inside the current event round. Events batched on one instant
/// are processed in `Transition → Completion → Arrivals → Tick` order;
/// `Advance` means the round is over and the clock must move to the next
/// event time before anything else happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Advance,
    Transition,
    Completion,
    Arrivals,
    Tick,
}

/// A resumable, open-loop single-core simulation.
///
/// Unlike [`Server::run`], which replays a complete [`Trace`], a `ServerSim`
/// is *advanced*: arrivals are [`offer`](ServerSim::offer)ed as the caller
/// learns about them, and the machine is moved forward one [`SimEvent`] at a
/// time with [`step`](ServerSim::step) (or in bulk with
/// [`drain_until`](ServerSim::drain_until)). [`finish`](ServerSim::finish)
/// consumes the simulation and returns the same [`RunResult`] a closed-loop
/// run would have produced.
///
/// The policy type parameter defaults to `Box<dyn DvfsPolicy>`; `&mut dyn
/// DvfsPolicy` and any concrete policy work too (see the forwarding impls in
/// [`crate::policy`]).
///
/// # Example
///
/// ```
/// use rubik_sim::{FixedFrequencyPolicy, RequestSpec, ServerSim, SimConfig, SimEvent};
///
/// let config = SimConfig::default();
/// let policy = FixedFrequencyPolicy::new(config.dvfs.nominal());
/// let mut sim = ServerSim::new(config, policy);
///
/// // Arrivals are offered as they happen — the future is not pre-known.
/// sim.offer(RequestSpec::new(0, 0.0, 1.2e6, 0.0));
/// assert_eq!(sim.next_event_time(), Some(0.0));
/// assert!(matches!(sim.step(), Some(SimEvent::Arrival { id: 0 })));
///
/// // Step to the completion, then close the stream and wrap up.
/// sim.offer(RequestSpec::new(1, 1e-3, 1.2e6, 0.0));
/// sim.close();
/// let done = sim.drain_until(f64::INFINITY);
/// assert!(done >= 3); // completion, second arrival, second completion
/// let result = sim.finish();
/// assert_eq!(result.records().len(), 2);
/// ```
pub struct ServerSim<P: DvfsPolicy = Box<dyn DvfsPolicy>> {
    config: SimConfig,
    policy: P,
    now: f64,
    /// While open, more arrivals may be offered and the periodic tick keeps
    /// firing even when no admitted work remains.
    open: bool,
    /// Offered requests that have not yet been admitted (arrival time still
    /// in the future, or pending in the current round).
    arrivals: VecDeque<RequestSpec>,
    queue: VecDeque<(RequestSpec, usize)>, // (spec, queue length at arrival)
    running: Option<Running>,
    current_freq: Freq,
    target_freq: Freq,
    /// Highest frequency the core may run at, imposed externally via
    /// [`ServerSim::retarget`] (fleet power capping). `None` = uncapped.
    freq_ceiling: Option<Freq>,
    pending_transition: Option<(Freq, f64)>,
    next_tick: f64,
    asleep: bool,
    /// Whether the server is down ([`ServerSim::fail`]): no service, no
    /// ticks, no policy callbacks; arrivals still queue and downtime is
    /// charged at sleep power.
    down: bool,
    /// Multiplier applied to every service time (straggler degradation);
    /// `1.0` is bitwise-neutral.
    slowdown: f64,
    /// A frequency the core is pinned at (stuck voltage regulator): policy
    /// decisions and ceilings are ignored until cleared.
    stuck_freq: Option<Freq>,
    /// Accumulated downtime from completed down intervals.
    downtime: f64,
    /// Start of the current down interval (meaningful only while `down`).
    down_since: f64,
    phase: Phase,
    records: Vec<RequestRecord>,
    segments: Vec<Segment>,
    /// Reusable policy-visible snapshot; refreshed in place before every
    /// policy callback so the event loop allocates nothing per event.
    scratch: ServerState,
}

impl<P: DvfsPolicy> std::fmt::Debug for ServerSim<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerSim")
            .field("now", &self.now)
            .field("open", &self.open)
            .field("policy", &self.policy.name())
            .field("offered", &self.arrivals.len())
            .field("queued", &self.queue.len())
            .field("running", &self.running.is_some())
            .field("current_freq", &self.current_freq)
            .field("completed", &self.records.len())
            .finish()
    }
}

impl<P: DvfsPolicy> ServerSim<P> {
    /// Creates an **open** simulation at time 0. The starting frequency is
    /// the policy's idle frequency, or the nominal level if the policy has
    /// no preference.
    pub fn new(config: SimConfig, policy: P) -> Self {
        let start_freq = policy
            .idle_frequency()
            .unwrap_or_else(|| config.dvfs.nominal());
        let next_tick = config.tick_interval;
        let asleep = matches!(config.idle_mode, IdleMode::Sleep { .. });
        Self {
            config,
            policy,
            now: 0.0,
            open: true,
            arrivals: VecDeque::new(),
            queue: VecDeque::new(),
            running: None,
            current_freq: start_freq,
            target_freq: start_freq,
            freq_ceiling: None,
            pending_transition: None,
            next_tick,
            asleep,
            down: false,
            slowdown: 1.0,
            stuck_freq: None,
            downtime: 0.0,
            down_since: 0.0,
            phase: Phase::Advance,
            records: Vec::new(),
            segments: Vec::new(),
            scratch: ServerState {
                now: 0.0,
                current_freq: start_freq,
                target_freq: start_freq,
                in_service: None,
                queued: Vec::new(),
            },
        }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Current simulation time (the time of the most recently processed
    /// event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The DVFS policy driving this simulation.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the policy (e.g. to seed a profile mid-run).
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// Frequency currently in effect.
    pub fn current_freq(&self) -> Freq {
        self.current_freq
    }

    /// Frequency most recently requested by the policy (a V/F transition may
    /// still be in flight).
    pub fn target_freq(&self) -> Freq {
        self.target_freq
    }

    /// Number of requests admitted into the server: queued plus in service.
    pub fn pending_requests(&self) -> usize {
        self.queue.len() + usize::from(self.running.is_some())
    }

    /// Number of requests anywhere in the system: offered-but-not-admitted,
    /// queued, and in service. This is what a load balancer should count —
    /// an offered request is committed to this server even before its
    /// arrival event has been processed.
    pub fn in_flight(&self) -> usize {
        self.arrivals.len() + self.pending_requests()
    }

    /// Whether the server has no admitted work (it may still hold offered
    /// future arrivals).
    pub fn is_idle(&self) -> bool {
        self.running.is_none() && self.queue.is_empty()
    }

    /// Records of the requests completed so far, in completion order.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// The frequency/activity timeline accumulated so far. Segments cover
    /// `[0, now()]`; the span since the last processed event is not yet
    /// materialized — combine with [`ServerSim::current_activity`] and
    /// [`ServerSim::current_freq`] to account for it (the fleet power meter
    /// in `rubik-cluster` does exactly this).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// What the core is doing right now (busy, clock-gated idle, or deep
    /// sleep) — the activity the timeline will record from [`ServerSim::now`]
    /// until the next event.
    pub fn current_activity(&self) -> CoreActivity {
        if self.down {
            CoreActivity::Sleep
        } else if self.running.is_some() {
            CoreActivity::Busy
        } else if self.asleep {
            CoreActivity::Sleep
        } else {
            CoreActivity::Idle
        }
    }

    /// Number of admitted requests waiting in the FIFO queue (excluding the
    /// one in service). These are the requests [`ServerSim::steal_queued`]
    /// can remove.
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// The externally imposed frequency ceiling, if any (see
    /// [`ServerSim::retarget`]).
    pub fn freq_ceiling(&self) -> Option<Freq> {
        self.freq_ceiling
    }

    /// Imposes (or lifts, with `None`) an external frequency ceiling: every
    /// frequency the policy requests from now on is clamped to the highest
    /// DVFS level at or below the ceiling, and if the core's current target
    /// exceeds it a transition down is initiated immediately (subject to the
    /// usual V/F transition latency). Fleet-level power capping in
    /// `rubik-cluster` drives this; a simulation that is never retargeted is
    /// bit-for-bit identical to one without the surface.
    ///
    /// The ceiling is snapped down to an available DVFS level (never below
    /// the domain's minimum).
    pub fn retarget(&mut self, ceiling: Option<Freq>) {
        let ceiling = ceiling.map(|c| self.config.dvfs.floor_level(c.hz()));
        self.freq_ceiling = ceiling;
        // A stuck regulator ignores the ceiling until it unsticks; the
        // ceiling is recorded and re-applied by `stick_freq(None)`.
        if self.stuck_freq.is_some() {
            return;
        }
        if let Some(c) = ceiling {
            if self.target_freq > c {
                self.request_frequency(c);
            }
        }
    }

    /// Removes and returns the most recently queued request (the back of the
    /// FIFO queue), or `None` if nothing is queued. The request in service is
    /// never stolen. The policy is not notified; it observes the shorter
    /// queue at its next callback.
    ///
    /// This is one half of queue migration (`rubik-cluster`): a rebalancer
    /// steals from a backlogged server's queue and [`ServerSim::inject`]s
    /// into an underloaded one, preserving the request's original arrival
    /// time so end-to-end latency accounting spans both servers.
    pub fn steal_queued(&mut self) -> Option<RequestSpec> {
        self.queue.pop_back().map(|(spec, _)| spec)
    }

    /// Removes a specific queued request by id, or `None` if it is not in
    /// the FIFO queue (in service, already completed, or never admitted).
    /// The request in service is never removed. Like
    /// [`steal_queued`](ServerSim::steal_queued), the policy is not
    /// notified.
    ///
    /// The request-timeout layer in `rubik-cluster` uses this to pull a
    /// timed-out request out of a backlogged (or down) server so a retry can
    /// be routed elsewhere.
    pub fn remove_queued(&mut self, id: u64) -> Option<RequestSpec> {
        let pos = self.queue.iter().position(|(spec, _)| spec.id == id)?;
        self.queue.remove(pos).map(|(spec, _)| spec)
    }

    /// Cancels a specific request by id at time `at`, wherever it sits: a
    /// queued copy is removed from the FIFO queue (exactly like
    /// [`remove_queued`](ServerSim::remove_queued)); a copy **in service**
    /// is aborted mid-request — the clock advances to `at`, the partial
    /// work is charged to the busy timeline, **no completion record is
    /// emitted**, and the head of the queue starts service immediately
    /// (an aborted core pays no sleep wake-up, like
    /// [`recover`](ServerSim::recover)). Returns the cancelled spec, or
    /// `None` — with **zero state change** — when the id is not on this
    /// server, so a driver that never cancels is bitwise-identical to one
    /// without the surface. The policy is not notified; it observes the
    /// freed core at its next callback.
    ///
    /// Hedged (speculatively duplicated) requests in `rubik-cluster` use
    /// this: when one copy completes, the loser is cancelled wherever it
    /// is.
    ///
    /// # Panics
    ///
    /// Panics — only when the id is in service, since a queued removal
    /// does not touch the clock — if `at` is in the past or an event is
    /// pending strictly before `at`.
    pub fn cancel(&mut self, at: f64, id: u64) -> Option<RequestSpec> {
        if let Some(pos) = self.queue.iter().position(|(spec, _)| spec.id == id) {
            return self.queue.remove(pos).map(|(spec, _)| spec);
        }
        if self.running.as_ref().is_none_or(|r| r.spec.id != id) {
            return None;
        }
        assert!(
            at >= self.now,
            "cancellation at {at} is in the past (now = {})",
            self.now
        );
        assert!(
            self.next_event_time().is_none_or(|te| te >= at),
            "cannot cancel past a pending event"
        );
        self.advance_to(at);
        let running = self.running.take().expect("in-service id checked above");
        if let Some((spec, qlen)) = self.queue.pop_front() {
            self.running = Some(Running {
                spec,
                start: self.now,
                progress: 0.0,
                wakeup_remaining: 0.0,
                queue_len_at_arrival: qlen,
            });
        } else if matches!(self.config.idle_mode, IdleMode::Sleep { .. }) {
            self.asleep = true;
        }
        Some(running.spec)
    }

    /// Whether the server is down (see [`ServerSim::fail`]).
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Total downtime accumulated so far, including the current down
    /// interval (up to [`now`](ServerSim::now)) if the server is still down.
    pub fn downtime(&self) -> f64 {
        self.downtime
            + if self.down {
                self.now - self.down_since
            } else {
                0.0
            }
    }

    /// Crashes the server at time `at`: the clock advances to `at`, the
    /// in-service request (if any) is **returned to the caller** — lost or
    /// salvaged per the caller's policy — and the server enters the down
    /// state. While down the core serves nothing, the periodic policy tick
    /// is suppressed, and the timeline records deep sleep (downtime is
    /// charged at sleep power). Arrivals are still admitted into the FIFO
    /// queue — a failure-blind router keeps routing work here, which is
    /// exactly the pathology timeouts and health-aware routing repair — and
    /// queued work can be drained via [`steal_queued`](ServerSim::steal_queued)
    /// or [`remove_queued`](ServerSim::remove_queued). A pending V/F
    /// transition still takes effect (the regulator finishes its ramp).
    ///
    /// # Panics
    ///
    /// Panics if the server is already down, if `at` is in the past, or if
    /// an event is pending strictly before `at`.
    pub fn fail(&mut self, at: f64) -> Option<RequestSpec> {
        assert!(!self.down, "fail() on a server that is already down");
        assert!(
            at >= self.now,
            "failure at {at} is in the past (now = {})",
            self.now
        );
        assert!(
            self.next_event_time().is_none_or(|te| te >= at),
            "cannot fail past a pending event"
        );
        self.advance_to(at);
        self.down = true;
        self.down_since = at;
        self.asleep = false;
        self.running.take().map(|r| r.spec)
    }

    /// Brings a down server back at time `at`: downtime accounting for the
    /// interval is closed out, the periodic tick is realigned to the next
    /// multiple after `at`, and the head of the FIFO queue (work that
    /// accumulated or survived the outage) starts service immediately — a
    /// rebooted core pays no sleep wake-up. The policy is not invoked; it
    /// observes the post-recovery state at its next callback.
    ///
    /// # Panics
    ///
    /// Panics if the server is not down, if `at` is in the past, or if an
    /// event is pending strictly before `at`.
    pub fn recover(&mut self, at: f64) {
        assert!(self.down, "recover() on a server that is not down");
        assert!(
            at >= self.now,
            "recovery at {at} is in the past (now = {})",
            self.now
        );
        assert!(
            self.next_event_time().is_none_or(|te| te >= at),
            "cannot recover past a pending event"
        );
        self.advance_to(at);
        self.down = false;
        self.downtime += at - self.down_since;
        while self.next_tick <= self.now + TIME_EPS {
            self.next_tick += self.config.tick_interval;
        }
        if let Some((spec, qlen)) = self.queue.pop_front() {
            self.running = Some(Running {
                spec,
                start: self.now,
                progress: 0.0,
                wakeup_remaining: 0.0,
                queue_len_at_arrival: qlen,
            });
        } else if matches!(self.config.idle_mode, IdleMode::Sleep { .. }) {
            self.asleep = true;
        }
    }

    /// The straggler factor currently applied to service times.
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Sets the straggler factor: every service time is multiplied by
    /// `factor` from now on (`1.0` restores full speed and is bitwise
    /// neutral). A request in the middle of service is affected
    /// proportionally via the progress-fraction model, exactly like a
    /// mid-request frequency change.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn set_slowdown(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "slowdown factor must be finite and positive, got {factor}"
        );
        self.slowdown = factor;
    }

    /// The frequency the core is pinned at, if any (see
    /// [`ServerSim::stick_freq`]).
    pub fn stuck_freq(&self) -> Option<Freq> {
        self.stuck_freq
    }

    /// Pins the core at a DVFS level (a stuck voltage regulator): the core
    /// transitions to `level` (snapped down to an available level, subject
    /// to the usual V/F latency) and ignores every subsequent policy
    /// decision and external ceiling until `stick_freq(None)` clears the
    /// pin, at which point the recorded ceiling — if any — is re-applied.
    pub fn stick_freq(&mut self, level: Option<Freq>) {
        match level {
            Some(f) => {
                let f = self.config.dvfs.floor_level(f.hz());
                self.stuck_freq = Some(f);
                self.request_frequency(f);
            }
            None => {
                self.stuck_freq = None;
                if let Some(c) = self.freq_ceiling {
                    if self.target_freq > c {
                        self.request_frequency(c);
                    }
                }
            }
        }
    }

    /// Admits a request at time `at`, bypassing the offered-arrivals stream:
    /// the clock advances to `at` (extending the timeline, like
    /// [`coast_to`](ServerSim::coast_to)) and the request starts service if
    /// the core is free (paying the sleep wake-up if applicable) or joins
    /// the back of the FIFO queue. The spec's `arrival` is kept verbatim —
    /// for a migrated request it lies in the past, and the completion
    /// record's latency charges the time spent queued on the donor server.
    /// The policy sees a normal arrival callback.
    ///
    /// Unlike [`ServerSim::offer`], injection is allowed on a
    /// [`close`](ServerSim::close)d simulation: migration legitimately
    /// rebalances the backlog while a fleet drains.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulation's past, before the request's
    /// arrival, or would skip over a pending event (the caller — the
    /// cluster driver — processes every event strictly before `at` first).
    pub fn inject(&mut self, at: f64, spec: RequestSpec) {
        assert!(
            at >= self.now,
            "injection at {at} is in the past (now = {})",
            self.now
        );
        assert!(
            spec.arrival <= at,
            "cannot inject a request before it arrived ({} > {at})",
            spec.arrival
        );
        assert!(
            self.next_event_time().is_none_or(|te| te >= at),
            "cannot inject past a pending event"
        );
        self.advance_to(at);
        self.admit(spec);
    }

    /// Offers a request to the server: it will arrive (start service or
    /// queue) when the simulation reaches `spec.arrival`.
    ///
    /// # Panics
    ///
    /// Panics if the stream has been [`close`](ServerSim::close)d, if the
    /// arrival time lies in the simulation's past, or if it precedes a
    /// previously offered arrival (offers must be time-ordered).
    pub fn offer(&mut self, spec: RequestSpec) {
        assert!(self.open, "cannot offer a request to a closed ServerSim");
        assert!(
            spec.arrival >= self.now,
            "offered arrival at {} is in the past (now = {})",
            spec.arrival,
            self.now
        );
        if let Some(last) = self.arrivals.back() {
            assert!(
                spec.arrival >= last.arrival,
                "offered arrivals must be time-ordered: {} after {}",
                spec.arrival,
                last.arrival
            );
        }
        self.arrivals.push_back(spec);
    }

    /// Offers every request of an iterator (time-ordered, e.g. a
    /// [`Trace`]'s requests), reserving capacity up front.
    pub fn offer_all<I: IntoIterator<Item = RequestSpec>>(&mut self, specs: I) {
        let iter = specs.into_iter();
        let (hint, _) = iter.size_hint();
        self.arrivals.reserve(hint);
        self.records.reserve(hint);
        for spec in iter {
            self.offer(spec);
        }
    }

    /// Closes the arrival stream: no further [`offer`](ServerSim::offer)s
    /// are accepted, and once the admitted work drains the periodic tick
    /// stops firing, so [`step`](ServerSim::step) eventually returns `None`.
    pub fn close(&mut self) {
        self.open = false;
    }

    /// The time of the next pending event, or `None` when a closed
    /// simulation has nothing left to do.
    ///
    /// An **open** simulation always has a next event (at minimum the
    /// periodic tick), so an external driver must bound how far it drains —
    /// see [`ServerSim::drain_until`].
    pub fn next_event_time(&self) -> Option<f64> {
        if self.due_in_round() {
            return Some(self.now);
        }
        self.raw_next_event_time()
    }

    /// Advances the simulation by exactly one event and returns it, or
    /// `None` when a closed simulation has nothing left to do.
    pub fn step(&mut self) -> Option<SimEvent> {
        loop {
            match self.phase {
                Phase::Advance => {
                    let t = self.raw_next_event_time()?;
                    self.advance_to(t);
                    self.phase = Phase::Transition;
                }
                Phase::Transition => {
                    self.phase = Phase::Completion;
                    if let Some((f, t)) = self.pending_transition {
                        if t <= self.now + TIME_EPS {
                            self.current_freq = f;
                            self.pending_transition = None;
                            return Some(SimEvent::FreqTransition(f));
                        }
                    }
                }
                Phase::Completion => {
                    self.phase = Phase::Arrivals;
                    if let Some(t) = self.completion_time() {
                        if t <= self.now + TIME_EPS {
                            let record = self.complete_running();
                            return Some(SimEvent::Completion(record));
                        }
                    }
                }
                Phase::Arrivals => {
                    if self
                        .arrivals
                        .front()
                        .is_some_and(|r| r.arrival <= self.now + TIME_EPS)
                    {
                        let id = self.admit_arrival();
                        return Some(SimEvent::Arrival { id });
                    }
                    self.phase = Phase::Tick;
                }
                Phase::Tick => {
                    self.phase = Phase::Advance;
                    if self.next_tick <= self.now + TIME_EPS {
                        self.next_tick += self.config.tick_interval;
                        self.refresh_snapshot();
                        let decision = self.policy.on_tick(&self.scratch);
                        self.apply_decision(decision);
                        return Some(SimEvent::Tick);
                    }
                }
            }
        }
    }

    /// Processes every event up to and including time `t` and returns how
    /// many were processed. The clock is left at the last processed event;
    /// it does not advance to `t` if nothing happens there.
    pub fn drain_until(&mut self, t: f64) -> usize {
        let mut processed = 0;
        while self.next_event_time().is_some_and(|te| te <= t) {
            let stepped = self.step();
            debug_assert!(stepped.is_some(), "a due event must produce a SimEvent");
            processed += 1;
        }
        processed
    }

    /// Advances the clock to `t` without processing any events, extending
    /// the idle/sleep timeline at the current frequency. Fleet drivers use
    /// this to align every server's end time so idle power is charged
    /// through the whole run, not just to each server's last event. A no-op
    /// if `t` is in the past.
    ///
    /// # Panics
    ///
    /// Panics if an event is due at or before `t` — coasting must not skip
    /// simulation work.
    pub fn coast_to(&mut self, t: f64) {
        assert!(
            self.next_event_time().is_none_or(|te| te > t),
            "cannot coast past a pending event"
        );
        self.advance_to(t);
    }

    /// Runs a **closed** simulation to completion (every offered request
    /// served, every trailing event processed).
    ///
    /// # Panics
    ///
    /// Panics if the stream is still open — an open simulation ticks
    /// forever, so running it to completion would never return.
    pub fn run_to_completion(&mut self) {
        assert!(
            !self.open,
            "close() the arrival stream before running to completion"
        );
        while self.step().is_some() {}
    }

    /// Consumes the simulation and returns the per-request records and the
    /// frequency/activity timeline accumulated so far.
    pub fn finish(self) -> RunResult {
        let end = self.now;
        RunResult::new(self.records, self.segments, end)
    }

    /// Refreshes the scratch [`ServerState`] from the live simulation state.
    /// The `queued` vector is cleared and refilled, reusing its capacity; no
    /// allocation occurs once the queue's high-water mark has been reached.
    fn refresh_snapshot(&mut self) {
        let scratch = &mut self.scratch;
        scratch.now = self.now;
        scratch.current_freq = self.current_freq;
        scratch.target_freq = self.target_freq;
        scratch.in_service = self.running.as_ref().map(|r| InServiceView {
            id: r.spec.id,
            arrival: r.spec.arrival,
            elapsed_compute_cycles: r.progress * r.spec.compute_cycles,
            elapsed_membound_time: r.progress * r.spec.membound_time,
            oracle_compute_cycles: r.spec.compute_cycles,
            oracle_membound_time: r.spec.membound_time,
            class: r.spec.class,
        });
        scratch.queued.clear();
        scratch
            .queued
            .extend(self.queue.iter().map(|(spec, _)| QueuedView {
                id: spec.id,
                arrival: spec.arrival,
                oracle_compute_cycles: spec.compute_cycles,
                oracle_membound_time: spec.membound_time,
                class: spec.class,
            }));
    }

    fn completion_time(&self) -> Option<f64> {
        let r = self.running.as_ref()?;
        let total = r.spec.service_time_at(self.current_freq) * self.slowdown;
        let remaining = (1.0 - r.progress).max(0.0) * total + r.wakeup_remaining;
        Some(self.now + remaining)
    }

    /// The earliest event visible from the top of a round: next admission,
    /// completion, pending transition, and — while more work exists or may
    /// yet be offered — the periodic tick.
    fn raw_next_event_time(&self) -> Option<f64> {
        let mut next: Option<f64> = None;
        let mut consider = |t: Option<f64>| {
            if let Some(t) = t {
                next = Some(match next {
                    Some(n) => n.min(t),
                    None => t,
                });
            }
        };

        consider(self.arrivals.front().map(|r| r.arrival.max(self.now)));
        consider(self.completion_time());
        consider(self.pending_transition.map(|(_, t)| t));

        // Ticks only matter while there is or may yet be work; without this
        // a closed simulation would tick forever after the last completion.
        // A down server does not tick at all.
        let more_work = self.open
            || !self.arrivals.is_empty()
            || self.running.is_some()
            || !self.queue.is_empty();
        if more_work && !self.down {
            consider(Some(self.next_tick.max(self.now)));
        }
        next
    }

    /// Whether an event is still due in the current round (at the current
    /// instant), considering only the phases not yet passed.
    fn due_in_round(&self) -> bool {
        if self.phase == Phase::Advance {
            return false;
        }
        let due = |t: f64| t <= self.now + TIME_EPS;
        (self.phase <= Phase::Transition && self.pending_transition.is_some_and(|(_, t)| due(t)))
            || (self.phase <= Phase::Completion && self.completion_time().is_some_and(due))
            || (self.phase <= Phase::Arrivals
                && self.arrivals.front().is_some_and(|r| due(r.arrival)))
            || (self.phase <= Phase::Tick && !self.down && due(self.next_tick))
    }

    fn advance_to(&mut self, t: f64) {
        let t = t.max(self.now);
        if t > self.now + TIME_EPS {
            let activity = if self.down {
                CoreActivity::Sleep
            } else if self.running.is_some() {
                CoreActivity::Busy
            } else if self.asleep {
                CoreActivity::Sleep
            } else {
                CoreActivity::Idle
            };
            push_segment(&mut self.segments, self.now, t, self.current_freq, activity);

            let slowdown = self.slowdown;
            if let Some(r) = self.running.as_mut() {
                let mut dt = t - self.now;
                if r.wakeup_remaining > 0.0 {
                    let consumed = r.wakeup_remaining.min(dt);
                    r.wakeup_remaining -= consumed;
                    dt -= consumed;
                }
                if dt > 0.0 {
                    let total = r.spec.service_time_at(self.current_freq) * slowdown;
                    if total > 0.0 {
                        r.progress = (r.progress + dt / total).min(1.0);
                    } else {
                        r.progress = 1.0;
                    }
                }
            }
        }
        self.now = t;
    }

    fn complete_running(&mut self) -> RequestRecord {
        let running = self
            .running
            .take()
            .expect("completion without a running request");
        let spec = running.spec;
        let record = RequestRecord {
            id: spec.id,
            arrival: spec.arrival,
            start: running.start,
            completion: self.now,
            compute_cycles: spec.compute_cycles,
            membound_time: spec.membound_time,
            queue_len_at_arrival: running.queue_len_at_arrival,
            class: spec.class,
        };
        self.records.push(record);

        // Start the next queued request, if any.
        if let Some((spec, qlen)) = self.queue.pop_front() {
            self.running = Some(Running {
                spec,
                start: self.now,
                progress: 0.0,
                wakeup_remaining: 0.0,
                queue_len_at_arrival: qlen,
            });
        } else if matches!(self.config.idle_mode, IdleMode::Sleep { .. }) {
            self.asleep = true;
        }

        self.refresh_snapshot();
        let decision = self.policy.on_completion(&self.scratch, &record);
        self.apply_decision(decision);
        record
    }

    fn admit_arrival(&mut self) -> u64 {
        let spec = self
            .arrivals
            .pop_front()
            .expect("admission without an offered request");
        let id = spec.id;
        self.admit(spec);
        id
    }

    /// Starts or queues `spec` right now and runs the policy's arrival
    /// callback — shared by the offered-arrival admission path and
    /// [`ServerSim::inject`].
    fn admit(&mut self, spec: RequestSpec) {
        let pending_before = self.queue.len() + usize::from(self.running.is_some());

        // A down server still accepts work into its queue (a failure-blind
        // router keeps sending it), but serves nothing and consults no
        // policy until it recovers.
        if self.down {
            self.queue.push_back((spec, pending_before));
            return;
        }

        if self.running.is_none() {
            let wakeup = match (self.asleep, self.config.idle_mode) {
                (true, IdleMode::Sleep { wakeup_latency }) => wakeup_latency,
                _ => 0.0,
            };
            self.asleep = false;
            self.running = Some(Running {
                spec,
                start: self.now,
                progress: 0.0,
                wakeup_remaining: wakeup,
                queue_len_at_arrival: pending_before,
            });
        } else {
            self.queue.push_back((spec, pending_before));
        }

        self.refresh_snapshot();
        let decision = self.policy.on_arrival(&self.scratch);
        self.apply_decision(decision);
    }

    fn apply_decision(&mut self, decision: PolicyDecision) {
        let f = match decision {
            PolicyDecision::Keep => return,
            PolicyDecision::SetFrequency(f) => f,
        };
        assert!(
            self.config.dvfs.is_level(f),
            "policy requested {f}, which is not an available DVFS level"
        );
        // A stuck regulator ignores the policy entirely.
        if self.stuck_freq.is_some() {
            return;
        }
        // An external frequency ceiling (fleet power capping) silently clamps
        // whatever the policy asks for.
        let f = match self.freq_ceiling {
            Some(c) if f > c => c,
            _ => f,
        };
        self.request_frequency(f);
    }

    /// Initiates a transition to `f` (already validated/clamped), honouring
    /// the V/F transition latency.
    fn request_frequency(&mut self, f: Freq) {
        if f == self.target_freq {
            return;
        }
        self.target_freq = f;
        let latency = self.config.dvfs.transition_latency();
        if latency <= 0.0 {
            self.current_freq = f;
            self.pending_transition = None;
        } else {
            self.pending_transition = Some((f, self.now + latency));
        }
    }
}

impl Server {
    /// Creates a server with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Self { config }
    }

    /// The server's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the trace under the given policy and returns the per-request
    /// records and the frequency/activity timeline.
    ///
    /// This is the closed-loop convenience wrapper over [`ServerSim`]: the
    /// whole trace is offered up front, the stream is closed, and the
    /// machine is stepped to completion. The result is bitwise-identical to
    /// offering the same arrivals incrementally as simulated time reaches
    /// them (see the step-vs-run equivalence suite in `tests/`).
    pub fn run(&self, trace: &Trace, policy: &mut dyn DvfsPolicy) -> RunResult {
        let mut sim = ServerSim::new(self.config.clone(), policy);
        sim.offer_all(trace.requests().iter().copied());
        sim.close();
        sim.run_to_completion();
        sim.finish()
    }
}

fn push_segment(
    segments: &mut Vec<Segment>,
    start: f64,
    end: f64,
    freq: Freq,
    activity: CoreActivity,
) {
    if end <= start {
        return;
    }
    if let Some(last) = segments.last_mut() {
        if last.freq == freq && last.activity == activity && (last.end - start).abs() < TIME_EPS {
            last.end = end;
            return;
        }
    }
    segments.push(Segment {
        start,
        end,
        freq,
        activity,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::DvfsConfig;
    use crate::policy::FixedFrequencyPolicy;

    fn cfg() -> SimConfig {
        SimConfig::paper_simulated()
    }

    fn nominal() -> Freq {
        cfg().dvfs.nominal()
    }

    #[test]
    fn empty_trace_produces_empty_result() {
        let server = Server::new(cfg());
        let mut policy = FixedFrequencyPolicy::new(nominal());
        let result = server.run(&Trace::default(), &mut policy);
        assert!(result.records().is_empty());
        assert!(result.segments().is_empty());
    }

    #[test]
    fn single_request_latency_matches_service_time() {
        // 2.4 M cycles at 2.4 GHz = 1 ms, plus 0.5 ms memory time.
        let trace = Trace::new(vec![RequestSpec::new(0, 0.0, 2.4e6, 0.5e-3)]);
        let server = Server::new(cfg());
        let mut policy = FixedFrequencyPolicy::new(nominal());
        let result = server.run(&trace, &mut policy);
        assert_eq!(result.records().len(), 1);
        assert!((result.records()[0].latency() - 1.5e-3).abs() < 1e-9);
        assert!((result.records()[0].queueing_delay()).abs() < 1e-12);
    }

    #[test]
    fn back_to_back_requests_queue_fifo() {
        // Both arrive at t=0; the second waits for the first.
        let trace = Trace::new(vec![
            RequestSpec::new(0, 0.0, 2.4e6, 0.0),
            RequestSpec::new(1, 0.0, 2.4e6, 0.0),
        ]);
        let server = Server::new(cfg());
        let mut policy = FixedFrequencyPolicy::new(nominal());
        let result = server.run(&trace, &mut policy);
        assert_eq!(result.records().len(), 2);
        let r0 = &result.records()[0];
        let r1 = &result.records()[1];
        assert_eq!(r0.id, 0);
        assert_eq!(r1.id, 1);
        assert!((r0.latency() - 1e-3).abs() < 1e-9);
        assert!((r1.latency() - 2e-3).abs() < 1e-9);
        assert!((r1.queueing_delay() - 1e-3).abs() < 1e-9);
        assert_eq!(r0.queue_len_at_arrival, 0);
        assert_eq!(r1.queue_len_at_arrival, 1);
    }

    #[test]
    fn idle_gaps_are_recorded_as_idle_segments() {
        let trace = Trace::new(vec![
            RequestSpec::new(0, 0.0, 2.4e6, 0.0),
            RequestSpec::new(1, 0.01, 2.4e6, 0.0),
        ]);
        let server = Server::new(cfg());
        let mut policy = FixedFrequencyPolicy::new(nominal());
        let result = server.run(&trace, &mut policy);
        let res = result.freq_residency();
        assert!((res.busy_time() - 2e-3).abs() < 1e-9);
        assert!((res.idle_time() - (0.01 - 1e-3)).abs() < 1e-9);
        assert!(res.sleep < 1e-12);
    }

    #[test]
    fn sleep_mode_records_sleep_and_delays_wakeup() {
        let config = cfg().with_idle_mode(IdleMode::Sleep {
            wakeup_latency: 100e-6,
        });
        let trace = Trace::new(vec![
            RequestSpec::new(0, 0.0, 2.4e6, 0.0),
            RequestSpec::new(1, 0.01, 2.4e6, 0.0),
        ]);
        let server = Server::new(config);
        let mut policy = FixedFrequencyPolicy::new(nominal());
        let result = server.run(&trace, &mut policy);
        // Second request pays the 100 µs wake-up.
        assert!((result.records()[1].latency() - (1e-3 + 100e-6)).abs() < 1e-9);
        let res = result.freq_residency();
        assert!(res.sleep > 0.0);
        assert!(res.idle_time() < 1e-12);
    }

    #[test]
    fn lower_frequency_stretches_only_compute() {
        let trace = Trace::new(vec![RequestSpec::new(0, 0.0, 2.4e6, 1e-3)]);
        let server = Server::new(cfg());
        let mut fast = FixedFrequencyPolicy::new(Freq::from_mhz(2400));
        let mut slow = FixedFrequencyPolicy::new(Freq::from_mhz(1200));
        let lat_fast = server.run(&trace, &mut fast).records()[0].latency();
        let lat_slow = server.run(&trace, &mut slow).records()[0].latency();
        assert!((lat_fast - 2e-3).abs() < 1e-9);
        assert!((lat_slow - 3e-3).abs() < 1e-9);
    }

    #[test]
    fn frequency_transition_latency_delays_effect() {
        // A policy that asks for max frequency on the first arrival. With a
        // huge transition latency the request still completes at the starting
        // frequency.
        struct BoostOnArrival;
        impl DvfsPolicy for BoostOnArrival {
            fn name(&self) -> &str {
                "boost"
            }
            fn on_arrival(&mut self, _state: &ServerState) -> PolicyDecision {
                PolicyDecision::SetFrequency(Freq::from_mhz(3400))
            }
            fn on_completion(&mut self, _s: &ServerState, _r: &RequestRecord) -> PolicyDecision {
                PolicyDecision::Keep
            }
            fn idle_frequency(&self) -> Option<Freq> {
                Some(Freq::from_mhz(800))
            }
        }

        let trace = Trace::new(vec![RequestSpec::new(0, 0.0, 0.8e6, 0.0)]); // 1 ms at 0.8 GHz
        let slow_transition = SimConfig::default()
            .with_dvfs(DvfsConfig::haswell_like().with_transition_latency(10.0));
        let server = Server::new(slow_transition);
        let lat = server.run(&trace, &mut BoostOnArrival).records()[0].latency();
        assert!((lat - 1e-3).abs() < 1e-9);

        // With an instantaneous transition the request runs at 3.4 GHz.
        let fast_transition =
            SimConfig::default().with_dvfs(DvfsConfig::haswell_like().with_transition_latency(0.0));
        let server = Server::new(fast_transition);
        let lat = server.run(&trace, &mut BoostOnArrival).records()[0].latency();
        assert!((lat - 0.8e6 / 3.4e9).abs() < 1e-9);
    }

    #[test]
    fn mid_request_frequency_change_blends_progress() {
        // Request needs 2.4e6 cycles. It starts at 0.8 GHz; after 1 ms a
        // second (zero-work) arrival triggers a boost to 2.4 GHz (instant
        // transitions). In the first 1 ms it completes 0.8e6 cycles; the
        // remaining 1.6e6 cycles take 1/1.5 ms at 2.4 GHz.
        struct BoostOnSecondArrival {
            seen: usize,
        }
        impl DvfsPolicy for BoostOnSecondArrival {
            fn name(&self) -> &str {
                "boost-second"
            }
            fn on_arrival(&mut self, _state: &ServerState) -> PolicyDecision {
                self.seen += 1;
                if self.seen == 2 {
                    PolicyDecision::SetFrequency(Freq::from_mhz(2400))
                } else {
                    PolicyDecision::Keep
                }
            }
            fn on_completion(&mut self, _s: &ServerState, _r: &RequestRecord) -> PolicyDecision {
                PolicyDecision::Keep
            }
            fn idle_frequency(&self) -> Option<Freq> {
                Some(Freq::from_mhz(800))
            }
        }

        let trace = Trace::new(vec![
            RequestSpec::new(0, 0.0, 2.4e6, 0.0),
            RequestSpec::new(1, 1e-3, 0.0, 0.0),
        ]);
        let config =
            SimConfig::default().with_dvfs(DvfsConfig::haswell_like().with_transition_latency(0.0));
        let server = Server::new(config);
        let result = server.run(&trace, &mut BoostOnSecondArrival { seen: 0 });
        let r0 = result.records().iter().find(|r| r.id == 0).unwrap();
        let expected = 1e-3 + 1.6e6 / 2.4e9;
        assert!(
            (r0.latency() - expected).abs() < 1e-8,
            "latency {} vs expected {}",
            r0.latency(),
            expected
        );
    }

    #[test]
    fn segments_cover_the_run_without_gaps() {
        let trace = Trace::new(vec![
            RequestSpec::new(0, 0.0, 2.4e6, 0.0),
            RequestSpec::new(1, 0.003, 2.4e6, 0.0),
            RequestSpec::new(2, 0.004, 2.4e6, 0.0),
        ]);
        let server = Server::new(cfg());
        let mut policy = FixedFrequencyPolicy::new(nominal());
        let result = server.run(&trace, &mut policy);
        let segs = result.segments();
        assert!(!segs.is_empty());
        assert!(segs[0].start.abs() < 1e-12);
        for w in segs.windows(2) {
            assert!((w[1].start - w[0].end).abs() < 1e-9, "gap in timeline");
        }
        assert!((segs.last().unwrap().end - result.end_time()).abs() < 1e-9);
    }

    #[test]
    fn all_requests_complete_and_ids_are_unique() {
        let trace: Trace = (0..200)
            .map(|i| RequestSpec::new(i, i as f64 * 2e-4, 1.0e6, 1e-5))
            .collect();
        let server = Server::new(cfg());
        let mut policy = FixedFrequencyPolicy::new(nominal());
        let result = server.run(&trace, &mut policy);
        assert_eq!(result.records().len(), 200);
        let mut ids: Vec<u64> = result.records().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
        for r in result.records() {
            assert!(r.completion >= r.start);
            assert!(r.start >= r.arrival);
        }
    }

    #[test]
    fn snapshots_reuse_one_scratch_buffer() {
        // Structural guarantee of the scratch-state API: every policy
        // callback sees the same retained `queued` buffer. Its pointer may
        // move while capacity grows to the queue's high-water mark, but must
        // then stay fixed — i.e. zero steady-state allocations per event.
        struct PtrRecorder {
            ptrs: Vec<(*const QueuedView, usize)>,
        }
        impl DvfsPolicy for PtrRecorder {
            fn name(&self) -> &str {
                "ptr-recorder"
            }
            fn on_arrival(&mut self, state: &ServerState) -> PolicyDecision {
                self.ptrs
                    .push((state.queued.as_ptr(), state.queued.capacity()));
                PolicyDecision::Keep
            }
            fn on_completion(&mut self, state: &ServerState, _r: &RequestRecord) -> PolicyDecision {
                self.ptrs
                    .push((state.queued.as_ptr(), state.queued.capacity()));
                PolicyDecision::Keep
            }
        }

        // One large burst up front sets the queue's high-water mark, then
        // spaced-out requests keep generating events at shallow depth.
        let trace: Trace = (0..50)
            .map(|i| RequestSpec::new(i, 0.0, 1.2e6, 0.0))
            .chain((50..400).map(|i| RequestSpec::new(i, 0.05 + i as f64 * 1e-3, 1.2e6, 0.0)))
            .collect();
        let mut recorder = PtrRecorder { ptrs: Vec::new() };
        let _ = Server::new(cfg()).run(&trace, &mut recorder);

        assert!(recorder.ptrs.len() >= 800); // arrivals + completions
        let max_cap = recorder.ptrs.iter().map(|&(_, c)| c).max().unwrap();
        assert!(max_cap >= 7, "burst of 8 should queue at least 7");
        // Once capacity reaches its high-water mark, the pointer never
        // changes again: the buffer is reused for every later event.
        let first_at_max = recorder
            .ptrs
            .iter()
            .position(|&(_, c)| c == max_cap)
            .unwrap();
        let steady = &recorder.ptrs[first_at_max..];
        let ptr = steady[0].0;
        assert!(steady.len() > recorder.ptrs.len() / 2);
        for &(p, c) in steady {
            assert_eq!(p, ptr, "snapshot buffer reallocated after high-water mark");
            assert_eq!(c, max_cap);
        }
    }

    #[test]
    #[should_panic(expected = "not an available DVFS level")]
    fn policy_cannot_request_invalid_level() {
        struct BadPolicy;
        impl DvfsPolicy for BadPolicy {
            fn name(&self) -> &str {
                "bad"
            }
            fn on_arrival(&mut self, _state: &ServerState) -> PolicyDecision {
                PolicyDecision::SetFrequency(Freq::from_mhz(2500))
            }
            fn on_completion(&mut self, _s: &ServerState, _r: &RequestRecord) -> PolicyDecision {
                PolicyDecision::Keep
            }
        }
        let trace = Trace::new(vec![RequestSpec::new(0, 0.0, 1e6, 0.0)]);
        let server = Server::new(cfg());
        let _ = server.run(&trace, &mut BadPolicy);
    }

    // ----- ServerSim stepping-surface tests -------------------------------

    #[test]
    fn step_yields_events_in_round_order() {
        // One request at t=0 at nominal: arrival, completion (1 ms later),
        // then ticks would follow only while open; close and observe the end.
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        sim.offer(RequestSpec::new(0, 0.0, 2.4e6, 0.0));
        sim.close();

        assert_eq!(sim.next_event_time(), Some(0.0));
        assert!(matches!(sim.step(), Some(SimEvent::Arrival { id: 0 })));
        assert_eq!(sim.pending_requests(), 1);

        let next = sim.next_event_time().unwrap();
        assert!((next - 1e-3).abs() < 1e-9);
        match sim.step() {
            Some(SimEvent::Completion(record)) => {
                assert_eq!(record.id, 0);
                assert!((record.latency() - 1e-3).abs() < 1e-9);
            }
            other => panic!("expected completion, got {other:?}"),
        }
        assert!(sim.step().is_none(), "closed idle sim has no more events");
        let result = sim.finish();
        assert_eq!(result.records().len(), 1);
    }

    #[test]
    fn open_sim_keeps_ticking_while_idle() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        // No work at all: the next events are the periodic ticks.
        assert_eq!(sim.next_event_time(), Some(0.1));
        assert_eq!(sim.step(), Some(SimEvent::Tick));
        assert_eq!(sim.step(), Some(SimEvent::Tick));
        assert!((sim.now() - 0.2).abs() < 1e-12);
        // Closing with no admitted work ends the stream immediately.
        sim.close();
        assert_eq!(sim.next_event_time(), None);
        assert!(sim.step().is_none());
    }

    #[test]
    fn drain_until_is_inclusive_and_counts_events() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        sim.offer(RequestSpec::new(0, 0.05, 2.4e6, 0.0));
        // Up to t=0.05 inclusive: the arrival is admitted, the completion at
        // 0.051 is not yet due, and no tick has fired (first tick at 0.1).
        let n = sim.drain_until(0.05);
        assert_eq!(n, 1);
        assert_eq!(sim.pending_requests(), 1);
        assert!((sim.now() - 0.05).abs() < 1e-12);
        // Draining further picks up the completion.
        let n = sim.drain_until(0.06);
        assert_eq!(n, 1);
        assert_eq!(sim.records().len(), 1);
    }

    #[test]
    fn in_flight_counts_offered_requests_before_admission() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        sim.offer(RequestSpec::new(0, 0.02, 2.4e6, 0.0));
        sim.offer(RequestSpec::new(1, 0.03, 2.4e6, 0.0));
        assert_eq!(sim.in_flight(), 2);
        assert_eq!(sim.pending_requests(), 0);
        assert!(sim.is_idle());
        sim.drain_until(0.02);
        assert_eq!(sim.in_flight(), 2); // one admitted, one still offered
        assert_eq!(sim.pending_requests(), 1);
    }

    #[test]
    #[should_panic(expected = "closed ServerSim")]
    fn offer_after_close_panics() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        sim.close();
        sim.offer(RequestSpec::new(0, 0.0, 1e6, 0.0));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn offer_in_the_past_panics() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        sim.step(); // first tick moves the clock to 0.1
        sim.offer(RequestSpec::new(0, 0.05, 1e6, 0.0));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_offers_panic() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        sim.offer(RequestSpec::new(0, 0.05, 1e6, 0.0));
        sim.offer(RequestSpec::new(1, 0.04, 1e6, 0.0));
    }

    #[test]
    #[should_panic(expected = "close() the arrival stream")]
    fn run_to_completion_requires_closed_stream() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        sim.run_to_completion();
    }

    #[test]
    fn coast_extends_the_idle_timeline_without_events() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        sim.offer(RequestSpec::new(0, 0.0, 2.4e6, 0.0));
        sim.close();
        sim.run_to_completion();
        assert!((sim.now() - 1e-3).abs() < 1e-9);
        sim.coast_to(0.05);
        assert!((sim.now() - 0.05).abs() < 1e-12);
        // Coasting into the past is a no-op.
        sim.coast_to(0.01);
        assert!((sim.now() - 0.05).abs() < 1e-12);
        let result = sim.finish();
        let res = result.freq_residency();
        assert!((res.idle_time() - (0.05 - 1e-3)).abs() < 1e-9);
        assert!((result.end_time() - 0.05).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot coast past a pending event")]
    fn coast_cannot_skip_pending_events() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        sim.offer(RequestSpec::new(0, 0.02, 2.4e6, 0.0));
        sim.coast_to(0.03);
    }

    #[test]
    fn retarget_clamps_policy_requests_and_steps_down_immediately() {
        // Instant transitions so the clamp is observable directly.
        let config =
            SimConfig::default().with_dvfs(DvfsConfig::haswell_like().with_transition_latency(0.0));
        let mut sim = ServerSim::new(config, FixedFrequencyPolicy::new(Freq::from_mhz(3400)));
        sim.offer(RequestSpec::new(0, 0.0, 3.4e6, 0.0));
        sim.step(); // arrival: policy requests 3.4 GHz
        assert_eq!(sim.current_freq(), Freq::from_mhz(3400));

        // Ceiling below the current target: the core steps down at once, and
        // the ceiling is snapped down to a level (1.7 GHz -> 1.6 GHz).
        sim.retarget(Some(Freq::from_mhz(1700)));
        assert_eq!(sim.freq_ceiling(), Some(Freq::from_mhz(1600)));
        assert_eq!(sim.current_freq(), Freq::from_mhz(1600));

        // Later policy requests are clamped...
        sim.offer(RequestSpec::new(1, 1e-3, 1.0e6, 0.0));
        sim.drain_until(1e-3);
        assert_eq!(sim.current_freq(), Freq::from_mhz(1600));

        // ...until the ceiling is lifted and the policy re-decides.
        sim.retarget(None);
        assert_eq!(sim.freq_ceiling(), None);
        sim.offer(RequestSpec::new(2, 2e-3, 1.0e6, 0.0));
        sim.drain_until(2e-3);
        assert_eq!(sim.current_freq(), Freq::from_mhz(3400));
    }

    #[test]
    fn retarget_with_pending_transition_replaces_the_target() {
        // 4 us transition latency: boost is requested on arrival, then the
        // ceiling lands while the transition is still in flight.
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(Freq::from_mhz(3000)));
        sim.offer(RequestSpec::new(0, 0.0, 2.4e6, 0.0));
        sim.step(); // arrival at t=0; transition to 3.0 GHz pending
        assert_eq!(sim.target_freq(), Freq::from_mhz(3000));
        sim.retarget(Some(Freq::from_mhz(1200)));
        assert_eq!(sim.target_freq(), Freq::from_mhz(1200));
        // The transition event delivers the clamped frequency.
        match sim.step() {
            Some(SimEvent::FreqTransition(f)) => assert_eq!(f, Freq::from_mhz(1200)),
            other => panic!("expected transition, got {other:?}"),
        }
    }

    #[test]
    fn steal_and_inject_move_a_queued_request_between_servers() {
        let mut donor = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        let mut receiver = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        // Three simultaneous arrivals on the donor: one runs, two queue.
        for id in 0..3 {
            donor.offer(RequestSpec::new(id, 0.0, 2.4e6, 0.0));
        }
        donor.drain_until(0.0);
        assert_eq!(donor.queued_len(), 2);
        assert!(receiver.is_idle());

        // Steal the back of the queue (the last-arrived request, id 2).
        let stolen = donor.steal_queued().expect("queue is non-empty");
        assert_eq!(stolen.id, 2);
        assert_eq!(donor.queued_len(), 1);

        // Inject at the donor's clock with the original arrival preserved.
        receiver.inject(donor.now(), stolen);
        assert_eq!(receiver.pending_requests(), 1);
        assert!(!receiver.is_idle());

        donor.close();
        receiver.close();
        donor.run_to_completion();
        receiver.run_to_completion();
        let d = donor.finish();
        let r = receiver.finish();
        // Conservation: ids 0,1 complete on the donor, 2 on the receiver,
        // and the migrated record keeps its original arrival.
        let mut ids: Vec<u64> = d.records().iter().map(|rec| rec.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(r.records().len(), 1);
        assert_eq!(r.records()[0].id, 2);
        assert_eq!(r.records()[0].arrival, 0.0);
        // The receiver served it immediately: 1 ms at nominal.
        assert!((r.records()[0].latency() - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn steal_never_touches_the_request_in_service() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        sim.offer(RequestSpec::new(0, 0.0, 2.4e6, 0.0));
        sim.drain_until(0.0);
        assert_eq!(sim.pending_requests(), 1);
        assert_eq!(sim.queued_len(), 0);
        assert!(sim.steal_queued().is_none());
        assert_eq!(sim.pending_requests(), 1);
    }

    #[test]
    fn inject_into_a_closed_drained_server_revives_it() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        sim.offer(RequestSpec::new(0, 0.0, 2.4e6, 0.0));
        sim.close();
        sim.run_to_completion();
        assert_eq!(sim.next_event_time(), None);
        // Migration during the fleet drain phase lands work on a server that
        // already finished its own stream; the clock advances to the
        // injection instant.
        sim.inject(0.05, RequestSpec::new(1, 0.0, 2.4e6, 0.0));
        assert!((sim.now() - 0.05).abs() < 1e-12);
        assert!(sim.next_event_time().is_some());
        sim.run_to_completion();
        assert_eq!(sim.records().len(), 2);
        // The injected request's start honours the injection time, so its
        // latency spans the wait since its original arrival.
        let rec = sim.records()[1];
        assert!((rec.start - 0.05).abs() < 1e-12);
        assert!(rec.start >= rec.arrival);
    }

    #[test]
    #[should_panic(expected = "cannot inject past a pending event")]
    fn inject_cannot_skip_pending_events() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        sim.offer(RequestSpec::new(0, 0.02, 2.4e6, 0.0));
        sim.inject(0.03, RequestSpec::new(1, 0.01, 2.4e6, 0.0));
    }

    #[test]
    #[should_panic(expected = "before it arrived")]
    fn inject_cannot_predate_the_arrival() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        sim.inject(0.01, RequestSpec::new(0, 0.02, 2.4e6, 0.0));
    }

    #[test]
    fn cancel_removes_a_queued_copy_without_touching_the_clock() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        for id in 0..3 {
            sim.offer(RequestSpec::new(id, 0.0, 2.4e6, 0.0));
        }
        sim.drain_until(0.0);
        assert_eq!(sim.queued_len(), 2);
        let now = sim.now();
        // A queued cancel behaves like remove_queued: no clock movement even
        // when `at` lies in the future.
        let gone = sim.cancel(0.4e-3, 1).expect("id 1 is queued");
        assert_eq!(gone.id, 1);
        assert_eq!(sim.queued_len(), 1);
        assert!((sim.now() - now).abs() < 1e-15);
        sim.close();
        sim.run_to_completion();
        let ids: Vec<u64> = sim.records().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn cancel_aborts_the_in_service_copy_and_starts_the_next() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        for id in 0..3 {
            sim.offer(RequestSpec::new(id, 0.0, 2.4e6, 0.0));
        }
        sim.drain_until(0.0);
        // Abort id 0 halfway through its 1 ms service.
        let gone = sim.cancel(0.5e-3, 0).expect("id 0 is in service");
        assert_eq!(gone.id, 0);
        assert!((sim.now() - 0.5e-3).abs() < 1e-12);
        sim.close();
        sim.run_to_completion();
        // No record for the aborted request; id 1 started at the cancel
        // instant and the partial work stays on the busy timeline.
        let ids: Vec<u64> = sim.records().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 2]);
        assert!((sim.records()[0].start - 0.5e-3).abs() < 1e-12);
        let busy: f64 = sim
            .segments()
            .iter()
            .filter(|s| s.activity == CoreActivity::Busy)
            .map(Segment::duration)
            .sum();
        assert!((busy - 2.5e-3).abs() < 1e-9);
    }

    #[test]
    fn cancel_of_an_absent_id_is_a_no_op() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        sim.offer(RequestSpec::new(0, 0.0, 2.4e6, 0.0));
        sim.drain_until(0.0);
        let now = sim.now();
        let segments = sim.segments().to_vec();
        assert!(sim.cancel(0.5e-3, 77).is_none());
        // Zero state change: clock, timeline, and pending work untouched.
        assert!((sim.now() - now).abs() < 1e-15);
        assert_eq!(sim.segments(), &segments[..]);
        assert_eq!(sim.pending_requests(), 1);
        sim.close();
        sim.run_to_completion();
        assert_eq!(sim.records().len(), 1);
    }

    #[test]
    fn cancel_of_the_last_request_lets_a_sleep_capable_core_sleep() {
        let config = cfg().with_idle_mode(IdleMode::Sleep {
            wakeup_latency: 1e-4,
        });
        let mut sim = ServerSim::new(config, FixedFrequencyPolicy::new(nominal()));
        sim.offer(RequestSpec::new(0, 0.0, 2.4e6, 0.0));
        sim.drain_until(0.0);
        // The wake-up was already paid by the arrival at t=0; the abort
        // happens mid-service with no queue behind it.
        let gone = sim.cancel(0.6e-3, 0).expect("id 0 is in service");
        assert_eq!(gone.id, 0);
        assert_eq!(sim.current_activity(), CoreActivity::Sleep);
        sim.close();
        sim.run_to_completion();
        assert!(sim.records().is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot cancel past a pending event")]
    fn cancel_cannot_skip_pending_events() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        sim.offer(RequestSpec::new(0, 0.0, 2.4e6, 0.0));
        sim.drain_until(0.0);
        // The completion at 1 ms is pending; cancelling at 2 ms must refuse.
        sim.cancel(2e-3, 0);
    }

    #[test]
    fn segments_and_current_activity_expose_the_live_timeline() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        assert_eq!(sim.current_activity(), CoreActivity::Idle);
        sim.offer(RequestSpec::new(0, 0.0, 2.4e6, 0.0));
        sim.drain_until(0.0);
        assert_eq!(sim.current_activity(), CoreActivity::Busy);
        // Segments cover [0, now]; the in-service span is not yet recorded.
        assert!(sim.segments().iter().all(|s| s.end <= sim.now() + TIME_EPS));
        sim.close();
        sim.run_to_completion();
        assert_eq!(sim.current_activity(), CoreActivity::Idle);
        let busy: f64 = sim
            .segments()
            .iter()
            .filter(|s| s.activity == CoreActivity::Busy)
            .map(Segment::duration)
            .sum();
        assert!((busy - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn event_stream_matches_run_records() {
        // The SimEvent stream must carry exactly the records the RunResult
        // reports, in the same order.
        let trace: Trace = (0..40)
            .map(|i| RequestSpec::new(i, i as f64 * 7e-4, 1.5e6, 1e-5))
            .collect();
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        sim.offer_all(trace.requests().iter().copied());
        sim.close();
        let mut completions = Vec::new();
        let mut arrivals = Vec::new();
        while let Some(event) = sim.step() {
            match event {
                SimEvent::Completion(r) => completions.push(r),
                SimEvent::Arrival { id } => arrivals.push(id),
                _ => {}
            }
        }
        let result = sim.finish();
        assert_eq!(arrivals.len(), 40);
        assert_eq!(completions, result.records());
    }

    // ----- Failure-surface tests ------------------------------------------

    #[test]
    fn fail_returns_the_in_service_request_and_stops_service() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        for id in 0..3 {
            sim.offer(RequestSpec::new(id, 0.0, 2.4e6, 0.0));
        }
        sim.drain_until(0.0);
        assert_eq!(sim.pending_requests(), 3);

        let lost = sim.fail(0.5e-3).expect("a request was in service");
        assert_eq!(lost.id, 0);
        assert!(sim.is_down());
        assert_eq!(sim.queued_len(), 2);
        assert_eq!(sim.current_activity(), CoreActivity::Sleep);

        // While down: no completions, no ticks; the queue can be drained.
        sim.close();
        assert_eq!(sim.next_event_time(), None);
        assert_eq!(sim.steal_queued().map(|s| s.id), Some(2));
        assert_eq!(sim.remove_queued(1).map(|s| s.id), Some(1));
        assert!(sim.remove_queued(1).is_none());
        assert!(sim.records().is_empty(), "nothing completed");
    }

    #[test]
    fn recover_resumes_queued_work_and_accounts_downtime() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        for id in 0..2 {
            sim.offer(RequestSpec::new(id, 0.0, 2.4e6, 0.0));
        }
        sim.drain_until(0.0);
        let _ = sim.fail(0.0);
        assert!((sim.downtime() - 0.0).abs() < 1e-12);

        sim.recover(0.01);
        assert!(!sim.is_down());
        assert!((sim.downtime() - 0.01).abs() < 1e-12);
        assert_eq!(sim.pending_requests(), 1, "queue head restarted");

        sim.close();
        sim.run_to_completion();
        // Request 1 (id 0 was lost) started at recovery: 1 ms at nominal.
        assert_eq!(sim.records().len(), 1);
        let rec = sim.records()[0];
        assert_eq!(rec.id, 1);
        assert!((rec.start - 0.01).abs() < 1e-12);
        assert!((rec.completion - 0.011).abs() < 1e-9);
        // The outage shows up as a sleep span on the timeline.
        let result = sim.finish();
        assert!((result.freq_residency().sleep - 0.01).abs() < 1e-9);
    }

    #[test]
    fn down_server_still_queues_offered_arrivals_without_serving_them() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        let _ = sim.fail(0.0);
        sim.offer(RequestSpec::new(0, 0.002, 2.4e6, 0.0));
        sim.drain_until(0.002);
        assert_eq!(sim.queued_len(), 1, "arrival queued, not served");
        assert_eq!(sim.pending_requests(), 1);
        sim.recover(0.005);
        sim.close();
        sim.run_to_completion();
        assert_eq!(sim.records().len(), 1);
        let rec = sim.records()[0];
        assert_eq!(rec.arrival, 0.002, "original arrival preserved");
        assert!((rec.start - 0.005).abs() < 1e-12);
    }

    #[test]
    fn downtime_accumulates_across_intervals_and_counts_the_open_one() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        let _ = sim.fail(0.0);
        sim.recover(0.01);
        let _ = sim.fail(0.02);
        sim.coast_to(0.05);
        assert!((sim.downtime() - (0.01 + 0.03)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_fail_panics() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        let _ = sim.fail(0.0);
        let _ = sim.fail(0.01);
    }

    #[test]
    #[should_panic(expected = "not down")]
    fn recover_of_a_healthy_server_panics() {
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        sim.recover(0.0);
    }

    #[test]
    fn slowdown_stretches_service_and_one_restores_it() {
        let trace = Trace::new(vec![RequestSpec::new(0, 0.0, 2.4e6, 0.0)]);
        let run_with = |factor: f64| {
            let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
            sim.set_slowdown(factor);
            sim.offer_all(trace.requests().iter().copied());
            sim.close();
            sim.run_to_completion();
            sim.finish()
        };
        let normal = run_with(1.0);
        let straggling = run_with(3.0);
        assert!((normal.records()[0].latency() - 1e-3).abs() < 1e-9);
        assert!((straggling.records()[0].latency() - 3e-3).abs() < 1e-9);
    }

    #[test]
    fn mid_request_slowdown_change_blends_like_a_frequency_change() {
        // 2 ms of work at nominal. Run the first 1 ms at full speed (50%
        // progress), then a 2x straggle: the remaining half takes 2 ms.
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(nominal()));
        sim.offer(RequestSpec::new(0, 0.0, 4.8e6, 0.0));
        sim.drain_until(0.0);
        sim.coast_to(1e-3);
        sim.set_slowdown(2.0);
        sim.close();
        sim.run_to_completion();
        let rec = sim.records()[0];
        assert!(
            (rec.completion - 3e-3).abs() < 1e-9,
            "completion {} vs expected 3 ms",
            rec.completion
        );
    }

    #[test]
    fn stick_freq_pins_the_core_against_policy_and_ceiling() {
        let config =
            SimConfig::default().with_dvfs(DvfsConfig::haswell_like().with_transition_latency(0.0));
        let mut sim = ServerSim::new(config, FixedFrequencyPolicy::new(Freq::from_mhz(3400)));
        sim.stick_freq(Some(Freq::from_mhz(900)));
        assert_eq!(sim.stuck_freq(), Some(Freq::from_mhz(800)), "snapped down");
        assert_eq!(sim.current_freq(), Freq::from_mhz(800));

        // Policy requests and fleet ceilings are both ignored while stuck.
        sim.offer(RequestSpec::new(0, 0.0, 0.8e6, 0.0));
        sim.drain_until(0.0);
        assert_eq!(sim.current_freq(), Freq::from_mhz(800));
        sim.retarget(Some(Freq::from_mhz(1600)));
        assert_eq!(sim.current_freq(), Freq::from_mhz(800));

        // Unsticking re-applies the recorded ceiling: the policy's 3.4 GHz
        // target clamps to 1.6 GHz.
        sim.stick_freq(None);
        assert_eq!(sim.current_freq(), Freq::from_mhz(800), "until re-decided");
        sim.offer(RequestSpec::new(1, 2e-3, 0.8e6, 0.0));
        sim.drain_until(2e-3);
        assert_eq!(sim.current_freq(), Freq::from_mhz(1600));
    }

    #[test]
    fn pending_transition_still_fires_while_down() {
        // 4 µs V/F latency: a ceiling initiates a downward transition, the
        // server crashes before it lands, and the regulator finishes its
        // ramp during the outage.
        let mut sim = ServerSim::new(cfg(), FixedFrequencyPolicy::new(Freq::from_mhz(3000)));
        sim.offer(RequestSpec::new(0, 0.0, 2.4e6, 0.0));
        sim.step(); // arrival at 3.0 GHz
        sim.retarget(Some(Freq::from_mhz(1200))); // transition pending
        let _ = sim.fail(1e-6);
        match sim.step() {
            Some(SimEvent::FreqTransition(f)) => assert_eq!(f, Freq::from_mhz(1200)),
            other => panic!("expected the pending transition, got {other:?}"),
        }
        assert!(sim.is_down());
    }
}
