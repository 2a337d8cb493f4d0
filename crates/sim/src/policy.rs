//! The DVFS controller interface.
//!
//! A [`DvfsPolicy`] is consulted by the simulation engine
//! ([`ServerSim`](crate::server::ServerSim), or its closed-loop wrapper
//! [`Server::run`](crate::server::Server::run)) on every request arrival,
//! every request completion, and on a periodic tick (Rubik uses the tick to
//! rebuild its target tail tables every 100 ms and to run its feedback
//! controller). The policy sees the current [`ServerState`] — the queue
//! contents, the progress of the request in service, and the current
//! frequency — and may request a frequency change.
//!
//! A policy never observes *how* the simulation is driven: the callbacks and
//! their order are identical whether the whole trace was offered up front or
//! arrivals trickle in one [`ServerSim::offer`](crate::server::ServerSim)
//! at a time (the step-vs-run equivalence suite pins this bitwise). Policies
//! therefore port unchanged from single-core replay to the open-loop
//! multi-server drivers in `rubik-cluster`, which own one policy instance
//! per simulated server.
//!
//! The `&ServerState` handed to each callback is a scratch buffer the
//! simulator refreshes in place between events (so the event loop performs
//! no per-event allocation — see `rubik_sim::server`); it is valid for the
//! duration of the callback, and a policy that wants to keep history must
//! clone what it needs.
//!
//! `&mut P` and `Box<P>` forward the trait (see the impls below), so engine
//! types can own a boxed policy (`ServerSim<Box<dyn DvfsPolicy>>`, the
//! default) or borrow one (`ServerSim<&mut dyn DvfsPolicy>`, how
//! `Server::run` drives a caller-owned policy).

use crate::freq::Freq;
use crate::request::RequestRecord;

/// Progress of the request currently in service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InServiceView {
    /// Request identifier.
    pub id: u64,
    /// Arrival time of the request.
    pub arrival: f64,
    /// Compute cycles already executed (the ω of paper Sec. 4.1).
    pub elapsed_compute_cycles: f64,
    /// Memory-bound time already incurred.
    pub elapsed_membound_time: f64,
    /// Oracular total compute cycles of the request. Only oracle baselines
    /// may read this; Rubik must not.
    pub oracle_compute_cycles: f64,
    /// Oracular total memory-bound time of the request. Only oracle baselines
    /// may read this; Rubik must not.
    pub oracle_membound_time: f64,
    /// Application-level class (available to schemes that use hints, such as
    /// Adrenaline).
    pub class: u32,
}

/// A request waiting in the queue, as visible to a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedView {
    /// Request identifier.
    pub id: u64,
    /// Arrival time of the request.
    pub arrival: f64,
    /// Oracular compute cycles (see [`InServiceView::oracle_compute_cycles`]).
    pub oracle_compute_cycles: f64,
    /// Oracular memory-bound time.
    pub oracle_membound_time: f64,
    /// Application-level class.
    pub class: u32,
}

/// Snapshot of the server handed to a policy at each decision point.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerState {
    /// Current simulation time in seconds.
    pub now: f64,
    /// Frequency currently in effect.
    pub current_freq: Freq,
    /// Frequency most recently requested (it may not have taken effect yet if
    /// a V/F transition is in flight).
    pub target_freq: Freq,
    /// The request in service, if any.
    pub in_service: Option<InServiceView>,
    /// Queued requests in FIFO order (not including the one in service).
    pub queued: Vec<QueuedView>,
}

impl ServerState {
    /// Number of requests in the system (in service + queued).
    pub fn pending_requests(&self) -> usize {
        self.queued.len() + usize::from(self.in_service.is_some())
    }

    /// Whether the server is idle.
    pub fn is_idle(&self) -> bool {
        self.in_service.is_none() && self.queued.is_empty()
    }
}

/// A policy's decision at a callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyDecision {
    /// Keep the current target frequency.
    #[default]
    Keep,
    /// Request a transition to the given frequency (takes effect after the
    /// configured V/F transition latency).
    SetFrequency(Freq),
}

/// A fine-grain DVFS controller.
///
/// Implementations include the Rubik controller and the baselines
/// (fixed-frequency, StaticOracle, AdrenalineOracle, ...) in `rubik-core`.
pub trait DvfsPolicy {
    /// Human-readable name used in experiment output.
    fn name(&self) -> &str;

    /// Called when a request arrives (after it has been added to the state).
    fn on_arrival(&mut self, state: &ServerState) -> PolicyDecision;

    /// Called when a request completes (after it has been removed from the
    /// state). `record` describes the completed request, including its true
    /// compute and memory demand — this is how Rubik profiles service
    /// distributions online.
    fn on_completion(&mut self, state: &ServerState, record: &RequestRecord) -> PolicyDecision;

    /// Called on the periodic tick (default: no action).
    fn on_tick(&mut self, state: &ServerState) -> PolicyDecision {
        let _ = state;
        PolicyDecision::Keep
    }

    /// The frequency the core should use while idle (default: keep the last
    /// target; the power model charges idle/sleep power regardless).
    fn idle_frequency(&self) -> Option<Freq> {
        None
    }

    /// The policy's tail-latency objective in seconds, if it has one.
    ///
    /// Fleet-level controllers (`rubik-cluster`) read this once at run start
    /// so mid-run retargeting can scale *relative to the original* objective
    /// instead of compounding scale factors. Default: `None` (the policy has
    /// no latency objective, e.g. a fixed-frequency baseline).
    fn latency_bound(&self) -> Option<f64> {
        None
    }

    /// Retargets the policy's tail-latency objective mid-run. Returns `true`
    /// if the policy applied the new bound, `false` if it has no bound to
    /// mutate (the default). Implementations take effect from the next
    /// decision; already-issued frequency requests are not revisited.
    fn set_latency_bound(&mut self, bound: f64) -> bool {
        let _ = bound;
        false
    }
}

impl<P: DvfsPolicy + ?Sized> DvfsPolicy for &mut P {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn on_arrival(&mut self, state: &ServerState) -> PolicyDecision {
        (**self).on_arrival(state)
    }

    fn on_completion(&mut self, state: &ServerState, record: &RequestRecord) -> PolicyDecision {
        (**self).on_completion(state, record)
    }

    fn on_tick(&mut self, state: &ServerState) -> PolicyDecision {
        (**self).on_tick(state)
    }

    fn idle_frequency(&self) -> Option<Freq> {
        (**self).idle_frequency()
    }

    fn latency_bound(&self) -> Option<f64> {
        (**self).latency_bound()
    }

    fn set_latency_bound(&mut self, bound: f64) -> bool {
        (**self).set_latency_bound(bound)
    }
}

impl<P: DvfsPolicy + ?Sized> DvfsPolicy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn on_arrival(&mut self, state: &ServerState) -> PolicyDecision {
        (**self).on_arrival(state)
    }

    fn on_completion(&mut self, state: &ServerState, record: &RequestRecord) -> PolicyDecision {
        (**self).on_completion(state, record)
    }

    fn on_tick(&mut self, state: &ServerState) -> PolicyDecision {
        (**self).on_tick(state)
    }

    fn idle_frequency(&self) -> Option<Freq> {
        (**self).idle_frequency()
    }

    fn latency_bound(&self) -> Option<f64> {
        (**self).latency_bound()
    }

    fn set_latency_bound(&mut self, bound: f64) -> bool {
        (**self).set_latency_bound(bound)
    }
}

/// The trivial baseline: always run at one fixed frequency (the paper's
/// `Fixed-frequency` scheme, nominal 2.4 GHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedFrequencyPolicy {
    freq: Freq,
}

impl FixedFrequencyPolicy {
    /// Creates a policy pinned to `freq`.
    pub fn new(freq: Freq) -> Self {
        Self { freq }
    }

    /// The pinned frequency.
    pub fn freq(&self) -> Freq {
        self.freq
    }
}

impl DvfsPolicy for FixedFrequencyPolicy {
    fn name(&self) -> &str {
        "fixed-frequency"
    }

    fn on_arrival(&mut self, state: &ServerState) -> PolicyDecision {
        if state.current_freq == self.freq && state.target_freq == self.freq {
            PolicyDecision::Keep
        } else {
            PolicyDecision::SetFrequency(self.freq)
        }
    }

    fn on_completion(&mut self, _state: &ServerState, _record: &RequestRecord) -> PolicyDecision {
        PolicyDecision::Keep
    }

    fn idle_frequency(&self) -> Option<Freq> {
        Some(self.freq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_state(freq: Freq) -> ServerState {
        ServerState {
            now: 0.0,
            current_freq: freq,
            target_freq: freq,
            in_service: None,
            queued: Vec::new(),
        }
    }

    #[test]
    fn server_state_counts_pending() {
        let mut s = empty_state(Freq::from_mhz(2400));
        assert!(s.is_idle());
        assert_eq!(s.pending_requests(), 0);
        s.in_service = Some(InServiceView {
            id: 0,
            arrival: 0.0,
            elapsed_compute_cycles: 0.0,
            elapsed_membound_time: 0.0,
            oracle_compute_cycles: 1.0,
            oracle_membound_time: 0.0,
            class: 0,
        });
        s.queued.push(QueuedView {
            id: 1,
            arrival: 0.1,
            oracle_compute_cycles: 1.0,
            oracle_membound_time: 0.0,
            class: 0,
        });
        assert!(!s.is_idle());
        assert_eq!(s.pending_requests(), 2);
    }

    #[test]
    fn fixed_policy_requests_its_frequency_once() {
        let f = Freq::from_mhz(1600);
        let mut p = FixedFrequencyPolicy::new(f);
        assert_eq!(p.name(), "fixed-frequency");
        // When the core is at another frequency, request the pinned one.
        let state = empty_state(Freq::from_mhz(2400));
        assert_eq!(p.on_arrival(&state), PolicyDecision::SetFrequency(f));
        // Once at the pinned frequency, keep it.
        let state = empty_state(f);
        assert_eq!(p.on_arrival(&state), PolicyDecision::Keep);
        assert_eq!(p.idle_frequency(), Some(f));
    }
}
