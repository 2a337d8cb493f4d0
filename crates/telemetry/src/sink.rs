//! The [`Telemetry`] handle the cluster driver is threaded with.
//!
//! # Zero cost when disabled
//!
//! [`Telemetry::disabled()`] (the default) records nothing: every
//! recording method is an inlined branch on a flag that discards its
//! `Copy` argument, and the event vectors stay empty, so nothing is
//! allocated. The disabled path performs **zero allocations** and leaves
//! simulation output bitwise-identical to a build without telemetry — both
//! properties are pinned by tests in `rubik-cluster`
//! (`telemetry_neutrality.rs`, `telemetry_alloc.rs`).

use crate::event::{RequestEvent, ServerEvent};
use crate::fleet::EpochSample;
use crate::log::TraceLog;
use rubik_sim::RunResult;

/// Fleet sampling epoch of recording telemetry (10 ms of simulated time).
pub const DEFAULT_SAMPLE_EPOCH: f64 = 0.01;

/// Instrumentation handle carried by the cluster driver.
///
/// Construct with [`Telemetry::disabled`] (the default — bitwise invisible)
/// or [`Telemetry::recording`] (retains a full [`TraceLog`]). A recording
/// handle keeps the event stream in memory, in the deterministic order the
/// driver emits it at the boundary instants it already sequences, so the
/// stream is a pure function of the run configuration.
#[derive(Debug, Default)]
pub struct Telemetry {
    recording: bool,
    /// `(request id, event)` pairs in recording (= time) order.
    request_events: Vec<(u64, RequestEvent)>,
    /// Server state changes in recording (= time) order.
    server_events: Vec<ServerEvent>,
    /// The fleet time series, one sample window per epoch, in time order.
    epochs: Vec<EpochSample>,
}

impl Telemetry {
    /// No-op telemetry: records nothing, allocates nothing, and leaves run
    /// output bitwise-identical to an uninstrumented run. This is the
    /// default.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Record request/server events and a fleet time series sampled every
    /// [`DEFAULT_SAMPLE_EPOCH`] seconds of simulated time.
    pub fn recording() -> Self {
        Self {
            recording: true,
            ..Self::default()
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.recording
    }

    /// The fleet sampling epoch, or `None` when disabled.
    #[inline]
    pub fn sample_epoch(&self) -> Option<f64> {
        self.recording.then_some(DEFAULT_SAMPLE_EPOCH)
    }

    /// Record a lifecycle event of request `id`. No-op when disabled.
    #[inline]
    pub fn request_event(&mut self, id: u64, event: RequestEvent) {
        if self.recording {
            self.request_events.push((id, event));
        }
    }

    /// Record a server state change. No-op when disabled.
    #[inline]
    pub fn server_event(&mut self, event: ServerEvent) {
        if self.recording {
            self.server_events.push(event);
        }
    }

    /// Record a completed fleet sample window. Windows must be recorded in
    /// time order.
    ///
    /// Callers should guard sample *construction* behind
    /// [`Telemetry::is_enabled`] (building an [`EpochSample`] allocates its
    /// per-server vector); the driver's sample boundary never fires when
    /// disabled, so this is a debug-time contract.
    #[inline]
    pub fn epoch_sample(&mut self, sample: EpochSample) {
        if self.recording {
            debug_assert!(
                self.epochs.last().is_none_or(|p| p.end <= sample.start),
                "fleet samples must be recorded in time order"
            );
            self.epochs.push(sample);
        }
    }

    /// Assemble the recorded stream plus the per-server [`RunResult`]s into
    /// a [`TraceLog`]. Returns `None` when disabled.
    pub fn finalize(self, results: &[RunResult], end: f64) -> Option<TraceLog> {
        self.recording.then(|| {
            TraceLog::assemble(
                &self.request_events,
                self.server_events,
                self.epochs,
                results,
                end,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RequestEventKind;

    #[test]
    fn disabled_telemetry_discards_everything() {
        let mut tele = Telemetry::disabled();
        assert!(!tele.is_enabled());
        assert_eq!(tele.sample_epoch(), None);
        tele.request_event(
            1,
            RequestEvent {
                at: 0.0,
                kind: RequestEventKind::Routed {
                    server: 0,
                    attempt: 1,
                },
            },
        );
        assert!(tele.finalize(&[], 1.0).is_none());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Telemetry::default().is_enabled());
    }

    #[test]
    fn recording_telemetry_retains_events() {
        let mut tele = Telemetry::recording();
        assert_eq!(tele.sample_epoch(), Some(DEFAULT_SAMPLE_EPOCH));
        tele.request_event(
            7,
            RequestEvent {
                at: 0.25,
                kind: RequestEventKind::Routed {
                    server: 2,
                    attempt: 1,
                },
            },
        );
        let log = tele.finalize(&[], 1.0).expect("recording");
        assert_eq!(log.requests.len(), 1);
        assert_eq!(log.requests[0].id, 7);
    }
}
