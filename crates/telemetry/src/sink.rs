//! The in-memory [`Recorder`] and the [`Telemetry`] handle the cluster
//! driver is threaded with.
//!
//! # Zero cost when disabled
//!
//! [`Telemetry::disabled()`] (the default) holds no recorder: every
//! recording method is an inlined branch on a `None` option that discards
//! its `Copy` argument. The disabled path performs **zero allocations** and
//! leaves simulation output bitwise-identical to a build without telemetry —
//! both properties are pinned by tests in `rubik-cluster`
//! (`telemetry_neutrality.rs`, `telemetry_alloc.rs`).

use crate::event::{RequestEvent, ServerEvent};
use crate::fleet::{EpochSample, FleetRecorder};
use crate::log::TraceLog;
use rubik_sim::RunResult;

/// Default fleet sampling epoch (10 ms of simulated time).
pub const DEFAULT_SAMPLE_EPOCH: f64 = 0.01;

/// In-memory receiver for the event stream emitted by the cluster driver,
/// retaining everything for later assembly into a [`TraceLog`].
///
/// The driver records at the fault-boundary instants it already sequences,
/// in deterministic order, so the stream is a pure function of the run
/// configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recorder {
    request_events: Vec<(u64, RequestEvent)>,
    server_events: Vec<ServerEvent>,
    fleet: FleetRecorder,
}

impl Recorder {
    /// Recorded `(request id, event)` pairs in recording (= time) order.
    pub fn request_events(&self) -> &[(u64, RequestEvent)] {
        &self.request_events
    }

    /// Recorded server events in recording (= time) order.
    pub fn server_events(&self) -> &[ServerEvent] {
        &self.server_events
    }

    /// The per-epoch fleet time series.
    pub fn fleet(&self) -> &FleetRecorder {
        &self.fleet
    }

    /// Records a lifecycle event of request `id`.
    pub fn request_event(&mut self, id: u64, event: RequestEvent) {
        self.request_events.push((id, event));
    }

    /// Records a server state change.
    pub fn server_event(&mut self, event: ServerEvent) {
        self.server_events.push(event);
    }

    /// Records a completed fleet sample window.
    pub fn epoch_sample(&mut self, sample: EpochSample) {
        self.fleet.record(sample);
    }
}

/// Instrumentation handle carried by the cluster driver.
///
/// Construct with [`Telemetry::disabled`] (the default — bitwise invisible)
/// or [`Telemetry::recording`] (retains a full [`TraceLog`]).
#[derive(Debug, Default)]
pub struct Telemetry {
    sample_epoch: Option<f64>,
    recorder: Option<Box<Recorder>>,
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
            sample_epoch: Some(DEFAULT_SAMPLE_EPOCH),
            recorder: Some(Box::default()),
        }
    }

    /// Override the fleet sampling epoch (seconds of simulated time).
    ///
    /// No-op on disabled telemetry. Panics if `epoch` is not finite and
    /// positive.
    pub fn with_sample_epoch(mut self, epoch: f64) -> Self {
        assert!(
            epoch.is_finite() && epoch > 0.0,
            "sample epoch must be finite and positive"
        );
        if self.recorder.is_some() {
            self.sample_epoch = Some(epoch);
        }
        self
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// The fleet sampling epoch, or `None` when disabled.
    #[inline]
    pub fn sample_epoch(&self) -> Option<f64> {
        self.sample_epoch
    }

    /// Record a lifecycle event of request `id`. No-op when disabled.
    #[inline]
    pub fn request_event(&mut self, id: u64, event: RequestEvent) {
        if let Some(recorder) = self.recorder.as_deref_mut() {
            recorder.request_event(id, event);
        }
    }

    /// Record a server state change. No-op when disabled.
    #[inline]
    pub fn server_event(&mut self, event: ServerEvent) {
        if let Some(recorder) = self.recorder.as_deref_mut() {
            recorder.server_event(event);
        }
    }

    /// Record a completed fleet sample window.
    ///
    /// Callers should guard sample *construction* behind
    /// [`Telemetry::is_enabled`] (building an [`EpochSample`] allocates its
    /// per-server vector); the driver's sample boundary never fires when
    /// disabled, so this is a debug-time contract.
    #[inline]
    pub fn epoch_sample(&mut self, sample: EpochSample) {
        if let Some(recorder) = self.recorder.as_deref_mut() {
            recorder.epoch_sample(sample);
        }
    }

    /// Assemble the recorded stream plus the per-server [`RunResult`]s into
    /// a [`TraceLog`]. Returns `None` when disabled.
    pub fn finalize(self, results: &[RunResult], end: f64) -> Option<TraceLog> {
        self.recorder
            .map(|recorder| TraceLog::assemble(*recorder, results, end))
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
    fn with_sample_epoch_is_a_noop_when_disabled() {
        let tele = Telemetry::disabled().with_sample_epoch(0.5);
        assert_eq!(tele.sample_epoch(), None);
    }

    #[test]
    fn recording_telemetry_retains_events() {
        let mut tele = Telemetry::recording().with_sample_epoch(0.5);
        assert_eq!(tele.sample_epoch(), Some(0.5));
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

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn non_positive_sample_epoch_panics() {
        let _ = Telemetry::recording().with_sample_epoch(0.0);
    }
}
