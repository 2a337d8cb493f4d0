//! Timestamped lifecycle events for requests and servers.
//!
//! Events are recorded by the cluster driver at the same fault-boundary
//! instants it already sequences, so an event stream is a deterministic
//! function of the run configuration: same trace, same plan, same seed ⇒
//! byte-identical events, regardless of sweep thread count.

/// One lifecycle event of one request.
///
/// The owning request id is kept outside the event (see
/// [`Telemetry::request_event`](crate::Telemetry::request_event)) so the
/// event itself stays a small `Copy` value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestEvent {
    /// Simulated time the event occurred.
    pub at: f64,
    /// What happened.
    pub kind: RequestEventKind,
}

/// The kinds of request lifecycle events the driver records.
///
/// Service start / end are *not* events: they are already captured exactly by
/// [`rubik_sim::RequestRecord`] and merged into the trace at finalize, which
/// keeps the simulator hot path untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestEventKind {
    /// Delivery attempt `attempt` (1-based) was routed to `server`.
    Routed {
        /// Target server index.
        server: u32,
        /// 1-based delivery attempt number.
        attempt: u32,
    },
    /// The request timed out while waiting on `server` and was pulled back.
    TimedOut {
        /// Server the attempt was waiting on.
        server: u32,
        /// The attempt that timed out.
        attempt: u32,
    },
    /// A retry was scheduled; the request sits in client backoff until
    /// `until`, when it is re-routed.
    Backoff {
        /// Time the retry becomes due.
        until: f64,
    },
    /// In-service work was salvaged off crashing server `server` and will be
    /// re-delivered through the retry path.
    Salvaged {
        /// The server that crashed mid-service.
        server: u32,
    },
    /// Queued work was force-moved off crashing server `from` to `to`.
    Requeued {
        /// The server that crashed.
        from: u32,
        /// The server that absorbed the stranded work.
        to: u32,
    },
    /// Queued work was moved from `from` to `to` by the migrator.
    Migrated {
        /// Source of the migration hop.
        from: u32,
        /// Destination of the migration hop.
        to: u32,
    },
    /// The request was dropped on `server` (crash without salvage, or retry
    /// budget exhausted) and counts as lost.
    Dropped {
        /// Server the request was lost on.
        server: u32,
    },
    /// A speculative duplicate of attempt `attempt` was launched on
    /// `server` because the primary's age crossed the hedge trigger.
    Hedged {
        /// Server the duplicate was routed to.
        server: u32,
        /// The attempt the duplicate shadows.
        attempt: u32,
    },
    /// The hedged duplicate on `server` finished first: the request's
    /// completion came from the speculative copy, not the primary.
    HedgeWon {
        /// Server whose duplicate completed.
        server: u32,
    },
    /// The losing copy was cancelled on `server` after the other copy
    /// completed first (first-completion-wins).
    HedgeCancelled {
        /// Server the losing copy was removed from.
        server: u32,
    },
}

/// A state change of one server, as injected by the fault plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerEvent {
    /// Simulated time the event occurred.
    pub at: f64,
    /// Index of the affected server.
    pub server: u32,
    /// What happened.
    pub kind: ServerEventKind,
}

/// The kinds of server state changes the driver records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServerEventKind {
    /// The server crashed and stops serving.
    Down,
    /// The server recovered and resumes serving.
    Up,
    /// The server started running `slowdown`× slower than nominal.
    StraggleStart {
        /// Multiplicative service-time inflation (> 1).
        slowdown: f64,
    },
    /// A straggle window ended.
    StraggleEnd,
    /// DVFS became stuck at `mhz` (or unstuck when `None`).
    FreqStuck {
        /// The pinned frequency in MHz, or `None` when the fault clears.
        mhz: Option<u32>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_small_copy_values() {
        // The disabled-telemetry contract leans on events being cheap to
        // construct unconditionally at call sites.
        assert!(std::mem::size_of::<RequestEvent>() <= 32);
        assert!(std::mem::size_of::<ServerEvent>() <= 32);
    }
}
