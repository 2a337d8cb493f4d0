//! Deterministic tracing, per-epoch fleet metrics, and tail-latency
//! attribution for the Rubik reproduction.
//!
//! The paper's argument is about *where* tail latency comes from — queueing
//! on an overloaded core vs service time at a throttled frequency vs the
//! transients around a load change — and end-of-run aggregates cannot answer
//! that. This crate adds the missing observability layer in three pillars:
//!
//! 1. **Per-request lifecycle traces.** The cluster driver records
//!    timestamped [`RequestEvent`]s (routed, timeout, backoff, migration
//!    hop, crash requeue, salvage, drop) and [`ServerEvent`]s into a
//!    recording [`Telemetry`] at the same fault-boundary instants it
//!    already sequences, so the stream is deterministic and invariant under
//!    `rubik-sweep` thread count. Service start/end come for free from
//!    [`rubik_sim::RequestRecord`] and are merged at finalize.
//! 2. **Per-epoch fleet time series.** Recording telemetry retains
//!    [`EpochSample`] windows — fleet power, queue depths, in-flight counts,
//!    per-server DVFS state, cumulative retries/timeouts — sampled on an
//!    epoch independent of the controller's.
//! 3. **Tail attribution.** [`TraceLog::attribute`] decomposes the tail
//!    cohort's latency into queueing / service / backoff / downtime and the
//!    `trace_report` binary (in `rubik-bench`) prints the breakdown table.
//!
//! Logs serialize to a self-describing JSON document ([`to_json`] /
//! [`from_json`]) and to Chrome `trace_event` format ([`to_chrome_json`])
//! viewable in `chrome://tracing` or Perfetto. [`from_json`] reads through
//! the workspace's one JSON tokenizer (`rubik-json`), with the same strict
//! rules as trace replay.
//!
//! # Zero cost when disabled
//!
//! [`Telemetry::disabled()`] is the default everywhere. Its event vectors
//! stay empty: recording calls are inlined branches on a flag, the driver
//! never schedules a sample boundary, and runs are bitwise-identical to an
//! uninstrumented build with zero steady-state allocations (pinned by the
//! neutrality and counting-allocator suites in `rubik-cluster`).
//!
//! # Example
//!
//! ```
//! use rubik_telemetry::{Telemetry, TraceLog};
//! use rubik_sim::{RequestRecord, RunResult};
//!
//! // Bare RunResults (e.g. from a single-server run) already make a log.
//! let record = RequestRecord {
//!     id: 0, arrival: 0.0, start: 0.004, completion: 0.006,
//!     compute_cycles: 1.0e6, membound_time: 0.0,
//!     queue_len_at_arrival: 0, class: 0,
//! };
//! let result = RunResult::new(vec![record], Vec::new(), 0.01);
//! let log = TraceLog::from_results(&[result]);
//! let report = log.attribute(0.95).expect("one completion");
//! assert_eq!(report.completed, 1);
//! // 4 ms queueing + 2 ms service.
//! assert!((report.cohort_mean.queueing - 0.004).abs() < 1e-12);
//! assert!((report.cohort_mean.service - 0.002).abs() < 1e-12);
//!
//! // The disabled handle records nothing and produces no log.
//! assert!(Telemetry::disabled().finalize(&[], 0.0).is_none());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
pub mod event;
pub mod fleet;
pub mod json;
pub mod log;
pub mod report;
mod sink;

pub use chrome::to_chrome_json;
pub use event::{RequestEvent, RequestEventKind, ServerEvent, ServerEventKind};
pub use fleet::{EpochSample, ServerSample};
pub use json::{from_json, to_json, FORMAT};
pub use log::{RequestTrace, TraceLog};
pub use report::{breakdown, AttributionReport, LatencyBreakdown};
pub use sink::{Telemetry, DEFAULT_SAMPLE_EPOCH};
