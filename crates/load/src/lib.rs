//! Streaming open-loop arrival sources and time-varying load shapes.
//!
//! Every fleet experiment before this crate replayed a fully
//! pre-materialized [`rubik_sim::Trace`] — O(requests) memory up front,
//! and always at a fixed rate, so the fleet controller never saw a load
//! swing. The paper's core claim (Fig. 1) is precisely about *reacting to
//! load changes* within milliseconds; this crate supplies the load
//! changes, as pull-based arrival streams the cluster driver consumes one
//! request at a time:
//!
//! * [`ArrivalSource`] — the trait: a seeded, deterministic stream of
//!   time-ordered arrivals. `Cluster::run` in `rubik-cluster` pulls from
//!   any implementor, keeping resident memory proportional to in-flight
//!   work rather than total requests.
//! * [`PoissonSource`] — steady open-loop Poisson arrivals, bit-for-bit
//!   identical to `WorkloadGenerator::steady_trace` with the same seed.
//! * [`ShapedSource`] — a non-homogeneous Poisson process following a
//!   [`LoadShape`] (ramps, load steps, diurnal sinusoids, spikes, and
//!   piecewise schedules), drawn by seeded thinning.
//! * [`MergedSource`] — several per-application streams interleaved
//!   deterministically by `(time, stream index)` for heterogeneous fleets.
//! * [`StreamingTraceReader`] / [`StreamingTraceWriter`] — streaming
//!   replay and capture through the one trace codec
//!   (`rubik_workloads::trace_io`), so huge traces never materialize.
//! * [`TraceSource`] — adapts any in-memory [`rubik_sim::Trace`] into a
//!   source, so a materialized trace runs through the same `Cluster::run`.
//!
//! # Streaming arrivals and load shapes
//!
//! A load shape composes like a schedule and drives a source. Here a fleet
//! of 4 servers rides a diurnal sinusoid and then a morning ramp; the
//! stream is pulled lazily and is deterministic in the seed:
//!
//! ```
//! use rubik_load::{ArrivalSource, LoadShape, ShapedSource};
//! use rubik_workloads::AppProfile;
//!
//! let shape = LoadShape::Sequence(vec![
//!     LoadShape::Diurnal { mean: 0.4, amplitude: 0.2, period: 4.0, duration: 4.0 },
//!     LoadShape::Ramp { from: 0.4, to: 0.7, duration: 2.0 },
//! ]);
//! shape.validate().expect("well-formed shape");
//!
//! let mut source = ShapedSource::new(AppProfile::masstree(), shape, 42).for_fleet(4);
//! let mut arrivals = 0usize;
//! let mut last = 0.0;
//! while let Some(request) = source.next_arrival() {
//!     assert!(request.arrival >= last, "streams are time-ordered");
//!     last = request.arrival;
//!     arrivals += 1;
//! }
//! assert!(last < 6.0, "arrivals stay inside the shape window");
//! assert!(arrivals > 100, "a 4-server fleet draws plenty of requests");
//! ```
//!
//! The empirical rate tracks the shape segment by segment (tested in
//! [`source`]), and the same seed reproduces the stream byte-for-byte, so
//! shaped experiments are as replayable as fixed traces.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod shape;
pub mod source;
pub mod trace_io;

pub use shape::{LoadShape, LoadShapeError};
pub use source::{
    drain_to_trace, ArrivalSource, MergedSource, PoissonSource, ShapedSource, TraceSource,
};
pub use trace_io::{StreamingTraceReader, StreamingTraceWriter};
