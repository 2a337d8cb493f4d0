//! Discrete-event simulation of a latency-critical server with fine-grain
//! per-core DVFS.
//!
//! This crate is the substrate the Rubik reproduction is evaluated on. The
//! paper evaluates Rubik with zsim, a microarchitectural simulator; here we
//! substitute a request-level discrete-event model (see `DESIGN.md` for why
//! the substitution preserves the relevant behaviour): every request carries
//! a compute demand in core cycles and a memory-bound time that core DVFS
//! cannot accelerate, and a server core executes requests from a FIFO queue
//! at a frequency chosen by a pluggable [`DvfsPolicy`].
//!
//! The key types are:
//!
//! * [`Freq`] / [`DvfsConfig`] — the DVFS domain (0.8–3.4 GHz in 200 MHz
//!   steps, 4 µs transitions for the paper's simulated CMP, Table 2),
//! * [`RequestSpec`] / [`Trace`] — a request trace (arrival time, compute
//!   cycles, memory-bound time),
//! * [`DvfsPolicy`] / [`ServerState`] — the controller interface invoked on
//!   every arrival, completion, and periodic tick,
//! * [`ServerSim`] / [`SimEvent`] — the resumable open-loop engine: offer
//!   arrivals as they happen, advance one event at a time (this is what
//!   `rubik-cluster` multiplexes to simulate whole fleets in one process),
//! * [`Server`] — the closed-loop wrapper that replays a complete trace,
//! * [`RunResult`] — per-request records plus the frequency/activity
//!   timeline, from which tail latency and (via `rubik-power`) energy are
//!   derived.
//!
//! # Example
//!
//! ```
//! use rubik_sim::{DvfsConfig, FixedFrequencyPolicy, RequestSpec, Server, SimConfig, Trace};
//!
//! // Two requests, each needing 1.2 M cycles of compute and no memory time.
//! let trace = Trace::new(vec![
//!     RequestSpec::new(0, 0.000, 1.2e6, 0.0),
//!     RequestSpec::new(1, 0.001, 1.2e6, 0.0),
//! ]);
//! let server = Server::new(SimConfig::default());
//! let mut policy = FixedFrequencyPolicy::new(DvfsConfig::haswell_like().nominal());
//! let result = server.run(&trace, &mut policy);
//! assert_eq!(result.records().len(), 2);
//! // At 2.4 GHz, 1.2 M cycles take 0.5 ms.
//! assert!((result.records()[0].latency() - 0.0005).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod freq;
pub mod policy;
pub mod request;
pub mod result;
pub mod server;

pub use config::SimConfig;
pub use freq::{DvfsConfig, Freq};
pub use policy::{
    DvfsPolicy, FixedFrequencyPolicy, InServiceView, PolicyDecision, QueuedView, ServerState,
};
pub use request::{RequestRecord, RequestSpec, Trace};
pub use result::{CoreActivity, FreqResidency, RunResult, Segment};
pub use server::{Server, ServerSim, SimEvent};
