//! Workload models for the Rubik reproduction.
//!
//! The paper evaluates Rubik on five latency-critical applications (Table 3):
//! xapian (web search), masstree (key-value store), moses (statistical
//! machine translation), shore (OLTP/TPC-C), and specjbb (Java middleware).
//! We do not run the applications themselves; instead, each application is
//! modelled by the statistical properties that drive every result in the
//! paper — its per-request service-demand distribution (median, dispersion,
//! shape), its memory-bound fraction, and its arrival process (Poisson, as in
//! the paper's integrated client). See `DESIGN.md` for the substitution
//! rationale.
//!
//! The crate provides:
//!
//! * [`AppProfile`] — the five LC application models and their parameters,
//! * [`WorkloadGenerator`] — turns a profile plus a steady load into a
//!   [`rubik_sim::Trace`] of requests (time-varying load curves live in
//!   `rubik-load`, whose sources draw through this generator),
//! * [`BatchApp`] / [`BatchMix`] — SPEC CPU2006-like batch application models
//!   used by RubikColoc,
//! * [`trace_io`] — JSON capture/replay of traces (the paper's trace-driven
//!   methodology, Sec. 5.3).
//!
//! # Example
//!
//! ```
//! use rubik_workloads::{AppProfile, WorkloadGenerator};
//!
//! let profile = AppProfile::masstree();
//! let mut generator = WorkloadGenerator::new(profile, 42);
//! let trace = generator.steady_trace(0.5, 2_000);
//! assert_eq!(trace.len(), 2_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod generator;
pub mod profile;
pub mod trace_io;

pub use batch::{BatchApp, BatchMix};
pub use generator::WorkloadGenerator;
pub use profile::{AppProfile, ServiceShape};
