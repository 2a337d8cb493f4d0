//! The Rubik analytical DVFS controller and the baseline schemes it is
//! compared against.
//!
//! This crate implements the paper's primary contribution (Sec. 4):
//!
//! * [`RubikController`] — on every request arrival and completion, find the
//!   lowest frequency `f ≥ max_i c_i / (L − t_i − m_i)` (Eq. 2) that meets
//!   the tail-latency bound for every pending request, where `c_i` and `m_i`
//!   are tail completion cycles / memory times read from precomputed
//!   [`TargetTailTables`], built from service-demand distributions profiled
//!   online by the [`OnlineProfiler`]. A slow PI [`FeedbackController`] trims
//!   the internal latency target from measured tail latency (Sec. 4.2).
//!
//! and the comparison schemes of Sec. 5:
//!
//! * [`FixedFrequencyPolicy`] (re-exported from `rubik-sim`) — the baseline,
//! * [`StaticOracle`] — the lowest static frequency that meets the bound for
//!   a given trace (an upper bound on feedback controllers like Pegasus),
//! * [`DynamicOracle`] — the per-request frequency schedule that minimizes
//!   energy subject to the tail bound,
//! * [`AdrenalineOracle`] — an idealized Adrenaline: perfect long/short
//!   request classification, offline-tuned boosted/unboosted frequencies.
//!
//! # Example
//!
//! ```
//! use rubik_core::{RubikConfig, RubikController};
//! use rubik_sim::{Server, SimConfig};
//! use rubik_workloads::{AppProfile, WorkloadGenerator};
//!
//! let profile = AppProfile::masstree();
//! let mut generator = WorkloadGenerator::new(profile, 1);
//! let trace = generator.steady_trace(0.3, 2_000);
//!
//! let config = SimConfig::default();
//! let bound = 800e-6; // 800 µs tail-latency bound
//! let mut rubik = RubikController::new(RubikConfig::new(bound), config.dvfs.clone());
//! let result = Server::new(config).run(&trace, &mut rubik);
//! assert!(result.tail_latency(0.95).unwrap() <= bound * 1.2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adrenaline;
pub mod dynamic_oracle;
pub mod feedback;
pub mod profiler;
pub mod replay;
pub mod rubik;
pub mod static_oracle;
pub mod tables;

pub use adrenaline::{AdrenalineOracle, AdrenalinePolicy};
pub use dynamic_oracle::{DynamicOracle, OracleSchedule};
pub use feedback::FeedbackController;
pub use profiler::OnlineProfiler;
pub use replay::{replay, replay_energy, replay_tail};
pub use rubik::{RubikConfig, RubikController, RubikStats};
pub use static_oracle::StaticOracle;
pub use tables::{TableBuilder, TargetTailTables};

pub use rubik_sim::FixedFrequencyPolicy;
