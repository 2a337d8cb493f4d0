//! RubikColoc: colocating batch and latency-critical work (paper Sec. 6–7).
//!
//! Rubik by itself cuts active core power but not idle platform power. The
//! paper's second contribution, RubikColoc, fills a latency-critical (LC)
//! server's idle core cycles with batch work:
//!
//! * the memory system (LLC capacity and DRAM bandwidth) is partitioned
//!   between LC and batch applications, half each, removing the large,
//!   slow-to-recover interference: the LC application's memory-bound time
//!   is left as it is, and batch work runs on half the LLC,
//! * cores are time-shared: the LC application preempts batch work whenever it
//!   has pending requests and yields the core when idle
//!   ([`ColocatedCore`]),
//! * the residual interference — cold private caches, branch predictors and
//!   TLBs after batch work ran — is small-inertia state that Rubik's
//!   fine-grain DVFS compensates for ([`CoreInterferenceModel`]),
//! * at datacenter scale, colocated servers absorb batch work from dedicated
//!   batch servers, cutting both total power and the number of machines
//!   ([`datacenter`], Fig. 16).
//!
//! Four colocation schemes are modelled (Fig. 15): [`ColocScheme::RubikColoc`],
//! [`ColocScheme::StaticColoc`], and the hardware-controlled
//! [`ColocScheme::HwThroughput`] / [`ColocScheme::HwThroughputPerWatt`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod datacenter;
pub mod interference;
pub mod runner;
pub mod schemes;

pub use datacenter::{DatacenterComparison, DatacenterConfig, DatacenterContext, DatacenterPoint};
pub use interference::CoreInterferenceModel;
pub use runner::{ColocOutcome, ColocRunSpec, ColocatedCore};
pub use schemes::ColocScheme;
