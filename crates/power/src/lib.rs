//! Core and full-system power models for the Rubik reproduction.
//!
//! The paper trains a full-system power model on a Haswell server using RAPL
//! and wall-plug measurements, then uses it to report core power savings
//! (Fig. 6, Fig. 11), core energy per request (Fig. 1a, Fig. 9b), full-system
//! savings (Fig. 12), and datacenter power (Fig. 16). We substitute an
//! analytic CMOS model with a Haswell-like voltage/frequency curve (see
//! `DESIGN.md`), and additionally reproduce the paper's *fitting methodology*
//! in [`regression`]: synthetic counter samples, least-squares fit, and
//! k-fold cross-validation of the model error.
//!
//! Key types:
//!
//! * [`VfCurve`] — voltage as a function of frequency,
//! * [`CorePowerModel`] — active/idle/sleep core power and energy from a
//!   simulation's [`FreqResidency`](rubik_sim::FreqResidency),
//! * [`ServerPowerModel`] — uncore, DRAM, and "other" components on top of
//!   the cores (Fig. 12, Fig. 16),
//! * [`regression::PowerRegression`] — the RAPL-style model fit,
//! * [`Tdp`] — thermal design power checks for coordinated DVFS schemes.
//!
//! # Example
//!
//! ```
//! use rubik_power::CorePowerModel;
//! use rubik_sim::Freq;
//!
//! let model = CorePowerModel::haswell_like();
//! let p_low = model.active_power(Freq::from_mhz(800));
//! let p_nom = model.active_power(Freq::from_mhz(2400));
//! assert!(p_low < p_nom / 2.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod core_power;
pub mod regression;
pub mod server;
pub mod tdp;
pub mod vf;

pub use core_power::{CoreEnergy, CorePowerModel};
pub use regression::{CounterSample, PowerRegression, RegressionReport};
pub use server::{ServerEnergy, ServerPowerModel};
pub use tdp::Tdp;
pub use vf::VfCurve;
