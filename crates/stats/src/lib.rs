//! Statistical primitives used throughout the Rubik reproduction.
//!
//! The Rubik controller ([MICRO-48, 2015]) models per-request work as random
//! variables and needs, online and cheaply:
//!
//! * discrete, fixed-bucket **histograms** of per-request compute cycles and
//!   memory-bound time ([`Histogram`]),
//! * **convolution** of those histograms to obtain the completion distribution
//!   of queued requests ([`convolve`], [`fft`]),
//! * **quantiles** ("target tails") of the convolved distributions,
//! * a **Gaussian (CLT) approximation** for deep queues ([`gaussian`]),
//! * **conditional** distributions given work already performed
//!   ([`Histogram::conditional_on_elapsed`]),
//! * measurement helpers: exact percentiles, rolling-window tail tracking,
//!   Pearson correlation, online mean/variance.
//!
//! All of these are provided here with no dependency on the simulator, so the
//! same code backs both the controller (`rubik-core`) and the evaluation
//! harness (`rubik-bench`).
//!
//! # Example
//!
//! ```
//! use rubik_stats::Histogram;
//!
//! // Build a service-cycle distribution from observed samples.
//! let samples = [1_000.0, 1_200.0, 900.0, 1_500.0, 1_100.0, 950.0];
//! let hist = Histogram::from_samples(&samples, 128);
//! assert!(hist.quantile(0.95) >= hist.quantile(0.5));
//!
//! // Distribution of the total work of two back-to-back requests.
//! let two = hist.convolve(&hist);
//! assert!((two.mean() - 2.0 * hist.mean()).abs() < 1e-6 * hist.mean());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod correlation;
pub mod fft;
pub mod gaussian;
pub mod histogram;
pub mod percentile;
pub mod rolling;
pub mod sampling;
pub mod summary;

pub use correlation::pearson;
pub use gaussian::{gaussian_quantile, standard_normal_cdf, GaussianTail};
pub use histogram::Histogram;
pub use percentile::{percentile, percentile_of_sorted};
pub use rolling::{RollingQuantileWindow, RollingTailTracker};
pub use sampling::{DeterministicRng, ServiceSampler};
pub use summary::OnlineStats;

/// Convolve two probability mass functions given as slices.
///
/// The result has length `a.len() + b.len() - 1`. Uses the FFT for large
/// inputs and the direct O(n·m) algorithm for small ones.
///
/// It is the convolution [`Histogram::convolve`] applies to two PMFs. Rubik's
/// target tail tables do not build through it: they run ladders of
/// self-convolutions on shared [`fft::FftPlan`]s, and only the reference
/// builder `TargetTailTables::build_direct` (in `rubik-core`) convolves
/// one pair at a time.
///
/// ```
/// let a = [0.5, 0.5];
/// let b = [0.25, 0.75];
/// let c = rubik_stats::convolve(&a, &b);
/// assert_eq!(c.len(), 3);
/// assert!((c.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// ```
pub fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    fft::convolve(a, b)
}
