//! Least-squares power-model fitting and cross-validation.
//!
//! The paper (Sec. 5.1, "Power model") fits a full-system power model to a
//! real Haswell server: it runs SPEC CPU2006 mixes at different frequencies,
//! samples performance counters and RAPL/wall-plug power, performs
//! least-squares regression, and validates with k-fold cross-validation,
//! reporting 5.1% mean and 11% worst-case absolute error.
//!
//! We reproduce the *methodology* end to end on synthetic data: a hidden
//! "ground truth" machine generates counter samples with measurement noise,
//! [`PowerRegression::fit`] recovers a linear model over physically motivated
//! features (`V²·f`, `V`, memory activity, utilization), and
//! [`k_fold_cross_validation`] reports the error statistics that the
//! `table_power_model` bench binary prints.

use rubik_sim::Freq;
use rubik_stats::DeterministicRng;

use crate::vf::VfCurve;

/// One 25 ms-style measurement sample: counters plus measured power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterSample {
    /// Core frequency during the sample.
    pub freq: Freq,
    /// Supply voltage during the sample.
    pub voltage: f64,
    /// Core utilization in `[0, 1]` (non-halted cycle fraction).
    pub utilization: f64,
    /// Memory traffic intensity in `[0, 1]` (fraction of peak bandwidth).
    pub memory_activity: f64,
    /// Measured power in watts.
    pub measured_power: f64,
}

impl CounterSample {
    fn features(&self) -> [f64; 4] {
        [
            1.0,
            self.voltage * self.voltage * self.freq.ghz() * self.utilization,
            self.voltage,
            self.memory_activity,
        ]
    }
}

/// A fitted linear power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerRegression {
    /// Coefficients for `[1, V²·f·util, V, mem]`.
    coefficients: [f64; 4],
}

impl PowerRegression {
    /// Fits the model to samples by ordinary least squares (normal
    /// equations).
    ///
    /// # Panics
    ///
    /// Panics if fewer than 4 samples are provided or the normal equations
    /// are singular (e.g. all samples identical).
    pub fn fit(samples: &[CounterSample]) -> Self {
        assert!(
            samples.len() >= 4,
            "need at least as many samples as model coefficients"
        );
        // Accumulate X^T X (4x4) and X^T y (4).
        let mut xtx = [[0.0f64; 4]; 4];
        let mut xty = [0.0f64; 4];
        for s in samples {
            let x = s.features();
            for i in 0..4 {
                for j in 0..4 {
                    xtx[i][j] += x[i] * x[j];
                }
                xty[i] += x[i] * s.measured_power;
            }
        }
        let coefficients = solve_4x4(xtx, xty).expect("normal equations must not be singular");
        Self { coefficients }
    }

    /// The fitted coefficients for `[1, V²·f·util, V, mem]`.
    pub fn coefficients(&self) -> [f64; 4] {
        self.coefficients
    }

    /// Predicted power for a sample's counters.
    pub fn predict(&self, sample: &CounterSample) -> f64 {
        sample
            .features()
            .iter()
            .zip(&self.coefficients)
            .map(|(x, c)| x * c)
            .sum()
    }

    /// Mean and worst-case absolute relative error over a sample set.
    pub fn errors(&self, samples: &[CounterSample]) -> RegressionReport {
        let mut sum = 0.0;
        let mut worst: f64 = 0.0;
        for s in samples {
            let rel = ((self.predict(s) - s.measured_power) / s.measured_power).abs();
            sum += rel;
            worst = worst.max(rel);
        }
        RegressionReport {
            mean_abs_error: if samples.is_empty() {
                0.0
            } else {
                sum / samples.len() as f64
            },
            worst_abs_error: worst,
            samples: samples.len(),
        }
    }
}

/// Error statistics of a fitted model on a validation set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RegressionReport {
    /// Mean absolute relative error.
    pub mean_abs_error: f64,
    /// Worst-case absolute relative error.
    pub worst_abs_error: f64,
    /// Number of validation samples.
    pub samples: usize,
}

/// k-fold cross-validation: fits on k−1 folds, evaluates on the held-out
/// fold, and aggregates mean / worst error over all folds (the paper uses
/// this to report its 5.1% / 11% numbers).
///
/// # Panics
///
/// Panics if `k < 2` or there are fewer samples than folds.
pub fn k_fold_cross_validation(samples: &[CounterSample], k: usize) -> RegressionReport {
    assert!(k >= 2, "cross-validation needs at least two folds");
    assert!(samples.len() >= k, "need at least one sample per fold");
    let fold_size = samples.len().div_ceil(k);
    let mut total_err = 0.0;
    let mut worst: f64 = 0.0;
    let mut count = 0usize;
    for fold in 0..k {
        let lo = fold * fold_size;
        let hi = ((fold + 1) * fold_size).min(samples.len());
        if lo >= hi {
            continue;
        }
        let test = &samples[lo..hi];
        let train: Vec<CounterSample> = samples[..lo]
            .iter()
            .chain(&samples[hi..])
            .copied()
            .collect();
        let model = PowerRegression::fit(&train);
        let report = model.errors(test);
        total_err += report.mean_abs_error * report.samples as f64;
        worst = worst.max(report.worst_abs_error);
        count += report.samples;
    }
    RegressionReport {
        mean_abs_error: total_err / count as f64,
        worst_abs_error: worst,
        samples: count,
    }
}

/// Generates synthetic counter samples from a hidden "ground truth" server:
/// random frequency levels, utilizations and memory intensities, true power
/// from a physically motivated model, plus multiplicative measurement noise
/// (`noise` is the standard deviation as a fraction, e.g. 0.05 for 5%).
pub fn synthesize_samples(count: usize, noise: f64, seed: u64) -> Vec<CounterSample> {
    assert!(noise >= 0.0);
    let vf = VfCurve::haswell_like();
    let mut rng = DeterministicRng::new(seed);
    let levels: Vec<Freq> = (800..=3400).step_by(200).map(Freq::from_mhz).collect();
    (0..count)
        .map(|_| {
            let freq = levels[rng.index(levels.len())];
            let voltage = vf.voltage(freq);
            let utilization = rng.uniform();
            let memory_activity = rng.uniform() * utilization.max(0.05);
            // Hidden truth: idle platform power + core dynamic + leakage +
            // memory power, with a small interaction term the linear model
            // cannot represent (so the fit error is non-zero, as in reality).
            let true_power = 32.0
                + 15.0 * voltage * voltage * freq.ghz() * utilization
                + 6.0 * voltage
                + 9.0 * memory_activity
                + 1.5 * memory_activity * freq.ghz();
            let noisy = true_power * (1.0 + noise * (rng.uniform() * 2.0 - 1.0));
            CounterSample {
                freq,
                voltage,
                utilization,
                memory_activity,
                measured_power: noisy,
            }
        })
        .collect()
}

fn solve_4x4(mut a: [[f64; 4]; 4], mut b: [f64; 4]) -> Option<[f64; 4]> {
    // Gaussian elimination with partial pivoting.
    for col in 0..4 {
        let mut pivot = col;
        for row in col + 1..4 {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..4 {
            let factor = a[row][col] / a[col][col];
            for k in col..4 {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = [0.0f64; 4];
    for row in (0..4).rev() {
        let mut sum = b[row];
        for k in row + 1..4 {
            sum -= a[row][k] * x[k];
        }
        x[row] = sum / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_a_noiseless_linear_model() {
        // Ground truth exactly in the model family, no noise → near-zero error.
        let vf = VfCurve::haswell_like();
        let mut rng = DeterministicRng::new(3);
        let samples: Vec<CounterSample> = (0..500)
            .map(|_| {
                let freq = Freq::from_mhz(800 + 200 * rng.index(14) as u32);
                let voltage = vf.voltage(freq);
                let utilization = rng.uniform();
                let memory_activity = rng.uniform();
                let power = 30.0
                    + 12.0 * voltage * voltage * freq.ghz() * utilization
                    + 5.0 * voltage
                    + 8.0 * memory_activity;
                CounterSample {
                    freq,
                    voltage,
                    utilization,
                    memory_activity,
                    measured_power: power,
                }
            })
            .collect();
        let model = PowerRegression::fit(&samples);
        let report = model.errors(&samples);
        assert!(report.mean_abs_error < 1e-9);
        assert!((model.coefficients()[0] - 30.0).abs() < 1e-6);
        assert!((model.coefficients()[1] - 12.0).abs() < 1e-6);
    }

    #[test]
    fn cross_validation_error_is_small_but_nonzero() {
        // With 5% measurement noise and a model-mismatch term, the k-fold
        // error should land in the same band the paper reports (a few
        // percent mean, ~2x worse worst-case).
        let samples = synthesize_samples(20_000, 0.05, 7);
        let report = k_fold_cross_validation(&samples, 10);
        assert!(
            report.mean_abs_error > 0.005,
            "mean {}",
            report.mean_abs_error
        );
        assert!(
            report.mean_abs_error < 0.10,
            "mean {}",
            report.mean_abs_error
        );
        assert!(
            report.worst_abs_error < 0.25,
            "worst {}",
            report.worst_abs_error
        );
        assert!(report.worst_abs_error > report.mean_abs_error);
        assert_eq!(report.samples, 20_000);
    }

    #[test]
    fn prediction_increases_with_frequency_and_utilization() {
        let samples = synthesize_samples(5_000, 0.02, 11);
        let model = PowerRegression::fit(&samples);
        let vf = VfCurve::haswell_like();
        let mk = |mhz: u32, util: f64| CounterSample {
            freq: Freq::from_mhz(mhz),
            voltage: vf.voltage(Freq::from_mhz(mhz)),
            utilization: util,
            memory_activity: 0.2,
            measured_power: 0.0,
        };
        assert!(model.predict(&mk(3400, 1.0)) > model.predict(&mk(800, 1.0)));
        assert!(model.predict(&mk(2400, 1.0)) > model.predict(&mk(2400, 0.1)));
    }

    #[test]
    fn solver_handles_identity() {
        let a = [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ];
        let x = solve_4x4(a, [1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(x, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn solver_reports_singularity() {
        let a = [[1.0, 1.0, 0.0, 0.0]; 4];
        assert!(solve_4x4(a, [1.0; 4]).is_none());
    }

    #[test]
    #[should_panic(expected = "at least as many samples")]
    fn fit_rejects_too_few_samples() {
        let _ = PowerRegression::fit(&synthesize_samples(3, 0.0, 1));
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn cross_validation_rejects_single_fold() {
        let _ = k_fold_cross_validation(&synthesize_samples(10, 0.0, 1), 1);
    }
}
