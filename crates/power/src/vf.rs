//! Voltage/frequency curve.

use rubik_sim::Freq;

/// Supply voltage as a (piecewise-linear) function of frequency.
///
/// Modern parts require higher voltage at higher frequency; dynamic power
/// scales as `V²·f`, which is why DVFS saves superlinear power. The default
/// curve is Haswell-like: 0.65 V at 0.8 GHz rising linearly to 1.05 V at
/// 3.4 GHz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VfCurve {
    min_freq: Freq,
    max_freq: Freq,
    min_voltage: f64,
    max_voltage: f64,
}

impl VfCurve {
    /// Creates a linear V/f curve between `(min_freq, min_voltage)` and
    /// `(max_freq, max_voltage)`.
    ///
    /// # Panics
    ///
    /// Panics if the frequency range is empty or voltages are not positive
    /// and non-decreasing.
    pub fn linear(min_freq: Freq, max_freq: Freq, min_voltage: f64, max_voltage: f64) -> Self {
        assert!(max_freq > min_freq, "frequency range must be non-empty");
        assert!(
            min_voltage > 0.0 && max_voltage >= min_voltage,
            "voltages must be positive and non-decreasing"
        );
        Self {
            min_freq,
            max_freq,
            min_voltage,
            max_voltage,
        }
    }

    /// The Haswell-like curve used throughout the reproduction.
    pub fn haswell_like() -> Self {
        Self::linear(Freq::from_mhz(800), Freq::from_mhz(3400), 0.65, 1.05)
    }

    /// Voltage at frequency `f`, clamped to the curve's endpoints outside the
    /// range.
    pub fn voltage(&self, f: Freq) -> f64 {
        let fr = f.mhz().clamp(self.min_freq.mhz(), self.max_freq.mhz()) as f64;
        let lo = self.min_freq.mhz() as f64;
        let hi = self.max_freq.mhz() as f64;
        let t = (fr - lo) / (hi - lo);
        self.min_voltage + t * (self.max_voltage - self.min_voltage)
    }

    /// Lowest voltage on the curve.
    pub fn min_voltage(&self) -> f64 {
        self.min_voltage
    }

    /// Highest voltage on the curve.
    pub fn max_voltage(&self) -> f64 {
        self.max_voltage
    }
}

impl Default for VfCurve {
    fn default() -> Self {
        Self::haswell_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voltage_is_monotone_in_frequency() {
        let curve = VfCurve::haswell_like();
        let mut prev = 0.0;
        for mhz in (800..=3400).step_by(200) {
            let v = curve.voltage(Freq::from_mhz(mhz));
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn endpoints_match() {
        let curve = VfCurve::haswell_like();
        assert!((curve.voltage(Freq::from_mhz(800)) - 0.65).abs() < 1e-12);
        assert!((curve.voltage(Freq::from_mhz(3400)) - 1.05).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_is_clamped() {
        let curve = VfCurve::haswell_like();
        assert!((curve.voltage(Freq::from_mhz(100)) - 0.65).abs() < 1e-12);
        assert!((curve.voltage(Freq::from_mhz(5000)) - 1.05).abs() < 1e-12);
    }

    #[test]
    fn midpoint_is_interpolated() {
        let curve = VfCurve::linear(Freq::from_mhz(1000), Freq::from_mhz(3000), 0.6, 1.0);
        assert!((curve.voltage(Freq::from_mhz(2000)) - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_range() {
        let _ = VfCurve::linear(Freq::from_mhz(2000), Freq::from_mhz(2000), 0.6, 1.0);
    }
}
