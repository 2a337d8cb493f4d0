//! Core frequency and the DVFS domain.

/// A core frequency, stored in MHz.
///
/// A newtype (rather than a bare `f64` in GHz) so that frequencies, times and
/// cycle counts cannot be mixed up, and so that frequencies can be used as
/// exact map keys for residency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Freq(u32);

impl Freq {
    /// Creates a frequency from MHz.
    pub const fn from_mhz(mhz: u32) -> Self {
        Self(mhz)
    }

    /// The frequency in MHz.
    pub const fn mhz(self) -> u32 {
        self.0
    }

    /// The frequency in GHz.
    pub fn ghz(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// The frequency in cycles per second.
    pub fn hz(self) -> f64 {
        self.0 as f64 * 1e6
    }

    /// Time in seconds to execute `cycles` core cycles at this frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    pub fn time_for_cycles(self, cycles: f64) -> f64 {
        assert!(self.0 > 0, "cannot execute cycles at 0 MHz");
        cycles / self.hz()
    }
}

impl std::fmt::Display for Freq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1} GHz", self.ghz())
    }
}

/// The DVFS domain of a core: available frequency levels, the nominal
/// frequency, and the voltage/frequency transition latency.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsConfig {
    min: Freq,
    max: Freq,
    step_mhz: u32,
    nominal: Freq,
    /// Seconds for a voltage/frequency transition to take effect.
    transition_latency: f64,
    /// All levels, ascending — materialized once at construction so the hot
    /// scheme code that scans levels ([`DvfsConfig::levels`]) never
    /// allocates.
    levels: Vec<Freq>,
}

impl DvfsConfig {
    /// Creates a DVFS domain.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, the step is zero, the range is not a
    /// multiple of the step, or the nominal frequency is not a level.
    pub fn new(
        min: Freq,
        max: Freq,
        step_mhz: u32,
        nominal: Freq,
        transition_latency: f64,
    ) -> Self {
        assert!(step_mhz > 0, "frequency step must be positive");
        assert!(
            min.mhz() > 0 && max.mhz() >= min.mhz(),
            "invalid frequency range"
        );
        assert_eq!(
            (max.mhz() - min.mhz()) % step_mhz,
            0,
            "frequency range must be a multiple of the step"
        );
        assert!(
            transition_latency >= 0.0,
            "transition latency must be non-negative"
        );
        let levels = (min.mhz()..=max.mhz())
            .step_by(step_mhz as usize)
            .map(Freq::from_mhz)
            .collect();
        let cfg = Self {
            min,
            max,
            step_mhz,
            nominal,
            transition_latency,
            levels,
        };
        assert!(
            cfg.is_level(nominal),
            "nominal frequency {nominal} is not an available level"
        );
        cfg
    }

    /// The configuration of the paper's simulated CMP (Table 2): 0.8–3.4 GHz
    /// in 200 MHz steps, 2.4 GHz nominal, 4 µs V/F transition latency
    /// (Haswell-like FIVR per-core DVFS).
    pub fn haswell_like() -> Self {
        Self::new(
            Freq::from_mhz(800),
            Freq::from_mhz(3400),
            200,
            Freq::from_mhz(2400),
            4e-6,
        )
    }

    /// The configuration observed on the paper's real Haswell system
    /// (Sec. 5.5): same levels, but ~130 µs effective transition latency due
    /// to the Power Control Unit.
    pub fn real_haswell() -> Self {
        Self::new(
            Freq::from_mhz(800),
            Freq::from_mhz(3400),
            200,
            Freq::from_mhz(2400),
            130e-6,
        )
    }

    /// Lowest available frequency.
    pub fn min(&self) -> Freq {
        self.min
    }

    /// Highest available frequency.
    pub fn max(&self) -> Freq {
        self.max
    }

    /// Nominal (baseline) frequency.
    pub fn nominal(&self) -> Freq {
        self.nominal
    }

    /// Step between levels, in MHz.
    pub fn step_mhz(&self) -> u32 {
        self.step_mhz
    }

    /// Voltage/frequency transition latency in seconds.
    pub fn transition_latency(&self) -> f64 {
        self.transition_latency
    }

    /// Returns a copy with a different transition latency (used to model the
    /// real-system FIVR lag of Sec. 5.5).
    pub fn with_transition_latency(mut self, latency: f64) -> Self {
        assert!(latency >= 0.0);
        self.transition_latency = latency;
        self
    }

    /// All available frequency levels, ascending.
    ///
    /// The slice is cached at construction — calling this in per-decision
    /// scheme code is free (it used to allocate a fresh `Vec` per call).
    pub fn levels(&self) -> &[Freq] {
        &self.levels
    }

    /// Whether `f` is one of the available levels.
    pub fn is_level(&self, f: Freq) -> bool {
        f >= self.min && f <= self.max && (f.mhz() - self.min.mhz()).is_multiple_of(self.step_mhz)
    }

    /// The lowest available level that is at least `hz` cycles per second,
    /// or the maximum level if none is high enough.
    pub fn ceil_level(&self, hz: f64) -> Freq {
        if hz <= 0.0 {
            return self.min;
        }
        let mhz = (hz / 1e6).ceil() as u32;
        if mhz <= self.min.mhz() {
            return self.min;
        }
        if mhz > self.max.mhz() {
            return self.max;
        }
        let steps = (mhz - self.min.mhz()).div_ceil(self.step_mhz);
        Freq::from_mhz(self.min.mhz() + steps * self.step_mhz)
    }

    /// The highest available level that is at most `hz` cycles per second,
    /// or the minimum level if none is low enough.
    pub fn floor_level(&self, hz: f64) -> Freq {
        let mhz = (hz / 1e6).floor() as u32;
        if mhz <= self.min.mhz() {
            return self.min;
        }
        if mhz >= self.max.mhz() {
            return self.max;
        }
        let steps = (mhz - self.min.mhz()) / self.step_mhz;
        Freq::from_mhz(self.min.mhz() + steps * self.step_mhz)
    }
}

impl Default for DvfsConfig {
    fn default() -> Self {
        Self::haswell_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freq_conversions() {
        let f = Freq::from_mhz(2400);
        assert_eq!(f.mhz(), 2400);
        assert!((f.ghz() - 2.4).abs() < 1e-12);
        assert!((f.hz() - 2.4e9).abs() < 1.0);
        assert!((f.time_for_cycles(2.4e9) - 1.0).abs() < 1e-12);
        assert_eq!(format!("{f}"), "2.4 GHz");
    }

    #[test]
    fn haswell_like_matches_table2() {
        let cfg = DvfsConfig::haswell_like();
        assert_eq!(cfg.min().mhz(), 800);
        assert_eq!(cfg.max().mhz(), 3400);
        assert_eq!(cfg.nominal().mhz(), 2400);
        assert_eq!(cfg.levels().len(), 14);
        assert!((cfg.transition_latency() - 4e-6).abs() < 1e-12);
    }

    #[test]
    fn levels_are_ascending_and_valid() {
        let cfg = DvfsConfig::haswell_like();
        let levels = cfg.levels();
        for w in levels.windows(2) {
            assert!(w[1] > w[0]);
        }
        for &l in levels {
            assert!(cfg.is_level(l));
        }
        assert!(!cfg.is_level(Freq::from_mhz(2500)));
        assert!(!cfg.is_level(Freq::from_mhz(3600)));
    }

    #[test]
    fn ceil_level_rounds_up() {
        let cfg = DvfsConfig::haswell_like();
        assert_eq!(cfg.ceil_level(2.45e9).mhz(), 2600);
        assert_eq!(cfg.ceil_level(2.4e9).mhz(), 2400);
        assert_eq!(cfg.ceil_level(0.1e9).mhz(), 800);
        assert_eq!(cfg.ceil_level(9.9e9).mhz(), 3400);
        assert_eq!(cfg.ceil_level(0.0).mhz(), 800);
    }

    #[test]
    fn floor_level_rounds_down() {
        let cfg = DvfsConfig::haswell_like();
        assert_eq!(cfg.floor_level(2.45e9).mhz(), 2400);
        assert_eq!(cfg.floor_level(0.1e9).mhz(), 800);
        assert_eq!(cfg.floor_level(9.9e9).mhz(), 3400);
    }

    #[test]
    fn real_haswell_has_slow_transitions() {
        let cfg = DvfsConfig::real_haswell();
        assert!((cfg.transition_latency() - 130e-6).abs() < 1e-12);
        assert_eq!(cfg.levels(), DvfsConfig::haswell_like().levels());
    }

    #[test]
    #[should_panic(expected = "not an available level")]
    fn rejects_invalid_nominal() {
        let _ = DvfsConfig::new(
            Freq::from_mhz(800),
            Freq::from_mhz(3400),
            200,
            Freq::from_mhz(2500),
            4e-6,
        );
    }

    #[test]
    #[should_panic(expected = "multiple of the step")]
    fn rejects_misaligned_range() {
        let _ = DvfsConfig::new(
            Freq::from_mhz(800),
            Freq::from_mhz(3300),
            200,
            Freq::from_mhz(2400),
            4e-6,
        );
    }
}
