//! Offered-load profiles over time.
//!
//! The paper evaluates steady loads (Fig. 6, Fig. 9), sudden load steps
//! (Fig. 1b: 30%→50% at t=1 s; Fig. 10: 25%→50%→75% in 4 s steps), and
//! motivates diurnal variation (Sec. 7.2 sweeps 10–60%). [`LoadProfile`]
//! describes load as a fraction of the application's capacity at nominal
//! frequency, as a function of time.

/// Offered load (fraction of nominal-frequency capacity) as a function of
/// time.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadProfile {
    /// Constant load for the given duration (seconds).
    Constant {
        /// Load as a fraction of capacity (e.g. 0.5 for 50%).
        load: f64,
        /// Duration in seconds.
        duration: f64,
    },
    /// Piecewise-constant steps: each entry is `(load, duration)`.
    Steps(Vec<(f64, f64)>),
    /// Sinusoidal diurnal pattern around `mean` with amplitude `amplitude`
    /// and the given period, for `duration` seconds.
    Diurnal {
        /// Mean load.
        mean: f64,
        /// Peak deviation from the mean.
        amplitude: f64,
        /// Period of the sinusoid in seconds.
        period: f64,
        /// Total duration in seconds.
        duration: f64,
    },
}

impl LoadProfile {
    /// The Fig. 1b experiment: 30% load for 1 s, then 50% for 1 s.
    pub fn fig1_step() -> Self {
        LoadProfile::Steps(vec![(0.30, 1.0), (0.50, 1.0)])
    }

    /// The Fig. 10 experiment: 25% for 4 s, 50% for 4 s, 75% for 4 s.
    pub fn fig10_steps() -> Self {
        LoadProfile::Steps(vec![(0.25, 4.0), (0.50, 4.0), (0.75, 4.0)])
    }

    /// Total duration of the profile, in seconds.
    pub fn duration(&self) -> f64 {
        match self {
            LoadProfile::Constant { duration, .. } => *duration,
            LoadProfile::Steps(steps) => steps.iter().map(|&(_, d)| d).sum(),
            LoadProfile::Diurnal { duration, .. } => *duration,
        }
    }

    /// The load at time `t` (0 outside the profile's duration).
    pub fn load_at(&self, t: f64) -> f64 {
        if t < 0.0 || t >= self.duration() {
            return 0.0;
        }
        match self {
            LoadProfile::Constant { load, .. } => *load,
            LoadProfile::Steps(steps) => {
                let mut elapsed = 0.0;
                for &(load, d) in steps {
                    if t < elapsed + d {
                        return load;
                    }
                    elapsed += d;
                }
                0.0
            }
            LoadProfile::Diurnal {
                mean,
                amplitude,
                period,
                ..
            } => {
                let phase = 2.0 * std::f64::consts::PI * t / period;
                (mean + amplitude * phase.sin()).max(0.0)
            }
        }
    }

    /// Average load over the profile's duration (numerically integrated).
    pub fn average_load(&self) -> f64 {
        match self {
            LoadProfile::Constant { load, .. } => *load,
            LoadProfile::Steps(steps) => {
                let total: f64 = steps.iter().map(|&(_, d)| d).sum();
                if total <= 0.0 {
                    return 0.0;
                }
                steps.iter().map(|&(l, d)| l * d).sum::<f64>() / total
            }
            LoadProfile::Diurnal { mean, .. } => *mean,
        }
    }

    /// Validates that the profile is well-formed (non-negative loads and
    /// positive durations).
    pub fn validate(&self) -> Result<(), String> {
        let check_load = |l: f64| {
            if !(0.0..=2.0).contains(&l) {
                Err(format!("load {l} outside the sensible range [0, 2]"))
            } else {
                Ok(())
            }
        };
        match self {
            LoadProfile::Constant { load, duration } => {
                check_load(*load)?;
                if *duration <= 0.0 {
                    return Err("duration must be positive".into());
                }
            }
            LoadProfile::Steps(steps) => {
                if steps.is_empty() {
                    return Err("step profile must have at least one step".into());
                }
                for &(l, d) in steps {
                    check_load(l)?;
                    if d <= 0.0 {
                        return Err("step durations must be positive".into());
                    }
                }
            }
            LoadProfile::Diurnal {
                mean,
                amplitude,
                period,
                duration,
            } => {
                check_load(*mean)?;
                if *amplitude < 0.0 || *period <= 0.0 || *duration <= 0.0 {
                    return Err("diurnal parameters must be positive".into());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile() {
        let p = LoadProfile::Constant {
            load: 0.4,
            duration: 2.0,
        };
        assert_eq!(p.load_at(1.0), 0.4);
        assert_eq!(p.load_at(-0.1), 0.0);
        assert_eq!(p.load_at(2.5), 0.0);
        assert_eq!(p.duration(), 2.0);
        assert_eq!(p.average_load(), 0.4);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn step_profile_matches_fig10() {
        let p = LoadProfile::fig10_steps();
        assert_eq!(p.duration(), 12.0);
        assert_eq!(p.load_at(1.0), 0.25);
        assert_eq!(p.load_at(5.0), 0.50);
        assert_eq!(p.load_at(11.9), 0.75);
        assert!((p.average_load() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fig1_step_switches_at_one_second() {
        let p = LoadProfile::fig1_step();
        assert_eq!(p.load_at(0.5), 0.30);
        assert_eq!(p.load_at(1.5), 0.50);
        assert_eq!(p.duration(), 2.0);
    }

    #[test]
    fn diurnal_profile_oscillates_around_mean() {
        let p = LoadProfile::Diurnal {
            mean: 0.35,
            amplitude: 0.25,
            period: 10.0,
            duration: 20.0,
        };
        assert!((p.load_at(2.5) - 0.6).abs() < 1e-9); // peak at quarter period
        assert!((p.load_at(7.5) - 0.1).abs() < 1e-9); // trough at three quarters
        assert_eq!(p.average_load(), 0.35);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn diurnal_load_never_negative() {
        let p = LoadProfile::Diurnal {
            mean: 0.1,
            amplitude: 0.5,
            period: 4.0,
            duration: 8.0,
        };
        for i in 0..80 {
            assert!(p.load_at(i as f64 * 0.1) >= 0.0);
        }
    }

    #[test]
    fn validation_rejects_bad_profiles() {
        assert!(LoadProfile::Constant {
            load: -0.1,
            duration: 1.0
        }
        .validate()
        .is_err());
        assert!(LoadProfile::Steps(vec![]).validate().is_err());
        assert!(LoadProfile::Steps(vec![(0.5, 0.0)]).validate().is_err());
        assert!(LoadProfile::Constant {
            load: 0.5,
            duration: 0.0
        }
        .validate()
        .is_err());
    }
}
