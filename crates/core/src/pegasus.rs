//! A Pegasus-style pure feedback controller.
//!
//! Pegasus (Lo et al., ISCA 2014) measures tail latency over a coarse window
//! and nudges a single CPU-wide power/frequency setting up or down every few
//! seconds. The paper argues (Sec. 2.2) that such controllers adapt to
//! diurnal variation but not to sub-millisecond variability, and uses
//! StaticOracle as an upper bound on what they can save. We include a
//! concrete Pegasus-style policy so that the responsiveness experiments
//! (Fig. 1b, Fig. 10) can also show a real feedback-only controller, and so
//! that the claim "feedback alone reacts slowly" can be reproduced directly.

use rubik_sim::{DvfsConfig, DvfsPolicy, Freq, PolicyDecision, RequestRecord, ServerState};
use rubik_stats::RollingTailTracker;

/// Configuration of the Pegasus-style controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PegasusConfig {
    /// Tail-latency bound in seconds.
    pub latency_bound: f64,
    /// Tail percentile (0.95).
    pub quantile: f64,
    /// Measurement window in seconds (Pegasus uses seconds-scale windows).
    pub window: f64,
    /// How often the frequency is adjusted, in seconds.
    pub adjustment_interval: f64,
    /// Guard band: the controller targets `guard_band × latency_bound`
    /// (feedback controllers must leave margin; Sec. 5.2).
    pub guard_band: f64,
}

impl PegasusConfig {
    /// Defaults matching the paper's description: 1 s windows, adjustments
    /// every second, a 10% guard band.
    ///
    /// # Panics
    ///
    /// Panics if `latency_bound <= 0`.
    pub fn new(latency_bound: f64) -> Self {
        assert!(latency_bound > 0.0, "latency bound must be positive");
        Self {
            latency_bound,
            quantile: 0.95,
            window: 1.0,
            adjustment_interval: 1.0,
            guard_band: 0.9,
        }
    }
}

/// A feedback-only DVFS controller: one frequency for all requests, stepped
/// up quickly on violations and down slowly when there is headroom.
#[derive(Debug, Clone)]
pub struct PegasusPolicy {
    config: PegasusConfig,
    dvfs: DvfsConfig,
    current: Freq,
    tracker: RollingTailTracker,
    last_adjustment: f64,
}

impl PegasusPolicy {
    /// Creates the controller, starting at the nominal frequency.
    pub fn new(config: PegasusConfig, dvfs: DvfsConfig) -> Self {
        let tracker = RollingTailTracker::new(config.window, config.quantile);
        Self {
            current: dvfs.nominal(),
            tracker,
            last_adjustment: 0.0,
            config,
            dvfs,
        }
    }

    /// The frequency the controller currently commands.
    pub fn current_freq(&self) -> Freq {
        self.current
    }

    /// The tail-latency bound currently in force.
    pub fn latency_bound(&self) -> f64 {
        self.config.latency_bound
    }

    /// Retargets the tail-latency bound mid-run (fleet-level retargeting).
    /// The next adjustment compares the measured tail against the new bound.
    ///
    /// # Panics
    ///
    /// Panics if `bound <= 0`.
    pub fn set_latency_bound(&mut self, bound: f64) {
        assert!(bound > 0.0, "latency bound must be positive");
        self.config.latency_bound = bound;
    }

    fn adjust(&mut self, now: f64) {
        if now - self.last_adjustment < self.config.adjustment_interval {
            return;
        }
        self.last_adjustment = now;
        self.tracker.advance(now);
        let Some(tail) = self.tracker.tail() else {
            return;
        };
        let target = self.config.guard_band * self.config.latency_bound;
        let step = self.dvfs.step_mhz();
        if tail > self.config.latency_bound {
            // Violation: jump up aggressively (two steps).
            let mhz = (self.current.mhz() + 2 * step).min(self.dvfs.max().mhz());
            self.current = Freq::from_mhz(mhz);
        } else if tail > target {
            // Near the bound: hold.
        } else {
            // Headroom: creep down one step.
            let mhz = self
                .current
                .mhz()
                .saturating_sub(step)
                .max(self.dvfs.min().mhz());
            self.current = Freq::from_mhz(mhz);
        }
    }
}

impl DvfsPolicy for PegasusPolicy {
    fn name(&self) -> &str {
        "pegasus-feedback"
    }

    fn on_arrival(&mut self, _state: &ServerState) -> PolicyDecision {
        PolicyDecision::SetFrequency(self.current)
    }

    fn on_completion(&mut self, _state: &ServerState, record: &RequestRecord) -> PolicyDecision {
        self.tracker.record(record.completion, record.latency());
        PolicyDecision::SetFrequency(self.current)
    }

    fn on_tick(&mut self, state: &ServerState) -> PolicyDecision {
        self.adjust(state.now);
        PolicyDecision::SetFrequency(self.current)
    }

    fn idle_frequency(&self) -> Option<Freq> {
        Some(self.current)
    }

    fn latency_bound(&self) -> Option<f64> {
        Some(self.config.latency_bound)
    }

    fn set_latency_bound(&mut self, bound: f64) -> bool {
        PegasusPolicy::set_latency_bound(self, bound);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubik_load::{drain_to_trace, LoadShape, ShapedSource};
    use rubik_sim::{Server, SimConfig};
    use rubik_workloads::AppProfile;

    #[test]
    fn starts_at_nominal() {
        let p = PegasusPolicy::new(PegasusConfig::new(1e-3), DvfsConfig::haswell_like());
        assert_eq!(p.current_freq(), Freq::from_mhz(2400));
    }

    #[test]
    fn steps_down_under_light_load() {
        let profile = AppProfile::masstree();
        let bound = 5.0 * profile.mean_service_time();
        // 10 seconds of light load gives the controller time to creep down.
        let light = LoadShape::Steady {
            load: 0.15,
            duration: 10.0,
        };
        let trace = drain_to_trace(ShapedSource::new(profile, light, 1), None);
        let mut pegasus = PegasusPolicy::new(PegasusConfig::new(bound), DvfsConfig::haswell_like());
        let _ = Server::new(SimConfig::default()).run(&trace, &mut pegasus);
        assert!(pegasus.current_freq() < Freq::from_mhz(2400));
    }

    #[test]
    fn reacts_to_load_increase_but_only_after_its_window() {
        let profile = AppProfile::masstree();
        let bound = 2.0 * profile.mean_service_time();
        let step = LoadShape::Step {
            before: 0.2,
            after: 0.85,
            at: 3.0,
            duration: 6.0,
        };
        let trace = drain_to_trace(ShapedSource::new(profile, step, 2), None);
        let mut pegasus = PegasusPolicy::new(PegasusConfig::new(bound), DvfsConfig::haswell_like());
        let result = Server::new(SimConfig::default()).run(&trace, &mut pegasus);
        // It ends above where it was during the light phase (it reacted), but
        // the tail during the transition suffers relative to the bound —
        // exactly the slow-reaction behaviour the paper describes.
        assert!(
            pegasus.current_freq() >= Freq::from_mhz(2400) || {
                let rolled = result.rolling_tail(0.2, 0.95);
                rolled.iter().any(|&(t, tail)| t > 3.0 && tail > bound)
            }
        );
    }

    #[test]
    fn adjustments_respect_the_interval() {
        let mut p = PegasusPolicy::new(PegasusConfig::new(1e-3), DvfsConfig::haswell_like());
        // Provide plenty of headroom samples inside the measurement window
        // that ends at t = 1.5.
        for i in 0..100 {
            p.tracker.record(1.0 + i as f64 * 1e-3, 1e-5);
        }
        p.adjust(0.5); // Before the first interval elapses: no change.
        assert_eq!(p.current_freq(), Freq::from_mhz(2400));
        p.adjust(1.5);
        assert_eq!(p.current_freq(), Freq::from_mhz(2200));
        // Immediately after, another call does nothing.
        p.adjust(1.6);
        assert_eq!(p.current_freq(), Freq::from_mhz(2200));
    }

    #[test]
    fn retargeting_the_bound_redirects_the_feedback_loop() {
        use rubik_sim::DvfsPolicy;
        let mut p = PegasusPolicy::new(PegasusConfig::new(1e-3), DvfsConfig::haswell_like());
        assert_eq!(DvfsPolicy::latency_bound(&p), Some(1e-3));
        // Tail sits comfortably under the original bound...
        for i in 0..100 {
            p.tracker.record(1.0 + i as f64 * 1e-3, 5e-4);
        }
        // ...but a fleet retarget tightens it below the measured tail, so the
        // next adjustment steps *up* instead of creeping down.
        assert!(DvfsPolicy::set_latency_bound(&mut p, 2e-4));
        assert_eq!(p.latency_bound(), 2e-4);
        p.adjust(1.5);
        assert_eq!(p.current_freq(), Freq::from_mhz(2800));
    }

    #[test]
    fn violations_step_frequency_up_fast() {
        let mut p = PegasusPolicy::new(PegasusConfig::new(1e-3), DvfsConfig::haswell_like());
        for i in 0..100 {
            p.tracker.record(10.0 + i as f64 * 1e-3, 5e-3); // way over bound
        }
        p.adjust(11.0);
        assert_eq!(p.current_freq(), Freq::from_mhz(2800));
    }
}
