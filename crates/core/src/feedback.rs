//! Feedback-based fine-tuning of Rubik's internal latency target.
//!
//! Rubik's analytical model is deliberately conservative (triangle-inequality
//! combination of compute and memory tails, conservative histogram bucketing),
//! so on its own it tends to undershoot the latency bound slightly and waste
//! a little power. The paper adds a simple PI controller (Sec. 4.2) that
//! observes the difference between measured and target tail latency over a
//! rolling 1-second window and nudges the *internal* latency target that the
//! analytical model aims for. The external bound is never relaxed by more
//! than the configured clamp.

/// A proportional-integral controller on the internal latency target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackController {
    /// Proportional gain (applied to the relative error).
    kp: f64,
    /// Integral gain.
    ki: f64,
    /// Accumulated integral of the relative error.
    integral: f64,
    /// Multiplier bounds for the internal target relative to the external
    /// bound.
    min_scale: f64,
    max_scale: f64,
    /// Current scale applied to the external bound.
    scale: f64,
}

impl FeedbackController {
    /// Creates a controller with the given gains and scale clamps.
    ///
    /// # Panics
    ///
    /// Panics if gains are negative or the clamp interval is empty or does
    /// not contain 1.0.
    pub fn new(kp: f64, ki: f64, min_scale: f64, max_scale: f64) -> Self {
        assert!(kp >= 0.0 && ki >= 0.0, "gains must be non-negative");
        assert!(
            min_scale > 0.0 && min_scale <= 1.0 && max_scale >= 1.0,
            "scale clamps must bracket 1.0"
        );
        Self {
            kp,
            ki,
            integral: 0.0,
            min_scale,
            max_scale,
            scale: 1.0,
        }
    }

    /// Gains and clamps that work well for the workloads in this
    /// reproduction; adjustments are minor because the analytical model needs
    /// little correction (paper Sec. 4.2).
    pub fn paper_default() -> Self {
        Self::new(0.3, 0.1, 0.4, 1.3)
    }

    /// The current scale applied to the external latency bound.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The internal latency target for the given external bound.
    pub fn internal_target(&self, bound: f64) -> f64 {
        self.scale * bound
    }

    /// Updates the controller with the latest measured tail latency against
    /// the external bound. Call this once per adjustment window (1 s in the
    /// paper). Returns the new scale.
    ///
    /// A measured tail *below* the bound means the model was conservative:
    /// the scale rises (towards `max_scale`) so Rubik runs slower. A measured
    /// tail *above* the bound pulls the scale down so Rubik speeds up.
    pub fn update(&mut self, measured_tail: f64, bound: f64) -> f64 {
        assert!(bound > 0.0, "latency bound must be positive");
        if measured_tail <= 0.0 {
            return self.scale;
        }
        // Relative error: positive when there is headroom.
        let error = (bound - measured_tail) / bound;
        self.integral = (self.integral + error).clamp(-3.0, 3.0);
        let adjustment = self.kp * error + self.ki * self.integral;
        self.scale = (1.0 + adjustment).clamp(self.min_scale, self.max_scale);
        self.scale
    }

    /// Resets the controller to its neutral state.
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.scale = 1.0;
    }
}

impl Default for FeedbackController {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headroom_raises_the_internal_target() {
        let mut c = FeedbackController::paper_default();
        // Measured tail well under the bound: the model is conservative.
        for _ in 0..10 {
            c.update(0.5e-3, 1.0e-3);
        }
        assert!(c.scale() > 1.0);
        assert!(c.internal_target(1.0e-3) > 1.0e-3);
    }

    #[test]
    fn violations_lower_the_internal_target() {
        let mut c = FeedbackController::paper_default();
        for _ in 0..10 {
            c.update(1.5e-3, 1.0e-3);
        }
        assert!(c.scale() < 1.0);
    }

    #[test]
    fn scale_is_clamped() {
        let mut c = FeedbackController::new(10.0, 10.0, 0.4, 1.3);
        for _ in 0..100 {
            c.update(0.01e-3, 1.0e-3);
        }
        assert!(c.scale() <= 1.3 + 1e-12);
        for _ in 0..100 {
            c.update(100e-3, 1.0e-3);
        }
        assert!(c.scale() >= 0.4 - 1e-12);
    }

    #[test]
    fn on_target_measurement_keeps_scale_near_one() {
        let mut c = FeedbackController::paper_default();
        for _ in 0..20 {
            c.update(1.0e-3, 1.0e-3);
        }
        assert!((c.scale() - 1.0).abs() < 0.05);
    }

    #[test]
    fn zero_measurement_is_ignored() {
        let mut c = FeedbackController::paper_default();
        let before = c.scale();
        c.update(0.0, 1.0e-3);
        assert_eq!(c.scale(), before);
    }

    #[test]
    fn reset_restores_neutral_state() {
        let mut c = FeedbackController::paper_default();
        c.update(0.2e-3, 1.0e-3);
        c.reset();
        assert_eq!(c.scale(), 1.0);
    }

    #[test]
    #[should_panic(expected = "bracket")]
    fn rejects_clamps_not_bracketing_one() {
        let _ = FeedbackController::new(0.1, 0.1, 1.1, 1.3);
    }
}
