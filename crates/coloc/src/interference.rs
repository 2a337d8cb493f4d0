//! Core-private-state interference.
//!
//! When batch work runs on a core during the latency-critical application's
//! idle gaps, it evicts core-private microarchitectural state: L1/L2 caches,
//! branch predictors, TLBs. The paper's key observation (Sec. 6) is that this
//! state has *low inertia* — with a warm LLC partition it refills in
//! microseconds — so fine-grain DVFS can compensate for it, unlike LLC or
//! DRAM interference. [`CoreInterferenceModel`] charges the first request of
//! each busy period a warm-up penalty whose size grows (up to a cap) with how
//! long batch work occupied the core.

use rubik_sim::{RequestSpec, Trace};

/// Model of the warm-up penalty after batch work ran on the core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreInterferenceModel {
    /// Maximum warm-up penalty, in seconds of extra memory-bound time
    /// (refilling L1/L2 from the warm LLC partition).
    pub max_penalty: f64,
    /// Idle-gap duration (seconds) at which the penalty saturates: longer
    /// batch occupancy cannot evict more than the whole private state.
    pub saturation_gap: f64,
    /// Minimum idle gap before batch work is scheduled at all; shorter gaps
    /// incur no penalty.
    pub min_gap: f64,
}

impl CoreInterferenceModel {
    /// The model used in the colocation experiments: up to 40 µs of extra
    /// memory-bound time (256 KB L2 refilled from the warm LLC at a few
    /// GB/s), saturating after 200 µs of batch occupancy, with batch work
    /// only scheduled into gaps longer than 20 µs.
    pub fn paper_default() -> Self {
        Self {
            max_penalty: 40e-6,
            saturation_gap: 200e-6,
            min_gap: 20e-6,
        }
    }

    /// No interference at all (used to model perfect isolation, or a server
    /// that does not colocate).
    pub fn none() -> Self {
        Self {
            max_penalty: 0.0,
            saturation_gap: 1.0,
            min_gap: 0.0,
        }
    }

    /// The warm-up penalty for a busy period that begins after the core was
    /// available to batch work for `idle_gap` seconds.
    pub fn penalty_for_gap(&self, idle_gap: f64) -> f64 {
        if idle_gap <= self.min_gap || self.max_penalty <= 0.0 {
            return 0.0;
        }
        let frac = ((idle_gap - self.min_gap) / self.saturation_gap).min(1.0);
        self.max_penalty * frac
    }

    /// Applies the interference model to a latency-critical trace: the first
    /// request of each (approximate) busy period gains extra memory-bound
    /// time according to the idle gap before it. The busy-period boundaries
    /// are estimated from arrival gaps versus the mean service time, which
    /// makes the transformation independent of the DVFS policy under test
    /// (every scheme is charged the same interference). The LLC and memory
    /// bandwidth are partitioned, so nothing else inflates the LC
    /// application's memory-bound time.
    pub fn apply(&self, trace: &Trace, mean_service_time: f64) -> Trace {
        let mut out: Vec<RequestSpec> = Vec::with_capacity(trace.len());
        let mut prev_arrival: Option<f64> = None;
        for spec in trace.requests() {
            let mut new_spec = *spec;
            let gap = match prev_arrival {
                // Idle gap estimate: time since the previous arrival minus
                // one mean service time (the work the previous request left).
                Some(prev) => (spec.arrival - prev - mean_service_time).max(0.0),
                None => f64::INFINITY,
            };
            new_spec.membound_time += self.penalty_for_gap(gap.min(1.0));
            prev_arrival = Some(spec.arrival);
            out.push(new_spec);
        }
        Trace::new(out)
    }
}

impl Default for CoreInterferenceModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalty_grows_with_gap_and_saturates() {
        let m = CoreInterferenceModel::paper_default();
        assert_eq!(m.penalty_for_gap(0.0), 0.0);
        assert_eq!(m.penalty_for_gap(10e-6), 0.0); // below min gap
        let small = m.penalty_for_gap(50e-6);
        let large = m.penalty_for_gap(150e-6);
        assert!(small > 0.0 && large > small);
        assert!((m.penalty_for_gap(10.0) - m.max_penalty).abs() < 1e-12);
    }

    #[test]
    fn none_model_is_a_no_op() {
        let m = CoreInterferenceModel::none();
        let trace = Trace::new(vec![
            RequestSpec::new(0, 0.0, 1e6, 10e-6),
            RequestSpec::new(1, 1.0, 1e6, 10e-6),
        ]);
        let out = m.apply(&trace, 100e-6);
        assert_eq!(out, trace);
    }

    #[test]
    fn first_request_after_a_long_gap_pays_the_penalty() {
        let m = CoreInterferenceModel::paper_default();
        let trace = Trace::new(vec![
            RequestSpec::new(0, 0.0, 1e6, 10e-6),
            RequestSpec::new(1, 0.00005, 1e6, 10e-6), // 50 µs later: still busy-ish
            RequestSpec::new(2, 0.1, 1e6, 10e-6),     // long idle gap before it
        ]);
        let out = m.apply(&trace, 100e-6);
        let r1 = out.requests()[1].membound_time;
        let r2 = out.requests()[2].membound_time;
        assert!(
            r2 > r1,
            "request after a long gap should pay the warm-up cost"
        );
        assert!((r2 - (10e-6 + m.max_penalty)).abs() < 1e-9);
    }
}
