//! AdrenalineOracle: idealized Adrenaline (Hsu et al., HPCA 2015).
//!
//! Adrenaline boosts queries that are likely to be long, using
//! application-level hints. The paper compares against *AdrenalineOracle*
//! (Sec. 5.2): an idealized version that classifies long requests perfectly,
//! with the long/short threshold and the boosted/unboosted frequency pair
//! chosen by an offline sweep, separately for each application and load.
//!
//! [`AdrenalineOracle::train`] performs that sweep on a training trace;
//! the resulting [`AdrenalinePolicy`] is a [`DvfsPolicy`] that runs the core
//! at the boosted frequency whenever the request *in service* is long and at
//! the base frequency otherwise.

use rubik_sim::{DvfsConfig, DvfsPolicy, Freq, PolicyDecision, RequestRecord, ServerState, Trace};

use crate::replay::{replay, replay_energy, replay_tail};

/// Trainer for the idealized Adrenaline scheme.
#[derive(Debug, Clone)]
pub struct AdrenalineOracle {
    dvfs: DvfsConfig,
    quantile: f64,
    /// Candidate thresholds, as quantiles of the compute-cycle distribution.
    threshold_quantiles: Vec<f64>,
}

/// The tuned two-frequency policy produced by [`AdrenalineOracle::train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdrenalinePolicy {
    /// Frequency for short (unboosted) requests.
    pub base_freq: Freq,
    /// Frequency for long (boosted) requests.
    pub boost_freq: Freq,
    /// Requests with more compute cycles than this are considered long.
    pub threshold_cycles: f64,
}

impl AdrenalineOracle {
    /// Creates a trainer over the given DVFS domain and tail quantile, with
    /// the default threshold sweep (50th/75th/90th percentiles of request
    /// length).
    ///
    /// # Panics
    ///
    /// Panics if the quantile is not in `(0, 1)`.
    pub fn new(dvfs: DvfsConfig, quantile: f64) -> Self {
        assert!(
            quantile > 0.0 && quantile < 1.0,
            "quantile must be in (0, 1)"
        );
        Self {
            dvfs,
            quantile,
            threshold_quantiles: vec![0.5, 0.75, 0.9],
        }
    }

    /// Sweeps thresholds and frequency pairs on `trace`, returning the
    /// configuration with the lowest active energy whose tail latency meets
    /// `latency_bound`. If no configuration meets the bound, returns the one
    /// with the lowest tail latency (both frequencies at maximum is always a
    /// candidate).
    pub fn train<P>(&self, trace: &Trace, latency_bound: f64, active_power: P) -> AdrenalinePolicy
    where
        P: Fn(Freq) -> f64,
    {
        assert!(latency_bound > 0.0, "latency bound must be positive");
        let levels = self.dvfs.levels();

        // Candidate thresholds from the trace's own compute-cycle distribution
        // (the oracle knows request lengths perfectly).
        let mut cycles: Vec<f64> = trace.requests().iter().map(|r| r.compute_cycles).collect();
        cycles.sort_by(|a, b| a.partial_cmp(b).expect("finite cycles"));
        let thresholds: Vec<f64> = if cycles.is_empty() {
            vec![f64::INFINITY]
        } else {
            self.threshold_quantiles
                .iter()
                .map(|&q| cycles[((cycles.len() - 1) as f64 * q) as usize])
                .collect()
        };

        let mut best: Option<(AdrenalinePolicy, f64)> = None;
        let mut best_infeasible: Option<(AdrenalinePolicy, f64)> = None;

        for &threshold in &thresholds {
            for (bi, &base) in levels.iter().enumerate() {
                for &boost in &levels[bi..] {
                    let freqs: Vec<Freq> = trace
                        .requests()
                        .iter()
                        .map(|r| {
                            if r.compute_cycles > threshold {
                                boost
                            } else {
                                base
                            }
                        })
                        .collect();
                    let records = replay(trace, &freqs);
                    let tail = replay_tail(&records, self.quantile).unwrap_or(0.0);
                    let energy = replay_energy(trace, &freqs, &active_power);
                    let policy = AdrenalinePolicy {
                        base_freq: base,
                        boost_freq: boost,
                        threshold_cycles: threshold,
                    };
                    if tail <= latency_bound {
                        if best.as_ref().is_none_or(|(_, e)| energy < *e) {
                            best = Some((policy, energy));
                        }
                    } else if best_infeasible.as_ref().is_none_or(|(_, t)| tail < *t) {
                        best_infeasible = Some((policy, tail));
                    }
                }
            }
        }

        best.or(best_infeasible)
            .map(|(p, _)| p)
            .unwrap_or(AdrenalinePolicy {
                base_freq: self.dvfs.max(),
                boost_freq: self.dvfs.max(),
                threshold_cycles: 0.0,
            })
    }
}

impl AdrenalinePolicy {
    /// Whether a request with the given compute demand is boosted.
    pub fn is_long(&self, compute_cycles: f64) -> bool {
        compute_cycles > self.threshold_cycles
    }

    /// The per-request frequency assignment this policy induces on a trace
    /// (used by the replay-based experiments).
    pub fn assign(&self, trace: &Trace) -> Vec<Freq> {
        trace
            .requests()
            .iter()
            .map(|r| {
                if self.is_long(r.compute_cycles) {
                    self.boost_freq
                } else {
                    self.base_freq
                }
            })
            .collect()
    }
}

impl DvfsPolicy for AdrenalinePolicy {
    fn name(&self) -> &str {
        "adrenaline-oracle"
    }

    fn on_arrival(&mut self, state: &ServerState) -> PolicyDecision {
        PolicyDecision::SetFrequency(self.frequency_for(state))
    }

    fn on_completion(&mut self, state: &ServerState, _record: &RequestRecord) -> PolicyDecision {
        PolicyDecision::SetFrequency(self.frequency_for(state))
    }

    fn idle_frequency(&self) -> Option<Freq> {
        Some(self.base_freq)
    }
}

impl AdrenalinePolicy {
    fn frequency_for(&self, state: &ServerState) -> Freq {
        match &state.in_service {
            Some(r) if self.is_long(r.oracle_compute_cycles) => self.boost_freq,
            Some(_) => self.base_freq,
            None => self.base_freq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_oracle::StaticOracle;
    use rubik_workloads::{AppProfile, ServiceShape, WorkloadGenerator};

    fn power(f: Freq) -> f64 {
        let v = 0.65 + (f.ghz() - 0.8) / 2.6 * 0.4;
        2.6 * v * v * f.ghz() + 1.1 * v
    }

    #[test]
    fn trained_policy_meets_the_bound_on_the_training_trace() {
        let dvfs = DvfsConfig::haswell_like();
        let mut g = WorkloadGenerator::new(AppProfile::xapian(), 1);
        let trace = g.steady_trace(0.4, 600);
        let bound = StaticOracle::new(dvfs.clone(), 0.95)
            .tail_at(&trace, Freq::from_mhz(2400))
            .unwrap();
        let policy = AdrenalineOracle::new(dvfs, 0.95).train(&trace, bound, power);
        let freqs = policy.assign(&trace);
        let tail = replay_tail(&replay(&trace, &freqs), 0.95).unwrap();
        assert!(tail <= bound * 1.001, "tail {tail} vs bound {bound}");
        assert!(policy.boost_freq >= policy.base_freq);
    }

    #[test]
    fn adrenaline_saves_no_more_energy_than_per_request_freedom_allows() {
        // Sanity: Adrenaline's two-frequency schedule cannot beat assigning
        // every request the base frequency if the base alone meets the bound.
        let dvfs = DvfsConfig::haswell_like();
        let mut g = WorkloadGenerator::new(AppProfile::masstree(), 2);
        let trace = g.steady_trace(0.3, 600);
        let so = StaticOracle::new(dvfs.clone(), 0.95);
        let bound = so.tail_at(&trace, Freq::from_mhz(2400)).unwrap();
        let static_freq = so.lowest_feasible_freq(&trace, bound);
        let static_energy = replay_energy(&trace, &vec![static_freq; trace.len()], power);

        let policy = AdrenalineOracle::new(dvfs, 0.95).train(&trace, bound, power);
        let energy = replay_energy(&trace, &policy.assign(&trace), power);
        assert!(energy <= static_energy * 1.001);
    }

    #[test]
    fn bimodal_workload_boosts_long_requests_above_base() {
        // With clearly separated short/long classes, the tuned policy should
        // end up with a boost frequency above the base frequency.
        let dvfs = DvfsConfig::haswell_like();
        let profile = AppProfile::custom("bimodal", 500e-6, 1.0, ServiceShape::Bimodal, 0.1);
        let mut g = WorkloadGenerator::new(profile, 3);
        let trace = g.steady_trace(0.45, 800);
        let bound = StaticOracle::new(dvfs.clone(), 0.95)
            .tail_at(&trace, Freq::from_mhz(2400))
            .unwrap();
        let policy = AdrenalineOracle::new(dvfs, 0.95).train(&trace, bound, power);
        assert!(policy.boost_freq > policy.base_freq);
    }

    #[test]
    fn impossible_bound_falls_back_to_fastest_configuration() {
        let dvfs = DvfsConfig::haswell_like();
        let mut g = WorkloadGenerator::new(AppProfile::shore(), 4);
        let trace = g.steady_trace(0.5, 300);
        let policy = AdrenalineOracle::new(dvfs.clone(), 0.95).train(&trace, 1e-9, power);
        // Infeasible: the best-effort policy should be pushing frequencies up.
        assert!(policy.boost_freq == dvfs.max());
    }

    #[test]
    fn policy_boosts_only_while_a_long_request_is_in_service() {
        let dvfs = DvfsConfig::haswell_like();
        let mut policy = AdrenalinePolicy {
            base_freq: Freq::from_mhz(1200),
            boost_freq: Freq::from_mhz(3000),
            threshold_cycles: 1e6,
        };
        let long_state = ServerState {
            now: 0.0,
            current_freq: Freq::from_mhz(1200),
            target_freq: Freq::from_mhz(1200),
            in_service: Some(rubik_sim::InServiceView {
                id: 0,
                arrival: 0.0,
                elapsed_compute_cycles: 0.0,
                elapsed_membound_time: 0.0,
                oracle_compute_cycles: 5e6,
                oracle_membound_time: 0.0,
                class: 0,
            }),
            queued: vec![],
        };
        assert_eq!(
            policy.on_arrival(&long_state),
            PolicyDecision::SetFrequency(Freq::from_mhz(3000))
        );
        let mut short_state = long_state.clone();
        short_state
            .in_service
            .as_mut()
            .unwrap()
            .oracle_compute_cycles = 1e5;
        assert_eq!(
            policy.on_arrival(&short_state),
            PolicyDecision::SetFrequency(Freq::from_mhz(1200))
        );
        let _ = dvfs;
    }
}
