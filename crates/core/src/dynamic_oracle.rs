//! DynamicOracle: the per-request frequency schedule that minimizes energy
//! subject to the tail bound.
//!
//! The paper's DynamicOracle (Sec. 5.3) bounds from below the energy of any
//! scheme that assigns one frequency per request: it "progressively reduces
//! frequencies until 5% of the requests are above the tail bound (if
//! achievable), prioritizing the reductions that save most power."
//!
//! This implementation realizes that definition as a greedy descent: start
//! from the fastest schedule (every request at the maximum level, which
//! minimizes violations), then repeatedly lower the frequency of individual
//! requests — most-energy-saving reductions first — as long as the fraction
//! of requests above the bound stays within the allowed `1 − quantile`
//! budget. Latency effects of each candidate reduction are re-propagated
//! incrementally through the FIFO queue, so the construction scales to the
//! paper-sized traces used by the Fig. 9 harness.

use rubik_sim::{DvfsConfig, Freq, Trace};

use crate::replay::{replay, replay_energy, replay_tail};

/// Builder for DynamicOracle frequency schedules.
#[derive(Debug, Clone)]
pub struct DynamicOracle {
    dvfs: DvfsConfig,
    quantile: f64,
}

/// A computed oracle schedule plus its summary metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleSchedule {
    /// Frequency assigned to each request, in trace order.
    pub freqs: Vec<Freq>,
    /// Tail latency achieved by the schedule.
    pub tail_latency: f64,
    /// Active core energy of the schedule (J), using the power function the
    /// schedule was optimized with.
    pub energy: f64,
}

impl DynamicOracle {
    /// Creates an oracle over the given DVFS domain and tail quantile.
    ///
    /// # Panics
    ///
    /// Panics if the quantile is not in `(0, 1)`.
    pub fn new(dvfs: DvfsConfig, quantile: f64) -> Self {
        assert!(
            quantile > 0.0 && quantile < 1.0,
            "quantile must be in (0, 1)"
        );
        Self { dvfs, quantile }
    }

    /// Computes the oracle schedule for a trace.
    ///
    /// `active_power(f)` supplies the core power at each level (the oracle
    /// prioritizes the frequency reductions that save the most energy).
    ///
    /// # Panics
    ///
    /// Panics if `latency_bound <= 0`.
    pub fn schedule<P>(&self, trace: &Trace, latency_bound: f64, active_power: P) -> OracleSchedule
    where
        P: Fn(Freq) -> f64,
    {
        self.schedule_sorted_by(trace, latency_bound, active_power, sort_by_cached_savings)
    }

    /// [`DynamicOracle::schedule`] with the per-pass sort as a parameter:
    /// `sort_pass` orders the `(savings, index)` candidates of one pass,
    /// most-saving first and stable on ties, given the savings of a request
    /// at its current level.
    fn schedule_sorted_by<P, S>(
        &self,
        trace: &Trace,
        latency_bound: f64,
        active_power: P,
        sort_pass: S,
    ) -> OracleSchedule
    where
        P: Fn(Freq) -> f64,
        S: Fn(&mut [(f64, usize)], &dyn Fn(usize) -> f64),
    {
        assert!(latency_bound > 0.0, "latency bound must be positive");
        let n = trace.len();
        if n == 0 {
            return OracleSchedule {
                freqs: vec![],
                tail_latency: 0.0,
                energy: 0.0,
            };
        }

        // Start from the fastest schedule: this minimizes the number of
        // unavoidable violations, which defines the working budget.
        let mut freqs = vec![self.dvfs.max(); n];
        let mut completions = completions_for(trace, &freqs);
        let base_violations = count_violations(trace, &completions, latency_bound);
        let allowed = (((1.0 - self.quantile) * n as f64).floor() as usize).max(base_violations);
        let mut violations = base_violations;

        // Greedy descent: several passes over the requests, most promising
        // reductions first, until a full pass makes no progress.
        let step = self.dvfs.step_mhz();
        let savings_of = |spec: &rubik_sim::RequestSpec, f: Freq| -> f64 {
            if f <= self.dvfs.min() {
                return 0.0;
            }
            let lower = Freq::from_mhz(f.mhz() - step);
            active_power(f) * spec.service_time_at(f)
                - active_power(lower) * spec.service_time_at(lower)
        };

        let specs = trace.requests();
        // One pass's candidates, keyed by their savings, and the rollback
        // log of `try_lower`: both reused from pass to pass.
        let mut order: Vec<(f64, usize)> = Vec::with_capacity(n);
        let mut touched: Vec<(usize, f64)> = Vec::new();
        loop {
            order.clear();
            order.extend(
                (0..n)
                    .filter(|&i| freqs[i] > self.dvfs.min())
                    .map(|i| (savings_of(&specs[i], freqs[i]), i)),
            );
            if order.is_empty() {
                break;
            }
            sort_pass(&mut order, &|i| savings_of(&specs[i], freqs[i]));

            let mut changed = false;
            for &(_, idx) in &order {
                if freqs[idx] <= self.dvfs.min() {
                    continue;
                }
                let lower = Freq::from_mhz(freqs[idx].mhz() - step);
                if let Some(new_violations) = try_lower(
                    trace,
                    &mut freqs,
                    &mut completions,
                    &mut touched,
                    idx,
                    lower,
                    latency_bound,
                    violations,
                    allowed,
                ) {
                    violations = new_violations;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let records = replay(trace, &freqs);
        let tail = replay_tail(&records, self.quantile).unwrap_or(0.0);
        let energy = replay_energy(trace, &freqs, &active_power);
        OracleSchedule {
            freqs,
            tail_latency: tail,
            energy,
        }
    }
}

/// The pass order: descending savings, each computed once per candidate
/// (the key beside each index), in a stable sort.
fn sort_by_cached_savings(order: &mut [(f64, usize)], _savings: &dyn Fn(usize) -> f64) {
    order.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite savings"));
}

/// FIFO completion times when request `i` runs at `freqs[i]`.
fn completions_for(trace: &Trace, freqs: &[Freq]) -> Vec<f64> {
    let mut completions = Vec::with_capacity(trace.len());
    let mut prev = 0.0f64;
    for (spec, &f) in trace.requests().iter().zip(freqs) {
        let start = prev.max(spec.arrival);
        prev = start + spec.service_time_at(f);
        completions.push(prev);
    }
    completions
}

fn count_violations(trace: &Trace, completions: &[f64], bound: f64) -> usize {
    trace
        .requests()
        .iter()
        .zip(completions)
        .filter(|(spec, &c)| c - spec.arrival > bound)
        .count()
}

/// Attempts to lower request `idx` to `new_freq`. Completion times are
/// re-propagated from `idx` forward only as far as the change reaches,
/// logging the old values in `touched`. If the resulting violation count
/// exceeds `allowed`, the change is rolled back and `None` is returned;
/// otherwise the new violation count is returned.
#[allow(clippy::too_many_arguments)]
fn try_lower(
    trace: &Trace,
    freqs: &mut [Freq],
    completions: &mut [f64],
    touched: &mut Vec<(usize, f64)>,
    idx: usize,
    new_freq: Freq,
    bound: f64,
    violations: usize,
    allowed: usize,
) -> Option<usize> {
    let specs = trace.requests();
    let old_freq = freqs[idx];
    freqs[idx] = new_freq;

    // Propagate new completion times forward; remember the old values so the
    // change can be rolled back.
    touched.clear();
    let mut new_violations = violations as isize;
    let mut prev_completion = if idx == 0 { 0.0 } else { completions[idx - 1] };
    let mut j = idx;
    while j < specs.len() {
        let spec = &specs[j];
        let start = prev_completion.max(spec.arrival);
        let new_completion = start + spec.service_time_at(freqs[j]);
        let old_completion = completions[j];
        if j > idx && (new_completion - old_completion).abs() < 1e-15 {
            break;
        }
        let was_violating = old_completion - spec.arrival > bound;
        let is_violating = new_completion - spec.arrival > bound;
        new_violations += isize::from(is_violating) - isize::from(was_violating);
        touched.push((j, old_completion));
        completions[j] = new_completion;
        prev_completion = new_completion;
        j += 1;
    }

    if new_violations as usize > allowed {
        // Roll back.
        freqs[idx] = old_freq;
        for &(k, old) in touched.iter() {
            completions[k] = old;
        }
        None
    } else {
        Some(new_violations as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_oracle::StaticOracle;
    use rubik_workloads::{AppProfile, WorkloadGenerator};

    fn power(f: Freq) -> f64 {
        // Convex active-power curve for the tests.
        let v = 0.65 + (f.ghz() - 0.8) / 2.6 * 0.4;
        2.6 * v * v * f.ghz() + 1.1 * v
    }

    fn small_trace(load: f64, n: usize, seed: u64) -> Trace {
        let mut g = WorkloadGenerator::new(AppProfile::masstree(), seed);
        g.steady_trace(load, n)
    }

    fn violations_of(trace: &Trace, freqs: &[Freq], bound: f64) -> usize {
        let completions = completions_for(trace, freqs);
        count_violations(trace, &completions, bound)
    }

    #[test]
    fn schedule_respects_violation_budget() {
        let dvfs = DvfsConfig::haswell_like();
        let oracle = DynamicOracle::new(dvfs.clone(), 0.95);
        let trace = small_trace(0.4, 400, 1);
        let static_oracle = StaticOracle::new(dvfs, 0.95);
        let bound = static_oracle.tail_at(&trace, Freq::from_mhz(2400)).unwrap();
        let schedule = oracle.schedule(&trace, bound, power);
        let violations = violations_of(&trace, &schedule.freqs, bound);
        assert!(violations as f64 <= 0.05 * trace.len() as f64 + 1.0);
    }

    #[test]
    fn dynamic_oracle_uses_no_more_energy_than_static_oracle() {
        let dvfs = DvfsConfig::haswell_like();
        let trace = small_trace(0.5, 400, 2);
        let static_oracle = StaticOracle::new(dvfs.clone(), 0.95);
        let bound = static_oracle.tail_at(&trace, Freq::from_mhz(2400)).unwrap();
        let static_freq = static_oracle.lowest_feasible_freq(&trace, bound);
        let static_energy = replay_energy(&trace, &vec![static_freq; trace.len()], power);

        let dynamic = DynamicOracle::new(dvfs, 0.95).schedule(&trace, bound, power);
        assert!(
            dynamic.energy <= static_energy * 1.001,
            "dynamic {} vs static {}",
            dynamic.energy,
            static_energy
        );
    }

    #[test]
    fn schedule_has_one_frequency_per_request() {
        let dvfs = DvfsConfig::haswell_like();
        let trace = small_trace(0.3, 100, 3);
        let schedule = DynamicOracle::new(dvfs.clone(), 0.95).schedule(&trace, 1e-3, power);
        assert_eq!(schedule.freqs.len(), trace.len());
        for f in &schedule.freqs {
            assert!(dvfs.is_level(*f));
        }
    }

    #[test]
    fn empty_trace_yields_empty_schedule() {
        let dvfs = DvfsConfig::haswell_like();
        let schedule = DynamicOracle::new(dvfs, 0.95).schedule(&Trace::default(), 1e-3, power);
        assert!(schedule.freqs.is_empty());
        assert_eq!(schedule.energy, 0.0);
    }

    #[test]
    fn isolated_requests_run_at_the_lowest_feasible_level() {
        // Far-apart requests never queue; each should drop to the lowest
        // level whose service time fits the bound (2.4e6 cycles take 3 ms at
        // 0.8 GHz, comfortably within the 3.1 ms bound).
        let dvfs = DvfsConfig::haswell_like();
        let trace = Trace::new(
            (0..20)
                .map(|i| rubik_sim::RequestSpec::new(i, i as f64, 2.4e6, 0.0))
                .collect(),
        );
        let schedule = DynamicOracle::new(dvfs, 0.95).schedule(&trace, 3.1e-3, power);
        let at_min = schedule.freqs.iter().filter(|f| f.mhz() == 800).count();
        assert!(at_min >= 19, "only {at_min} requests at the minimum level");
    }

    #[test]
    fn incremental_propagation_matches_full_replay() {
        // After the greedy descent, the incrementally maintained completion
        // times must agree with a from-scratch replay.
        let dvfs = DvfsConfig::haswell_like();
        let trace = small_trace(0.6, 300, 4);
        let bound = StaticOracle::new(dvfs.clone(), 0.95)
            .tail_at(&trace, Freq::from_mhz(2400))
            .unwrap();
        let schedule = DynamicOracle::new(dvfs, 0.95).schedule(&trace, bound, power);
        let records = replay(&trace, &schedule.freqs);
        let tail = replay_tail(&records, 0.95).unwrap();
        assert!((tail - schedule.tail_latency).abs() < 1e-12);
    }

    #[test]
    fn tighter_bounds_cost_more_energy() {
        let dvfs = DvfsConfig::haswell_like();
        let trace = small_trace(0.4, 300, 5);
        let oracle = DynamicOracle::new(dvfs, 0.95);
        let loose = oracle.schedule(&trace, 3e-3, power);
        let tight = oracle.schedule(&trace, 0.7e-3, power);
        assert!(tight.energy >= loose.energy);
    }

    /// The pass sort before keys were cached: `savings` on both sides of
    /// every comparison. Kept as the reference the cached keys must match.
    fn sort_per_comparison(order: &mut [(f64, usize)], savings: &dyn Fn(usize) -> f64) {
        order.sort_by(|&(_, a), &(_, b)| {
            savings(b).partial_cmp(&savings(a)).expect("finite savings")
        });
    }

    #[test]
    fn cached_keys_schedule_exactly_as_per_comparison_sorting() {
        let dvfs = DvfsConfig::haswell_like();
        let oracle = DynamicOracle::new(dvfs.clone(), 0.95);
        let static_oracle = StaticOracle::new(dvfs, 0.95);
        let mut traces = Vec::new();
        for (k, app) in AppProfile::all().into_iter().enumerate() {
            for (j, load) in [0.2, 0.5, 0.8].into_iter().enumerate() {
                let seed = 100 + (3 * k + j) as u64;
                traces.push(WorkloadGenerator::new(app.clone(), seed).steady_trace(load, 300));
            }
        }
        // Three demand sizes repeated: equal savings everywhere, so the
        // order rests on the sort's stability.
        traces.push(Trace::new(
            (0..300)
                .map(|i| {
                    let cycles = [1.0e6, 2.0e6, 1.5e6][i % 3];
                    rubik_sim::RequestSpec::new(i as u64, i as f64 * 6e-4, cycles, 0.0)
                })
                .collect(),
        ));
        for (t, trace) in traces.iter().enumerate() {
            let tail = static_oracle
                .tail_at(trace, Freq::from_mhz(2400))
                .expect("non-empty trace");
            for scale in [0.6, 1.0, 2.0] {
                let bound = tail * scale;
                let cached = oracle.schedule(trace, bound, power);
                let reference = oracle.schedule_sorted_by(trace, bound, power, sort_per_comparison);
                assert!(
                    cached == reference,
                    "trace {t}, bound {scale} x tail: schedules differ"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "latency bound")]
    fn rejects_nonpositive_bound() {
        let dvfs = DvfsConfig::haswell_like();
        let _ = DynamicOracle::new(dvfs, 0.95).schedule(&Trace::default(), 0.0, power);
    }
}
