//! Request trace generation.
//!
//! The paper integrates server and client in one process; the client produces
//! a request stream with exponentially distributed inter-arrival times at a
//! given rate (a Markov input process, Sec. 5.1). [`WorkloadGenerator`] does
//! the same: it combines an [`AppProfile`] with a load and a seed to produce
//! a reproducible [`Trace`]. Time-varying loads (the paper's load steps) are
//! drawn by `rubik-load`'s `ShapedSource`, which interleaves this
//! generator's draws.

use rubik_sim::{Freq, RequestSpec, Trace};
use rubik_stats::DeterministicRng;

use crate::profile::AppProfile;

/// Class label assigned to requests whose work factor is in the top decile.
/// Oracular schemes (AdrenalineOracle) may use it as a perfect "long request"
/// hint; Rubik never looks at it.
pub const LONG_REQUEST_CLASS: u32 = 1;

/// The frequency that defines 100% load: the paper's nominal 2.4 GHz.
const NOMINAL: Freq = Freq::from_mhz(2400);

/// Generates request traces for one application.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    profile: AppProfile,
    rng: DeterministicRng,
}

impl WorkloadGenerator {
    /// Creates a generator for `profile` with the paper's nominal frequency
    /// (2.4 GHz) and the given RNG seed.
    pub fn new(profile: AppProfile, seed: u64) -> Self {
        Self {
            profile,
            rng: DeterministicRng::new(seed),
        }
    }

    /// The application profile driving this generator.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// Generates a steady-load trace with `num_requests` requests at the
    /// given `load` (fraction of nominal capacity).
    ///
    /// # Panics
    ///
    /// Panics if `load <= 0`.
    pub fn steady_trace(&mut self, load: f64, num_requests: usize) -> Trace {
        assert!(load > 0.0, "load must be positive");
        let rate = self.steady_rate(load);
        let mut now = 0.0;
        let mut requests = Vec::with_capacity(num_requests);
        for id in 0..num_requests {
            now += self.next_interarrival(rate);
            requests.push(self.draw_request_at(id as u64, now));
        }
        Trace::new(requests)
    }

    /// The arrival rate (queries per second) corresponding to `load` — the
    /// exact product [`steady_trace`](Self::steady_trace) uses, exposed so
    /// incremental sources reproduce it bit-for-bit.
    pub fn steady_rate(&self, load: f64) -> f64 {
        load * self.profile.capacity_qps(NOMINAL, NOMINAL)
    }

    /// Draws one exponential interarrival gap at `rate` queries per second
    /// from the generator's RNG stream. [`steady_trace`](Self::steady_trace)
    /// is exactly this draw followed by
    /// [`draw_request_at`](Self::draw_request_at), per request — pull-based
    /// arrival sources interleave the same calls to produce bit-identical
    /// streams one request at a time.
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0`.
    pub fn next_interarrival(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "arrival rate must be positive");
        self.rng.exponential(1.0 / rate)
    }

    /// Draws one request body (work factor, memory-bound time, class) at the
    /// given arrival time — the per-request sampling of
    /// [`steady_trace`](Self::steady_trace), exposed for incremental
    /// sources.
    pub fn draw_request_at(&mut self, id: u64, arrival: f64) -> RequestSpec {
        self.draw_request(id, arrival)
    }

    /// One uniform draw in `[0, 1)` from the generator's RNG stream, used by
    /// non-homogeneous Poisson (thinning) sources to accept or reject a
    /// candidate arrival against the instantaneous rate.
    pub fn thinning_draw(&mut self) -> f64 {
        self.rng.uniform()
    }

    fn draw_request(&mut self, id: u64, arrival: f64) -> RequestSpec {
        let factor_sampler = self.profile.work_factor_sampler();
        let factor = factor_sampler.sample(&mut self.rng).max(0.01);
        let compute = factor * self.profile.mean_compute_cycles(NOMINAL);
        let mem = factor * self.profile.mean_membound_time();
        // The top-decile work factor marks a "long" request (a perfect
        // application-level hint for oracle schemes).
        let class = if factor > self.long_threshold() {
            LONG_REQUEST_CLASS
        } else {
            0
        };
        RequestSpec {
            id,
            arrival,
            compute_cycles: compute,
            membound_time: mem,
            class,
        }
    }

    fn long_threshold(&self) -> f64 {
        // Approximate 90th percentile of a unit-mean distribution with the
        // profile's CoV; exact classification is not required, only a
        // consistent long/short split.
        1.0 + 1.2816 * self.profile.cov()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubik_stats::OnlineStats;

    #[test]
    fn steady_trace_has_requested_count_and_rate() {
        let mut g = WorkloadGenerator::new(AppProfile::masstree(), 7);
        let trace = g.steady_trace(0.5, 10_000);
        assert_eq!(trace.len(), 10_000);
        // Offered load should be close to 50%.
        let load = trace.offered_load(Freq::from_mhz(2400));
        assert!((load - 0.5).abs() < 0.05, "load = {load}");
    }

    #[test]
    fn mean_service_time_matches_profile() {
        let profile = AppProfile::xapian();
        let mut g = WorkloadGenerator::new(profile.clone(), 11);
        let trace = g.steady_trace(0.3, 20_000);
        let nominal = Freq::from_mhz(2400);
        let stats: OnlineStats = trace
            .requests()
            .iter()
            .map(|r| r.service_time_at(nominal))
            .collect();
        assert!(
            (stats.mean() - profile.mean_service_time()).abs() < 0.05 * profile.mean_service_time(),
            "mean {} vs {}",
            stats.mean(),
            profile.mean_service_time()
        );
        // CoV should roughly match the profile.
        assert!((stats.cov() - profile.cov()).abs() < 0.15);
    }

    #[test]
    fn same_seed_reproduces_trace() {
        let mut a = WorkloadGenerator::new(AppProfile::shore(), 99);
        let mut b = WorkloadGenerator::new(AppProfile::shore(), 99);
        assert_eq!(a.steady_trace(0.4, 500), b.steady_trace(0.4, 500));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = WorkloadGenerator::new(AppProfile::shore(), 1);
        let mut b = WorkloadGenerator::new(AppProfile::shore(), 2);
        assert_ne!(a.steady_trace(0.4, 100), b.steady_trace(0.4, 100));
    }

    #[test]
    fn long_requests_are_a_minority() {
        let mut g = WorkloadGenerator::new(AppProfile::xapian(), 13);
        let trace = g.steady_trace(0.5, 20_000);
        let long = trace
            .requests()
            .iter()
            .filter(|r| r.class == LONG_REQUEST_CLASS)
            .count() as f64;
        let frac = long / trace.len() as f64;
        assert!(frac > 0.01 && frac < 0.3, "long fraction = {frac}");
    }

    #[test]
    fn interarrivals_are_exponential_like() {
        // CoV of exponential inter-arrival times is 1.
        let mut g = WorkloadGenerator::new(AppProfile::masstree(), 21);
        let trace = g.steady_trace(0.5, 20_000);
        let arrivals: Vec<f64> = trace.requests().iter().map(|r| r.arrival).collect();
        let gaps: OnlineStats = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            (gaps.cov() - 1.0).abs() < 0.1,
            "interarrival CoV = {}",
            gaps.cov()
        );
    }

    #[test]
    #[should_panic(expected = "load must be positive")]
    fn rejects_zero_load() {
        let mut g = WorkloadGenerator::new(AppProfile::masstree(), 1);
        let _ = g.steady_trace(0.0, 10);
    }
}
