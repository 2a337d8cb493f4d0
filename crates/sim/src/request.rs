//! Requests, traces, and per-request result records.

use crate::freq::Freq;

/// The demand of a single request, as captured in a trace (paper Sec. 5.3:
/// per-request arrival times, core cycles, and memory-bound times).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSpec {
    /// Monotonically increasing request identifier.
    pub id: u64,
    /// Arrival time at the server, in seconds from the start of the run.
    pub arrival: f64,
    /// Core cycles of compute the request needs (unaffected by frequency in
    /// count, but its duration scales as `cycles / f`).
    pub compute_cycles: f64,
    /// Memory-bound time in seconds (LLC misses and DRAM accesses), which
    /// core DVFS cannot accelerate.
    pub membound_time: f64,
    /// Optional application-level request class (e.g. GET vs PUT, short vs
    /// long query). Oracular schemes such as AdrenalineOracle may use it; the
    /// Rubik controller never does.
    pub class: u32,
}

impl RequestSpec {
    /// Creates a request with class 0.
    pub fn new(id: u64, arrival: f64, compute_cycles: f64, membound_time: f64) -> Self {
        Self {
            id,
            arrival,
            compute_cycles,
            membound_time,
            class: 0,
        }
    }

    /// Service time of this request when run uninterrupted at frequency `f`.
    pub fn service_time_at(&self, f: Freq) -> f64 {
        f.time_for_cycles(self.compute_cycles) + self.membound_time
    }
}

/// An ordered request trace: the input of a simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    requests: Vec<RequestSpec>,
}

impl Trace {
    /// Creates a trace, sorting the requests by arrival time.
    pub fn new(mut requests: Vec<RequestSpec>) -> Self {
        requests.sort_by(|a, b| a.arrival.partial_cmp(&b.arrival).expect("finite arrivals"));
        Self { requests }
    }

    /// The requests, in arrival order.
    pub fn requests(&self) -> &[RequestSpec] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Duration of the trace: last arrival time (0 for an empty trace).
    pub fn duration(&self) -> f64 {
        self.requests.last().map_or(0.0, |r| r.arrival)
    }

    /// Average offered load relative to the capacity of a core running at
    /// frequency `f`: total demanded service time divided by trace duration.
    pub fn offered_load(&self, f: Freq) -> f64 {
        if self.is_empty() || self.duration() <= 0.0 {
            return 0.0;
        }
        let demand: f64 = self.requests.iter().map(|r| r.service_time_at(f)).sum();
        demand / self.duration()
    }

    /// Instantaneous queries-per-second over consecutive windows of
    /// `window` seconds (used for Fig. 2a/2b).
    pub fn qps_series(&self, window: f64) -> Vec<f64> {
        assert!(window > 0.0);
        if self.is_empty() {
            return Vec::new();
        }
        let n = (self.duration() / window).ceil().max(1.0) as usize;
        let mut counts = vec![0.0; n];
        for r in &self.requests {
            let idx = ((r.arrival / window) as usize).min(n - 1);
            counts[idx] += 1.0;
        }
        counts.into_iter().map(|c| c / window).collect()
    }
}

impl FromIterator<RequestSpec> for Trace {
    fn from_iter<T: IntoIterator<Item = RequestSpec>>(iter: T) -> Self {
        Trace::new(iter.into_iter().collect())
    }
}

/// The outcome of one request in a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// Request identifier (matches [`RequestSpec::id`]).
    pub id: u64,
    /// Arrival time.
    pub arrival: f64,
    /// Time service began.
    pub start: f64,
    /// Time service completed.
    pub completion: f64,
    /// Compute cycles the request executed.
    pub compute_cycles: f64,
    /// Memory-bound time the request incurred.
    pub membound_time: f64,
    /// Number of requests already in the system (queued + in service) when
    /// this request arrived.
    pub queue_len_at_arrival: usize,
    /// Application-level class copied from the spec.
    pub class: u32,
}

impl RequestRecord {
    /// End-to-end response latency (queueing + service).
    pub fn latency(&self) -> f64 {
        self.completion - self.arrival
    }

    /// Queueing delay before service started.
    pub fn queueing_delay(&self) -> f64 {
        self.start - self.arrival
    }

    /// Service time (time in service, excluding queueing).
    pub fn service_time(&self) -> f64 {
        self.completion - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_sorts_by_arrival() {
        let t = Trace::new(vec![
            RequestSpec::new(1, 2.0, 1.0, 0.0),
            RequestSpec::new(0, 1.0, 1.0, 0.0),
        ]);
        assert_eq!(t.requests()[0].id, 0);
        assert_eq!(t.requests()[1].id, 1);
        assert_eq!(t.len(), 2);
        assert!((t.duration() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn service_time_scales_with_frequency() {
        let r = RequestSpec::new(0, 0.0, 2.4e6, 0.5e-3);
        let slow = r.service_time_at(Freq::from_mhz(1200));
        let fast = r.service_time_at(Freq::from_mhz(2400));
        assert!((fast - (1e-3 + 0.5e-3)).abs() < 1e-9);
        assert!((slow - (2e-3 + 0.5e-3)).abs() < 1e-9);
        assert!(slow > fast);
    }

    #[test]
    fn offered_load_matches_hand_calculation() {
        // 10 requests of 1 ms each over 100 ms → 10% load.
        let reqs: Vec<_> = (0..10)
            .map(|i| RequestSpec::new(i, i as f64 * 0.01, 2.4e6, 0.0))
            .collect();
        let t = Trace::new(reqs);
        let load = t.offered_load(Freq::from_mhz(2400));
        assert!((load - 10.0 * 1e-3 / 0.09).abs() < 1e-9);
    }

    #[test]
    fn qps_series_counts_arrivals() {
        let t = Trace::new(vec![
            RequestSpec::new(0, 0.001, 1.0, 0.0),
            RequestSpec::new(1, 0.002, 1.0, 0.0),
            RequestSpec::new(2, 0.011, 1.0, 0.0),
        ]);
        let qps = t.qps_series(0.01);
        assert_eq!(qps.len(), 2);
        assert!((qps[0] - 200.0).abs() < 1e-9);
        assert!((qps[1] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn record_derived_metrics() {
        let r = RequestRecord {
            id: 0,
            arrival: 1.0,
            start: 1.5,
            completion: 2.5,
            compute_cycles: 1e6,
            membound_time: 0.0,
            queue_len_at_arrival: 3,
            class: 0,
        };
        assert!((r.latency() - 1.5).abs() < 1e-12);
        assert!((r.queueing_delay() - 0.5).abs() < 1e-12);
        assert!((r.service_time() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_has_zero_load() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.offered_load(Freq::from_mhz(2400)), 0.0);
        assert!(t.qps_series(0.005).is_empty());
    }
}
