//! Simulation results: per-request records and the core activity timeline.

use std::collections::BTreeMap;

use rubik_stats::percentile;

use crate::freq::Freq;
use crate::request::RequestRecord;

/// What the core was doing during a timeline segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreActivity {
    /// Executing a request.
    Busy,
    /// Idle (clock-gated) with no pending requests.
    Idle,
    /// Down ([`ServerSim::fail`](crate::ServerSim::fail)), charged at deep
    /// sleep power.
    Sleep,
}

/// A contiguous span of time during which the core's frequency and activity
/// did not change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Segment start time (seconds).
    pub start: f64,
    /// Segment end time (seconds).
    pub end: f64,
    /// Frequency in effect.
    pub freq: Freq,
    /// Activity during the segment.
    pub activity: CoreActivity,
}

impl Segment {
    /// Duration of the segment.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Time spent per frequency, split by activity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FreqResidency {
    /// Busy seconds per frequency.
    pub busy: BTreeMap<Freq, f64>,
    /// Idle (clock-gated) seconds per frequency.
    pub idle: BTreeMap<Freq, f64>,
    /// Deep-sleep seconds (frequency is irrelevant while asleep).
    pub sleep: f64,
}

impl FreqResidency {
    /// Total busy time.
    pub fn busy_time(&self) -> f64 {
        self.busy.values().sum()
    }

    /// Total idle (non-sleep) time.
    pub fn idle_time(&self) -> f64 {
        self.idle.values().sum()
    }

    /// Total wall-clock time covered.
    pub fn total_time(&self) -> f64 {
        self.busy_time() + self.idle_time() + self.sleep
    }

    /// Fraction of *busy* time spent at each frequency (the frequency
    /// histograms of Fig. 7b / 8b).
    pub fn busy_fraction_per_freq(&self) -> BTreeMap<Freq, f64> {
        let total = self.busy_time();
        if total <= 0.0 {
            return BTreeMap::new();
        }
        self.busy.iter().map(|(&f, &t)| (f, t / total)).collect()
    }

    /// Core utilization: busy time over total time.
    pub fn utilization(&self) -> f64 {
        let total = self.total_time();
        if total <= 0.0 {
            0.0
        } else {
            self.busy_time() / total
        }
    }
}

/// The complete result of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    records: Vec<RequestRecord>,
    segments: Vec<Segment>,
    end_time: f64,
}

impl RunResult {
    /// Assembles a result. Used by the simulator; also useful to construct
    /// synthetic results in tests.
    pub fn new(records: Vec<RequestRecord>, segments: Vec<Segment>, end_time: f64) -> Self {
        Self {
            records,
            segments,
            end_time,
        }
    }

    /// Per-request records, in completion order.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// The frequency/activity timeline.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Time at which the run ended (last completion or last segment end).
    pub fn end_time(&self) -> f64 {
        self.end_time
    }

    /// End-to-end latencies of all requests.
    pub fn latencies(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.latency()).collect()
    }

    /// Tail latency at quantile `q` (e.g. 0.95), or `None` for an empty run.
    pub fn tail_latency(&self, q: f64) -> Option<f64> {
        percentile(&self.latencies(), q)
    }

    /// Mean end-to-end latency.
    pub fn mean_latency(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.latencies().iter().sum::<f64>() / self.records.len() as f64
    }

    /// Tail latency over a rolling window ending at each request completion,
    /// returned as `(completion_time, tail)` points (used by Fig. 1b and
    /// Fig. 10).
    pub fn rolling_tail(&self, window: f64, q: f64) -> Vec<(f64, f64)> {
        let mut tracker = rubik_stats::RollingTailTracker::new(window, q);
        let mut sorted: Vec<&RequestRecord> = self.records.iter().collect();
        sorted.sort_by(|a, b| a.completion.partial_cmp(&b.completion).unwrap());
        let mut out = Vec::with_capacity(sorted.len());
        for r in sorted {
            tracker.record(r.completion, r.latency());
            if let Some(t) = tracker.tail() {
                out.push((r.completion, t));
            }
        }
        out
    }

    /// Fraction of requests whose latency exceeds `bound`.
    pub fn violation_rate(&self, bound: f64) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.latency() > bound).count() as f64
            / self.records.len() as f64
    }

    /// Time spent at each frequency, split by activity.
    pub fn freq_residency(&self) -> FreqResidency {
        let mut res = FreqResidency::default();
        for s in &self.segments {
            let d = s.duration();
            match s.activity {
                CoreActivity::Busy => *res.busy.entry(s.freq).or_insert(0.0) += d,
                CoreActivity::Idle => *res.idle.entry(s.freq).or_insert(0.0) += d,
                CoreActivity::Sleep => res.sleep += d,
            }
        }
        res
    }

    /// Frequency residency restricted to segments overlapping
    /// `[from, to)` — used for power-over-time plots (Fig. 10).
    pub fn freq_residency_between(&self, from: f64, to: f64) -> FreqResidency {
        let mut res = FreqResidency::default();
        for s in &self.segments {
            let start = s.start.max(from);
            let end = s.end.min(to);
            if end <= start {
                continue;
            }
            let d = end - start;
            match s.activity {
                CoreActivity::Busy => *res.busy.entry(s.freq).or_insert(0.0) += d,
                CoreActivity::Idle => *res.idle.entry(s.freq).or_insert(0.0) += d,
                CoreActivity::Sleep => res.sleep += d,
            }
        }
        res
    }

    /// `(time, frequency)` samples at each segment start — the frequency
    /// trace of Fig. 1b / Fig. 10 bottom panels.
    pub fn freq_trace(&self) -> Vec<(f64, Freq)> {
        self.segments.iter().map(|s| (s.start, s.freq)).collect()
    }

    /// Service times of all requests.
    pub fn service_times(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.service_time()).collect()
    }

    /// Queue length seen by each arriving request.
    pub fn queue_lengths(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.queue_len_at_arrival as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, arrival: f64, start: f64, completion: f64) -> RequestRecord {
        RequestRecord {
            id,
            arrival,
            start,
            completion,
            compute_cycles: 1e6,
            membound_time: 0.0,
            queue_len_at_arrival: 0,
            class: 0,
        }
    }

    fn segment(start: f64, end: f64, mhz: u32, activity: CoreActivity) -> Segment {
        Segment {
            start,
            end,
            freq: Freq::from_mhz(mhz),
            activity,
        }
    }

    #[test]
    fn tail_latency_of_known_records() {
        let records: Vec<_> = (0..100)
            .map(|i| record(i, 0.0, 0.0, (i + 1) as f64 * 1e-3))
            .collect();
        let r = RunResult::new(records, vec![], 1.0);
        assert!((r.tail_latency(0.95).unwrap() - 0.095).abs() < 1e-9);
        assert!((r.mean_latency() - 0.0505).abs() < 1e-9);
        assert!((r.violation_rate(0.095) - 0.05).abs() < 1e-9);
    }

    #[test]
    fn empty_run_has_no_tail() {
        let r = RunResult::default();
        assert!(r.tail_latency(0.95).is_none());
        assert_eq!(r.mean_latency(), 0.0);
        assert_eq!(r.violation_rate(1.0), 0.0);
    }

    #[test]
    fn residency_accumulates_by_activity() {
        let segs = vec![
            segment(0.0, 1.0, 2400, CoreActivity::Busy),
            segment(1.0, 1.5, 2400, CoreActivity::Idle),
            segment(1.5, 2.0, 800, CoreActivity::Busy),
            segment(2.0, 3.0, 800, CoreActivity::Sleep),
        ];
        let r = RunResult::new(vec![], segs, 3.0);
        let res = r.freq_residency();
        assert!((res.busy_time() - 1.5).abs() < 1e-12);
        assert!((res.idle_time() - 0.5).abs() < 1e-12);
        assert!((res.sleep - 1.0).abs() < 1e-12);
        assert!((res.total_time() - 3.0).abs() < 1e-12);
        assert!((res.utilization() - 0.5).abs() < 1e-12);
        let frac = res.busy_fraction_per_freq();
        assert!((frac[&Freq::from_mhz(2400)] - 2.0 / 3.0).abs() < 1e-12);
        assert!((frac[&Freq::from_mhz(800)] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn residency_between_clips_segments() {
        let segs = vec![segment(0.0, 2.0, 2400, CoreActivity::Busy)];
        let r = RunResult::new(vec![], segs, 2.0);
        let res = r.freq_residency_between(0.5, 1.0);
        assert!((res.busy_time() - 0.5).abs() < 1e-12);
        let res = r.freq_residency_between(3.0, 4.0);
        assert_eq!(res.busy_time(), 0.0);
    }

    #[test]
    fn rolling_tail_is_sorted_by_time() {
        let records = vec![
            record(0, 0.0, 0.0, 0.010),
            record(1, 0.0, 0.0, 0.030),
            record(2, 0.0, 0.0, 0.020),
        ];
        let r = RunResult::new(records, vec![], 0.03);
        let roll = r.rolling_tail(1.0, 0.95);
        assert_eq!(roll.len(), 3);
        for w in roll.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
    }
}
