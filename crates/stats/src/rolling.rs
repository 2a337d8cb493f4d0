//! Rolling-window tail-latency tracking.
//!
//! Rubik's feedback controller observes the measured tail latency over a
//! rolling 1-second window (paper Sec. 4.2, "Feedback-based fine-tuning"),
//! and the evaluation plots tails over rolling 200 ms windows (Fig. 1b,
//! Fig. 10). [`RollingTailTracker`] keeps the samples that fall inside the
//! window and reports their percentile on demand.

use std::collections::VecDeque;

use crate::percentile::percentile_of_sorted;

/// Tracks `(completion_time, latency)` samples and reports the latency
/// percentile over the most recent time window.
#[derive(Debug, Clone)]
pub struct RollingTailTracker {
    window: f64,
    quantile: f64,
    samples: VecDeque<(f64, f64)>,
    /// Reused sort buffer for [`RollingTailTracker::tail`], so the periodic
    /// feedback read performs no steady-state allocation.
    scratch: Vec<f64>,
}

impl RollingTailTracker {
    /// Creates a tracker over a window of `window` seconds reporting the
    /// given `quantile` (e.g. 0.95).
    ///
    /// # Panics
    ///
    /// Panics if `window <= 0` or `quantile` is outside `[0, 1]`.
    pub fn new(window: f64, quantile: f64) -> Self {
        assert!(window > 0.0, "window must be positive");
        assert!(
            (0.0..=1.0).contains(&quantile),
            "quantile must be in [0, 1]"
        );
        Self {
            window,
            quantile,
            samples: VecDeque::new(),
            scratch: Vec::new(),
        }
    }

    /// Records a request that completed at time `now` with the given
    /// end-to-end `latency`, and evicts samples older than the window.
    pub fn record(&mut self, now: f64, latency: f64) {
        self.samples.push_back((now, latency));
        self.evict(now);
    }

    /// Advances the window without recording a sample.
    pub fn advance(&mut self, now: f64) {
        self.evict(now);
    }

    fn evict(&mut self, now: f64) {
        let cutoff = now - self.window;
        while let Some(&(t, _)) = self.samples.front() {
            if t < cutoff {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// The tail latency over the current window, or `None` if the window has
    /// no samples. Sorts into a reused scratch buffer, so repeated reads
    /// allocate nothing once the buffer reaches the window's high-water mark.
    pub fn tail(&mut self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.scratch.clear();
        self.scratch.extend(self.samples.iter().map(|&(_, l)| l));
        self.scratch
            .sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
        Some(percentile_of_sorted(&self.scratch, self.quantile))
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The configured window length in seconds.
    pub fn window(&self) -> f64 {
        self.window
    }

    /// The configured quantile.
    pub fn quantile(&self) -> f64 {
        self.quantile
    }
}

/// Tracks the most recent `capacity` samples (oldest-out) and reports
/// quantiles over exactly that window.
///
/// Unlike [`RollingTailTracker`], the window is bounded by *count*, not
/// time, so memory is O(capacity) no matter how many samples stream
/// through — the shape the cluster run's O(in-flight) memory
/// contract needs from the hedge trigger tracker. Samples are kept both in
/// arrival order (for eviction) and sorted (for O(log W) quantile reads);
/// each push costs O(W) in the worst case from the sorted insert/remove
/// memmoves, a constant bound independent of the stream length.
#[derive(Debug, Clone)]
pub struct RollingQuantileWindow {
    capacity: usize,
    /// Samples in arrival order; the front is the next to be evicted.
    recent: VecDeque<f64>,
    /// The same samples, sorted ascending.
    sorted: Vec<f64>,
}

impl RollingQuantileWindow {
    /// Creates a window holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            capacity,
            recent: VecDeque::new(),
            sorted: Vec::new(),
        }
    }

    /// Records a sample, evicting the oldest one once the window is full.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is NaN.
    pub fn push(&mut self, sample: f64) {
        assert!(!sample.is_nan(), "samples must not be NaN");
        if self.recent.len() == self.capacity {
            let oldest = self.recent.pop_front().expect("window is full");
            let i = self.sorted.partition_point(|&v| v < oldest);
            debug_assert!(self.sorted[i] == oldest, "sorted copy out of sync");
            self.sorted.remove(i);
        }
        self.recent.push_back(sample);
        let i = self.sorted.partition_point(|&v| v < sample);
        self.sorted.insert(i, sample);
    }

    /// The `quantile` of the samples currently in the window, or `None`
    /// when the window is empty. Same interpolation as
    /// [`percentile_of_sorted`].
    pub fn quantile(&self, quantile: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(percentile_of_sorted(&self.sorted, quantile))
        }
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.recent.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.recent.is_empty()
    }

    /// The maximum number of samples the window retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_reports_none() {
        let mut t = RollingTailTracker::new(1.0, 0.95);
        assert!(t.tail().is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn tracks_percentile_of_window() {
        let mut t = RollingTailTracker::new(10.0, 0.5);
        for i in 0..10 {
            t.record(i as f64 * 0.1, (i + 1) as f64);
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.tail(), Some(5.0));
    }

    #[test]
    fn old_samples_are_evicted() {
        let mut t = RollingTailTracker::new(1.0, 0.95);
        t.record(0.0, 100.0);
        t.record(0.5, 1.0);
        t.record(2.0, 2.0); // evicts both earlier samples (cutoff = 1.0)
        assert_eq!(t.len(), 1);
        assert_eq!(t.tail(), Some(2.0));
    }

    #[test]
    fn advance_evicts_without_recording() {
        let mut t = RollingTailTracker::new(1.0, 0.95);
        t.record(0.0, 5.0);
        t.advance(10.0);
        assert!(t.is_empty());
        assert!(t.tail().is_none());
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn rejects_nonpositive_window() {
        let _ = RollingTailTracker::new(0.0, 0.95);
    }

    #[test]
    fn quantile_window_matches_exact_percentile_of_retained_samples() {
        // Property: after every push, the window's quantile equals the
        // exact percentile of the last `min(capacity, pushed)` samples.
        let mut rng = crate::DeterministicRng::new(0x5eed);
        let mut window = RollingQuantileWindow::new(64);
        let mut all = Vec::new();
        for _ in 0..1000 {
            let sample = rng.uniform() * 10.0;
            window.push(sample);
            all.push(sample);
            let tail: Vec<f64> = all[all.len().saturating_sub(64)..].to_vec();
            let mut sorted = tail.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            for q in [0.5, 0.9, 0.95, 0.99] {
                assert_eq!(
                    window.quantile(q).unwrap().to_bits(),
                    percentile_of_sorted(&sorted, q).to_bits(),
                    "window quantile diverged at n={} q={q}",
                    all.len()
                );
            }
        }
        assert_eq!(window.len(), 64);
    }

    #[test]
    fn quantile_window_evicts_oldest_with_duplicates() {
        let mut w = RollingQuantileWindow::new(3);
        for s in [5.0, 5.0, 1.0, 5.0] {
            w.push(s);
        }
        // Window is now [5.0, 1.0, 5.0]; the first 5.0 was evicted.
        assert_eq!(w.len(), 3);
        assert_eq!(w.quantile(0.0), Some(1.0));
        assert_eq!(w.quantile(1.0), Some(5.0));
        w.push(2.0);
        w.push(3.0);
        // Window is now [5.0, 2.0, 3.0].
        assert_eq!(w.quantile(1.0), Some(5.0));
        w.push(4.0);
        // Window is now [2.0, 3.0, 4.0]: the last 5.0 is gone.
        assert_eq!(w.quantile(1.0), Some(4.0));
    }

    #[test]
    fn empty_quantile_window_reports_none() {
        let w = RollingQuantileWindow::new(8);
        assert!(w.quantile(0.95).is_none());
        assert!(w.is_empty());
        assert_eq!(w.capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn quantile_window_rejects_zero_capacity() {
        let _ = RollingQuantileWindow::new(0);
    }
}
