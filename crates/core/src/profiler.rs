//! Online profiling of per-request service demand.
//!
//! Rubik estimates two probability distributions from performance counters
//! (paper Sec. 4.2): per-request compute cycles `P[C = c]` and per-request
//! memory-bound time `P[M = t]`. The [`OnlineProfiler`] accumulates the
//! demands of completed requests (which the simulator reports in each
//! [`rubik_sim::RequestRecord`]) over a sliding window of recent requests and
//! produces the 128-bucket histograms that the target tail tables are built
//! from.
//!
//! # Incremental maintenance
//!
//! The profiler keeps each channel's per-bucket sample counts up to date as
//! samples enter and leave the window — O(1) per [`OnlineProfiler::record`]
//! in the common case, with a full O(window) recount only when the window
//! maximum (and with it the bucket grid) changes. Materializing a histogram
//! ([`OnlineProfiler::compute_histogram_into`]) is then a pass over the 128
//! buckets into a caller-owned [`Histogram`] — no per-tick scan of the whole
//! window, no per-sample division, and no allocation. A monotonic
//! [`OnlineProfiler::version`] is bumped on every mutation so the controller
//! can skip table rebuilds entirely when the profile is unchanged since the
//! last build.

use std::collections::VecDeque;

use rubik_stats::Histogram;

/// Number of histogram buckets, matching the paper's implementation
/// ("We use 128-bucket distributions", Sec. 4.2).
pub const BUCKETS: usize = 128;

/// Bucket width used when every sample in the window is zero, mirroring
/// [`Histogram::from_samples`]'s degenerate case.
const DEGENERATE_WIDTH: f64 = 1e-30;

/// One profiled quantity: the sliding sample window plus incrementally
/// maintained per-bucket counts on the current grid.
#[derive(Debug, Clone)]
struct Channel {
    samples: VecDeque<f64>,
    counts: Vec<u32>,
    /// Maximum over the current window (0 when empty).
    max: f64,
    /// How many window samples equal `max`: the grid only changes when the
    /// *last* instance leaves, so recurring maxima (discrete demand pools)
    /// keep eviction O(1) instead of degrading every record to a recount.
    max_count: usize,
    /// Current grid width: `max / buckets`, or the degenerate width when the
    /// window max is zero. Matches `Histogram::from_samples`' choice exactly.
    bucket_width: f64,
}

impl Channel {
    fn new(window: usize) -> Self {
        Self {
            samples: VecDeque::with_capacity(window),
            counts: vec![0; BUCKETS],
            max: 0.0,
            max_count: 0,
            bucket_width: DEGENERATE_WIDTH,
        }
    }

    /// Bucket index of `s` on the current grid — the same expression
    /// `Histogram::from_samples` uses, so the incremental counts are
    /// indistinguishable from a fresh scan.
    #[inline]
    fn index_of(&self, s: f64) -> usize {
        ((s / self.bucket_width) as usize).min(self.counts.len() - 1)
    }

    fn set_width_from_max(&mut self) {
        self.bucket_width = if self.max > 0.0 {
            self.max / self.counts.len() as f64
        } else {
            DEGENERATE_WIDTH
        };
    }

    /// Rebuilds `max`, the grid, and every bucket count from the window.
    /// O(window); only needed when the maximum enters or leaves the window.
    fn recount(&mut self) {
        let mut max = 0.0f64;
        for &s in &self.samples {
            if s > max {
                max = s;
            }
        }
        self.max = max;
        self.max_count = self.samples.iter().filter(|&&s| s == max).count();
        self.set_width_from_max();
        self.counts.fill(0);
        // Split the borrow: index_of needs &self fields while counts is
        // written, so compute indices with locals.
        let width = self.bucket_width;
        let buckets = self.counts.len();
        for &s in &self.samples {
            let idx = ((s / width) as usize).min(buckets - 1);
            self.counts[idx] += 1;
        }
    }

    /// Appends `s`, evicting the oldest sample if the window is at
    /// `capacity`. O(1) unless the bucket grid changes — a new window
    /// maximum arriving, or the *last* instance of the old maximum leaving —
    /// which forces an O(window) recount.
    fn push(&mut self, s: f64, capacity: usize) {
        let evicted = if self.samples.len() == capacity {
            self.samples.pop_front()
        } else {
            None
        };
        self.samples.push_back(s);
        if let Some(old) = evicted {
            if old == self.max {
                self.max_count -= 1;
            }
        }
        if s == self.max {
            self.max_count += 1;
        }
        if s > self.max || self.max_count == 0 {
            // The grid widens (new maximum) or shrinks (maximum fully
            // departed): rebuild everything on the new grid.
            self.recount();
            return;
        }
        if let Some(old) = evicted {
            let idx = self.index_of(old);
            self.counts[idx] -= 1;
        }
        let idx = self.index_of(s);
        self.counts[idx] += 1;
    }

    /// Materializes the current counts into `out` (see
    /// [`Histogram::assign_counts`] for the bit-parity argument).
    fn histogram_into(&self, out: &mut Histogram) {
        assert!(
            !self.samples.is_empty(),
            "cannot build a histogram from no samples"
        );
        out.assign_counts(&self.counts, self.samples.len(), self.bucket_width);
    }
}

/// Sliding-window profiler of per-request compute and memory demand.
#[derive(Debug, Clone)]
pub struct OnlineProfiler {
    window: usize,
    compute: Channel,
    membound: Channel,
    version: u64,
}

impl OnlineProfiler {
    /// Creates a profiler that keeps the most recent `window` requests and
    /// builds [`BUCKETS`]-bucket histograms.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "profiling window must be non-empty");
        Self {
            window,
            compute: Channel::new(window),
            membound: Channel::new(window),
            version: 0,
        }
    }

    /// Records the demand of one completed request (evicting the oldest
    /// window entry once the window is full) and bumps the profile version.
    ///
    /// # Panics
    ///
    /// Panics if either demand is negative or non-finite.
    pub fn record(&mut self, compute_cycles: f64, membound_time: f64) {
        assert!(
            compute_cycles.is_finite() && compute_cycles >= 0.0,
            "compute cycles must be finite and non-negative"
        );
        assert!(
            membound_time.is_finite() && membound_time >= 0.0,
            "memory-bound time must be finite and non-negative"
        );
        self.compute.push(compute_cycles, self.window);
        self.membound.push(membound_time, self.window);
        self.version += 1;
    }

    /// Monotonic counter bumped by every mutation of the window (records,
    /// seeds, and the evictions they cause). Two equal versions guarantee
    /// bit-identical histograms, which is what lets the controller skip
    /// no-op table rebuilds.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of requests currently in the window.
    pub fn len(&self) -> usize {
        self.compute.samples.len()
    }

    /// Whether the profiler has seen no requests yet.
    pub fn is_empty(&self) -> bool {
        self.compute.samples.is_empty()
    }

    /// Seeds the profiler with known demands (e.g. from a captured trace or a
    /// previous run) so that Rubik starts with informed tables instead of a
    /// warm-up period.
    pub fn seed<I>(&mut self, demands: I)
    where
        I: IntoIterator<Item = (f64, f64)>,
    {
        for (c, m) in demands {
            self.record(c, m);
        }
    }

    /// Histogram of per-request compute cycles, or `None` until at least one
    /// request has been recorded.
    pub fn compute_histogram(&self) -> Option<Histogram> {
        if self.is_empty() {
            return None;
        }
        let mut out = Histogram::zero();
        self.compute.histogram_into(&mut out);
        Some(out)
    }

    /// Histogram of per-request memory-bound time, or `None` until at least
    /// one request has been recorded. All-zero memory demand yields a
    /// degenerate single-bucket histogram at a vanishing width, which
    /// downstream code treats as "no memory component".
    pub fn membound_histogram(&self) -> Option<Histogram> {
        if self.is_empty() {
            return None;
        }
        let mut out = Histogram::zero();
        self.membound.histogram_into(&mut out);
        Some(out)
    }

    /// Materializes the compute-cycle histogram into a caller-owned
    /// [`Histogram`], reusing its storage: the allocation-free path the
    /// controller's periodic rebuild uses.
    ///
    /// # Panics
    ///
    /// Panics if no request has been recorded yet.
    pub fn compute_histogram_into(&self, out: &mut Histogram) {
        self.compute.histogram_into(out);
    }

    /// Materializes the memory-bound-time histogram into a caller-owned
    /// [`Histogram`], reusing its storage.
    ///
    /// # Panics
    ///
    /// Panics if no request has been recorded yet.
    pub fn membound_histogram_into(&self, out: &mut Histogram) {
        self.membound.histogram_into(out);
    }

    /// Mean compute cycles over the window (0 if empty).
    pub fn mean_compute_cycles(&self) -> f64 {
        mean(&self.compute.samples)
    }

    /// Mean memory-bound time over the window (0 if empty).
    pub fn mean_membound_time(&self) -> f64 {
        mean(&self.membound.samples)
    }
}

fn mean(v: &VecDeque<f64>) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubik_stats::DeterministicRng;

    #[test]
    fn empty_profiler_has_no_histograms() {
        let p = OnlineProfiler::new(100);
        assert!(p.is_empty());
        assert!(p.compute_histogram().is_none());
        assert!(p.membound_histogram().is_none());
        assert_eq!(p.mean_compute_cycles(), 0.0);
        assert_eq!(p.version(), 0);
    }

    #[test]
    fn records_and_builds_histograms() {
        let mut p = OnlineProfiler::new(100);
        for i in 1..=50 {
            p.record(i as f64 * 1000.0, i as f64 * 1e-6);
        }
        assert_eq!(p.len(), 50);
        let c = p.compute_histogram().unwrap();
        let m = p.membound_histogram().unwrap();
        assert!(c.quantile(0.95) >= 45_000.0);
        assert!(m.quantile(0.95) >= 45e-6);
        assert!((p.mean_compute_cycles() - 25_500.0).abs() < 1e-6);
    }

    #[test]
    fn window_evicts_old_samples() {
        let mut p = OnlineProfiler::new(10);
        // Ten huge requests followed by ten tiny ones: the window should only
        // remember the tiny ones.
        for _ in 0..10 {
            p.record(1e9, 0.0);
        }
        for _ in 0..10 {
            p.record(1e3, 0.0);
        }
        assert_eq!(p.len(), 10);
        assert!(p.compute_histogram().unwrap().quantile(0.99) <= 1e3 + 1.0);
    }

    #[test]
    fn seed_prepopulates_the_window() {
        let mut p = OnlineProfiler::new(100);
        p.seed((0..20).map(|i| (1000.0 + i as f64, 1e-6)));
        assert_eq!(p.len(), 20);
        assert_eq!(p.version(), 20);
        assert!(p.compute_histogram().is_some());
    }

    #[test]
    fn zero_memory_demand_is_representable() {
        let mut p = OnlineProfiler::new(10);
        p.record(1000.0, 0.0);
        p.record(2000.0, 0.0);
        let m = p.membound_histogram().unwrap();
        assert!(m.quantile(0.95) <= 1.0);
    }

    #[test]
    fn version_bumps_on_every_record() {
        let mut p = OnlineProfiler::new(2);
        assert_eq!(p.version(), 0);
        p.record(1.0, 0.0);
        assert_eq!(p.version(), 1);
        p.record(2.0, 0.0);
        p.record(3.0, 0.0); // also evicts
        assert_eq!(p.version(), 3);
    }

    /// The incremental counts must be indistinguishable from rebuilding the
    /// histogram from the raw window with `Histogram::from_samples` — across
    /// window fill-up, steady-state sliding, maxima entering, and maxima
    /// being evicted.
    #[test]
    fn incremental_histograms_match_full_rescan_bitwise() {
        let mut rng = DeterministicRng::new(0x9A);
        let window = 64;
        let mut p = OnlineProfiler::new(window);
        let mut raw_c: Vec<f64> = Vec::new();
        let mut raw_m: Vec<f64> = Vec::new();
        for step in 0..400 {
            // Occasional huge samples force grid growth; their eviction
            // later forces the recount path.
            let c = if step % 37 == 5 {
                rng.lognormal(5e7, 0.2)
            } else {
                rng.lognormal(1e6, 0.8)
            };
            let m = if step % 53 == 11 {
                0.0
            } else {
                rng.lognormal(50e-6, 0.6)
            };
            p.record(c, m);
            raw_c.push(c);
            raw_m.push(m);
            let lo = raw_c.len().saturating_sub(window);
            let expect_c = Histogram::from_samples(&raw_c[lo..], BUCKETS);
            let expect_m = Histogram::from_samples(&raw_m[lo..], BUCKETS);
            let got_c = p.compute_histogram().unwrap();
            let got_m = p.membound_histogram().unwrap();
            assert_eq!(got_c.pmf(), expect_c.pmf(), "compute pmf at step {step}");
            assert_eq!(got_c.bucket_width(), expect_c.bucket_width());
            assert_eq!(got_m.pmf(), expect_m.pmf(), "memory pmf at step {step}");
            assert_eq!(got_m.bucket_width(), expect_m.bucket_width());
        }
    }

    #[test]
    fn histogram_into_matches_allocating_version_and_reuses_storage() {
        let mut p = OnlineProfiler::new(128);
        let mut rng = DeterministicRng::new(7);
        p.seed((0..128).map(|_| (rng.lognormal(1e6, 0.4), rng.lognormal(1e-4, 0.4))));
        let mut c = Histogram::zero();
        let mut m = Histogram::zero();
        p.compute_histogram_into(&mut c);
        p.membound_histogram_into(&mut m);
        assert_eq!(c.pmf(), p.compute_histogram().unwrap().pmf());
        assert_eq!(m.pmf(), p.membound_histogram().unwrap().pmf());
        let ptr = c.pmf().as_ptr();
        p.record(2e6, 2e-4);
        p.compute_histogram_into(&mut c);
        assert_eq!(ptr, c.pmf().as_ptr(), "refill must reuse the PMF buffer");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_demand() {
        let mut p = OnlineProfiler::new(10);
        p.record(-1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_zero_window() {
        let _ = OnlineProfiler::new(0);
    }
}
