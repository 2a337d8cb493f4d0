//! Pull-based arrival sources.
//!
//! Every source here is seeded and deterministic: the same constructor
//! arguments produce the same stream, one request at a time, regardless of
//! how many arrivals the consumer pulls per call or how the run is
//! interleaved with other work. [`PoissonSource`] reproduces
//! [`WorkloadGenerator::steady_trace`] bit-for-bit; [`ShapedSource`] draws
//! a non-homogeneous Poisson process from a [`LoadShape`] via seeded
//! thinning; [`MergedSource`] interleaves several streams by
//! `(time, stream index)`; [`TraceSource`] adapts any materialized
//! [`Trace`].

use rubik_sim::{RequestSpec, Trace};
use rubik_workloads::{AppProfile, WorkloadGenerator};

use crate::shape::LoadShape;

/// A pull-based, deterministic stream of time-ordered arrivals.
///
/// Implementors must yield requests in non-decreasing arrival order, from
/// `t = 0` on, and be fully determined by their construction (seed
/// included): pulling the stream twice from identically-built sources gives
/// bit-identical requests. `None` is terminal — once a source is exhausted
/// it stays exhausted.
pub trait ArrivalSource {
    /// The next arrival, or `None` when the stream is exhausted.
    fn next_arrival(&mut self) -> Option<RequestSpec>;

    /// How many arrivals remain, when the source knows exactly.
    fn remaining_hint(&self) -> Option<usize> {
        None
    }
}

impl<S: ArrivalSource + ?Sized> ArrivalSource for &mut S {
    fn next_arrival(&mut self) -> Option<RequestSpec> {
        (**self).next_arrival()
    }

    fn remaining_hint(&self) -> Option<usize> {
        (**self).remaining_hint()
    }
}

impl<S: ArrivalSource + ?Sized> ArrivalSource for Box<S> {
    fn next_arrival(&mut self) -> Option<RequestSpec> {
        (**self).next_arrival()
    }

    fn remaining_hint(&self) -> Option<usize> {
        (**self).remaining_hint()
    }
}

/// Materializes a source into a [`Trace`], optionally stopping after
/// `limit` arrivals. The inverse of [`TraceSource`]: useful for seeding
/// controllers from a stream prefix or pinning stream/batch equivalence.
pub fn drain_to_trace<S: ArrivalSource>(mut source: S, limit: Option<usize>) -> Trace {
    // Pre-size from the source's exact hint when it has one, clamped by the
    // limit; a bare limit is only a ceiling, so cap speculative allocation.
    let cap = match (source.remaining_hint(), limit) {
        (Some(hint), Some(n)) => hint.min(n),
        (Some(hint), None) => hint,
        (None, Some(n)) => n.min(1 << 16),
        (None, None) => 0,
    };
    let mut requests = Vec::with_capacity(cap);
    while limit.is_none_or(|n| requests.len() < n) {
        match source.next_arrival() {
            Some(r) => requests.push(r),
            None => break,
        }
    }
    Trace::new(requests)
}

/// A steady open-loop Poisson stream — the streaming twin of
/// [`WorkloadGenerator::steady_trace`], bit-for-bit.
///
/// The source holds one [`WorkloadGenerator`] and interleaves the exact
/// same RNG calls (`next_interarrival`, then the request-body draw) per
/// arrival, so collecting the stream yields the identical trace the batch
/// generator would have produced with the same seed.
#[derive(Debug, Clone)]
pub struct PoissonSource {
    generator: WorkloadGenerator,
    rate: f64,
    remaining: usize,
    now: f64,
    next_id: u64,
}

impl PoissonSource {
    /// A stream of `requests` arrivals at `load` (fraction of one core's
    /// nominal capacity; scale by the fleet size for pooled streams).
    ///
    /// # Panics
    ///
    /// Panics if `load <= 0`.
    pub fn new(profile: AppProfile, load: f64, requests: usize, seed: u64) -> Self {
        assert!(load > 0.0, "load must be positive");
        let generator = WorkloadGenerator::new(profile, seed);
        let rate = generator.steady_rate(load);
        Self {
            generator,
            rate,
            remaining: requests,
            now: 0.0,
            next_id: 0,
        }
    }

    /// The arrival rate in queries per second.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl ArrivalSource for PoissonSource {
    fn next_arrival(&mut self) -> Option<RequestSpec> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.now += self.generator.next_interarrival(self.rate);
        let spec = self.generator.draw_request_at(self.next_id, self.now);
        self.next_id += 1;
        Some(spec)
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

/// A non-homogeneous Poisson stream following a [`LoadShape`], drawn by
/// seeded thinning.
///
/// Candidate arrivals are drawn at the envelope rate
/// `peak_load × capacity` and accepted with probability
/// `load_at(t) / peak_load` using one uniform draw per candidate, which is
/// the classic thinning construction: accepted points form an exact
/// non-homogeneous Poisson process with intensity `load_at(t) × capacity`.
/// Determinism is inherited from the seeded generator — the same
/// `(profile, shape, seed, fleet scale)` always yields the same stream.
#[derive(Debug, Clone)]
pub struct ShapedSource {
    generator: WorkloadGenerator,
    shape: LoadShape,
    /// Queries per second at load 1.0 for the whole (scaled) fleet.
    capacity: f64,
    /// Thinning envelope: `shape.peak_load() × capacity`.
    peak_rate: f64,
    duration: f64,
    now: f64,
    next_id: u64,
}

impl ShapedSource {
    /// A shaped stream for a single server.
    ///
    /// # Panics
    ///
    /// Panics if the shape fails [`LoadShape::validate`], the typed check
    /// to run on a shape that comes from outside the program.
    pub fn new(profile: AppProfile, shape: LoadShape, seed: u64) -> Self {
        if let Err(e) = shape.validate() {
            panic!("invalid load shape: {e}");
        }
        let generator = WorkloadGenerator::new(profile, seed);
        let capacity = generator.steady_rate(1.0);
        let peak_rate = shape.peak_load() * capacity;
        let duration = shape.duration();
        Self {
            generator,
            shape,
            capacity,
            peak_rate,
            duration,
            now: 0.0,
            next_id: 0,
        }
    }

    /// Scales the stream to a pooled fleet of `servers` servers: every load
    /// level in the shape now means "fraction of the whole fleet's
    /// capacity". Call before the first pull.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn for_fleet(mut self, servers: usize) -> Self {
        assert!(servers > 0, "a fleet needs at least one server");
        assert!(self.next_id == 0, "scale the source before pulling from it");
        let scale = servers as f64;
        self.capacity *= scale;
        self.peak_rate *= scale;
        self
    }

    /// The expected number of arrivals over the full shape window
    /// (`average_load × capacity × duration`) — useful for sizing shape
    /// durations to a request budget.
    pub fn expected_requests(&self) -> f64 {
        self.shape.average_load() * self.capacity * self.duration
    }

    /// The shape driving this source.
    pub fn shape(&self) -> &LoadShape {
        &self.shape
    }
}

impl ArrivalSource for ShapedSource {
    fn next_arrival(&mut self) -> Option<RequestSpec> {
        if self.now >= self.duration {
            return None;
        }
        loop {
            self.now += self.generator.next_interarrival(self.peak_rate);
            if self.now >= self.duration {
                return None;
            }
            let lambda = self.shape.load_at(self.now) * self.capacity;
            // Thinning: accept the candidate with probability λ(t)/λ_max.
            if self.generator.thinning_draw() * self.peak_rate < lambda {
                let spec = self.generator.draw_request_at(self.next_id, self.now);
                self.next_id += 1;
                return Some(spec);
            }
        }
    }
}

/// Several arrival streams merged into one, deterministically ordered by
/// `(arrival time, stream index)`.
///
/// Models heterogeneous fleets where multiple applications share one
/// cluster: each inner source keeps its own seed and profile, and the
/// merge re-numbers requests sequentially in emission order so ids stay
/// globally unique (the cluster driver requires that for hedging and
/// conservation accounting). With [`MergedSource::with_class_tags`], each
/// request's `class` is overwritten with its stream index so routers and
/// outcome accounting can tell the applications apart — note stream 1 then
/// shares the label [`rubik_workloads::generator::LONG_REQUEST_CLASS`].
pub struct MergedSource {
    streams: Vec<Box<dyn ArrivalSource>>,
    /// Head-of-stream buffer, one pending arrival per inner source.
    pending: Vec<Option<RequestSpec>>,
    primed: bool,
    next_id: u64,
    tag_classes: bool,
}

impl std::fmt::Debug for MergedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergedSource")
            .field("streams", &self.streams.len())
            .field("primed", &self.primed)
            .field("next_id", &self.next_id)
            .field("tag_classes", &self.tag_classes)
            .finish()
    }
}

impl Default for MergedSource {
    fn default() -> Self {
        Self::new()
    }
}

impl MergedSource {
    /// An empty merge; add streams with [`MergedSource::push`].
    pub fn new() -> Self {
        Self {
            streams: Vec::new(),
            pending: Vec::new(),
            primed: false,
            next_id: 0,
            tag_classes: false,
        }
    }

    /// Adds a stream. Merge order ties break toward earlier-pushed streams.
    pub fn push(mut self, source: impl ArrivalSource + 'static) -> Self {
        assert!(!self.primed, "add streams before pulling from the merge");
        self.streams.push(Box::new(source));
        self.pending.push(None);
        self
    }

    /// Overwrites each request's `class` with its stream index, so
    /// downstream accounting can attribute requests to applications.
    pub fn with_class_tags(mut self) -> Self {
        self.tag_classes = true;
        self
    }
}

impl ArrivalSource for MergedSource {
    fn next_arrival(&mut self) -> Option<RequestSpec> {
        if !self.primed {
            for (slot, stream) in self.pending.iter_mut().zip(&mut self.streams) {
                *slot = stream.next_arrival();
            }
            self.primed = true;
        }
        // Earliest pending arrival; ties break by stream index, which makes
        // the merge order fully deterministic.
        let mut best: Option<usize> = None;
        for (i, slot) in self.pending.iter().enumerate() {
            if let Some(r) = slot {
                let earlier = match best {
                    None => true,
                    Some(b) => {
                        let held = self.pending[b].expect("best slot holds a request");
                        r.arrival.total_cmp(&held.arrival).is_lt()
                    }
                };
                if earlier {
                    best = Some(i);
                }
            }
        }
        let index = best?;
        let mut spec = self.pending[index].take().expect("chosen slot is pending");
        self.pending[index] = self.streams[index].next_arrival();
        spec.id = self.next_id;
        self.next_id += 1;
        if self.tag_classes {
            spec.class = index as u32;
        }
        Some(spec)
    }

    fn remaining_hint(&self) -> Option<usize> {
        let mut total = self.pending.iter().flatten().count();
        for stream in &self.streams {
            total += stream.remaining_hint()?;
        }
        Some(total)
    }
}

/// Adapts a materialized [`Trace`] into an [`ArrivalSource`], replaying its
/// requests in order. Zero-copy: the source borrows the trace.
#[derive(Debug, Clone)]
pub struct TraceSource<'a> {
    requests: &'a [RequestSpec],
    next: usize,
}

impl<'a> TraceSource<'a> {
    /// A source that replays `trace` front to back.
    pub fn new(trace: &'a Trace) -> Self {
        Self {
            requests: trace.requests(),
            next: 0,
        }
    }
}

impl ArrivalSource for TraceSource<'_> {
    fn next_arrival(&mut self) -> Option<RequestSpec> {
        let spec = self.requests.get(self.next).copied()?;
        self.next += 1;
        Some(spec)
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.requests.len() - self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> AppProfile {
        AppProfile::masstree()
    }

    #[test]
    fn poisson_source_matches_steady_trace_bit_for_bit() {
        let mut generator = WorkloadGenerator::new(profile(), 42);
        let batch = generator.steady_trace(0.5, 500);
        let streamed = drain_to_trace(PoissonSource::new(profile(), 0.5, 500, 42), None);
        assert_eq!(batch.len(), streamed.len());
        for (a, b) in batch.requests().iter().zip(streamed.requests()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.class, b.class);
            assert_eq!(a.arrival.to_bits(), b.arrival.to_bits());
            assert_eq!(a.compute_cycles.to_bits(), b.compute_cycles.to_bits());
            assert_eq!(a.membound_time.to_bits(), b.membound_time.to_bits());
        }
    }

    #[test]
    fn poisson_source_reports_remaining() {
        let mut source = PoissonSource::new(profile(), 0.5, 3, 1);
        assert_eq!(source.remaining_hint(), Some(3));
        source.next_arrival().unwrap();
        assert_eq!(source.remaining_hint(), Some(2));
        source.next_arrival().unwrap();
        source.next_arrival().unwrap();
        assert_eq!(source.next_arrival(), None);
        assert_eq!(source.next_arrival(), None, "exhaustion is terminal");
    }

    #[test]
    #[should_panic(expected = "load must be positive")]
    fn poisson_source_rejects_zero_load() {
        let _ = PoissonSource::new(profile(), 0.0, 10, 1);
    }

    #[test]
    fn shaped_source_same_seed_is_byte_identical() {
        let shape = LoadShape::Ramp {
            from: 0.2,
            to: 0.8,
            duration: 5.0,
        };
        let a = drain_to_trace(ShapedSource::new(profile(), shape.clone(), 9), None);
        let b = drain_to_trace(ShapedSource::new(profile(), shape.clone(), 9), None);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.requests().iter().zip(b.requests()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
            assert_eq!(x.compute_cycles.to_bits(), y.compute_cycles.to_bits());
            assert_eq!(x.membound_time.to_bits(), y.membound_time.to_bits());
            assert_eq!(x.class, y.class);
        }
        let c = drain_to_trace(ShapedSource::new(profile(), shape, 10), None);
        assert_ne!(
            a.requests()
                .iter()
                .map(|r| r.arrival.to_bits())
                .collect::<Vec<_>>(),
            c.requests()
                .iter()
                .map(|r| r.arrival.to_bits())
                .collect::<Vec<_>>(),
            "different seeds should differ"
        );
    }

    #[test]
    fn shaped_source_is_time_ordered_with_sequential_ids() {
        let shape = LoadShape::Diurnal {
            mean: 0.4,
            amplitude: 0.3,
            period: 4.0,
            duration: 8.0,
        };
        let trace = drain_to_trace(ShapedSource::new(profile(), shape, 3), None);
        assert!(trace.len() > 100);
        let mut last = 0.0;
        for (i, r) in trace.requests().iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(r.arrival >= last);
            last = r.arrival;
            assert!(r.arrival < 8.0);
        }
    }

    /// Empirical per-segment rates of the thinned process track the shape
    /// within tolerance — the NHPP construction is correct, not just
    /// deterministic.
    #[test]
    fn shaped_source_tracks_segment_rates() {
        let shape = LoadShape::Sequence(vec![
            LoadShape::Steady {
                load: 0.2,
                duration: 6.0,
            },
            LoadShape::Steady {
                load: 0.6,
                duration: 6.0,
            },
            LoadShape::Steady {
                load: 0.4,
                duration: 6.0,
            },
        ]);
        let source = ShapedSource::new(profile(), shape, 17);
        let capacity = source.capacity;
        let trace = drain_to_trace(source, None);
        for (segment, load) in [(0, 0.2), (1, 0.6), (2, 0.4)] {
            let lo = 6.0 * segment as f64;
            let hi = lo + 6.0;
            let count = trace
                .requests()
                .iter()
                .filter(|r| r.arrival >= lo && r.arrival < hi)
                .count() as f64;
            let expected = load * capacity * 6.0;
            assert!(
                (count - expected).abs() < 0.2 * expected,
                "segment {segment}: {count} arrivals, expected ~{expected}"
            );
        }
    }

    #[test]
    fn shaped_source_ramp_rate_rises() {
        let shape = LoadShape::Ramp {
            from: 0.1,
            to: 0.9,
            duration: 10.0,
        };
        let source = ShapedSource::new(profile(), shape, 23);
        let capacity = source.capacity;
        let trace = drain_to_trace(source, None);
        // First and last thirds straddle the ramp midpoint loads 0.233/0.767.
        let early = trace
            .requests()
            .iter()
            .filter(|r| r.arrival < 10.0 / 3.0)
            .count() as f64;
        let late = trace
            .requests()
            .iter()
            .filter(|r| r.arrival >= 20.0 / 3.0)
            .count() as f64;
        let expected_early = (0.1 + 0.8 / 6.0) * capacity * (10.0 / 3.0);
        let expected_late = (0.9 - 0.8 / 6.0) * capacity * (10.0 / 3.0);
        assert!(
            (early - expected_early).abs() < 0.25 * expected_early,
            "early {early} vs {expected_early}"
        );
        assert!(
            (late - expected_late).abs() < 0.2 * expected_late,
            "late {late} vs {expected_late}"
        );
    }

    #[test]
    fn shaped_source_fleet_scale_multiplies_rate() {
        let shape = LoadShape::Steady {
            load: 0.3,
            duration: 10.0,
        };
        let one = drain_to_trace(ShapedSource::new(profile(), shape.clone(), 5), None);
        let four = drain_to_trace(ShapedSource::new(profile(), shape, 5).for_fleet(4), None);
        let ratio = four.len() as f64 / one.len() as f64;
        assert!((3.0..5.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn shaped_source_respects_request_cap() {
        let shape = LoadShape::Steady {
            load: 0.5,
            duration: 100.0,
        };
        // The window holds ~thousands of arrivals; the drain stops at 50.
        let trace = drain_to_trace(ShapedSource::new(profile(), shape, 7), Some(50));
        assert_eq!(trace.len(), 50);
    }

    #[test]
    fn merged_source_orders_by_time_and_renumbers() {
        let merged = MergedSource::new()
            .push(PoissonSource::new(AppProfile::masstree(), 0.3, 200, 1))
            .push(PoissonSource::new(AppProfile::xapian(), 0.3, 200, 2))
            .with_class_tags();
        assert_eq!(merged.remaining_hint(), Some(400));
        let trace = drain_to_trace(merged, None);
        assert_eq!(trace.len(), 400);
        let mut last = 0.0;
        let mut per_class = [0usize; 2];
        for (i, r) in trace.requests().iter().enumerate() {
            assert_eq!(r.id, i as u64, "ids are renumbered sequentially");
            assert!(r.arrival >= last, "merge is time-ordered");
            last = r.arrival;
            assert!(r.class < 2);
            per_class[r.class as usize] += 1;
        }
        assert_eq!(per_class, [200, 200]);
    }

    #[test]
    fn merged_source_streams_keep_their_own_seeds() {
        let solo = drain_to_trace(PoissonSource::new(profile(), 0.3, 100, 11), None);
        let merged = drain_to_trace(
            MergedSource::new().push(PoissonSource::new(profile(), 0.3, 100, 11)),
            None,
        );
        for (a, b) in solo.requests().iter().zip(merged.requests()) {
            assert_eq!(a.arrival.to_bits(), b.arrival.to_bits());
            assert_eq!(a.compute_cycles.to_bits(), b.compute_cycles.to_bits());
        }
    }

    #[test]
    fn trace_source_replays_the_trace() {
        let mut generator = WorkloadGenerator::new(profile(), 4);
        let trace = generator.steady_trace(0.4, 50);
        let mut source = TraceSource::new(&trace);
        assert_eq!(source.remaining_hint(), Some(50));
        for expected in trace.requests() {
            let got = source.next_arrival().unwrap();
            assert_eq!(got, *expected);
        }
        assert_eq!(source.next_arrival(), None);
        assert_eq!(source.remaining_hint(), Some(0));
    }

    #[test]
    fn drain_to_trace_honors_limit() {
        let trace = drain_to_trace(PoissonSource::new(profile(), 0.5, 100, 2), Some(10));
        assert_eq!(trace.len(), 10);
    }
}
