//! `rubik-sweep`: a deterministic parallel experiment engine for
//! fleet-scale load sweeps.
//!
//! Rubik's evaluation is a grid of independent simulation cells —
//! (scheme × app × load × seed) for the colocation study,
//! (policy × app × load) for the standalone sweeps. Each cell is cheap
//! (spectral table rebuilds, allocation-free decisions) but the grids are
//! large, and they are embarrassingly parallel: no cell reads another cell's
//! output. This crate fans such grids across OS threads and hands the
//! results back **in cell order**, so callers cannot observe the scheduling.
//!
//! # Grid model
//!
//! A [`SweepSpec`] declares the grid as a list of named axes, each with a
//! length:
//!
//! ```
//! use rubik_sweep::SweepSpec;
//!
//! let spec = SweepSpec::new()
//!     .axis("scheme", 4)
//!     .axis("app", 5)
//!     .axis("load", 6);
//! assert_eq!(spec.len(), 4 * 5 * 6);
//! ```
//!
//! The grid is the cartesian product of the axes, enumerated row-major with
//! the **last axis fastest** — exactly the order of the equivalent nested
//! `for` loops, outermost axis first. Each point is a [`Cell`] carrying its
//! flat index and its per-axis indices; the cell closure maps axis indices
//! back to domain values (`&apps[cell.get("app")]`).
//!
//! # Running a sweep
//!
//! [`SweepExecutor::run`] evaluates one closure per cell on a scoped
//! worker pool ([`std::thread::scope`]); workers pull the next cell from a
//! shared atomic counter (work stealing — no static partitioning, so
//! unbalanced cells cannot idle a worker). `threads == 0` means
//! [`std::thread::available_parallelism`]. The returned [`SweepRun`] holds
//! the per-cell results in cell order, per-cell wall times, and the sweep's
//! wall-clock time.
//!
//! For a grid that is naturally a slice of work items,
//! [`SweepExecutor::map`] skips the spec and fans the slice directly.
//!
//! # Determinism contract
//!
//! The engine guarantees: **a sweep's output is a pure function of the spec
//! and the cell closure, independent of thread count and scheduling** —
//! `run` with 1, 2, or N threads returns bit-for-bit identical result
//! vectors. This holds because results are collected by cell index, not
//! completion order, and is property-tested in this crate (and end-to-end on
//! the colocation grids in `rubik-coloc`).
//!
//! The caller's side of the contract: the cell closure must itself be
//! deterministic per cell — it may only read shared **immutable** context
//! (profiles, mixes, precomputed latency bounds) and must derive any RNG
//! seed from the cell, never from shared mutable state or iteration order.
//!
//! # Adding an axis
//!
//! Grids grow by one `.axis("name", len)` call; cells address the new axis
//! with `cell.get("name")`. Existing axes keep their enumeration order, so
//! adding a *trailing* axis of length 1 is a no-op for the result order —
//! a convenient way to thread a new dimension through an existing sweep
//! before giving it real values.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One named dimension of a sweep grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    name: String,
    len: usize,
}

impl Axis {
    /// The axis name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of points along this axis.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the axis is empty (never true for axes inside a spec).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A declarative sweep grid: the cartesian product of named axes.
///
/// Cells are enumerated row-major with the last axis fastest, i.e. in the
/// order of the equivalent nested loops (first axis outermost).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepSpec {
    axes: Vec<Axis>,
}

impl SweepSpec {
    /// An empty spec (a single implicit cell once at least one axis exists;
    /// zero axes means zero cells).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an axis. Axis names must be unique and lengths positive.
    pub fn axis(mut self, name: &str, len: usize) -> Self {
        assert!(len > 0, "axis {name:?} must have positive length");
        assert!(
            self.axes.iter().all(|a| a.name != name),
            "duplicate axis name {name:?}"
        );
        self.axes.push(Axis {
            name: name.to_string(),
            len,
        });
        self
    }

    /// The axes, in declaration order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Total number of cells (product of axis lengths; 0 for a spec with no
    /// axes).
    pub fn len(&self) -> usize {
        if self.axes.is_empty() {
            0
        } else {
            self.axes.iter().map(|a| a.len).product()
        }
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes a flat cell index into a [`Cell`].
    pub fn cell(&self, index: usize) -> Cell<'_> {
        assert!(index < self.len(), "cell index {index} out of range");
        let mut indices = vec![0usize; self.axes.len()];
        let mut rest = index;
        for (slot, axis) in indices.iter_mut().zip(&self.axes).rev() {
            *slot = rest % axis.len;
            rest /= axis.len;
        }
        Cell {
            spec: self,
            index,
            indices,
        }
    }

    /// The flat index of the cell with the given per-axis indices.
    pub fn index_of(&self, indices: &[usize]) -> usize {
        assert_eq!(
            indices.len(),
            self.axes.len(),
            "expected one index per axis"
        );
        let mut flat = 0usize;
        for (i, axis) in indices.iter().zip(&self.axes) {
            assert!(
                *i < axis.len,
                "index {i} out of range for axis {:?}",
                axis.name
            );
            flat = flat * axis.len + i;
        }
        flat
    }

    /// Iterates over all cells in cell order.
    pub fn cells(&self) -> impl Iterator<Item = Cell<'_>> {
        (0..self.len()).map(|i| self.cell(i))
    }

    fn axis_position(&self, name: &str) -> usize {
        self.axes
            .iter()
            .position(|a| a.name == name)
            .unwrap_or_else(|| panic!("no axis named {name:?}"))
    }
}

/// One point of a sweep grid: its flat index plus per-axis indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell<'a> {
    spec: &'a SweepSpec,
    index: usize,
    indices: Vec<usize>,
}

impl Cell<'_> {
    /// The flat index of this cell in cell order.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The per-axis indices, in axis declaration order.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The index along the named axis. Panics on an unknown axis name.
    pub fn get(&self, axis: &str) -> usize {
        self.indices[self.spec.axis_position(axis)]
    }
}

/// Resolves a requested thread count: `0` means
/// [`std::thread::available_parallelism`] (1 if unknown).
fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// The result of one sweep: per-cell outputs in cell order plus timing.
#[derive(Debug, Clone)]
pub struct SweepRun<T> {
    /// Per-cell results, in cell order (index `i` is cell `i`).
    pub results: Vec<T>,
    /// Per-cell wall time, in cell order.
    pub cell_times: Vec<Duration>,
    /// Wall-clock time of the whole sweep.
    pub wall_time: Duration,
    /// Number of worker threads actually used.
    pub threads: usize,
}

impl<T> SweepRun<T> {
    /// Consumes the run, keeping only the results.
    pub fn into_results(self) -> Vec<T> {
        self.results
    }

    /// The slowest cell's wall time (a lower bound on the sweep's wall time).
    pub fn max_cell_time(&self) -> Duration {
        self.cell_times.iter().max().copied().unwrap_or_default()
    }
}

/// A worker-pool executor for sweep grids.
///
/// Cheap to build per sweep; holds only the requested thread count.
#[derive(Debug, Clone, Default)]
pub struct SweepExecutor {
    threads: usize,
}

impl SweepExecutor {
    /// An executor with the requested thread count (`0` = auto).
    pub fn new(threads: usize) -> Self {
        Self { threads }
    }

    /// A single-threaded executor (the serial reference path).
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// The resolved number of worker threads this executor will use.
    pub fn threads(&self) -> usize {
        resolve_threads(self.threads)
    }

    /// Runs one closure per cell of `spec` and collects the results in cell
    /// order. See the crate docs for the determinism contract.
    ///
    /// Panics in a cell closure are propagated to the caller once all
    /// workers have stopped.
    pub fn run<T, F>(&self, spec: &SweepSpec, f: F) -> SweepRun<T>
    where
        T: Send,
        F: Fn(&Cell<'_>) -> T + Send + Sync,
    {
        let n = spec.len();
        let threads = self.threads().min(n.max(1));
        let start = Instant::now();

        let mut slots: Vec<(usize, T, Duration)> = Vec::with_capacity(n);
        if threads <= 1 {
            for cell in spec.cells() {
                let t0 = Instant::now();
                let result = f(&cell);
                slots.push((cell.index(), result, t0.elapsed()));
            }
        } else {
            let next = AtomicUsize::new(0);
            let collected: Mutex<Vec<(usize, T, Duration)>> = Mutex::new(Vec::with_capacity(n));
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let cell = spec.cell(i);
                            let t0 = Instant::now();
                            let result = f(&cell);
                            local.push((i, result, t0.elapsed()));
                        }
                        collected
                            .lock()
                            .expect("no cell result was collected while poisoned")
                            .extend(local);
                    });
                }
            });
            slots = collected.into_inner().expect("workers have stopped");
            // Completion order depends on scheduling; cell order does not.
            slots.sort_unstable_by_key(|&(i, _, _)| i);
        }

        debug_assert!(slots.iter().enumerate().all(|(i, s)| s.0 == i));
        let mut results = Vec::with_capacity(n);
        let mut cell_times = Vec::with_capacity(n);
        for (_, result, time) in slots {
            results.push(result);
            cell_times.push(time);
        }
        SweepRun {
            results,
            cell_times,
            wall_time: start.elapsed(),
            threads,
        }
    }

    /// Fans a slice of work items across the pool: `map(items, f)` equals
    /// `items.iter().map(f).collect()` but parallel, with the same
    /// determinism contract as [`SweepExecutor::run`].
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Send + Sync,
    {
        self.map_indexed(items, |_, item| f(item))
    }

    /// Like [`SweepExecutor::map`], but the closure also receives the item's
    /// index — for cells that derive a per-item seed or label.
    pub fn map_indexed<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Send + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let spec = SweepSpec::new().axis("item", items.len());
        self.run(&spec, |cell| f(cell.index(), &items[cell.index()]))
            .into_results()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a tiny pure mixer so cell outputs look like real
    /// simulation results without depending on another crate.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    fn cell_value(seed: u64, index: usize) -> f64 {
        f64::from_bits(mix(seed ^ index as u64) >> 12 | 0x3ff0_0000_0000_0000)
    }

    #[test]
    fn spec_enumerates_last_axis_fastest() {
        let spec = SweepSpec::new().axis("a", 2).axis("b", 3);
        assert_eq!(spec.len(), 6);
        let order: Vec<Vec<usize>> = spec.cells().map(|c| c.indices().to_vec()).collect();
        assert_eq!(
            order,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2]
            ]
        );
        // index_of is the inverse of cell().
        for (i, idx) in order.iter().enumerate() {
            assert_eq!(spec.index_of(idx), i);
        }
    }

    #[test]
    fn cells_resolve_axes_by_name() {
        let spec = SweepSpec::new().axis("scheme", 4).axis("load", 6);
        let cell = spec.cell(17);
        assert_eq!(cell.get("scheme"), 17 / 6);
        assert_eq!(cell.get("load"), 17 % 6);
        assert_eq!(cell.index(), 17);
    }

    #[test]
    #[should_panic(expected = "no axis named")]
    fn unknown_axis_name_panics() {
        let spec = SweepSpec::new().axis("a", 2);
        let _ = spec.cell(0).get("b");
    }

    #[test]
    #[should_panic(expected = "duplicate axis")]
    fn duplicate_axis_name_panics() {
        let _ = SweepSpec::new().axis("a", 2).axis("a", 3);
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn zero_length_axis_panics() {
        let _ = SweepSpec::new().axis("a", 0);
    }

    #[test]
    fn empty_spec_runs_to_empty_results() {
        let spec = SweepSpec::new();
        let run = SweepExecutor::new(4).run(&spec, |c| c.index());
        assert!(run.results.is_empty());
        assert!(run.cell_times.is_empty());
    }

    #[test]
    fn parallel_results_are_bit_identical_to_serial() {
        // The determinism contract, property-tested: for several grid shapes
        // and seeds, every thread count returns byte-identical results.
        for seed in [1u64, 99, 2015] {
            for shape in [vec![7usize], vec![3, 5], vec![2, 3, 4]] {
                let mut spec = SweepSpec::new();
                for (i, &len) in shape.iter().enumerate() {
                    spec = spec.axis(&format!("axis{i}"), len);
                }
                let reference: Vec<u64> = SweepExecutor::serial()
                    .run(&spec, |c| cell_value(seed, c.index()).to_bits())
                    .into_results();
                for threads in [2usize, 3, 8] {
                    let run = SweepExecutor::new(threads)
                        .run(&spec, |c| cell_value(seed, c.index()).to_bits());
                    assert_eq!(run.results, reference, "threads={threads} shape={shape:?}");
                    assert_eq!(run.cell_times.len(), spec.len());
                }
            }
        }
    }

    #[test]
    fn map_matches_std_iterator_map() {
        let items: Vec<u64> = (0..57).collect();
        let expect: Vec<u64> = items.iter().map(|&x| mix(x)).collect();
        for threads in [1usize, 4, 0] {
            assert_eq!(SweepExecutor::new(threads).map(&items, |&x| mix(x)), expect);
        }
        assert!(SweepExecutor::new(3)
            .map(&Vec::<u64>::new(), |&x| mix(x))
            .is_empty());
    }

    #[test]
    fn map_indexed_passes_item_positions() {
        let items = ["a", "b", "c"];
        let expect = vec!["0a".to_string(), "1b".to_string(), "2c".to_string()];
        for threads in [1usize, 2] {
            let got = SweepExecutor::new(threads).map_indexed(&items, |i, s| format!("{i}{s}"));
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn more_threads_than_cells_is_capped() {
        let spec = SweepSpec::new().axis("a", 3);
        let run = SweepExecutor::new(64).run(&spec, |c| c.index());
        assert_eq!(run.results, vec![0, 1, 2]);
        assert!(run.threads <= 3);
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert_eq!(SweepExecutor::new(0).threads(), resolve_threads(0));
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(5), 5);
    }

    #[test]
    fn worker_panics_propagate() {
        let spec = SweepSpec::new().axis("a", 8);
        let result = std::panic::catch_unwind(|| {
            SweepExecutor::new(2).run(&spec, |c| {
                if c.index() == 5 {
                    panic!("cell 5 exploded");
                }
                c.index()
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn timing_fields_are_consistent() {
        let spec = SweepSpec::new().axis("a", 4);
        let run = SweepExecutor::new(2).run(&spec, |c| {
            std::thread::sleep(Duration::from_millis(2));
            c.index()
        });
        assert_eq!(run.cell_times.len(), 4);
        assert!(run.cell_times.iter().sum::<Duration>() >= Duration::from_millis(8));
        assert!(run.max_cell_time() >= Duration::from_millis(2));
        assert!(run.wall_time >= run.max_cell_time());
    }
}
