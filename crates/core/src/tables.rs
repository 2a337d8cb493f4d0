//! Target tail tables.
//!
//! The core of Rubik's efficiency (paper Sec. 4.2, Fig. 5): instead of
//! convolving service-demand distributions on every frequency decision, the
//! controller periodically precomputes two small lookup tables — one for
//! compute cycles and one for memory-bound time. Each row corresponds to a
//! quantile band (octiles in the paper's implementation) of how much work the
//! in-service request has already performed (ω), and each column to a queue
//! position. Entry `(row, i)` is the target-quantile ("tail") amount of
//! *remaining* work until the request at queue position `i` completes:
//!
//! * position 0 is the request in service, whose remaining-work distribution
//!   is the service distribution conditioned on ω,
//! * position `i > 0` adds `i` further independent draws of the service
//!   distribution,
//! * for positions at or beyond the configurable cutoff (16 in the paper),
//!   the distribution is replaced by its Gaussian (CLT) approximation, so
//!   the tables stay small no matter how long the queue grows.
//!
//! # Build cost: the spectral ladder
//!
//! The naive build convolves per row and per position — `rows × (cutoff−1)`
//! full convolutions. The spectral build instead works in the frequency
//! domain: the base PMF is transformed **once** per transform size
//! ([`FftPlan`]), the ladder of self-convolutions `base^⊛i` is produced by
//! one O(n) pointwise product per rung
//! ([`rubik_stats::fft::Spectrum::mul_assign`]), and each rung is shared by
//! *all* progress rows — `O(rows + cutoff)` transforms total. Per rung, a
//! single running-CDF pass accumulates the rung's prefix sums; each table
//! entry is then the `q`-quantile of `cond_row ⊛ base^⊛i`, found by
//! searching that shared CDF (evaluating
//! `P[X_row + Y_i ≤ t] = Σ_a pmf_row[a]·CDF_i[t−a]` directly) without ever
//! materializing the per-row convolution. The reference per-row builder is
//! kept as [`TargetTailTables::build_direct`] and the two are checked
//! against each other by the equivalence tests in
//! `crates/core/tests/spectral_equivalence.rs` and benchmarked by
//! `crates/bench/benches/table_rebuild.rs`.
//!
//! # Rebuild cost: incremental builder
//!
//! Rubik rebuilds these tables every 100 ms tick, so the build is a
//! steady-state hot path, not a one-off. [`TableBuilder`] is the persistent
//! engine for it. Only what depends on the inputs lives in a builder; what
//! does not is shared more widely:
//!
//! * **Process-wide plans.** [`FftPlan`]s (twiddle factors, bit-reversal
//!   tables) are pure functions of their size, so every builder on every
//!   thread transforms through the one immutable plan per size that
//!   [`FftPlan::shared`] builds on first use. The ladder also *right-sizes*
//!   each rung's transform — rung `i` only needs `i·(len−1)+1` points of
//!   support, so early rungs run at 256–1024 instead of the deepest rung's
//!   size. At each size the running product starts from a fresh transform
//!   of the base and is multiplied up to the rung's power, so rung `i`'s
//!   bits depend on `i` alone, and deep rungs are bit-identical to a
//!   single-size ladder.
//! * **Per-thread buffers.** The trimmed base, the per-row conditionals,
//!   the spectra, the rung PMF/CDF buffers, and the target's own row
//!   storage are all reused across rebuilds via `*_into` APIs
//!   ([`TableBuilder::build_with_into`] writes into an existing
//!   [`TargetTailTables`]), so a warm rebuild performs **zero allocations**
//!   once every buffer has reached its high-water size. The controller
//!   keeps one builder per thread (not per controller), shared by every
//!   `RubikController` that rebuilds on that thread.
//! * **Rungs on demand.** A decision reads queue positions 0 to the queue
//!   length, and between two ticks the queue is short: in the paper-figure
//!   grid most tables are read no deeper than position 2, while a full
//!   table builds all `cutoff − 1` rungs, the deepest at the largest
//!   transforms. So the controller's tick rebuild
//!   ([`TableBuilder::set_up_into`]) stops after row setup — the trim, the
//!   band boundaries, the per-row conditionals and moments, and position 0
//!   — and each table records its built depth and, while it is short of
//!   the cutoff, its trimmed base PMF (at most the histogram's bucket
//!   count). Before each decision the controller calls
//!   [`TableBuilder::extend`] to build the positions that decision reads.
//!   Queues grow one request at a time, so an extension usually adds one
//!   rung to the table its builder last set up or extended. The builder
//!   therefore keeps one *ladder* per table kind (compute, memory): the
//!   trimmed base, the band boundaries, the conditionals with their
//!   non-zero supports, and the base spectrum and running product at the
//!   last rung's transform size. An extension reuses a ladder only when the
//!   table's stored base PMF, bucket width and boundaries match it bit for
//!   bit (that table or a clone of it); any other table rebuilds the ladder
//!   from what it stores. It continues the running product only when the
//!   rung's transform size matches and the product is not past the rung's
//!   power, and otherwise starts over from a fresh forward transform:
//!   either way each rung is the product a full build computes, so an
//!   extended table is bit-identical to a full one however the extensions
//!   are split, and decisions do not change by a bit. Every `build*` entry
//!   point ([`TargetTailTables::build`], [`TableBuilder::build_with_into`],
//!   …) and every controller seed still builds full tables: a fleet seeds
//!   many controllers from one prefix and would otherwise extend each copy
//!   on its own. A full table keeps no base.
//! * **Last-build memo.** A builder remembers the inputs and output of its
//!   last build, at the depth it was built to (extensions do not update
//!   it). When a request matches the inputs bit for bit (`to_bits`) — the
//!   same quantile, the same table shape, and both histograms with the same
//!   bucket width and PMF — and the stored tables are at least as deep as
//!   the request (a set-up needs depth 1, a `build*` needs the cutoff), it
//!   copies the stored tables into the target instead of rebuilding. The
//!   output is a pure function of exactly those inputs, so a copy is `==`
//!   to a fresh build. It hits when table inputs repeat on one thread: a
//!   fleet seeding every server from one trace prefix builds once and
//!   copies N−1 times. Periodic rebuilds of servers with diverging profiles
//!   miss and pay a row setup plus an O(table) copy into the memo.
//! * **Predicted-step quantile search.** Each rung adds one independent
//!   draw, so a row's quantile index moves by about the same step from rung
//!   to rung. Each search starts at a predicted index — the row's index at
//!   the previous position plus its last step (at rung 1, the step the
//!   previous row just took; for row 0, the base mean in buckets) — gallops
//!   outward until it brackets the answer, and bisects. The computed CDF is
//!   monotone in the index (a sum of nondecreasing non-negative terms), so
//!   every guess leads to the minimal index the full-range bisection
//!   returns: the prediction changes the probe count, never a bit. An entry
//!   with quantile index `t` is `(t + 1)·width`, so the indices come back
//!   from the built entries and a table stores no search state. The inner
//!   dot product is trimmed to the conditional's non-zero support.
//!
//! [`TargetTailTables::build`]/[`TargetTailTables::build_with`] remain as
//! thin wrappers over a throwaway builder (fresh buffers, empty memo), and
//! the controller skips the rebuild entirely when the profiler's version
//! says the histograms are unchanged (see `RubikController`), making the
//! periodic tick O(1) in the no-new-samples case.
//! `crates/bench/benches/rebuild_amortized.rs` tracks every tier (skipped
//! tick, tick rebuilds extended to depths 2 and 6, cold build, memo-served
//! seed, controller clone).
//!
//! # Equality
//!
//! `==` on [`TargetTailTables`] compares what decisions can read, whatever
//! the two depths: the quantile and shape, each table's row setup, the
//! positions both sides have built, and — when both tables are short — the
//! base PMF their unbuilt positions derive from. A full table's base is
//! gone, so against a full table only the built prefix counts. A zero
//! memory table (a workload without memory-bound time) is full.
//!
//! # Lookup cost
//!
//! [`TargetTailTables`] caches the [`GaussianTail`] z-score at build time and
//! resolves the progress row by binary search (`partition_point`) once per
//! decision via [`TargetTailTables::tails_at`]; a per-position lookup is then
//! two array reads (or two fused multiply-adds past the Gaussian cutoff)
//! with no transcendental math on the decision path.

use rubik_stats::fft::{Complex, FftPlan, Spectrum};
use rubik_stats::{GaussianTail, Histogram};

/// Queue depth at which the Gaussian approximation takes over
/// ("We use this formulation for i ≥ 16", Sec. 4.2).
pub const DEFAULT_GAUSSIAN_CUTOFF: usize = 16;

/// Number of progress (ω) rows; the paper's implementation uses octiles.
pub const DEFAULT_PROGRESS_ROWS: usize = 8;

/// Mean memory-bound time below which the memory component is treated as
/// absent (avoids charging a full histogram bucket of phantom memory time to
/// compute-only workloads).
const NEGLIGIBLE_MEM_TIME: f64 = 1e-9;

/// Tolerance when comparing a CDF against the target quantile, matching
/// [`Histogram::quantile`].
const QUANTILE_EPS: f64 = 1e-12;

/// One precomputed table (compute cycles or memory time).
#[derive(Debug)]
struct TailTable {
    /// `rows[row][pos]`: tail remaining work for queue position `pos` when
    /// the in-service request's elapsed work falls in band `row`. Every row
    /// holds positions `0..depth`.
    rows: Vec<Vec<f64>>,
    /// Lower boundary of each elapsed-work band (ascending; first is 0).
    boundaries: Vec<f64>,
    /// Mean/variance of the conditioned in-service distribution, per row
    /// (used by the Gaussian extension).
    cond_mean: Vec<f64>,
    cond_var: Vec<f64>,
    /// Mean/variance of the unconditioned service distribution.
    mean: f64,
    var: f64,
    /// Number of explicit positions built, from 1 (row setup) to the
    /// cutoff (full); [`TableBuilder::extend`] builds the rest.
    depth: usize,
    /// Bucket width of the trimmed base: an entry with quantile index `t`
    /// is `(t + 1)·width`.
    width: f64,
    /// The trimmed base PMF the unbuilt rungs derive from. Empty once the
    /// table is full.
    base: Vec<f64>,
}

impl Clone for TailTable {
    // Inlined into the controller's derived `clone`: as an out-of-line
    // call, `rebuild_amortized/clone_seeded_controller` ran ~35% slower
    // (2-vCPU Xeon VM).
    #[inline]
    fn clone(&self) -> Self {
        Self {
            rows: self.rows.clone(),
            boundaries: self.boundaries.clone(),
            cond_mean: self.cond_mean.clone(),
            cond_var: self.cond_var.clone(),
            mean: self.mean,
            var: self.var,
            depth: self.depth,
            width: self.width,
            base: self.base.clone(),
        }
    }

    /// Field-wise, reusing every row and column buffer of `self`.
    fn clone_from(&mut self, source: &Self) {
        self.rows.clone_from(&source.rows);
        self.boundaries.clone_from(&source.boundaries);
        self.cond_mean.clone_from(&source.cond_mean);
        self.cond_var.clone_from(&source.cond_var);
        self.mean = source.mean;
        self.var = source.var;
        self.depth = source.depth;
        self.width = source.width;
        self.base.clone_from(&source.base);
    }
}

/// What a decision can read (see the module docs, "Equality").
impl PartialEq for TailTable {
    fn eq(&self, other: &Self) -> bool {
        let depth = self.depth.min(other.depth);
        self.boundaries == other.boundaries
            && self.cond_mean == other.cond_mean
            && self.cond_var == other.cond_var
            && self.mean == other.mean
            && self.var == other.var
            && self.rows.len() == other.rows.len()
            && self
                .rows
                .iter()
                .zip(&other.rows)
                .all(|(a, b)| a[..depth] == b[..depth])
            && (self.base.is_empty()
                || other.base.is_empty()
                || (self.width == other.width && self.base == other.base))
    }
}

/// Lower boundary of progress band `row`: band 0 starts at zero, band `r`
/// at the `r/rows` quantile of the trimmed base. Shared by the spectral
/// builder and the `build_direct` oracle so the two row layouts cannot
/// drift apart.
fn row_boundary(base: &Histogram, row: usize, rows: usize) -> f64 {
    if row == 0 {
        0.0
    } else {
        base.quantile(row as f64 / rows as f64)
    }
}

impl TailTable {
    /// Reference builder: the original per-row convolution scheme,
    /// `rows × (cutoff−1)` full convolutions. Kept as the oracle for the
    /// spectral-vs-direct equivalence tests and as the baseline for the
    /// `table_rebuild` bench.
    fn build_direct(hist: &Histogram, quantile: f64, rows: usize, cutoff: usize) -> Self {
        // Trim negligible tail mass so repeated convolutions stay cheap.
        let base = hist.trim_tail(1e-9);

        let mut boundaries = Vec::with_capacity(rows);
        let mut conds = Vec::with_capacity(rows);
        let mut cond_mean = Vec::with_capacity(rows);
        let mut cond_var = Vec::with_capacity(rows);
        for row in 0..rows {
            let boundary = row_boundary(&base, row, rows);
            boundaries.push(boundary);
            let conditioned = base.conditional_on_elapsed(boundary);
            cond_mean.push(conditioned.mean());
            cond_var.push(conditioned.variance());
            conds.push(conditioned);
        }

        let mut table_rows = Vec::with_capacity(rows);
        for cond in &conds {
            let mut row_vals = Vec::with_capacity(cutoff);
            let mut cumulative = cond.clone();
            row_vals.push(cumulative.quantile(quantile));
            for _ in 1..cutoff {
                cumulative = cumulative.convolve(&base).trim_tail(1e-9);
                row_vals.push(cumulative.quantile(quantile));
            }
            table_rows.push(row_vals);
        }

        Self {
            rows: table_rows,
            boundaries,
            cond_mean,
            cond_var,
            mean: base.mean(),
            var: base.variance(),
            depth: cutoff,
            width: base.bucket_width(),
            base: Vec::new(),
        }
    }

    /// A full table of zeros: the memory table of a workload without
    /// memory-bound time.
    fn zero(rows: usize, cutoff: usize) -> Self {
        Self {
            rows: vec![vec![0.0; cutoff]; rows],
            boundaries: vec![0.0; rows],
            cond_mean: vec![0.0; rows],
            cond_var: vec![0.0; rows],
            mean: 0.0,
            var: 0.0,
            depth: cutoff,
            width: 0.0,
            base: Vec::new(),
        }
    }

    /// In-place equivalent of [`TailTable::zero`], reusing the storage.
    fn zero_into(&mut self, rows: usize, cutoff: usize) {
        self.rows.truncate(rows);
        while self.rows.len() < rows {
            self.rows.push(Vec::new());
        }
        for row in &mut self.rows {
            row.clear();
            row.resize(cutoff, 0.0);
        }
        for v in [
            &mut self.boundaries,
            &mut self.cond_mean,
            &mut self.cond_var,
        ] {
            v.clear();
            v.resize(rows, 0.0);
        }
        self.mean = 0.0;
        self.var = 0.0;
        self.depth = cutoff;
        self.width = 0.0;
        self.base.clear();
    }

    /// Largest row whose boundary is `<= elapsed`. Boundaries are ascending,
    /// so this is a binary search, resolved once per decision (not per queue
    /// position) by [`TargetTailTables::tails_at`].
    fn row_for(&self, elapsed: f64) -> usize {
        self.boundaries
            .partition_point(|&b| b <= elapsed)
            .saturating_sub(1)
    }

    /// Position `pos` of band `row`: an explicit entry below the built
    /// depth, the Gaussian approximation at or past `cutoff`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is at or past the built depth but below `cutoff`:
    /// that entry has not been built yet.
    #[inline]
    fn lookup_row(&self, row: usize, pos: usize, cutoff: usize, tail: &GaussianTail) -> f64 {
        let explicit = &self.rows[row];
        if pos < explicit.len() {
            explicit[pos]
        } else {
            assert!(
                pos >= cutoff,
                "queue position {pos} is past the built depth {} (Gaussian cutoff {cutoff}); \
                 extend the tables with TableBuilder::extend first",
                self.depth
            );
            let mean = self.cond_mean[row] + pos as f64 * self.mean;
            let var = self.cond_var[row] + pos as f64 * self.var;
            tail.tail(mean, var)
        }
    }
}

/// `P[a + b + i ≤ t]` for `X` with `cond_pmf` (bucket index `a` ↦ value
/// `(a+1)·w`, non-zero on `[first, last]`) and the ladder rung `Y_i` with
/// running CDF `rung_cdf` (index `b` ↦ value `(b+i)·w`, the `i` accounting
/// for the upper-edge representative of each of the `i` summands): a dot
/// product of the conditioned PMF with a shifted window of the rung CDF.
/// Nondecreasing in `t`: every term is, and terms that join as `t` grows
/// are non-negative and join at the end of the sum.
#[inline]
fn cdf_of_sum(
    cond_pmf: &[f64],
    (first, last): (usize, usize),
    rung_cdf: &[f64],
    i: usize,
    t: usize,
) -> f64 {
    // P[a + b + i <= t] = Σ_a cond[a] · P[b <= t - i - a], accumulated over
    // ascending a exactly like the naive branchy loop (adding a zero-mass
    // term is a floating-point no-op, so the zero-skip branch is dropped),
    // but split into the two structural segments — shift beyond the rung
    // support (CDF saturates at `total`) and shift inside it — so both run
    // as zipped slices with no per-element branches or bounds checks.
    let support = rung_cdf.len();
    let total = rung_cdf[support - 1];
    let Some(ti) = t.checked_sub(i) else {
        return 0.0;
    };
    // Terms with a > t - i have empty windows (P[b < 0] = 0).
    let a_hi = last.min(ti);
    if a_hi < first {
        return 0.0;
    }
    let mut acc = 0.0;
    // Segment 1: a <= ti - support ⟹ shift >= support ⟹ CDF = total.
    let mut a = first;
    if let Some(saturated_end) = ti.checked_sub(support) {
        let end = saturated_end.min(a_hi);
        if end >= a {
            for &p in &cond_pmf[a..=end] {
                acc += p * total;
            }
            a = end + 1;
        }
    }
    // Segment 2: the in-support window, rung CDF read back-to-front as a
    // ascends (shift = ti - a descends).
    if a <= a_hi {
        let window = &rung_cdf[ti - a_hi..=ti - a];
        for (&p, &cdf) in cond_pmf[a..=a_hi].iter().zip(window.iter().rev()) {
            acc += p * cdf;
        }
    }
    acc
}

/// The `q`-quantile of `X + Y_i` (see [`cdf_of_sum`]) as a combined bucket
/// index `t` (value `(t+1)·w`): the smallest `t` in `[i, full_hi]` with
/// `P[a + b + i ≤ t] ≥ q − ε`, where `full_hi` is the sum's largest index
/// and counts as reached without a probe, as in a full-range bisection.
///
/// The search starts at `guess` (clamped into that range) and gallops away
/// from it — 1, 2, 4, … indices down while the probes reach the quantile,
/// up while they do not — until it brackets the answer, then bisects the
/// bracket. The CDF is monotone in `t`, so every guess converges to the
/// same minimal `t`: the guess changes the probe count, never the result.
fn quantile_of_sum(
    cond_pmf: &[f64],
    nnz: (usize, usize),
    rung_cdf: &[f64],
    i: usize,
    q: f64,
    guess: usize,
) -> usize {
    let full_hi = cond_pmf.len() - 1 + (rung_cdf.len() - 1) + i;
    let reached =
        |t: usize| t >= full_hi || cdf_of_sum(cond_pmf, nnz, rung_cdf, i, t) >= q - QUANTILE_EPS;
    let guess = guess.clamp(i, full_hi);
    let (mut lo, mut hi) = if reached(guess) {
        let (mut hi, mut step) = (guess, 1);
        loop {
            if hi == i {
                return i;
            }
            let probe = hi - step.min(hi - i);
            if !reached(probe) {
                break (probe, hi);
            }
            hi = probe;
            step *= 2;
        }
    } else {
        let (mut lo, mut step) = (guess, 1);
        loop {
            let probe = (lo + step).min(full_hi);
            if reached(probe) {
                break (lo, probe);
            }
            lo = probe;
            step *= 2;
        }
    };
    // Invariant: !reached(lo) && reached(hi).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if reached(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// The pair of precomputed tables Rubik consults on every decision.
#[derive(Debug, PartialEq)]
pub struct TargetTailTables {
    compute: TailTable,
    memory: TailTable,
    quantile: f64,
    cutoff: usize,
    /// z-score of the target quantile, computed once at build time so the
    /// decision path never evaluates the inverse normal CDF.
    tail: GaussianTail,
}

impl Clone for TargetTailTables {
    #[inline]
    fn clone(&self) -> Self {
        Self {
            compute: self.compute.clone(),
            memory: self.memory.clone(),
            quantile: self.quantile,
            cutoff: self.cutoff,
            tail: self.tail,
        }
    }

    /// Field-wise, reusing both tables' storage: copying between tables of
    /// the same shape allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.compute.clone_from(&source.compute);
        self.memory.clone_from(&source.memory);
        self.quantile = source.quantile;
        self.cutoff = source.cutoff;
        self.tail = source.tail;
    }
}

/// A decision-scoped cursor over [`TargetTailTables`]: the progress rows for
/// the in-service request's elapsed compute/memory work are resolved once
/// (two binary searches), after which each queue position costs two array
/// reads. Obtained from [`TargetTailTables::tails_at`]; borrows the tables,
/// so it is allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct TailsCursor<'a> {
    tables: &'a TargetTailTables,
    compute_row: usize,
    memory_row: usize,
}

impl TailsCursor<'_> {
    /// Tail remaining compute cycles for queue position `pos`.
    #[inline]
    pub fn tail_compute_cycles(&self, pos: usize) -> f64 {
        self.tables
            .compute
            .lookup_row(self.compute_row, pos, self.tables.cutoff, &self.tables.tail)
    }

    /// Tail remaining memory-bound time for queue position `pos`.
    #[inline]
    pub fn tail_membound_time(&self, pos: usize) -> f64 {
        self.tables
            .memory
            .lookup_row(self.memory_row, pos, self.tables.cutoff, &self.tables.tail)
    }

    /// Both tails for queue position `pos`.
    #[inline]
    pub fn tails(&self, pos: usize) -> (f64, f64) {
        (self.tail_compute_cycles(pos), self.tail_membound_time(pos))
    }
}

/// Persistent spectral table builder (see the module docs, "Rebuild cost:
/// incremental builder").
///
/// Every working buffer — the per-kind ladders (trimmed base, boundaries,
/// per-row conditionals, spectra) and the rung PMF/CDF — is reused from
/// rebuild to rebuild, so a warm [`TableBuilder::build_with_into`],
/// [`TableBuilder::set_up_into`] or [`TableBuilder::extend`] performs no
/// allocation once the buffers have reached their high-water sizes;
/// transforms go through the process-wide [`FftPlan::shared`] plans. The
/// builder remembers its last build and serves a bit-identical repeat of it
/// by copying, and keeps the ladder of the last compute and memory table it
/// set up or extended, so extending that table (or a clone of it) one rung
/// at a time neither conditions its rows again nor restarts its transform
/// ladder. The controller rebuilds through one builder per thread. One-off
/// callers go through [`TargetTailTables::build`], which spins up a
/// throwaway builder.
#[derive(Debug)]
pub struct TableBuilder {
    /// Packed-FFT scratch shared by all transforms.
    scratch: Vec<Complex>,
    /// The ladders of the last compute and memory table set up or extended,
    /// indexed by [`COMPUTE`] and [`MEMORY`].
    ladders: [Ladder; 2],
    /// Time-domain rung `base^⊛i`.
    rung_pmf: Vec<f64>,
    /// Running CDF of the current rung.
    rung_cdf: Vec<f64>,
    /// Inputs and output of the last build, once there has been one.
    memo: Option<Memo>,
}

/// Index of the compute table's ladder in [`TableBuilder::ladders`].
const COMPUTE: usize = 0;
/// Index of the memory table's ladder in [`TableBuilder::ladders`].
const MEMORY: usize = 1;

/// What one table's rungs derive from (see the module docs, "Rungs on
/// demand"): its trimmed base and band boundaries, the conditionals taken
/// from them, and the running product where the last rung left it.
#[derive(Debug)]
struct Ladder {
    /// The trimmed base PMF and bucket width.
    base: Histogram,
    /// Lower boundary of each elapsed-work band.
    boundaries: Vec<f64>,
    /// Per-row conditional distributions.
    conds: Vec<Histogram>,
    /// Non-zero support `[first, last]` of each row's conditional PMF.
    row_nnz: Vec<(usize, usize)>,
    /// Spectrum of the base at the last rung's transform size.
    base_spec: Spectrum,
    /// Running product `base_spec^exp`.
    running: Spectrum,
    /// Power of `running`; 0 while no spectrum of this base exists.
    exp: usize,
}

impl Ladder {
    fn new() -> Self {
        Self {
            base: Histogram::zero(),
            boundaries: Vec::new(),
            conds: Vec::new(),
            row_nnz: Vec::new(),
            base_spec: Spectrum::default(),
            running: Spectrum::default(),
            exp: 0,
        }
    }

    /// Sets the ladder up for `hist` trimmed, with `rows` bands.
    fn set_up(&mut self, hist: &Histogram, rows: usize) {
        // Trim negligible tail mass so the transform size stays small.
        hist.trim_tail_into(1e-9, &mut self.base);
        self.boundaries.clear();
        let base = &self.base;
        self.boundaries
            .extend((0..rows).map(|row| row_boundary(base, row, rows)));
        self.condition_rows();
    }

    /// Whether the ladder derives from `table`'s stored base PMF, bucket
    /// width and boundaries, bit for bit: everything else it holds is a
    /// pure function of those.
    fn holds(&self, table: &TailTable) -> bool {
        self.base.bucket_width().to_bits() == table.width.to_bits()
            && bits_equal(self.base.pmf(), &table.base)
            && bits_equal(&self.boundaries, &table.boundaries)
    }

    /// Rebuilds the ladder from what a short `table` stores.
    fn restore(&mut self, table: &TailTable) {
        self.base.assign_pmf(&table.base, table.width);
        self.boundaries.clone_from(&table.boundaries);
        self.condition_rows();
    }

    /// The conditional of the base at each boundary, and its non-zero
    /// support; drops the spectra, which belong to the previous base.
    fn condition_rows(&mut self) {
        if self.conds.len() < self.boundaries.len() {
            self.conds.resize(self.boundaries.len(), Histogram::zero());
        }
        self.row_nnz.clear();
        for (cond, &boundary) in self.conds.iter_mut().zip(&self.boundaries) {
            self.base.conditional_on_elapsed_into(boundary, cond);
            let pmf = cond.pmf();
            let first = pmf
                .iter()
                .position(|&p| p != 0.0)
                .expect("conditional PMF has mass");
            let last = pmf.iter().rposition(|&p| p != 0.0).expect("has mass");
            self.row_nnz.push((first, last));
        }
        self.exp = 0;
    }

    /// Rung `i ≥ 1`, `base^⊛i`, into `rung_pmf` (at least its `i·(len−1)+1`
    /// points of support).
    ///
    /// Right-sized ladder: the rung's linear-convolution support
    /// `i(len−1)+1` sets its power-of-two transform size, so early rungs
    /// transform small. At each size the running product starts from a
    /// fresh transform of the base and is multiplied up to the rung's
    /// power, so a rung's bits depend only on `i`, and rungs at the deepest
    /// size are bit-identical to a single-size ladder. The product held
    /// from an earlier rung is continued only when it has the rung's size
    /// and is not past its power: it then holds exactly the product a
    /// fresh start would reach on the way.
    fn rung_into(&mut self, i: usize, scratch: &mut Vec<Complex>, rung_pmf: &mut Vec<f64>) {
        if i == 1 {
            // Rung 1 *is* the base PMF — no transform needed.
            rung_pmf.clear();
            rung_pmf.extend_from_slice(self.base.pmf());
            return;
        }
        let support = i * (self.base.len() - 1) + 1;
        let size = support.next_power_of_two().max(2);
        let plan = FftPlan::shared(size);
        if self.exp == 0 || self.exp > i || self.base_spec.len() != size {
            plan.forward_into(self.base.pmf(), scratch, &mut self.base_spec);
            self.running.clone_from(&self.base_spec);
            self.exp = 1;
        }
        while self.exp < i {
            self.running.mul_assign(&self.base_spec);
            self.exp += 1;
        }
        plan.inverse_into(&self.running, scratch, rung_pmf);
    }
}

/// Whether two slices hold the same `f64`s bit for bit. Stricter than `==`,
/// which equates `0.0` with `-0.0`.
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A build's complete inputs and its output: the tables are a pure function
/// of the other fields, built to their own depth.
#[derive(Debug)]
struct Memo {
    compute: Histogram,
    memory: Histogram,
    quantile: f64,
    rows: usize,
    cutoff: usize,
    tables: TargetTailTables,
}

/// Whether two histograms are identical bit for bit: the same bucket width
/// and PMF (the cached CDF is derived from the PMF).
fn same_bits(a: &Histogram, b: &Histogram) -> bool {
    a.bucket_width().to_bits() == b.bucket_width().to_bits() && bits_equal(a.pmf(), b.pmf())
}

impl Memo {
    fn matches(
        &self,
        compute: &Histogram,
        memory: &Histogram,
        quantile: f64,
        rows: usize,
        cutoff: usize,
    ) -> bool {
        self.quantile.to_bits() == quantile.to_bits()
            && self.rows == rows
            && self.cutoff == cutoff
            && same_bits(&self.compute, compute)
            && same_bits(&self.memory, memory)
    }
}

impl Default for TableBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TableBuilder {
    /// Creates an empty builder with an empty memo; buffers grow to their
    /// steady-state sizes on first use.
    pub fn new() -> Self {
        Self {
            scratch: Vec::new(),
            ladders: [Ladder::new(), Ladder::new()],
            rung_pmf: Vec::new(),
            rung_cdf: Vec::new(),
            memo: None,
        }
    }

    /// Builds a fresh pair of tables with the paper's default shape. Warm
    /// callers that hold a target should prefer
    /// [`TableBuilder::build_with_into`].
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is not in `(0, 1)`.
    pub fn build(
        &mut self,
        compute: &Histogram,
        memory: &Histogram,
        quantile: f64,
    ) -> TargetTailTables {
        self.build_with(
            compute,
            memory,
            quantile,
            DEFAULT_PROGRESS_ROWS,
            DEFAULT_GAUSSIAN_CUTOFF,
        )
    }

    /// Builds a fresh pair of tables with explicit dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is not in `(0, 1)`, or `rows`/`cutoff` are zero.
    pub fn build_with(
        &mut self,
        compute: &Histogram,
        memory: &Histogram,
        quantile: f64,
        rows: usize,
        cutoff: usize,
    ) -> TargetTailTables {
        assert!(
            quantile > 0.0 && quantile < 1.0,
            "quantile must be in (0, 1)"
        );
        let mut out = TargetTailTables {
            compute: TailTable::zero(rows.max(1), cutoff.max(1)),
            memory: TailTable::zero(rows.max(1), cutoff.max(1)),
            quantile,
            cutoff,
            tail: GaussianTail::new(quantile),
        };
        self.build_with_into(compute, memory, quantile, rows, cutoff, &mut out);
        out
    }

    /// Rebuilds `out` in place from the given histograms, reusing both the
    /// builder's scratch state and the target's own storage. Bit-identical
    /// results to [`TargetTailTables::build_with`], zero steady-state
    /// allocations.
    ///
    /// When the inputs repeat the builder's last build bit for bit and that
    /// build is full, the remembered tables are copied into `out` instead
    /// (see the module docs, "Last-build memo").
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is not in `(0, 1)`, or `rows`/`cutoff` are zero.
    pub fn build_with_into(
        &mut self,
        compute: &Histogram,
        memory: &Histogram,
        quantile: f64,
        rows: usize,
        cutoff: usize,
        out: &mut TargetTailTables,
    ) {
        self.build_into(compute, memory, quantile, rows, cutoff, cutoff, out);
    }

    /// Rebuilds `out` in place up to row setup only: band boundaries,
    /// per-row moments and queue position 0, plus the trimmed base the
    /// deeper positions derive from. This is the controller's periodic
    /// rebuild; decisions then build the positions they read with
    /// [`TableBuilder::extend`], and every position they build is
    /// bit-identical to [`TableBuilder::build_with_into`]'s.
    ///
    /// The last-build memo serves these inputs at any depth (see the
    /// module docs, "Last-build memo").
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is not in `(0, 1)`, or `rows`/`cutoff` are zero.
    pub fn set_up_into(
        &mut self,
        compute: &Histogram,
        memory: &Histogram,
        quantile: f64,
        rows: usize,
        cutoff: usize,
        out: &mut TargetTailTables,
    ) {
        self.build_into(compute, memory, quantile, rows, cutoff, 1, out);
    }

    /// Builds the explicit positions of both tables up to `depth` (capped
    /// at the Gaussian cutoff): afterwards every position below
    /// `depth.min(tables.gaussian_cutoff())` can be read. Positions already
    /// built are kept, so this is a no-op on full tables. Each added rung is
    /// the full build's size-stepped product — the base's forward transform
    /// at the rung's transform size, multiplied up to the rung's power — so
    /// extended tables are bit-identical to full builds however the
    /// extensions are split.
    ///
    /// A table whose stored base and boundaries match the builder's ladder
    /// of its kind bit for bit (the table this builder last set up or
    /// extended, or a clone of it) reuses that ladder's conditionals and
    /// continues its running product where the transform size allows; any
    /// other table first rebuilds the ladder from what it stores (see the
    /// module docs, "Rungs on demand").
    pub fn extend(&mut self, tables: &mut TargetTailTables, depth: usize) {
        let depth = depth.min(tables.cutoff);
        let TargetTailTables {
            compute,
            memory,
            quantile,
            cutoff,
            ..
        } = tables;
        for (kind, table) in [(COMPUTE, compute), (MEMORY, memory)] {
            if table.depth < depth {
                let ladder = &mut self.ladders[kind];
                if !ladder.holds(table) {
                    ladder.restore(table);
                }
                self.build_rungs(kind, *quantile, *cutoff, depth, table);
            }
        }
    }

    /// Builds `out` from the inputs to `depth` explicit positions, or
    /// copies the memo's tables when they match the inputs and are at
    /// least that deep.
    #[allow(clippy::too_many_arguments)]
    fn build_into(
        &mut self,
        compute: &Histogram,
        memory: &Histogram,
        quantile: f64,
        rows: usize,
        cutoff: usize,
        depth: usize,
        out: &mut TargetTailTables,
    ) {
        assert!(
            quantile > 0.0 && quantile < 1.0,
            "quantile must be in (0, 1)"
        );
        assert!(rows > 0 && cutoff > 0, "table dimensions must be positive");
        if let Some(memo) = &self.memo {
            if memo.tables.depth() >= depth && memo.matches(compute, memory, quantile, rows, cutoff)
            {
                out.clone_from(&memo.tables);
                return;
            }
        }
        self.build_table_into(
            COMPUTE,
            compute,
            quantile,
            rows,
            cutoff,
            depth,
            &mut out.compute,
        );
        if memory.mean() < NEGLIGIBLE_MEM_TIME {
            out.memory.zero_into(rows, cutoff);
        } else {
            self.build_table_into(
                MEMORY,
                memory,
                quantile,
                rows,
                cutoff,
                depth,
                &mut out.memory,
            );
        }
        out.quantile = quantile;
        out.cutoff = cutoff;
        out.tail = GaussianTail::new(quantile);
        match &mut self.memo {
            Some(memo) => {
                memo.compute.clone_from(compute);
                memo.memory.clone_from(memory);
                memo.quantile = quantile;
                memo.rows = rows;
                memo.cutoff = cutoff;
                memo.tables.clone_from(out);
            }
            None => {
                self.memo = Some(Memo {
                    compute: compute.clone(),
                    memory: memory.clone(),
                    quantile,
                    rows,
                    cutoff,
                    tables: out.clone(),
                })
            }
        }
    }

    /// Builds one table into `out` to `depth` explicit positions through
    /// the ladder of its `kind`: row setup, then the rungs (see the module
    /// docs).
    #[allow(clippy::too_many_arguments)]
    fn build_table_into(
        &mut self,
        kind: usize,
        hist: &Histogram,
        quantile: f64,
        rows: usize,
        cutoff: usize,
        depth: usize,
        out: &mut TailTable,
    ) {
        // Row setup: boundaries, conditionals (with their non-zero support),
        // moments, and the position-0 column — all into reused storage.
        let ladder = &mut self.ladders[kind];
        ladder.set_up(hist, rows);
        out.boundaries.clone_from(&ladder.boundaries);
        out.cond_mean.clear();
        out.cond_var.clear();
        out.rows.truncate(rows);
        while out.rows.len() < rows {
            out.rows.push(Vec::new());
        }
        for (cond, row_vals) in ladder.conds.iter().zip(&mut out.rows) {
            out.cond_mean.push(cond.mean());
            out.cond_var.push(cond.variance());
            // Position 0 needs no convolution: the conditioned distribution's
            // own quantile.
            row_vals.clear();
            row_vals.reserve(cutoff);
            row_vals.push(cond.quantile(quantile));
        }
        out.mean = ladder.base.mean();
        out.var = ladder.base.variance();
        out.width = ladder.base.bucket_width();
        out.depth = 1;
        // Keep the base only for a table that stays short of the cutoff.
        out.base.clear();
        if depth < cutoff {
            out.base.extend_from_slice(ladder.base.pmf());
        }

        self.build_rungs(kind, quantile, cutoff, depth, out);
    }

    /// Builds rungs `out.depth..depth` into `out` from the ladder of its
    /// `kind`, which must hold `out`'s base and boundaries. A table that
    /// reaches the cutoff drops its base (keeping the storage for the next
    /// rebuild).
    fn build_rungs(
        &mut self,
        kind: usize,
        quantile: f64,
        cutoff: usize,
        depth: usize,
        out: &mut TailTable,
    ) {
        let Self {
            scratch,
            ladders,
            rung_pmf,
            rung_cdf,
            memo: _,
        } = self;
        let ladder = &mut ladders[kind];
        let width = out.width;
        // The quantile index of a built entry, `(t + 1)·width` (see the
        // module docs, "Predicted-step quantile search").
        let index = |value: f64| ((value / width).round() as usize).saturating_sub(1);
        for i in out.depth..depth {
            ladder.rung_into(i, scratch, rung_pmf);

            // The single running-CDF pass over this rung, clamping FFT
            // round-off (a convolution of PMFs cannot go negative).
            let support = i * (ladder.base.len() - 1) + 1;
            rung_cdf.clear();
            let mut cum = 0.0;
            for &p in &rung_pmf[..support] {
                cum += p.max(0.0);
                rung_cdf.push(cum);
            }

            // Predicted step of each row's index at this rung: its own last
            // step, or at rung 1 the step the row above just took, starting
            // from one base draw (the base mean in buckets) for row 0.
            let mut step = if i == 1 {
                (out.mean / width).round() as usize
            } else {
                0
            };
            for (cond, (row_vals, &nnz)) in ladder
                .conds
                .iter()
                .zip(out.rows.iter_mut().zip(&ladder.row_nnz))
            {
                let last = index(row_vals[i - 1]);
                if i > 1 {
                    step = last.saturating_sub(index(row_vals[i - 2]));
                }
                let t = quantile_of_sum(cond.pmf(), nnz, rung_cdf, i, quantile, last + step);
                step = t.saturating_sub(last);
                row_vals.push((t + 1) as f64 * width);
            }
        }
        out.depth = out.depth.max(depth);
        if out.depth == cutoff {
            out.base.clear();
        }
    }
}

impl TargetTailTables {
    /// Builds the tables from the profiled compute-cycle and memory-time
    /// histograms for the given tail quantile (e.g. 0.95), with the paper's
    /// default table shape (8 progress rows, Gaussian beyond depth 16).
    ///
    /// Thin wrapper over a throwaway [`TableBuilder`] (fresh buffers, empty
    /// memo, so this always performs a real build); rebuild loops should
    /// hold a persistent builder and use [`TableBuilder::build_with_into`].
    pub fn build(compute: &Histogram, memory: &Histogram, quantile: f64) -> Self {
        TableBuilder::new().build(compute, memory, quantile)
    }

    /// Builds the tables with explicit table dimensions (used by the
    /// ablation benches).
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is not in `(0, 1)`, or `rows`/`cutoff` are zero.
    pub fn build_with(
        compute: &Histogram,
        memory: &Histogram,
        quantile: f64,
        rows: usize,
        cutoff: usize,
    ) -> Self {
        TableBuilder::new().build_with(compute, memory, quantile, rows, cutoff)
    }

    /// Builds the tables with the reference per-row convolution scheme and
    /// the paper's default shape. Slower than [`TargetTailTables::build`] by
    /// construction; exists as the equivalence-test oracle and the bench
    /// baseline.
    pub fn build_direct(compute: &Histogram, memory: &Histogram, quantile: f64) -> Self {
        Self::build_direct_with(
            compute,
            memory,
            quantile,
            DEFAULT_PROGRESS_ROWS,
            DEFAULT_GAUSSIAN_CUTOFF,
        )
    }

    /// Reference builder with explicit dimensions; see
    /// [`TargetTailTables::build_direct`].
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is not in `(0, 1)`, or `rows`/`cutoff` are zero.
    pub fn build_direct_with(
        compute: &Histogram,
        memory: &Histogram,
        quantile: f64,
        rows: usize,
        cutoff: usize,
    ) -> Self {
        assert!(
            quantile > 0.0 && quantile < 1.0,
            "quantile must be in (0, 1)"
        );
        assert!(rows > 0 && cutoff > 0, "table dimensions must be positive");
        let compute_table = TailTable::build_direct(compute, quantile, rows, cutoff);
        let memory_table = if memory.mean() < NEGLIGIBLE_MEM_TIME {
            TailTable::zero(rows, cutoff)
        } else {
            TailTable::build_direct(memory, quantile, rows, cutoff)
        };
        Self {
            compute: compute_table,
            memory: memory_table,
            quantile,
            cutoff,
            tail: GaussianTail::new(quantile),
        }
    }

    /// The tail quantile the tables were built for.
    pub fn quantile(&self) -> f64 {
        self.quantile
    }

    /// The queue depth beyond which the Gaussian approximation is used.
    pub fn gaussian_cutoff(&self) -> usize {
        self.cutoff
    }

    /// The number of explicit queue positions built: positions below
    /// `depth()` and at or past [`TargetTailTables::gaussian_cutoff`] can
    /// be read, the ones in between panic until [`TableBuilder::extend`]
    /// builds them. Every `build*` constructor returns full tables
    /// (`depth() == gaussian_cutoff()`); [`TableBuilder::set_up_into`]
    /// leaves depth 1.
    pub fn depth(&self) -> usize {
        self.compute.depth.min(self.memory.depth)
    }

    /// Resolves the progress rows for the in-service request's elapsed work
    /// once and returns a cursor for per-position lookups. This is the
    /// decision-path entry point: one decision resolves the rows a single
    /// time and then walks the queue with O(1) lookups. The cursor's
    /// lookups panic at positions from [`TargetTailTables::depth`] up to
    /// the cutoff.
    pub fn tails_at(&self, elapsed_compute: f64, elapsed_mem: f64) -> TailsCursor<'_> {
        TailsCursor {
            tables: self,
            compute_row: self.compute.row_for(elapsed_compute),
            memory_row: self.memory.row_for(elapsed_mem),
        }
    }

    /// Tail *remaining compute cycles* until the request at queue position
    /// `pos` completes, given that the in-service request has already
    /// executed `elapsed_compute_cycles`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is at or past [`TargetTailTables::depth`] but below
    /// the Gaussian cutoff (the position has not been built).
    pub fn tail_compute_cycles(&self, elapsed_compute_cycles: f64, pos: usize) -> f64 {
        let row = self.compute.row_for(elapsed_compute_cycles);
        self.compute.lookup_row(row, pos, self.cutoff, &self.tail)
    }

    /// Tail *remaining memory-bound time* until the request at queue position
    /// `pos` completes, given the in-service request's elapsed memory time.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is at or past [`TargetTailTables::depth`] but below
    /// the Gaussian cutoff (the position has not been built).
    pub fn tail_membound_time(&self, elapsed_membound_time: f64, pos: usize) -> f64 {
        let row = self.memory.row_for(elapsed_membound_time);
        self.memory.lookup_row(row, pos, self.cutoff, &self.tail)
    }

    /// Convenience: both tails at once. For repeated lookups at the same
    /// elapsed-work point (the common case: walking the queue), prefer
    /// [`TargetTailTables::tails_at`], which resolves the rows only once.
    pub fn tails(&self, elapsed_compute: f64, elapsed_mem: f64, pos: usize) -> (f64, f64) {
        self.tails_at(elapsed_compute, elapsed_mem).tails(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubik_stats::DeterministicRng;

    fn lognormal_hist(mean: f64, cov: f64, n: usize, seed: u64) -> Histogram {
        let mut rng = DeterministicRng::new(seed);
        let samples: Vec<f64> = (0..n).map(|_| rng.lognormal(mean, cov)).collect();
        Histogram::from_samples(&samples, 128)
    }

    fn zero_hist() -> Histogram {
        Histogram::from_samples(&[0.0, 0.0, 0.0], 4)
    }

    #[test]
    fn deeper_queue_positions_have_larger_tails() {
        let c = lognormal_hist(1e6, 0.3, 5000, 1);
        let t = TargetTailTables::build(&c, &zero_hist(), 0.95);
        let mut prev = 0.0;
        for pos in 0..32 {
            let tail = t.tail_compute_cycles(0.0, pos);
            assert!(tail > prev, "pos {pos}: {tail} <= {prev}");
            prev = tail;
        }
    }

    #[test]
    fn tail_grows_roughly_linearly_with_queue_depth() {
        let c = lognormal_hist(1e6, 0.3, 5000, 2);
        let t = TargetTailTables::build(&c, &zero_hist(), 0.95);
        let t1 = t.tail_compute_cycles(0.0, 1);
        let t9 = t.tail_compute_cycles(0.0, 9);
        // Tail at depth 9 should be close to (but less than) 5x the tail at
        // depth 1: independent work averages out, so the tail grows slower
        // than proportionally (the effect Rubik exploits, Sec. 4.1).
        assert!(t9 < 5.2 * t1, "t9 = {t9}, t1 = {t1}");
        assert!(t9 > 3.0 * t1);
    }

    #[test]
    fn per_position_tail_shrinks_relative_to_naive_sum() {
        // The tail of a sum is less than the sum of tails (the queue's
        // completion time concentrates). This is why the last queued request
        // rarely sets the frequency.
        let c = lognormal_hist(1e6, 0.5, 5000, 3);
        let t = TargetTailTables::build(&c, &zero_hist(), 0.95);
        let single = t.tail_compute_cycles(0.0, 0);
        let ten = t.tail_compute_cycles(0.0, 9);
        assert!(ten < 10.0 * single);
    }

    #[test]
    fn more_elapsed_work_reduces_the_remaining_tail_for_clustered_work() {
        let c = lognormal_hist(1e6, 0.2, 5000, 4);
        let t = TargetTailTables::build(&c, &zero_hist(), 0.95);
        let fresh = t.tail_compute_cycles(0.0, 0);
        let after_median = t.tail_compute_cycles(1e6, 0);
        assert!(after_median < fresh, "{after_median} vs {fresh}");
    }

    #[test]
    fn gaussian_extension_is_continuous_at_the_cutoff() {
        let c = lognormal_hist(1e6, 0.3, 5000, 5);
        let t = TargetTailTables::build(&c, &zero_hist(), 0.95);
        let last_explicit = t.tail_compute_cycles(0.0, DEFAULT_GAUSSIAN_CUTOFF - 1);
        let first_gaussian = t.tail_compute_cycles(0.0, DEFAULT_GAUSSIAN_CUTOFF);
        let ratio = first_gaussian / last_explicit;
        // The approximation should hand over smoothly: one extra request's
        // worth of work, not a jump.
        assert!(ratio > 1.0 && ratio < 1.2, "ratio = {ratio}");
    }

    #[test]
    fn zero_memory_distribution_contributes_nothing() {
        let c = lognormal_hist(1e6, 0.3, 2000, 6);
        let t = TargetTailTables::build(&c, &zero_hist(), 0.95);
        for pos in 0..20 {
            assert_eq!(t.tail_membound_time(0.0, pos), 0.0);
        }
    }

    #[test]
    fn memory_table_tracks_memory_distribution() {
        let c = lognormal_hist(1e6, 0.3, 2000, 7);
        let m = lognormal_hist(100e-6, 0.3, 2000, 8);
        let t = TargetTailTables::build(&c, &m, 0.95);
        let m0 = t.tail_membound_time(0.0, 0);
        assert!(m0 > 100e-6 && m0 < 300e-6, "m0 = {m0}");
        assert!(t.tail_membound_time(0.0, 3) > 3.0 * 100e-6);
    }

    #[test]
    fn higher_quantile_produces_larger_tails() {
        let c = lognormal_hist(1e6, 0.5, 3000, 9);
        let t95 = TargetTailTables::build(&c, &zero_hist(), 0.95);
        let t99 = TargetTailTables::build(&c, &zero_hist(), 0.99);
        assert!(t99.tail_compute_cycles(0.0, 0) > t95.tail_compute_cycles(0.0, 0));
        assert!(t99.tail_compute_cycles(0.0, 5) > t95.tail_compute_cycles(0.0, 5));
    }

    #[test]
    fn custom_dimensions_are_respected() {
        let c = lognormal_hist(1e6, 0.3, 1000, 10);
        let t = TargetTailTables::build_with(&c, &zero_hist(), 0.95, 4, 8);
        assert_eq!(t.gaussian_cutoff(), 8);
        // Depth 8 and beyond uses the Gaussian extension and still grows.
        assert!(t.tail_compute_cycles(0.0, 8) > t.tail_compute_cycles(0.0, 7));
    }

    #[test]
    fn cursor_matches_single_shot_lookups() {
        let c = lognormal_hist(1e6, 0.4, 3000, 12);
        let m = lognormal_hist(50e-6, 0.4, 3000, 13);
        let t = TargetTailTables::build(&c, &m, 0.95);
        for &(ec, em) in &[(0.0, 0.0), (5e5, 20e-6), (2e6, 200e-6), (1e9, 1.0)] {
            let cursor = t.tails_at(ec, em);
            for pos in 0..40 {
                assert_eq!(
                    cursor.tail_compute_cycles(pos),
                    t.tail_compute_cycles(ec, pos)
                );
                assert_eq!(
                    cursor.tail_membound_time(pos),
                    t.tail_membound_time(em, pos)
                );
                assert_eq!(cursor.tails(pos), t.tails(ec, em, pos));
            }
        }
    }

    #[test]
    fn row_resolution_matches_linear_scan() {
        let c = lognormal_hist(1e6, 0.6, 4000, 14);
        let t = TargetTailTables::build(&c, &zero_hist(), 0.95);
        let boundaries = &t.compute.boundaries;
        // partition_point row resolution must agree with the original linear
        // scan for elapsed values around every boundary.
        let linear = |elapsed: f64| {
            let mut row = 0;
            for (i, &b) in boundaries.iter().enumerate() {
                if elapsed >= b {
                    row = i;
                } else {
                    break;
                }
            }
            row
        };
        let mut probes = vec![0.0, 1e-30, 1e12];
        for &b in boundaries {
            probes.extend([b - 1.0, b, b + 1.0]);
        }
        for p in probes {
            let p = p.max(0.0);
            assert_eq!(t.compute.row_for(p), linear(p), "elapsed {p}");
        }
    }

    #[test]
    fn memo_remembers_the_last_build_and_matches_only_its_exact_inputs() {
        let c = lognormal_hist(1e6, 0.3, 1024, 15);
        let m = lognormal_hist(80e-6, 0.3, 1024, 16);
        let mut builder = TableBuilder::new();
        assert!(builder.memo.is_none(), "a new builder remembers nothing");
        let built = builder.build_with(&c, &m, 0.95, 8, 16);
        let memo = builder.memo.as_ref().expect("the build is remembered");
        assert_eq!(memo.tables, built);
        assert!(memo.matches(&c, &m, 0.95, 8, 16));
        assert!(!memo.matches(&m, &c, 0.95, 8, 16), "histograms swapped");
        assert!(!memo.matches(&c, &m, 0.95f64.next_up(), 8, 16), "quantile");
        assert!(!memo.matches(&c, &m, 0.95, 7, 16), "rows");
        assert!(!memo.matches(&c, &m, 0.95, 8, 17), "cutoff");
        let wider = Histogram::from_pmf(c.pmf().to_vec(), c.bucket_width().next_up());
        assert_eq!(wider.pmf(), c.pmf());
        assert!(!memo.matches(&wider, &m, 0.95, 8, 16), "bucket width");

        // The next build replaces the memo.
        let other = builder.build_with(&c, &zero_hist(), 0.9, 4, 8);
        let memo = builder.memo.as_ref().expect("the build is remembered");
        assert_eq!(memo.tables, other);
        assert!(memo.matches(&c, &zero_hist(), 0.9, 4, 8));
        assert!(!memo.matches(&c, &m, 0.95, 8, 16));
    }

    #[test]
    fn memo_compares_histogram_bits_not_values() {
        let plus = Histogram::from_pmf(vec![0.5, 0.0, 0.5], 2.0);
        let minus = Histogram::from_pmf(vec![0.5, -0.0, 0.5], 2.0);
        assert_eq!(plus, minus, "-0.0 == 0.0");
        assert!(same_bits(&plus, &plus.clone()));
        assert!(!same_bits(&plus, &minus));
        let longer = Histogram::from_pmf(vec![0.5, 0.0, 0.5, 0.0], 2.0);
        assert!(!same_bits(&plus, &longer));
    }

    #[test]
    fn equality_reads_the_base_only_while_both_tables_are_short() {
        let c = lognormal_hist(1e6, 0.3, 1024, 17);
        let m = lognormal_hist(80e-6, 0.3, 1024, 18);
        let full = TargetTailTables::build(&c, &m, 0.95);
        let mut short = full.clone();
        TableBuilder::new().set_up_into(&c, &m, 0.95, 8, 16, &mut short);
        assert_eq!(short.depth(), 1);
        assert!(full.compute.base.is_empty() && full.memory.base.is_empty());

        // A base the unbuilt rungs would derive from differently.
        let mut other_base = short.clone();
        let last = other_base.compute.base.len() - 1;
        other_base.compute.base[last] = other_base.compute.base[last].next_up();
        assert!(short != other_base);
        assert!(other_base != short);
        // Against a full table only the built prefix counts.
        assert!(short == full);
        assert!(other_base == full);
        assert!(full == other_base);

        // Extending to the cutoff drops the base.
        TableBuilder::new().extend(&mut short, 16);
        assert!(short.compute.base.is_empty() && short.memory.base.is_empty());
        assert_eq!(format!("{short:?}"), format!("{full:?}"));
    }

    /// The full-range bisection: the reference the predicted-step search
    /// must agree with.
    fn quantile_by_bisection(
        cond_pmf: &[f64],
        nnz: (usize, usize),
        rung_cdf: &[f64],
        i: usize,
        q: f64,
    ) -> usize {
        let reached = |t| cdf_of_sum(cond_pmf, nnz, rung_cdf, i, t) >= q - QUANTILE_EPS;
        if reached(i) {
            return i;
        }
        let (mut lo, mut hi) = (i, cond_pmf.len() - 1 + (rung_cdf.len() - 1) + i);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if reached(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// A random PMF of `len` buckets with zero-mass buckets inside it,
    /// scaled to total `mass`.
    fn random_pmf(rng: &mut DeterministicRng, len: usize, mass: f64) -> Vec<f64> {
        let mut pmf: Vec<f64> = (0..len)
            .map(|_| {
                if rng.bernoulli(0.3) {
                    0.0
                } else {
                    rng.uniform()
                }
            })
            .collect();
        if pmf.iter().all(|&p| p == 0.0) {
            pmf[rng.index(len)] = 1.0;
        }
        let total: f64 = pmf.iter().sum();
        pmf.iter_mut().for_each(|p| *p *= mass / total);
        pmf
    }

    /// Random conditionals (zero buckets at either end, so their non-zero
    /// support `[first, last]` is strict) and rung CDFs, where the answer
    /// falls at `i`, at the sum's last index or in between: the search
    /// returns the full-range bisection's index from every guess between
    /// `i − 3` and that last index `+ 3`.
    #[test]
    fn predicted_step_search_matches_full_range_bisection_from_every_guess() {
        let mut rng = DeterministicRng::new(0x5EA4C);
        let (mut at_i, mut at_end, mut inside) = (0, 0, 0);
        for case in 0..400 {
            let i = 1 + rng.index(6);
            let (lead, trail) = (rng.index(4), rng.index(4));
            let (lead, q, rung_mass) = match case % 4 {
                // Mass at a = 0 and b = 0 reaches a tiny quantile at once.
                0 => (0, 1e-6, 1.0),
                // A rung short of the quantile's mass never reaches it.
                1 => (lead, 0.95, 0.9),
                _ => (lead, 0.05 + 0.949 * rng.uniform(), 1.0),
            };
            let mut cond = vec![0.0; lead];
            let len = 1 + rng.index(12);
            cond.extend(random_pmf(&mut rng, len, 1.0));
            cond.extend(std::iter::repeat_n(0.0, trail));
            if case % 4 == 0 {
                cond[0] = cond[0].max(0.5);
            }
            let first = cond.iter().position(|&p| p != 0.0).expect("has mass");
            let last = cond.iter().rposition(|&p| p != 0.0).expect("has mass");
            let len = 1 + rng.index(24);
            let mut rung = random_pmf(&mut rng, len, rung_mass);
            if case % 4 == 0 {
                rung[0] = rung[0].max(0.5);
            }
            let rung_cdf: Vec<f64> = rung
                .iter()
                .scan(0.0, |cum, &p| {
                    *cum += p;
                    Some(*cum)
                })
                .collect();
            let full_hi = cond.len() - 1 + (rung_cdf.len() - 1) + i;

            let expected = quantile_by_bisection(&cond, (first, last), &rung_cdf, i, q);
            match expected {
                t if t == i => at_i += 1,
                t if t == full_hi => at_end += 1,
                _ => inside += 1,
            }
            for guess in i.saturating_sub(3)..=full_hi + 3 {
                assert_eq!(
                    quantile_of_sum(&cond, (first, last), &rung_cdf, i, q, guess),
                    expected,
                    "case {case}: i {i}, guess {guess}, q {q}, cond {cond:?}, rung {rung:?}"
                );
            }
        }
        assert!(
            at_i >= 50 && at_end >= 50 && inside >= 50,
            "{at_i} {at_end} {inside}"
        );
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn rejects_invalid_quantile() {
        let c = lognormal_hist(1e6, 0.3, 100, 11);
        let _ = TargetTailTables::build(&c, &zero_hist(), 1.0);
    }
}
