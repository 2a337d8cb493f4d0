//! Spectral-vs-direct equivalence: the FFT-ladder table builder
//! (`TargetTailTables::build_with`) must reproduce the reference per-row
//! convolution builder (`TargetTailTables::build_direct_with`) within 1e-9
//! across workload shapes — lognormal, bimodal, heavy-tailed, and the
//! degenerate all-zero memory distribution — and across table shapes on both
//! sides of the FFT crossover.
//!
//! Quantiles are bucket-quantized, so "within 1e-9" effectively means the
//! two builders pick the same bucket everywhere; the relative tolerance only
//! absorbs float noise in the shared bucket-value arithmetic.
//!
//! The next tests pin the shared build engine as exact: a persistent
//! builder (buffers and last-build memo) matches fresh builds `==`, and
//! controllers seeded on different threads run bit-identically.
//!
//! The last ones pin on-demand rungs: tables set up to depth 1 and extended
//! in any split — one rung at a time, in two jumps, at once, through one
//! builder or several — equal a full build at every position they can
//! read; a builder's per-kind ladder serves only the table it was built
//! for (and its clones), whichever tables and controllers interleave on it;
//! a shallower memo never serves a deeper request; a read past the built
//! depth panics; and `==` is defined over what decisions can read.

use rubik_core::tables::DEFAULT_GAUSSIAN_CUTOFF;
use rubik_core::{RubikConfig, RubikController, TableBuilder, TargetTailTables};
use rubik_sim::{
    DvfsConfig, DvfsPolicy, InServiceView, QueuedView, RequestRecord, Server, ServerState,
    SimConfig,
};
use rubik_stats::{DeterministicRng, Histogram};
use rubik_workloads::{AppProfile, WorkloadGenerator};

const REL_TOL: f64 = 1e-9;

fn assert_tables_equivalent(
    label: &str,
    a: &TargetTailTables,
    b: &TargetTailTables,
    probes: &[f64],
) {
    assert_eq!(a.quantile(), b.quantile());
    assert_eq!(a.gaussian_cutoff(), b.gaussian_cutoff());
    // Probe every (elapsed band, position) cell, explicit and Gaussian.
    for &elapsed_frac in probes {
        for pos in 0..a.gaussian_cutoff() + 8 {
            let (sc, sm) = a.tails(elapsed_frac, elapsed_frac * 1e-10, pos);
            let (dc, dm) = b.tails(elapsed_frac, elapsed_frac * 1e-10, pos);
            assert!(
                (sc - dc).abs() <= REL_TOL * dc.abs().max(1.0),
                "{label}: compute tail mismatch at elapsed {elapsed_frac}, pos {pos}: \
                 spectral {sc} vs direct {dc}"
            );
            assert!(
                (sm - dm).abs() <= REL_TOL * dm.abs().max(1.0),
                "{label}: memory tail mismatch at elapsed {elapsed_frac}, pos {pos}: \
                 spectral {sm} vs direct {dm}"
            );
        }
    }
}

fn probes_for(hist: &Histogram) -> Vec<f64> {
    // Elapsed-work probes spanning all progress bands plus beyond-support.
    (0..=10)
        .map(|i| hist.quantile((i as f64 / 10.0).min(0.999)) * 1.01)
        .chain([0.0, hist.quantile(0.999) * 3.0])
        .collect()
}

fn lognormal_hist(rng: &mut DeterministicRng, mean: f64, cov: f64, n: usize) -> Histogram {
    let samples: Vec<f64> = (0..n).map(|_| rng.lognormal(mean, cov)).collect();
    Histogram::from_samples(&samples, 128)
}

fn zero_hist() -> Histogram {
    Histogram::from_samples(&[0.0, 0.0, 0.0], 4)
}

#[test]
fn lognormal_profiles_match() {
    let mut rng = DeterministicRng::new(0xE1);
    for (mean, cov) in [(1e6, 0.1), (1e6, 0.3), (5e5, 0.8), (2e6, 1.5)] {
        let c = lognormal_hist(&mut rng, mean, cov, 4000);
        let m = lognormal_hist(&mut rng, 80e-6, cov, 4000);
        let spectral = TargetTailTables::build(&c, &m, 0.95);
        let direct = TargetTailTables::build_direct(&c, &m, 0.95);
        assert_tables_equivalent(
            &format!("lognormal mean {mean} cov {cov}"),
            &spectral,
            &direct,
            &probes_for(&c),
        );
    }
}

#[test]
fn bimodal_profiles_match() {
    // Sharply bimodal work (the Adrenaline scenario): mass concentrated in
    // two spikes stresses CDF-crossing alignment between the builders.
    let mut rng = DeterministicRng::new(0xE2);
    let samples: Vec<f64> = (0..4000)
        .map(|_| {
            if rng.bernoulli(0.2) {
                rng.lognormal(5e6, 0.05)
            } else {
                rng.lognormal(4e5, 0.05)
            }
        })
        .collect();
    let c = Histogram::from_samples(&samples, 128);
    let spectral = TargetTailTables::build(&c, &zero_hist(), 0.95);
    let direct = TargetTailTables::build_direct(&c, &zero_hist(), 0.95);
    assert_tables_equivalent("bimodal", &spectral, &direct, &probes_for(&c));
}

#[test]
fn degenerate_all_zero_memory_matches() {
    // The all-zero memory histogram takes the zero-table path in both
    // builders; the compute side still exercises the full ladder.
    let mut rng = DeterministicRng::new(0xE3);
    let c = lognormal_hist(&mut rng, 1e6, 0.4, 3000);
    let spectral = TargetTailTables::build(&c, &zero_hist(), 0.95);
    let direct = TargetTailTables::build_direct(&c, &zero_hist(), 0.95);
    for pos in 0..32 {
        assert_eq!(spectral.tail_membound_time(0.0, pos), 0.0);
        assert_eq!(direct.tail_membound_time(0.0, pos), 0.0);
    }
    assert_tables_equivalent("zero-memory", &spectral, &direct, &probes_for(&c));
}

#[test]
fn constant_service_demand_matches() {
    // A single-spike histogram: the ladder degenerates to shifted deltas.
    let c = Histogram::from_samples(&vec![7.5e5; 100], 128);
    let spectral = TargetTailTables::build(&c, &zero_hist(), 0.95);
    let direct = TargetTailTables::build_direct(&c, &zero_hist(), 0.95);
    assert_tables_equivalent("constant", &spectral, &direct, &probes_for(&c));
}

#[test]
fn table_shapes_match_across_the_fft_crossover() {
    // Small shapes keep every per-row convolution under FFT_CROSSOVER (the
    // direct builder takes its O(n·m) path); large cutoffs push it far over
    // (FFT path). The spectral builder must agree with both.
    let mut rng = DeterministicRng::new(0xE4);
    let c = lognormal_hist(&mut rng, 1e6, 0.5, 4000);
    let m = lognormal_hist(&mut rng, 60e-6, 0.5, 4000);
    for (rows, cutoff) in [(1, 2), (2, 4), (4, 8), (8, 16), (3, 33), (8, 64)] {
        let spectral = TargetTailTables::build_with(&c, &m, 0.95, rows, cutoff);
        let direct = TargetTailTables::build_direct_with(&c, &m, 0.95, rows, cutoff);
        assert_tables_equivalent(
            &format!("shape {rows}x{cutoff}"),
            &spectral,
            &direct,
            &probes_for(&c),
        );
    }
}

#[test]
fn quantile_sweep_matches() {
    let mut rng = DeterministicRng::new(0xE5);
    let c = lognormal_hist(&mut rng, 1e6, 0.6, 3000);
    for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
        let spectral = TargetTailTables::build(&c, &zero_hist(), q);
        let direct = TargetTailTables::build_direct(&c, &zero_hist(), q);
        assert_tables_equivalent(&format!("q={q}"), &spectral, &direct, &probes_for(&c));
    }
}

/// Histogram `h` with its bucket width one ULP up and the same PMF bits.
/// `h` must come from a power-of-two sample count, so its PMF is dyadic and
/// sums to exactly 1 and `from_pmf`'s normalization leaves every entry as is.
fn width_one_ulp_up(h: &Histogram) -> Histogram {
    let out = Histogram::from_pmf(h.pmf().to_vec(), h.bucket_width().next_up());
    assert_eq!(pmf_bits_differ(h, &out), 0, "PMF must be unchanged");
    out
}

/// Histogram `h` with one PMF entry (its last non-zero bucket) one ULP up
/// and every other entry and the bucket width unchanged. Same precondition
/// as [`width_one_ulp_up`]: the extra ULP rounds away in `from_pmf`'s
/// normalizing total, which stays exactly 1, so no other entry moves.
fn one_pmf_entry_perturbed(h: &Histogram) -> Histogram {
    let mut pmf = h.pmf().to_vec();
    let last = pmf.iter().rposition(|&p| p > 0.0).expect("has mass");
    pmf[last] = pmf[last].next_up();
    let out = Histogram::from_pmf(pmf, h.bucket_width());
    assert_eq!(pmf_bits_differ(h, &out), 1, "exactly one PMF entry differs");
    out
}

fn pmf_bits_differ(a: &Histogram, b: &Histogram) -> usize {
    assert_eq!(a.len(), b.len());
    a.pmf()
        .iter()
        .zip(b.pmf())
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count()
}

/// A persistent [`TableBuilder`] reused across many different profiles —
/// warm rebuilds into the same targets, shifting histogram shapes, shrinking
/// and growing supports, even changing table shapes — must produce tables
/// `==` (exact `PartialEq`, i.e. every stored f64 equal) to a throwaway
/// builder's fresh output each time. This pins the warm-path contract: the
/// controller's in-place rebuilds are indistinguishable from cold builds.
///
/// The sequence repeats inputs (A, A, B, A) so the builder's last-build memo
/// serves some requests as copies, and follows identical inputs with
/// near-misses the memo must not serve: a bucket width one ULP up, one PMF
/// entry one ULP up (compute and memory each), another quantile, and another
/// table shape. Two targets alternate, so every memo copy lands on a target
/// holding other tables, often of another shape.
#[test]
fn persistent_builder_warm_rebuilds_match_fresh_builds_exactly() {
    let mut rng = DeterministicRng::new(0xE6);
    let mut builder = TableBuilder::new();

    // Start both targets from arbitrary profiles; every later step rebuilds
    // one of them in place.
    let c0 = lognormal_hist(&mut rng, 1e6, 0.3, 2000);
    let m0 = lognormal_hist(&mut rng, 80e-6, 0.3, 2000);
    let mut targets = [
        builder.build_with(&c0, &m0, 0.95, 8, 16),
        builder.build_with(&m0, &c0, 0.9, 4, 8),
    ];

    type Profile = (Histogram, Histogram, f64, usize, usize);
    let profiles: Vec<Profile> = vec![
        // Same shape, new data.
        (
            lognormal_hist(&mut rng, 2e6, 0.8, 3000),
            lognormal_hist(&mut rng, 40e-6, 0.8, 3000),
            0.95,
            8,
            16,
        ),
        // Tighter distribution (smaller trimmed support), other quantile.
        (
            lognormal_hist(&mut rng, 5e5, 0.1, 1000),
            lognormal_hist(&mut rng, 10e-6, 0.1, 1000),
            0.99,
            8,
            16,
        ),
        // Zero memory path + different table shape.
        (
            lognormal_hist(&mut rng, 1e6, 1.2, 4000),
            zero_hist(),
            0.9,
            4,
            8,
        ),
        // Larger shape again (row storage must regrow cleanly).
        (
            lognormal_hist(&mut rng, 3e6, 0.5, 2000),
            lognormal_hist(&mut rng, 120e-6, 0.5, 2000),
            0.95,
            8,
            32,
        ),
    ];

    // A is a dyadic profile (1024 samples), so its near-misses perturb
    // exactly one input field; B is another profile of the same shape.
    let a: Profile = (
        lognormal_hist(&mut rng, 1e6, 0.4, 1024),
        lognormal_hist(&mut rng, 60e-6, 0.4, 1024),
        0.95,
        8,
        16,
    );
    let b = profiles[0].clone();
    let (ac, am) = (&a.0, &a.1);
    let near_misses: Vec<(&str, Profile)> = vec![
        (
            "compute width +1 ulp",
            (width_one_ulp_up(ac), am.clone(), 0.95, 8, 16),
        ),
        (
            "memory width +1 ulp",
            (ac.clone(), width_one_ulp_up(am), 0.95, 8, 16),
        ),
        (
            "compute PMF entry +1 ulp",
            (one_pmf_entry_perturbed(ac), am.clone(), 0.95, 8, 16),
        ),
        (
            "memory PMF entry +1 ulp",
            (ac.clone(), one_pmf_entry_perturbed(am), 0.95, 8, 16),
        ),
        (
            "quantile +1 ulp",
            (ac.clone(), am.clone(), 0.95f64.next_up(), 8, 16),
        ),
        ("other quantile", (ac.clone(), am.clone(), 0.99, 8, 16)),
        ("other row count", (ac.clone(), am.clone(), 0.95, 7, 16)),
        ("other cutoff", (ac.clone(), am.clone(), 0.95, 8, 17)),
    ];

    let mut sequence: Vec<(String, &Profile)> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| (format!("profile {i}"), p))
        .collect();
    for (label, p) in [("A", &a), ("A again", &a), ("B", &b), ("A after B", &a)] {
        sequence.push((label.to_string(), p));
    }
    for (label, p) in &near_misses {
        sequence.push(("A".to_string(), &a));
        sequence.push((format!("A, {label}"), p));
    }
    sequence.push(("A".to_string(), &a));

    for (step, (label, (c, m, q, rows, cutoff))) in sequence.into_iter().enumerate() {
        let target = &mut targets[step % 2];
        builder.build_with_into(c, m, *q, *rows, *cutoff, target);
        let fresh = TargetTailTables::build_with(c, m, *q, *rows, *cutoff);
        assert_eq!(
            *target, fresh,
            "warm rebuild diverged at step {step} ({label})"
        );
    }
}

/// The per-thread build workspace is invisible in results. Controllers
/// seeded from the same demands — two on the main thread (the second served
/// by the thread's last-build memo), a clone, and one on each of two scoped
/// threads (fresh workspaces) — hold the same tables and run a trace to the
/// same `RunResult`, bit for bit (`{:?}` prints every f64 exactly).
#[test]
fn controllers_seeded_on_different_threads_match_bit_for_bit() {
    let profile = AppProfile::masstree();
    let sim_config = SimConfig::default();
    let trace = WorkloadGenerator::new(profile.clone(), 11).steady_trace(0.5, 3000);
    let config = RubikConfig::new(3.0 * profile.mean_service_time()).with_profiling_window(1024);
    let seeded = || RubikController::seeded_for_trace(config, sim_config.dvfs.clone(), &trace, 256);
    let run = |mut rubik: RubikController| {
        let tables = format!(
            "{:?}",
            rubik.tables().expect("seeded controllers have tables")
        );
        let result = Server::new(sim_config.clone()).run(&trace, &mut rubik);
        assert!(
            rubik.stats().table_rebuilds_performed > 2,
            "the run must rebuild on its own thread's workspace"
        );
        (tables, format!("{result:?}"))
    };

    let (first, second) = (seeded(), seeded());
    let copy = second.clone();
    let reference = run(first);
    let mut others = vec![run(second), run(copy)];
    others.extend(std::thread::scope(|s| {
        let handles: Vec<_> = (0..2).map(|_| s.spawn(|| run(seeded()))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread panicked"))
            .collect::<Vec<_>>()
    }));
    for (i, other) in others.iter().enumerate() {
        assert!(
            other.0 == reference.0,
            "controller {i}: seeded tables differ"
        );
        assert!(other.1 == reference.1, "controller {i}: run results differ");
    }
}

/// The shapes the extension tests cover, with their compute and memory
/// histograms: the paper's (8, 16), a (4, 8) table with a zero memory
/// table, and a deep (8, 32) ladder that reaches 2048-point transforms.
fn extension_cases() -> Vec<(String, Histogram, Histogram, usize, usize)> {
    let mut rng = DeterministicRng::new(0xE7);
    vec![
        (
            "8x16".to_string(),
            lognormal_hist(&mut rng, 1e6, 0.5, 4000),
            lognormal_hist(&mut rng, 60e-6, 0.5, 4000),
            8,
            16,
        ),
        (
            "4x8, zero memory".to_string(),
            lognormal_hist(&mut rng, 7e5, 0.9, 3000),
            zero_hist(),
            4,
            8,
        ),
        (
            "8x32".to_string(),
            lognormal_hist(&mut rng, 2e6, 0.3, 2000),
            lognormal_hist(&mut rng, 90e-6, 0.3, 2000),
            8,
            32,
        ),
    ]
}

/// Tables for `(c, m)` rebuilt in place to depth 1 through `builder`.
fn set_up(
    builder: &mut TableBuilder,
    c: &Histogram,
    m: &Histogram,
    rows: usize,
    cutoff: usize,
) -> TargetTailTables {
    // Start from unrelated tables: the set-up must overwrite all of them.
    let mut tables = TargetTailTables::build_with(m, c, 0.9, rows + 1, cutoff + 3);
    builder.set_up_into(c, m, 0.95, rows, cutoff, &mut tables);
    assert_eq!(tables.depth(), 1);
    tables
}

/// `tables` equals the full build `eager` under `==`, and every position
/// `tables` can read — the ones it has built and the Gaussian ones —
/// returns the same bits as `eager` at every progress band.
fn assert_readable_positions_match(
    label: &str,
    tables: &TargetTailTables,
    eager: &TargetTailTables,
    probes: &[f64],
) {
    assert!(
        tables == eager,
        "{label}: tables differ from the full build"
    );
    let cutoff = eager.gaussian_cutoff();
    let readable = (0..tables.depth()).chain(cutoff..cutoff + 4);
    for pos in readable {
        for &elapsed in probes {
            let em = elapsed * 1e-10;
            assert_eq!(
                tables.tails_at(elapsed, em).tails(pos),
                eager.tails_at(elapsed, em).tails(pos),
                "{label}: position {pos} at elapsed {elapsed}"
            );
        }
    }
}

#[test]
fn extensions_in_any_split_match_full_builds_exactly() {
    for (label, c, m, rows, cutoff) in extension_cases() {
        let eager = TargetTailTables::build_with(&c, &m, 0.95, rows, cutoff);
        assert_eq!(eager.depth(), cutoff, "{label}: build_with is full");
        let probes = probes_for(&c);
        let mut builder = TableBuilder::new();
        let mut other = TableBuilder::new();

        // One rung at a time, alternating builders: the state an extension
        // needs lives in the tables; a builder's ladder only saves work.
        let mut tables = set_up(&mut builder, &c, &m, rows, cutoff);
        assert_readable_positions_match(&label, &tables, &eager, &probes);
        for depth in 2..=cutoff {
            let b = if depth % 2 == 0 {
                &mut other
            } else {
                &mut builder
            };
            b.extend(&mut tables, depth);
            assert_eq!(tables.depth(), depth, "{label}");
            assert_readable_positions_match(
                &format!("{label}, one rung at a time, depth {depth}"),
                &tables,
                &eager,
                &probes,
            );
        }

        // Two jumps, 3 then 9 (capped at the cutoff), then the rest.
        let mut tables = set_up(&mut builder, &c, &m, rows, cutoff);
        for depth in [3, 9, cutoff] {
            builder.extend(&mut tables, depth);
            assert_eq!(tables.depth(), depth.min(cutoff), "{label}");
            assert_readable_positions_match(
                &format!("{label}, jump to depth {depth}"),
                &tables,
                &eager,
                &probes,
            );
        }

        // At once, past the cutoff; a repeat is a no-op.
        let mut tables = set_up(&mut builder, &c, &m, rows, cutoff);
        for _ in 0..2 {
            builder.extend(&mut tables, cutoff + 5);
            assert_eq!(tables.depth(), cutoff, "{label}");
            assert_readable_positions_match(
                &format!("{label}, 1 to the cutoff"),
                &tables,
                &eager,
                &probes,
            );
        }
        assert_eq!(format!("{tables:?}"), format!("{eager:?}"), "{label}");
    }
}

/// Two profiles whose trimmed compute bases have the same length, and
/// whose trimmed memory bases do too: a ladder check that compared lengths
/// alone could not tell their tables apart.
fn same_length_profiles() -> [(Histogram, Histogram); 2] {
    let mut rng = DeterministicRng::new(0xE9);
    let profiles = [(1e6, 0.4), (8e5, 0.7)].map(|(mean, cov)| {
        (
            lognormal_hist(&mut rng, mean, cov, 4000),
            lognormal_hist(&mut rng, mean * 7e-11, cov, 4000),
        )
    });
    let trimmed_len = |h: &Histogram| h.trim_tail(1e-9).len();
    let [(c0, m0), (c1, m1)] = &profiles;
    assert_eq!(trimmed_len(c0), trimmed_len(c1));
    assert_eq!(trimmed_len(m0), trimmed_len(m1));
    profiles
}

/// One builder extends tables of two profiles alternately, one rung at a
/// time, so each extension finds the other table's ladder and must rebuild
/// it; then it extends a clone deeper than its original, so the original's
/// next rung finds a running product past its power at the same transform
/// size and must start it over. Every readable position matches the full
/// build bit for bit.
#[test]
fn one_builder_extends_interleaved_tables_and_clones_exactly() {
    let (rows, cutoff) = (8, 16);
    let profiles = same_length_profiles();
    let eager = profiles
        .each_ref()
        .map(|(c, m)| TargetTailTables::build_with(c, m, 0.95, rows, cutoff));
    let probes = probes_for(&profiles[0].0);
    let mut builder = TableBuilder::new();

    let mut tables = profiles
        .each_ref()
        .map(|(c, m)| set_up(&mut builder, c, m, rows, cutoff));
    for depth in 2..=cutoff {
        for (k, t) in tables.iter_mut().enumerate() {
            builder.extend(t, depth);
            assert_eq!(t.depth(), depth);
            assert_readable_positions_match(
                &format!("profile {k}, interleaved, depth {depth}"),
                t,
                &eager[k],
                &probes,
            );
        }
    }

    // Rungs 6 to 8 transform at one size: the clone leaves the product at
    // power 8 where the original's rung 6 needs power 6.
    let (c, m) = &profiles[0];
    let len = c.trim_tail(1e-9).len();
    let size = |i: usize| (i * (len - 1) + 1).next_power_of_two();
    assert_eq!(size(6), size(8));
    let mut original = set_up(&mut builder, c, m, rows, cutoff);
    builder.extend(&mut original, 6);
    let mut clone = original.clone();
    builder.extend(&mut clone, 9);
    assert_readable_positions_match("clone at depth 9", &clone, &eager[0], &probes);
    for depth in 7..=cutoff {
        builder.extend(&mut original, depth);
        assert_readable_positions_match(
            &format!("original after its clone, depth {depth}"),
            &original,
            &eager[0],
            &probes,
        );
    }
    builder.extend(&mut clone, cutoff);
    assert_eq!(format!("{clone:?}"), format!("{:?}", eager[0]));
    assert_eq!(format!("{original:?}"), format!("{:?}", eager[0]));
}

/// A busy server at `now` whose in-service request has done `elapsed` of
/// its compute work, with `queued` requests behind it.
fn busy(dvfs: &DvfsConfig, now: f64, elapsed: f64, queued: usize) -> ServerState {
    ServerState {
        now,
        current_freq: dvfs.min(),
        target_freq: dvfs.min(),
        in_service: Some(InServiceView {
            id: 0,
            arrival: now - 2e-4,
            elapsed_compute_cycles: elapsed,
            elapsed_membound_time: elapsed * 6e-11,
            oracle_compute_cycles: 1e6,
            oracle_membound_time: 60e-6,
            class: 0,
        }),
        queued: (1..=queued as u64)
            .map(|id| QueuedView {
                id,
                arrival: now - 1e-4,
                oracle_compute_cycles: 1e6,
                oracle_membound_time: 60e-6,
                class: 0,
            })
            .collect(),
    }
}

/// Every decision and the tables after it, as exact text (`{:?}` prints
/// every f64 exactly), from the same script of completions, ticks and
/// arrivals run on three controllers of different profiles. With `interleaved`, all three
/// run on the calling thread and take turns at every step; otherwise each
/// runs alone on a fresh thread (a fresh build workspace).
fn run_three_controllers(interleaved: bool) -> Vec<Vec<String>> {
    const CYCLES: usize = 6;
    const STEPS: usize = 19;
    let dvfs = DvfsConfig::haswell_like();
    let config = RubikConfig::new(2e-3).with_profiling_window(256);
    let cutoff = DEFAULT_GAUSSIAN_CUTOFF;
    assert!(STEPS > cutoff + 1, "the queue must grow past the cutoff");
    let pools: Vec<Vec<(f64, f64)>> = [(1e6, 0.3), (7e5, 0.6), (1.4e6, 0.9)]
        .iter()
        .enumerate()
        .map(|(k, &(mean, cov))| {
            let mut rng = DeterministicRng::new(0xEA + k as u64);
            (0..300)
                .map(|_| (rng.lognormal(mean, cov), rng.lognormal(mean * 6e-11, cov)))
                .collect()
        })
        .collect();
    let new_controller = |k: usize| {
        let mut rubik = RubikController::new(config, dvfs.clone());
        rubik.seed_profile(pools[k][..256].iter().copied());
        rubik
    };
    // Step 0 of a cycle completes a request (a new profile sample) and
    // ticks with an empty queue, setting the tables up at depth 1; step
    // `s > 0` is an arrival that leaves `s` requests queued, so each
    // decision reads one position more than the last.
    let step = |rubik: &mut RubikController, k: usize, cycle: usize, s: usize| {
        let now = 0.2 + (cycle * STEPS + s) as f64 * 1e-3;
        let elapsed = 1e5 * ((k + 3 * s + cycle) % 17) as f64;
        let mut out = Vec::new();
        if s == 0 {
            let state = busy(&dvfs, now, elapsed, 0);
            let (c, m) = pools[k][256 + cycle];
            let record = RequestRecord {
                id: cycle as u64,
                arrival: now - 5e-4,
                start: now - 4e-4,
                completion: now,
                compute_cycles: c,
                membound_time: m,
                queue_len_at_arrival: 0,
                class: 0,
            };
            out.push(format!("{:?}", rubik.on_completion(&state, &record)));
            out.push(format!("{:?}", rubik.on_tick(&state)));
        } else {
            out.push(format!(
                "{:?}",
                rubik.on_arrival(&busy(&dvfs, now, elapsed, s))
            ));
        }
        let tables = rubik.tables().expect("seeded");
        assert_eq!(tables.depth(), (s + 1).min(cutoff));
        out.push(format!("{tables:?}"));
        out
    };
    if interleaved {
        let mut rubiks: Vec<RubikController> = (0..3).map(new_controller).collect();
        let mut logs = vec![Vec::new(); 3];
        for cycle in 0..CYCLES {
            for s in 0..STEPS {
                for (k, rubik) in rubiks.iter_mut().enumerate() {
                    logs[k].extend(step(rubik, k, cycle, s));
                }
            }
        }
        logs
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|k| {
                    scope.spawn(move || {
                        let mut rubik = new_controller(k);
                        let mut log = Vec::new();
                        for cycle in 0..CYCLES {
                            for s in 0..STEPS {
                                log.extend(step(&mut rubik, k, cycle, s));
                            }
                        }
                        log
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("controller thread panicked"))
                .collect()
        })
    }
}

/// Three controllers of different profiles take turns on one thread, so
/// every extension finds another controller's ladder in the thread's
/// builder, while their queues grow by one position per decision between
/// ticks. Each decision and each `tables()` matches, bit for bit, the same
/// controller run alone on a fresh thread, where every extension continues
/// its own ladder.
#[test]
fn controllers_interleaved_on_one_thread_match_each_run_alone() {
    let alone = run_three_controllers(false);
    let interleaved = run_three_controllers(true);
    for (k, (a, b)) in alone.iter().zip(&interleaved).enumerate() {
        assert_eq!(a.len(), b.len());
        for (n, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(x == y, "controller {k}, record {n}: {x}\nvs\n{y}");
        }
    }
}

/// The memo serves a request only from tables at least as deep as it asks
/// for: a set-up build of the same inputs must not stand in for a full one,
/// while a full build may serve a later set-up.
#[test]
fn a_shallower_memo_never_serves_a_deeper_request() {
    for (label, c, m, rows, cutoff) in extension_cases() {
        let eager = TargetTailTables::build_with(&c, &m, 0.95, rows, cutoff);
        let mut builder = TableBuilder::new();
        let mut tables = set_up(&mut builder, &c, &m, rows, cutoff);
        assert_eq!(tables.depth(), 1, "{label}");

        builder.build_with_into(&c, &m, 0.95, rows, cutoff, &mut tables);
        assert_eq!(tables.depth(), cutoff, "{label}: a full request");
        assert_eq!(format!("{tables:?}"), format!("{eager:?}"), "{label}");

        // The memo now holds the full build and serves the set-up from it.
        builder.set_up_into(&c, &m, 0.95, rows, cutoff, &mut tables);
        assert_eq!(tables.depth(), cutoff, "{label}: served from the memo");
        assert_eq!(format!("{tables:?}"), format!("{eager:?}"), "{label}");
    }
}

#[test]
#[should_panic(expected = "past the built depth 3")]
fn reading_below_the_cutoff_past_the_built_depth_panics() {
    let (_, c, m, rows, cutoff) = extension_cases().swap_remove(0);
    let mut builder = TableBuilder::new();
    let mut tables = set_up(&mut builder, &c, &m, rows, cutoff);
    builder.extend(&mut tables, 3);
    let cursor = tables.tails_at(0.0, 0.0);
    // Built positions and Gaussian ones read fine ...
    let _ = (cursor.tails(2), cursor.tails(cutoff));
    // ... the first unbuilt explicit one does not.
    let _ = cursor.tails(3);
}

/// `==` compares what decisions can read: the row setup, the positions both
/// sides have built, and — when both are short — the base PMF their unbuilt
/// positions derive from. A full table keeps no base, and a zero memory
/// table is full.
#[test]
fn equality_compares_the_built_prefix_and_the_base_of_short_tables() {
    let mut rng = DeterministicRng::new(0xE8);
    let (rows, cutoff) = (8, 16);
    let c = lognormal_hist(&mut rng, 1e6, 0.4, 1024);
    let m = lognormal_hist(&mut rng, 50e-6, 0.4, 1024);
    let eager = TargetTailTables::build_with(&c, &m, 0.95, rows, cutoff);
    let mut builder = TableBuilder::new();

    let short = set_up(&mut builder, &c, &m, rows, cutoff);
    assert!(short == eager, "short vs full");
    assert!(eager == short, "full vs short");
    let mut deeper = short.clone();
    builder.extend(&mut deeper, 5);
    assert!(short == deeper, "depth 1 vs depth 5");
    assert!(deeper == short, "depth 5 vs depth 1");

    // A zero memory table is full: short compute tables still compare
    // through their base.
    let zero_short = set_up(&mut TableBuilder::new(), &c, &zero_hist(), rows, cutoff);
    let zero_eager = TargetTailTables::build_with(&c, &zero_hist(), 0.95, rows, cutoff);
    assert!(zero_short == zero_eager, "zero memory, short vs full");
    assert!(zero_short != short, "memory table differs");

    // Short tables of other inputs differ: the last compute bucket one ULP
    // up.
    let mut pmf = c.pmf().to_vec();
    let last = pmf.iter().rposition(|&p| p > 0.0).expect("has mass");
    pmf[last] = pmf[last].next_up();
    let nudged = Histogram::from_pmf(pmf, c.bucket_width());
    let nudged_short = set_up(&mut TableBuilder::new(), &nudged, &m, rows, cutoff);
    assert!(nudged_short != short, "other base");
}
