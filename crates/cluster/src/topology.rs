//! Failure topology and stochastic fault generation.
//!
//! A [`FailureTopology`] places a fleet's servers into racks and rows —
//! the blast-radius structure real outages follow: a ToR switch or rack
//! PDU failure takes its whole rack down at once. [`StochasticFaults`]
//! draws whole failure histories from seeded MTBF/MTTR renewal processes,
//! per server and per rack (all members crash together, each recovering
//! with its own deterministic jitter); a scripted rack outage is a
//! [`FaultPlan`] over [`FailureTopology::rack_members`].
//!
//! Everything **compiles down to an ordinary [`FaultPlan`]**: the random
//! draws happen once, at plan-construction time, from
//! [`DeterministicRng`] streams keyed only on the seed and the
//! server/rack index — never on wall-clock, iteration order, or thread
//! count. The same seed therefore produces a byte-identical plan (and the
//! driver replays any plan bit-exactly at any sweep thread count), so a
//! "random" failure scenario is exactly as reproducible as a scripted
//! one, and the existing validation and bit-neutrality contracts of
//! [`FaultPlan`] apply for free.

use rubik_stats::DeterministicRng;

use crate::fault::FaultPlan;

/// Mixes an index into a seed so each server/rack gets an independent,
/// order-free RNG stream (same idiom as the retry jitter).
fn mix(seed: u64, lane: u64, index: usize) -> u64 {
    seed ^ lane ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Physical placement of a fleet: servers grouped into racks, racks into
/// rows. Failure generators use it to scope correlated events.
///
/// ```
/// use rubik_cluster::FailureTopology;
///
/// // 12 servers, 4 per rack, 2 racks per row: racks {0,1,2}, rows {0,1}.
/// let topo = FailureTopology::grid(12, 4, 2);
/// assert_eq!(topo.racks(), 3);
/// assert_eq!(topo.rows(), 2);
/// assert_eq!(topo.rack_of(5), 1);
/// assert_eq!(topo.rack_members(2), &[8, 9, 10, 11]);
/// assert_eq!(topo.row_of_rack(2), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureTopology {
    servers: usize,
    per_rack: usize,
    racks_per_row: usize,
}

impl FailureTopology {
    /// Places `servers` servers into racks of `per_rack` (the last rack may
    /// be partial) and rows of `racks_per_row` racks.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn grid(servers: usize, per_rack: usize, racks_per_row: usize) -> Self {
        assert!(servers > 0, "a topology needs at least one server");
        assert!(per_rack > 0, "racks hold at least one server");
        assert!(racks_per_row > 0, "rows hold at least one rack");
        Self {
            servers,
            per_rack,
            racks_per_row,
        }
    }

    /// Number of servers placed.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Number of racks (the last may be partially filled).
    pub fn racks(&self) -> usize {
        self.servers.div_ceil(self.per_rack)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.racks().div_ceil(self.racks_per_row)
    }

    /// The rack holding `server`.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn rack_of(&self, server: usize) -> usize {
        assert!(server < self.servers, "server {server} not in the topology");
        server / self.per_rack
    }

    /// The row holding `rack`.
    ///
    /// # Panics
    ///
    /// Panics if `rack` is out of range.
    pub fn row_of_rack(&self, rack: usize) -> usize {
        assert!(rack < self.racks(), "rack {rack} not in the topology");
        rack / self.racks_per_row
    }

    /// The servers in `rack`, in index order.
    ///
    /// # Panics
    ///
    /// Panics if `rack` is out of range.
    pub fn rack_members(&self, rack: usize) -> Vec<usize> {
        assert!(rack < self.racks(), "rack {rack} not in the topology");
        let start = rack * self.per_rack;
        let end = (start + self.per_rack).min(self.servers);
        (start..end).collect()
    }
}

/// Draws whole failure histories from seeded MTBF/MTTR renewal processes —
/// per-server independent failures, rack-correlated failures, or both —
/// and compiles them into a validated [`FaultPlan`].
///
/// Per source (each server, each rack) the generator runs a renewal
/// process: exponential time-to-failure with the configured MTBF, then an
/// exponential repair with the configured MTTR, repeating until the
/// horizon. Rack events take every member down together, with per-member
/// recovery jitter. Overlapping downtime from different sources (a rack
/// dies while one member is already down) is merged into a single
/// crash/recover pair per server — the server stays down until the last
/// repair finishes — so the compiled plan always satisfies
/// [`FaultPlan::validate`]'s no-double-crash rule.
///
/// ```
/// use rubik_cluster::{FailureTopology, StochasticFaults};
///
/// let topo = FailureTopology::grid(16, 4, 2);
/// let gen = StochasticFaults::new()
///     .with_server_failures(0.8, 0.05)
///     .with_rack_failures(2.0, 0.1)
///     .with_recovery_jitter(0.02);
/// let plan = gen.compile(&topo, 10.0, 7);
/// assert!(plan.validate(16).is_ok());
/// // Same seed, same bytes; the scenario replays exactly.
/// assert_eq!(plan, gen.compile(&topo, 10.0, 7));
/// assert_ne!(plan, gen.compile(&topo, 10.0, 8));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StochasticFaults {
    /// `(mtbf, mttr)` of the per-server independent failure process.
    server_failures: Option<(f64, f64)>,
    /// `(mtbf, mttr)` of the per-rack correlated failure process.
    rack_failures: Option<(f64, f64)>,
    /// Upper bound on the per-member uniform recovery jitter, seconds.
    recovery_jitter: f64,
}

impl StochasticFaults {
    /// A generator with no failure processes (compiles to an empty,
    /// bit-neutral plan).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an independent per-server failure process: exponential
    /// time-between-failures with mean `mtbf`, exponential repair with
    /// mean `mttr`, both in seconds.
    ///
    /// # Panics
    ///
    /// Panics unless both means are finite and positive.
    pub fn with_server_failures(mut self, mtbf: f64, mttr: f64) -> Self {
        assert!(mtbf.is_finite() && mtbf > 0.0, "mtbf must be positive");
        assert!(mttr.is_finite() && mttr > 0.0, "mttr must be positive");
        self.server_failures = Some((mtbf, mttr));
        self
    }

    /// Adds a correlated per-rack failure process (same renewal shape);
    /// each event crashes the whole rack at once.
    ///
    /// # Panics
    ///
    /// Panics unless both means are finite and positive.
    pub fn with_rack_failures(mut self, mtbf: f64, mttr: f64) -> Self {
        assert!(mtbf.is_finite() && mtbf > 0.0, "mtbf must be positive");
        assert!(mttr.is_finite() && mttr > 0.0, "mttr must be positive");
        self.rack_failures = Some((mtbf, mttr));
        self
    }

    /// Sets the per-member uniform recovery jitter bound for rack events,
    /// in seconds (default 0: the whole rack recovers at one instant).
    ///
    /// # Panics
    ///
    /// Panics unless `jitter` is finite and non-negative.
    pub fn with_recovery_jitter(mut self, jitter: f64) -> Self {
        assert!(
            jitter.is_finite() && jitter >= 0.0,
            "jitter must be finite and non-negative"
        );
        self.recovery_jitter = jitter;
        self
    }

    /// Compiles a failure history over `[0, horizon)` into a validated
    /// [`FaultPlan`]. Failures drawn at or beyond the horizon are
    /// discarded (a repair may finish past it — downtime then runs to the
    /// end of the run). Deterministic in `(self, topology, horizon,
    /// seed)`: same inputs, byte-identical plan.
    ///
    /// # Panics
    ///
    /// Panics unless `horizon` is finite and positive.
    pub fn compile(&self, topology: &FailureTopology, horizon: f64, seed: u64) -> FaultPlan {
        assert!(
            horizon.is_finite() && horizon > 0.0,
            "horizon must be finite and positive"
        );
        let n = topology.servers();
        // Candidate downtime intervals per server, from every source.
        let mut intervals: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
        if let Some((mtbf, mttr)) = self.server_failures {
            for (server, windows) in intervals.iter_mut().enumerate() {
                let mut rng = DeterministicRng::new(mix(seed, 0x5EFE_1234_0000_0001, server));
                let mut t = rng.exponential(mtbf);
                while t < horizon {
                    let repair = rng.exponential(mttr);
                    windows.push((t, t + repair));
                    t += repair + rng.exponential(mtbf);
                }
            }
        }
        if let Some((mtbf, mttr)) = self.rack_failures {
            for rack in 0..topology.racks() {
                let mut rng = DeterministicRng::new(mix(seed, 0x5EFE_1234_0000_0002, rack));
                let mut t = rng.exponential(mtbf);
                while t < horizon {
                    let repair = rng.exponential(mttr);
                    for member in topology.rack_members(rack) {
                        let mut jrng = DeterministicRng::new(mix(seed, t.to_bits(), member));
                        let end = t + repair + self.recovery_jitter * jrng.uniform();
                        intervals[member].push((t, end));
                    }
                    t += repair + rng.exponential(mtbf);
                }
            }
        }
        // Merge each server's overlapping intervals into disjoint
        // crash/recover pairs, then emit fleet-wide in (time, server)
        // order so the plan reads chronologically.
        let mut merged: Vec<(f64, usize, f64)> = Vec::new();
        for (server, windows) in intervals.iter_mut().enumerate() {
            windows.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
            let mut open: Option<(f64, f64)> = None;
            for &(start, end) in windows.iter() {
                match open {
                    Some((s, e)) if start <= e => open = Some((s, e.max(end))),
                    Some((s, e)) => {
                        merged.push((s, server, e));
                        open = Some((start, end));
                    }
                    None => open = Some((start, end)),
                }
            }
            if let Some((s, e)) = open {
                merged.push((s, server, e));
            }
        }
        merged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut plan = FaultPlan::new();
        for (start, server, end) in merged {
            plan = plan.crash(server, start).recover(server, end);
        }
        debug_assert!(plan.validate(n).is_ok(), "compiled plan must validate");
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;

    #[test]
    fn grid_topology_places_servers_in_racks_and_rows() {
        let topo = FailureTopology::grid(10, 4, 2);
        assert_eq!(topo.servers(), 10);
        assert_eq!(topo.racks(), 3, "last rack partial");
        assert_eq!(topo.rows(), 2);
        assert_eq!(topo.rack_of(0), 0);
        assert_eq!(topo.rack_of(9), 2);
        assert_eq!(topo.rack_members(2), vec![8, 9]);
        assert_eq!(topo.row_of_rack(0), 0);
        assert_eq!(topo.row_of_rack(2), 1);
    }

    #[test]
    #[should_panic(expected = "not in the topology")]
    fn out_of_range_server_is_rejected() {
        FailureTopology::grid(4, 2, 1).rack_of(4);
    }

    #[test]
    fn stochastic_compile_is_seed_deterministic_and_valid() {
        let topo = FailureTopology::grid(16, 4, 2);
        let gen = StochasticFaults::new()
            .with_server_failures(0.5, 0.05)
            .with_rack_failures(1.0, 0.08)
            .with_recovery_jitter(0.02);
        let a = gen.compile(&topo, 20.0, 99);
        let b = gen.compile(&topo, 20.0, 99);
        assert_eq!(a, b, "same seed, same bytes");
        assert_ne!(a, gen.compile(&topo, 20.0, 100));
        assert!(a.validate(16).is_ok());
        assert!(!a.is_empty(), "20 s at these rates must draw failures");
        for e in a.events() {
            if let FaultEvent::Crash { at, .. } = *e {
                assert!(at < 20.0, "crash {at} beyond the horizon");
            }
        }
    }

    #[test]
    fn overlapping_sources_merge_into_single_downtime_windows() {
        // Aggressive rates force rack and server downtime to overlap; the
        // merge must still satisfy validate's no-double-crash rule (also
        // exercised by the debug_assert inside compile).
        let topo = FailureTopology::grid(8, 4, 1);
        let gen = StochasticFaults::new()
            .with_server_failures(0.05, 0.1)
            .with_rack_failures(0.05, 0.1)
            .with_recovery_jitter(0.05);
        for seed in 0..20 {
            let plan = gen.compile(&topo, 5.0, seed);
            assert!(plan.validate(8).is_ok(), "seed {seed}");
            assert!(!plan.is_empty());
        }
    }

    #[test]
    fn no_processes_compile_to_the_empty_bit_neutral_plan() {
        let topo = FailureTopology::grid(4, 2, 1);
        let plan = StochasticFaults::new().compile(&topo, 1.0, 3);
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::new());
    }
}
