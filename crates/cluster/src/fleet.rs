//! Fleet-level power management: heterogeneous fleet specs and global power
//! capping.
//!
//! Rubik's analytical controller manages one core against one latency bound;
//! a datacenter operator manages a *fleet* against a power budget. This
//! module composes the two: a [`FleetController`] runs on a coarse epoch
//! (1 s by default, the cadence of Pegasus-style cluster controllers) inside
//! the [`Cluster`](crate::Cluster) event loop, observes each server's
//! occupancy, operating point, and measured epoch power, and issues
//! [`FleetCommand`]s — per-server frequency ceilings (enforced by
//! [`rubik_sim::ServerSim::retarget`]) and latency-bound rescales (applied
//! through [`rubik_sim::DvfsPolicy::set_latency_bound`]).
//!
//! [`PegasusFleet`] is the first implementation: FastCap-style **weighted
//! budget apportioning** (each server's share of the global budget is
//! proportional to its capacity weight) with **waterfilling** — slack
//! reclaimed from idle servers and left over from level rounding is poured
//! into the most backlogged servers, one DVFS step at a time. Because the
//! cap is enforced *analytically* (the worst-case active power at the issued
//! ceilings never exceeds the budget, not merely the measured power of the
//! last epoch), a load spike between epochs cannot break the budget: the
//! fleet saturates at its ceilings instead.
//!
//! [`FleetSpec`] describes heterogeneous fleets — named core classes
//! (big/little), each with its own [`SimConfig`] and a capacity weight used
//! by both the capacity-aware router and the budget apportioning.

use rubik_power::CorePowerModel;
use rubik_sim::{CoreActivity, DvfsConfig, DvfsPolicy, Freq, ServerSim, SimConfig};

use crate::router::ServerView;

/// One named class of servers inside a [`FleetSpec`].
#[derive(Debug, Clone)]
pub struct CoreClass {
    name: String,
    config: SimConfig,
    capacity: f64,
    count: usize,
}

impl CoreClass {
    /// The class name (e.g. `"big"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The simulation configuration every server of this class runs.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The capacity weight (1.0 = one nominal core; 0 = route nothing here).
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of servers of this class.
    pub fn count(&self) -> usize {
        self.count
    }
}

/// A heterogeneous fleet description: an ordered list of core classes, each
/// contributing `count` servers with its own [`SimConfig`] and capacity
/// weight. Server indices are assigned in declaration order (all servers of
/// the first class, then the second, ...).
///
/// ```
/// use rubik_cluster::FleetSpec;
/// use rubik_sim::{DvfsConfig, Freq, SimConfig};
///
/// let big = SimConfig::paper_simulated();
/// let little = big.clone().with_dvfs(DvfsConfig::new(
///     Freq::from_mhz(800),
///     Freq::from_mhz(2000),
///     200,
///     Freq::from_mhz(1600),
///     4e-6,
/// ));
/// let spec = FleetSpec::new()
///     .class("big", big, 1.0, 4)
///     .class("little", little, 0.5, 8);
/// assert_eq!(spec.len(), 12);
/// assert_eq!(spec.class_of(0).name(), "big");
/// assert_eq!(spec.class_of(11).name(), "little");
/// assert_eq!(spec.capacity_of(6), 0.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FleetSpec {
    classes: Vec<CoreClass>,
}

impl FleetSpec {
    /// An empty spec; add classes with [`FleetSpec::class`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A single-class fleet of `servers` identical servers with capacity 1
    /// (the empty spec when `servers == 0`).
    pub fn homogeneous(config: SimConfig, servers: usize) -> Self {
        if servers == 0 {
            return Self::new();
        }
        Self::new().class("server", config, 1.0, servers)
    }

    /// Appends a class of `count` servers. Class names must be unique,
    /// capacities non-negative and finite.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`, the capacity is negative or non-finite, or
    /// the name repeats an existing class.
    pub fn class(mut self, name: &str, config: SimConfig, capacity: f64, count: usize) -> Self {
        assert!(count > 0, "class {name:?} must have at least one server");
        assert!(
            capacity >= 0.0 && capacity.is_finite(),
            "class {name:?} capacity must be finite and non-negative"
        );
        assert!(
            self.classes.iter().all(|c| c.name != name),
            "duplicate class name {name:?}"
        );
        self.classes.push(CoreClass {
            name: name.to_string(),
            config,
            capacity,
            count,
        });
        self
    }

    /// The classes, in declaration order.
    pub fn classes(&self) -> &[CoreClass] {
        &self.classes
    }

    /// Total number of servers across all classes.
    pub fn len(&self) -> usize {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// Whether the spec has no servers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The class index (into [`FleetSpec::classes`]) of server `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn class_index_of(&self, i: usize) -> u32 {
        let mut rest = i;
        for (idx, class) in self.classes.iter().enumerate() {
            if rest < class.count {
                return idx as u32;
            }
            rest -= class.count;
        }
        panic!(
            "server index {i} out of range for a {}-server fleet",
            self.len()
        );
    }

    /// The class of server `i`.
    pub fn class_of(&self, i: usize) -> &CoreClass {
        &self.classes[self.class_index_of(i) as usize]
    }

    /// The simulation configuration of server `i`.
    pub fn config_of(&self, i: usize) -> &SimConfig {
        self.class_of(i).config()
    }

    /// The capacity weight of server `i`.
    pub fn capacity_of(&self, i: usize) -> f64 {
        self.class_of(i).capacity()
    }
}

/// A per-server observation handed to [`FleetController::on_epoch`]: the
/// router's live view plus the server's DVFS domain and its measured mean
/// power over the epoch that just ended.
#[derive(Debug, Clone, Copy)]
pub struct ServerPowerView<'a> {
    /// The router-visible state (occupancy, operating point, capacity).
    pub view: ServerView,
    /// The server's DVFS domain (per-class in heterogeneous fleets).
    pub dvfs: &'a DvfsConfig,
    /// Mean power (W) over the last epoch; 0 on the initial call at t = 0.
    pub measured_power: f64,
}

/// A command issued by a [`FleetController`] at an epoch boundary, applied
/// by the [`Cluster`](crate::Cluster) driver before the next event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetCommand {
    /// Impose (or lift) a frequency ceiling on one server — enforced by the
    /// simulation engine regardless of the server's policy.
    SetCeiling {
        /// Target server index.
        server: usize,
        /// Ceiling, snapped down to a DVFS level; `None` lifts the cap.
        ceiling: Option<Freq>,
    },
    /// Rescale one server's latency objective relative to its *original*
    /// bound (scale 1.0 restores it). Ignored for policies without a bound.
    ScaleBound {
        /// Target server index.
        server: usize,
        /// Multiplier applied to the bound the policy started the run with.
        scale: f64,
    },
}

/// A fleet-level power manager driven by the cluster event loop.
///
/// The driver calls [`on_epoch`](FleetController::on_epoch) once at `t = 0`
/// (before any event, with `elapsed == 0` and zero measured power) so caps
/// are in force from the first request, and then at every epoch boundary.
/// All events strictly before the boundary have been processed when the
/// call is made; commands take effect before the next event.
pub trait FleetController {
    /// Human-readable name used in experiment output.
    fn name(&self) -> &str;

    /// Seconds between epoch boundaries (1 s in Pegasus).
    fn epoch(&self) -> f64;

    /// Observes the fleet at an epoch boundary and appends commands to
    /// `commands` (cleared by the driver beforehand). `elapsed` is the
    /// length of the measurement window ending at `now` (0 on the initial
    /// call).
    fn on_epoch(
        &mut self,
        now: f64,
        elapsed: f64,
        servers: &[ServerPowerView<'_>],
        commands: &mut Vec<FleetCommand>,
    );
}

/// A Pegasus-style global power capper with FastCap-style apportioning.
///
/// Every epoch the controller recomputes per-server frequency ceilings so
/// the fleet's **worst-case** active power never exceeds the budget:
///
/// 1. **Weighted fair share** — server `i` is granted
///    `budget × capacity_i / Σ capacity` watts and its ceiling is the
///    highest DVFS level whose active power fits the grant (never below the
///    domain minimum).
/// 2. **Reclaim** — a server observed idle at the boundary (nothing in
///    flight) is dropped to its minimum level; its grant becomes slack.
/// 3. **Waterfill** — slack (reclaimed + rounding remainders) raises the
///    ceilings of backlogged servers one DVFS step at a time, most loaded
///    first, while each step's extra worst-case power still fits.
///
/// Because ceilings bound the *possible* power draw, the budget holds even
/// if load spikes mid-epoch; the boundary-instant occupancy (`in_flight`)
/// steers where the slack goes. This controller does not read
/// [`ServerPowerView::measured_power`] — the measurement is reported for
/// observability and for controllers that do react to draw rather than
/// occupancy. With an infinite budget the controller issues no commands at
/// all, so an uncapped fleet is bit-for-bit identical to one without a
/// controller (pinned by `tests/fleet_properties.rs`).
///
/// Optional **bound scaling** relaxes each capped server's latency
/// objective in proportion to the slowdown its ceiling imposes
/// (`nominal / ceiling`), so an analytical policy like Rubik aims for what
/// the cap permits instead of futilely demanding clamped frequencies.
#[derive(Debug, Clone)]
pub struct PegasusFleet {
    budget: f64,
    epoch: f64,
    power: CorePowerModel,
    bound_scaling: bool,
    /// Last issued ceiling per server (grown on first epoch); commands are
    /// only emitted on change.
    ceilings: Vec<Option<Freq>>,
    /// Last issued bound scale per server.
    scales: Vec<f64>,
}

impl PegasusFleet {
    /// A fleet capper holding `budget` watts across the whole fleet, scored
    /// with the given core power model (use the same model the cluster's
    /// energy accounting uses, or the cap will hold against a different
    /// meter than the one reporting fleet power).
    ///
    /// # Panics
    ///
    /// Panics if `budget <= 0` (use [`PegasusFleet::uncapped`] or
    /// `f64::INFINITY` for no cap).
    pub fn new(budget: f64, power: CorePowerModel) -> Self {
        assert!(budget > 0.0, "power budget must be positive");
        Self {
            budget,
            epoch: 1.0,
            power,
            bound_scaling: false,
            ceilings: Vec::new(),
            scales: Vec::new(),
        }
    }

    /// A controller with an infinite budget: it measures but never commands.
    pub fn uncapped(power: CorePowerModel) -> Self {
        Self::new(f64::INFINITY, power)
    }

    /// Overrides the epoch length (default 1 s).
    ///
    /// # Panics
    ///
    /// Panics if `epoch <= 0`.
    pub fn with_epoch(mut self, epoch: f64) -> Self {
        assert!(epoch > 0.0, "epoch must be positive");
        self.epoch = epoch;
        self
    }

    /// Enables latency-bound rescaling alongside frequency ceilings.
    pub fn with_bound_scaling(mut self) -> Self {
        self.bound_scaling = true;
        self
    }

    /// The global power budget in watts.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The lowest budget this fleet can actually honour: the sum of every
    /// server's active power at its minimum DVFS level. Below this floor the
    /// fleet saturates at minimum frequency and the cap is infeasible.
    pub fn feasible_floor(servers: &[ServerPowerView<'_>], power: &CorePowerModel) -> f64 {
        servers
            .iter()
            .map(|s| power.active_power(s.dvfs.min()))
            .sum()
    }

    /// The highest ceiling in `dvfs` whose active power fits `grant` watts,
    /// never below the domain minimum.
    fn fitting_level(&self, dvfs: &DvfsConfig, grant: f64) -> Freq {
        let mut fit = dvfs.min();
        for &level in dvfs.levels() {
            if self.power.active_power(level) <= grant {
                fit = level;
            } else {
                break;
            }
        }
        fit
    }
}

impl FleetController for PegasusFleet {
    fn name(&self) -> &str {
        "pegasus-fleet"
    }

    fn epoch(&self) -> f64 {
        self.epoch
    }

    fn on_epoch(
        &mut self,
        _now: f64,
        elapsed: f64,
        servers: &[ServerPowerView<'_>],
        commands: &mut Vec<FleetCommand>,
    ) {
        if self.budget.is_infinite() {
            return; // uncapped: never perturb the fleet
        }
        let n = servers.len();
        self.ceilings.resize(n, None);
        self.scales.resize(n, 1.0);

        // 1. Weighted fair share over the *survivors*: a down server is
        //    granted nothing — its share waterfalls back into the pool —
        //    and is pinned at its domain minimum (the analytical worst case
        //    still charges that minimum, so the cap holds even if it
        //    recovers mid-epoch). Zero total weight (all-zero capacities)
        //    falls back to equal shares among survivors. On an all-healthy
        //    fleet every filter passes and this is bit-identical to the
        //    health-blind apportioning.
        let alive = |s: &ServerPowerView<'_>| s.view.health != crate::router::ServerHealth::Down;
        let alive_count = servers.iter().filter(|s| alive(s)).count();
        let total_weight: f64 = servers
            .iter()
            .filter(|s| alive(s))
            .map(|s| s.view.capacity.max(0.0))
            .sum();
        // Down servers still burn their minimum-level worst case; reserve
        // it off the top so the survivors' grants plus the dead floors
        // never exceed the budget. With nobody down this subtracts 0.0 and
        // the pool is bit-identical to the budget.
        let reserved: f64 = servers
            .iter()
            .filter(|s| !alive(s))
            .map(|s| self.power.active_power(s.dvfs.min()))
            .sum();
        let pool = (self.budget - reserved).max(0.0);
        let share = |s: &ServerPowerView<'_>| {
            if total_weight > 0.0 {
                pool * s.view.capacity.max(0.0) / total_weight
            } else {
                pool / alive_count.max(1) as f64
            }
        };
        let mut ceilings: Vec<Freq> = servers
            .iter()
            .map(|s| {
                if alive(s) {
                    self.fitting_level(s.dvfs, share(s))
                } else {
                    s.dvfs.min()
                }
            })
            .collect();

        // 2. Reclaim from servers observed idle at this boundary (skipped on
        //    the initial call: nothing has been observed yet).
        if elapsed > 0.0 {
            for (c, s) in ceilings.iter_mut().zip(servers) {
                if s.view.in_flight == 0 {
                    *c = s.dvfs.min();
                }
            }
        }

        // 3. Waterfill the slack into backlogged servers, most loaded first
        //    (ties by index), one DVFS step at a time while the step's extra
        //    worst-case power fits. Zero-capacity servers are never raised:
        //    a zero weight means "grant nothing", not "grant leftovers".
        let worst_case = |ceilings: &[Freq]| -> f64 {
            ceilings
                .iter()
                .map(|&c| self.power.active_power(c))
                .sum::<f64>()
        };
        let mut slack = self.budget - worst_case(&ceilings);
        if slack > 0.0 {
            let mut order: Vec<usize> = (0..n)
                .filter(|&i| {
                    servers[i].view.in_flight > 0
                        && servers[i].view.capacity > 0.0
                        && alive(&servers[i])
                })
                .collect();
            order.sort_by_key(|&i| (std::cmp::Reverse(servers[i].view.in_flight), i));
            loop {
                let mut raised = false;
                for &i in &order {
                    let dvfs = servers[i].dvfs;
                    let cur = ceilings[i];
                    if cur >= dvfs.max() {
                        continue;
                    }
                    let next = dvfs.ceil_level(cur.hz() + 1.0);
                    let delta = self.power.active_power(next) - self.power.active_power(cur);
                    if delta <= slack {
                        ceilings[i] = next;
                        slack -= delta;
                        raised = true;
                    }
                }
                if !raised {
                    break;
                }
            }
        }

        // Emit only the changes.
        for (i, s) in servers.iter().enumerate() {
            let ceiling = Some(ceilings[i]);
            if self.ceilings[i] != ceiling {
                self.ceilings[i] = ceiling;
                commands.push(FleetCommand::SetCeiling { server: i, ceiling });
            }
            if self.bound_scaling {
                let scale = (s.dvfs.nominal().hz() / ceilings[i].hz()).max(1.0);
                if self.scales[i] != scale {
                    self.scales[i] = scale;
                    commands.push(FleetCommand::ScaleBound { server: i, scale });
                }
            }
        }
    }
}

/// Measures each server's mean power over successive windows by integrating
/// its frequency/activity timeline — completed segments plus the live,
/// not-yet-materialized span from the server's clock to the boundary (which
/// is exact: all events before the boundary have been processed, so the
/// core's activity cannot change inside that span). Each server keeps a
/// cursor, so a measurement costs O(segments added since the last one).
#[derive(Debug)]
pub(crate) struct EpochMeter {
    last_t: f64,
    cursors: Vec<usize>,
}

impl EpochMeter {
    pub(crate) fn new(servers: usize) -> Self {
        Self {
            last_t: 0.0,
            cursors: vec![0; servers],
        }
    }

    /// End of the last measured window (0.0 before any measurement).
    pub(crate) fn last_time(&self) -> f64 {
        self.last_t
    }

    /// Mean power per server over `[last boundary, t]`, written into `out`
    /// in server-index order.
    pub(crate) fn measure<P: DvfsPolicy>(
        &mut self,
        servers: &[ServerSim<P>],
        power: &CorePowerModel,
        t: f64,
        out: &mut Vec<f64>,
    ) {
        let window = t - self.last_t;
        out.clear();
        if window <= 0.0 {
            out.resize(self.cursors.len(), 0.0);
            return;
        }
        let span_power = |activity: CoreActivity, freq: Freq| match activity {
            CoreActivity::Busy => power.active_power(freq),
            CoreActivity::Idle => power.idle_power(freq),
            CoreActivity::Sleep => power.sleep_power(),
        };
        for (server, cursor) in servers.iter().zip(&mut self.cursors) {
            let segments = server.segments();
            let mut energy = 0.0;
            let mut i = *cursor;
            while i < segments.len() {
                let s = &segments[i];
                let start = s.start.max(self.last_t);
                let end = s.end.min(t);
                if end > start {
                    energy += span_power(s.activity, s.freq) * (end - start);
                }
                // Never advance past the *final* segment: the engine extends
                // it in place when activity persists (`push_segment` merges
                // contiguous same-state spans), and a passed-over extension
                // would never be charged to any window. Re-scanning it next
                // time is safe — the `last_t` clamp excludes the part
                // already counted.
                if s.end <= t && i + 1 < segments.len() {
                    i += 1;
                } else {
                    break;
                }
            }
            *cursor = i;
            // The live span the timeline has not materialized yet.
            let live_start = server.now().max(self.last_t);
            if t > live_start {
                energy +=
                    span_power(server.current_activity(), server.current_freq()) * (t - live_start);
            }
            out.push(energy / window);
        }
        self.last_t = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubik_sim::Freq;

    fn view(index: usize, in_flight: usize, mhz: u32, capacity: f64) -> ServerView {
        ServerView {
            index,
            in_flight,
            queued: in_flight.saturating_sub(1),
            current_freq: Freq::from_mhz(mhz),
            capacity,
            class: 0,
            health: crate::router::ServerHealth::Up,
        }
    }

    fn power_views<'a>(
        dvfs: &'a DvfsConfig,
        loads: &[usize],
        capacities: &[f64],
    ) -> Vec<ServerPowerView<'a>> {
        loads
            .iter()
            .zip(capacities)
            .enumerate()
            .map(|(i, (&l, &c))| ServerPowerView {
                view: view(i, l, 2400, c),
                dvfs,
                measured_power: 0.0,
            })
            .collect()
    }

    fn ceilings_of(commands: &[FleetCommand], n: usize) -> Vec<Option<Freq>> {
        let mut out = vec![None; n];
        for cmd in commands {
            if let FleetCommand::SetCeiling { server, ceiling } = cmd {
                out[*server] = *ceiling;
            }
        }
        out
    }

    #[test]
    fn fleet_spec_assigns_classes_in_declaration_order() {
        let cfg = SimConfig::paper_simulated();
        let spec = FleetSpec::new().class("big", cfg.clone(), 1.0, 2).class(
            "little",
            cfg.clone(),
            0.25,
            3,
        );
        assert_eq!(spec.len(), 5);
        assert!(!spec.is_empty());
        assert_eq!(spec.class_index_of(0), 0);
        assert_eq!(spec.class_index_of(1), 0);
        assert_eq!(spec.class_index_of(2), 1);
        assert_eq!(spec.class_index_of(4), 1);
        assert_eq!(spec.class_of(3).name(), "little");
        assert_eq!(spec.capacity_of(0), 1.0);
        assert_eq!(spec.capacity_of(4), 0.25);
        assert_eq!(FleetSpec::homogeneous(cfg.clone(), 7).len(), 7);
        assert!(FleetSpec::homogeneous(cfg, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate class name")]
    fn fleet_spec_rejects_duplicate_names() {
        let cfg = SimConfig::paper_simulated();
        let _ = FleetSpec::new()
            .class("big", cfg.clone(), 1.0, 1)
            .class("big", cfg, 1.0, 1);
    }

    #[test]
    fn uncapped_fleet_issues_no_commands() {
        let dvfs = DvfsConfig::haswell_like();
        let mut fleet = PegasusFleet::uncapped(CorePowerModel::haswell_like());
        let servers = power_views(&dvfs, &[5, 0, 9], &[1.0, 1.0, 1.0]);
        let mut commands = Vec::new();
        fleet.on_epoch(0.0, 0.0, &servers, &mut commands);
        fleet.on_epoch(1.0, 1.0, &servers, &mut commands);
        assert!(commands.is_empty());
    }

    #[test]
    fn capped_fleet_never_grants_more_worst_case_power_than_the_budget() {
        let dvfs = DvfsConfig::haswell_like();
        let power = CorePowerModel::haswell_like();
        let mut commands = Vec::new();
        for budget_per_server in [2.0, 4.0, 6.0, 9.0] {
            for loads in [[0usize, 0, 0, 0], [9, 0, 3, 1], [5, 5, 5, 5]] {
                let servers = power_views(&dvfs, &loads, &[1.0; 4]);
                let budget = budget_per_server * 4.0;
                let floor = PegasusFleet::feasible_floor(&servers, &power);
                let mut fleet = PegasusFleet::new(budget, power);
                fleet.on_epoch(0.0, 0.0, &servers, &mut commands);
                fleet.on_epoch(1.0, 1.0, &servers, &mut commands);
                let ceilings = ceilings_of(&commands, 4);
                let worst: f64 = ceilings
                    .iter()
                    .map(|c| power.active_power(c.expect("capped fleet sets every ceiling")))
                    .sum();
                assert!(
                    worst <= budget.max(floor) + 1e-9,
                    "worst-case {worst} W exceeds budget {budget} W (floor {floor} W)"
                );
                commands.clear();
            }
        }
    }

    #[test]
    fn waterfilling_pours_idle_slack_into_the_backlogged_server() {
        let dvfs = DvfsConfig::haswell_like();
        let power = CorePowerModel::haswell_like();
        // Budget: 4 W per server on average — well under nominal active
        // power, so the fair share alone caps everyone low.
        let mut fleet = PegasusFleet::new(16.0, power);
        let mut commands = Vec::new();
        // Three idle servers, one deeply backlogged.
        let servers = power_views(&dvfs, &[12, 0, 0, 0], &[1.0; 4]);
        fleet.on_epoch(1.0, 1.0, &servers, &mut commands);
        let ceilings = ceilings_of(&commands, 4);
        let busy = ceilings[0].unwrap();
        for idle in &ceilings[1..] {
            assert_eq!(idle.unwrap(), dvfs.min(), "idle servers are reclaimed");
        }
        // The backlogged server gets the pooled slack: strictly above its
        // 4 W fair-share level.
        let fair = {
            let f = PegasusFleet::new(16.0, power);
            f.fitting_level(&dvfs, 4.0)
        };
        assert!(
            busy > fair,
            "waterfilled ceiling {busy} should exceed fair-share {fair}"
        );
        // And the total worst case still fits.
        let worst: f64 = ceilings
            .iter()
            .map(|c| power.active_power(c.unwrap()))
            .sum();
        assert!(worst <= 16.0 + 1e-9);
    }

    #[test]
    fn zero_capacity_servers_get_the_minimum_and_bound_scaling_tracks_ceilings() {
        let dvfs = DvfsConfig::haswell_like();
        let power = CorePowerModel::haswell_like();
        let mut fleet = PegasusFleet::new(14.0, power).with_bound_scaling();
        assert_eq!(fleet.budget(), 14.0);
        let mut commands = Vec::new();
        let servers = power_views(&dvfs, &[3, 3], &[1.0, 0.0]);
        fleet.on_epoch(0.0, 0.0, &servers, &mut commands);
        let ceilings = ceilings_of(&commands, 2);
        // All weight on server 0; server 1 idles at the minimum level.
        assert!(ceilings[0].unwrap() > dvfs.min());
        assert_eq!(ceilings[1].unwrap(), dvfs.min());
        // Bound scales: relaxed in proportion to the imposed slowdown.
        // Unchanged scales (server 0 keeps scale 1.0: its ceiling imposes
        // no slowdown) are not re-emitted.
        let mut scales = [1.0f64; 2];
        for c in &commands {
            if let FleetCommand::ScaleBound { server, scale } = c {
                scales[*server] = *scale;
            }
        }
        for (scale, ceiling) in scales.iter().zip(&ceilings) {
            let expected = (dvfs.nominal().hz() / ceiling.unwrap().hz()).max(1.0);
            assert!((scale - expected).abs() < 1e-12);
        }
        assert!(scales[1] > 1.0, "the capped little server's bound relaxes");
    }

    #[test]
    fn epoch_meter_charges_segments_extended_in_place_across_boundaries() {
        // Regression: the engine *extends* its final timeline segment in
        // place while activity persists (ticks merge into one growing idle
        // segment). A meter cursor that steps past that segment at a
        // boundary would never charge the extension — under-counting every
        // epoch in which state persists across the boundary (the common
        // case). Each window must report the full idle power.
        use rubik_sim::FixedFrequencyPolicy;
        let config = SimConfig::paper_simulated(); // 100 ms ticks, open sim
        let nominal = config.dvfs.nominal();
        let mut sim = ServerSim::new(config, FixedFrequencyPolicy::new(nominal));
        let power = CorePowerModel::haswell_like();
        let idle = power.idle_power(nominal);

        let mut meter = EpochMeter::new(1);
        let mut out = Vec::new();
        let servers = std::slice::from_mut(&mut sim);
        for boundary in [1.0, 2.0, 3.0] {
            servers[0].drain_until(boundary - 0.05);
            meter.measure(servers, &power, boundary, &mut out);
            assert!(
                (out[0] - idle).abs() < 1e-9,
                "window ending at {boundary}: measured {} W, expected {idle} W",
                out[0]
            );
        }
    }

    #[test]
    fn dead_servers_shares_waterfall_back_to_survivors_under_the_cap() {
        use crate::router::ServerHealth;
        let dvfs = DvfsConfig::haswell_like();
        let power = CorePowerModel::haswell_like();
        let budget = 16.0; // 4 W per server: binding for everyone
        let mut commands = Vec::new();

        // Baseline: four healthy, equally backlogged servers.
        let healthy = power_views(&dvfs, &[6, 6, 6, 6], &[1.0; 4]);
        let mut fleet = PegasusFleet::new(budget, power);
        fleet.on_epoch(1.0, 1.0, &healthy, &mut commands);
        let baseline = ceilings_of(&commands, 4);
        commands.clear();

        // Two of them crash: their shares must waterfall to the survivors.
        let mut faulted = power_views(&dvfs, &[6, 6, 6, 6], &[1.0; 4]);
        faulted[1].view.health = ServerHealth::Down;
        faulted[3].view.health = ServerHealth::Down;
        let mut fleet = PegasusFleet::new(budget, power);
        fleet.on_epoch(1.0, 1.0, &faulted, &mut commands);
        let survivors = ceilings_of(&commands, 4);

        // Down servers are pinned at the minimum level...
        assert_eq!(survivors[1].unwrap(), dvfs.min());
        assert_eq!(survivors[3].unwrap(), dvfs.min());
        // ...survivors run strictly faster than under the healthy split...
        for i in [0usize, 2] {
            assert!(
                survivors[i].unwrap() > baseline[i].unwrap(),
                "survivor {i} did not absorb the dead servers' share \
                 ({:?} vs baseline {:?})",
                survivors[i],
                baseline[i]
            );
        }
        // ...and the analytical worst case still fits the budget, charging
        // the down servers at their (minimum) ceilings too.
        let worst: f64 = survivors
            .iter()
            .map(|c| power.active_power(c.unwrap()))
            .sum();
        assert!(
            worst <= budget + 1e-9,
            "worst-case {worst} W over {budget} W"
        );
    }

    #[test]
    fn stragglers_keep_their_budget_share() {
        // A straggler still serves work, just slowly — starving it of watts
        // would make the lag worse. Only Down servers lose their share.
        use crate::router::ServerHealth;
        let dvfs = DvfsConfig::haswell_like();
        let power = CorePowerModel::haswell_like();
        let mut commands = Vec::new();
        let mut servers = power_views(&dvfs, &[4, 4], &[1.0, 1.0]);
        servers[1].view.health = ServerHealth::Straggling;
        let mut fleet = PegasusFleet::new(12.0, power);
        fleet.on_epoch(1.0, 1.0, &servers, &mut commands);
        let ceilings = ceilings_of(&commands, 2);
        assert_eq!(
            ceilings[0], ceilings[1],
            "equal weight, equal backlog: the straggler keeps its share"
        );
    }

    #[test]
    fn commands_are_emitted_only_on_change() {
        let dvfs = DvfsConfig::haswell_like();
        let power = CorePowerModel::haswell_like();
        let mut fleet = PegasusFleet::new(20.0, power);
        let servers = power_views(&dvfs, &[2, 2], &[1.0, 1.0]);
        let mut commands = Vec::new();
        fleet.on_epoch(0.0, 0.0, &servers, &mut commands);
        assert!(!commands.is_empty());
        commands.clear();
        // Same observation next epoch: nothing new to say.
        fleet.on_epoch(1.0, 1.0, &servers, &mut commands);
        assert!(commands.is_empty());
    }
}
