//! Queue migration: rebalancing admitted-but-waiting requests mid-run.
//!
//! Routing decides where a request *starts*; it cannot undo a decision that
//! turned out badly — a server that drew several long requests in a row
//! builds a backlog that its neighbours could absorb. A [`Migrator`] is the
//! [`Cluster`](crate::Cluster) driver's rebalance hook: on its own periodic
//! clock (independent of arrivals, so a drained stream still rebalances its
//! trailing backlog) it observes the fleet's queue depths and plans
//! [`Migration`]s. The driver executes each plan between events by
//! [`steal_queued`](rubik_sim::ServerSim::steal_queued)-ing from the donor's
//! FIFO tail and [`inject`](rubik_sim::ServerSim::inject)-ing into the
//! receiver with the original arrival time preserved, so end-to-end latency
//! accounting spans both servers and no request is ever lost or duplicated
//! (property-tested in `tests/fleet_properties.rs`).
//!
//! [`ThresholdMigrator`] is the first policy: a queue-imbalance trigger with
//! hysteresis, so steady small imbalances do not cause migration churn.

use crate::router::ServerView;

/// One planned move: `count` requests from the back of `from`'s queue to
/// `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// Donor server index.
    pub from: usize,
    /// Receiver server index.
    pub to: usize,
    /// Number of queued requests to move (the driver moves fewer if the
    /// donor's queue is shorter by execution time).
    pub count: usize,
}

/// A rebalancing policy for a [`Cluster`](crate::Cluster).
pub trait Migrator {
    /// Human-readable name used in experiment output.
    fn name(&self) -> &str;

    /// Seconds between rebalance checks (the driver's migration clock).
    fn interval(&self) -> f64;

    /// Observes the fleet between events and appends planned moves to
    /// `moves` (cleared by the driver beforehand). Plans must be
    /// deterministic functions of the observed views.
    fn plan(&mut self, now: f64, servers: &[ServerView], moves: &mut Vec<Migration>);
}

/// Queue-imbalance migration with hysteresis.
///
/// Let `gap` be the difference between the deepest FIFO queue and the
/// shallowest *eligible* one (zero-capacity servers are never receivers —
/// the router contract says they get no work, and migration honours it).
/// The migrator *arms* when `gap >= trigger` and then keeps rebalancing —
/// repeatedly moving half the gap between the current extremes — until
/// `gap <= release`, where it disarms. `release < trigger` gives the
/// hysteresis band: a fleet hovering just below the trigger never
/// migrates, and once armed the migrator fully levels the queues instead
/// of oscillating at the trigger edge.
///
/// A gap of 1 cannot be improved by moving a whole request (the move just
/// swaps which server is deeper), so the effective release floor is 1
/// regardless of the configured `release`.
#[derive(Debug, Clone)]
pub struct ThresholdMigrator {
    trigger: usize,
    release: usize,
    interval: f64,
    max_moves: usize,
    armed: bool,
}

impl ThresholdMigrator {
    /// A migrator that arms at a queue gap of `trigger` and disarms at
    /// `release`.
    ///
    /// # Panics
    ///
    /// Panics if `trigger == 0` or `release >= trigger`.
    pub fn new(trigger: usize, release: usize) -> Self {
        assert!(trigger > 0, "trigger must be positive");
        assert!(
            release < trigger,
            "hysteresis requires release ({release}) < trigger ({trigger})"
        );
        Self {
            trigger,
            release,
            interval: 0.01,
            max_moves: 64,
            armed: false,
        }
    }

    /// Overrides the rebalance interval (default 10 ms).
    ///
    /// # Panics
    ///
    /// Panics if `interval <= 0`.
    pub fn with_interval(mut self, interval: f64) -> Self {
        assert!(interval > 0.0, "interval must be positive");
        self.interval = interval;
        self
    }

    /// Caps the number of requests moved per rebalance step (default 64).
    ///
    /// # Panics
    ///
    /// Panics if `max_moves == 0`.
    pub fn with_max_moves(mut self, max_moves: usize) -> Self {
        assert!(max_moves > 0, "max_moves must be positive");
        self.max_moves = max_moves;
        self
    }

    /// Whether the migrator is currently armed (inside the hysteresis band).
    pub fn is_armed(&self) -> bool {
        self.armed
    }
}

impl Default for ThresholdMigrator {
    /// Arms at a gap of 4 queued requests, disarms at 1, checks every 10 ms.
    fn default() -> Self {
        Self::new(4, 1)
    }
}

impl Migrator for ThresholdMigrator {
    fn name(&self) -> &str {
        "threshold"
    }

    fn interval(&self) -> f64 {
        self.interval
    }

    fn plan(&mut self, _now: f64, servers: &[ServerView], moves: &mut Vec<Migration>) {
        if servers.len() < 2 {
            return;
        }
        let mut queues: Vec<usize> = servers.iter().map(|v| v.queued).collect();
        let mut budget = self.max_moves;
        // Moving a request between queues whose depths differ by 1 merely
        // swaps the extremes (and would ping-pong forever), so level only
        // down to a gap of 1.
        let release = self.release.max(1);
        loop {
            // Extremes with deterministic (lowest-index) tie-breaks. Only
            // positive-capacity, healthy servers may receive migrated work —
            // the zero-capacity contract ("route nothing here") binds the
            // migrator too, and handing rescued requests to a down or
            // straggling server would just strand them again. Down servers
            // may still *donate*: draining a dead queue is the point.
            let Some((deepest, &maxq)) = queues
                .iter()
                .enumerate()
                .max_by_key(|&(i, &q)| (q, std::cmp::Reverse(i)))
            else {
                return; // degenerate (empty) view set: nothing to plan
            };
            let Some((shallowest, &minq)) = queues
                .iter()
                .enumerate()
                .filter(|&(i, _)| {
                    servers[i].capacity > 0.0 && servers[i].health.routable() && i != deepest
                })
                .min_by_key(|&(i, &q)| (q, i))
            else {
                return; // no eligible receiver
            };
            let gap = maxq.saturating_sub(minq);
            if self.armed {
                if gap <= release {
                    self.armed = false;
                    break;
                }
            } else if gap >= self.trigger && gap > release {
                self.armed = true;
            } else {
                break;
            }
            if budget == 0 {
                break; // stay armed: the next check continues levelling
            }
            let count = (gap / 2).max(1).min(budget);
            moves.push(Migration {
                from: deepest,
                to: shallowest,
                count,
            });
            queues[deepest] -= count;
            queues[shallowest] += count;
            budget -= count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ServerHealth;
    use rubik_sim::Freq;

    fn views(queues: &[usize]) -> Vec<ServerView> {
        queues
            .iter()
            .enumerate()
            .map(|(index, &queued)| ServerView {
                index,
                in_flight: queued + 1,
                queued,
                current_freq: Freq::from_mhz(2400),
                capacity: 1.0,
                class: 0,
                health: ServerHealth::Up,
            })
            .collect()
    }

    fn apply(queues: &mut [usize], moves: &[Migration]) {
        for m in moves {
            queues[m.from] -= m.count;
            queues[m.to] += m.count;
        }
    }

    #[test]
    fn below_the_trigger_nothing_moves() {
        let mut m = ThresholdMigrator::new(4, 1);
        let mut moves = Vec::new();
        m.plan(0.0, &views(&[3, 0, 2]), &mut moves);
        assert!(moves.is_empty());
        assert!(!m.is_armed());
    }

    #[test]
    fn at_the_trigger_queues_are_levelled_to_the_release_gap() {
        let mut m = ThresholdMigrator::new(4, 1);
        let mut moves = Vec::new();
        let mut queues = [8usize, 0, 2];
        m.plan(0.0, &views(&queues), &mut moves);
        assert!(!moves.is_empty());
        apply(&mut queues, &moves);
        let gap = queues.iter().max().unwrap() - queues.iter().min().unwrap();
        assert!(gap <= 1, "post-plan queues {queues:?}");
        // Conservation of planned work.
        assert_eq!(queues.iter().sum::<usize>(), 10);
        // Fully levelled: the migrator disarmed.
        assert!(!m.is_armed());
    }

    #[test]
    fn hysteresis_keeps_an_armed_migrator_levelling_below_the_trigger() {
        let mut m = ThresholdMigrator::new(4, 1);
        let mut moves = Vec::new();
        // Arm it, but cap the per-step budget so it cannot finish.
        m = m.with_max_moves(1);
        let mut queues = [6usize, 0];
        m.plan(0.0, &views(&queues), &mut moves);
        apply(&mut queues, &moves);
        assert!(m.is_armed(), "budget exhausted mid-levelling stays armed");
        // Gap is now 4 - ... below trigger is irrelevant: armed means the
        // next check keeps going even though gap < trigger.
        moves.clear();
        queues = [3, 0]; // gap 3 < trigger 4
        m.plan(0.01, &views(&queues), &mut moves);
        assert!(!moves.is_empty(), "armed migrator levels sub-trigger gaps");
        apply(&mut queues, &moves);
        // And a disarmed one ignores the same gap.
        let mut fresh = ThresholdMigrator::new(4, 1);
        moves.clear();
        fresh.plan(0.0, &views(&[3, 0]), &mut moves);
        assert!(moves.is_empty());
    }

    #[test]
    fn moves_respect_the_per_step_budget() {
        let mut m = ThresholdMigrator::new(2, 0).with_max_moves(3);
        let mut moves = Vec::new();
        m.plan(0.0, &views(&[40, 0, 0, 0]), &mut moves);
        let total: usize = moves.iter().map(|mv| mv.count).sum();
        assert!(total <= 3);
    }

    #[test]
    fn a_gap_of_one_is_never_churned_even_with_release_zero() {
        // Regression: moving a request across a gap of 1 just swaps the
        // extremes; with release = 0 the old planner ping-ponged one
        // request until the whole move budget burned, every interval.
        let mut m = ThresholdMigrator::new(2, 0);
        let mut moves = Vec::new();
        m.plan(0.0, &views(&[3, 2, 2]), &mut moves);
        assert!(moves.is_empty(), "gap 1 is unimprovable: {moves:?}");
        // Once levelling brings the gap to 1, the plan stops (and disarms)
        // instead of oscillating.
        let mut queues = [4usize, 2, 2];
        m.plan(0.0, &views(&queues), &mut moves);
        apply(&mut queues, &moves);
        let total: usize = moves.iter().map(|mv| mv.count).sum();
        assert!(total <= 2, "levelling [4,2,2] needs at most 2 moves");
        assert!(!m.is_armed());
        let gap = queues.iter().max().unwrap() - queues.iter().min().unwrap();
        assert!(gap <= 1);
    }

    #[test]
    fn zero_capacity_servers_never_receive_migrated_work() {
        let mut m = ThresholdMigrator::new(2, 1);
        let mut moves = Vec::new();
        // Server 1 has the shallowest queue but zero capacity: the planner
        // must pick server 2 (next-shallowest with capacity) instead.
        let mut servers = views(&[8, 0, 2]);
        servers[1].capacity = 0.0;
        m.plan(0.0, &servers, &mut moves);
        assert!(!moves.is_empty());
        for mv in &moves {
            assert_ne!(mv.to, 1, "zero-capacity server received work: {mv:?}");
        }
        // With no eligible receiver at all, nothing moves.
        let mut servers = views(&[8, 0]);
        servers[1].capacity = 0.0;
        moves.clear();
        let mut fresh = ThresholdMigrator::new(2, 1);
        fresh.plan(0.0, &servers, &mut moves);
        assert!(moves.is_empty());
    }

    #[test]
    fn down_servers_never_receive_but_may_donate() {
        let mut m = ThresholdMigrator::new(2, 1);
        let mut moves = Vec::new();
        // Server 1 is down with the shallowest queue: the planner must send
        // work to server 2 instead — and may drain server 0's dead backlog.
        let mut servers = views(&[8, 0, 2]);
        servers[1].health = ServerHealth::Down;
        servers[0].health = ServerHealth::Down;
        m.plan(0.0, &servers, &mut moves);
        assert!(!moves.is_empty(), "a dead backlog is still drained");
        for mv in &moves {
            assert_eq!(mv.to, 2, "only the healthy server receives: {mv:?}");
        }
    }

    #[test]
    fn all_down_fleets_plan_no_moves() {
        let mut m = ThresholdMigrator::new(2, 1);
        let mut moves = Vec::new();
        let mut servers = views(&[9, 0, 3]);
        for v in &mut servers {
            v.health = ServerHealth::Down;
        }
        m.plan(0.0, &servers, &mut moves);
        assert!(moves.is_empty(), "no receiver exists: {moves:?}");

        // Same for an all-zero-capacity fleet (the PR-5 rule), combined.
        let mut servers = views(&[9, 0, 3]);
        for v in &mut servers {
            v.capacity = 0.0;
        }
        moves.clear();
        let mut fresh = ThresholdMigrator::new(2, 1);
        fresh.plan(0.0, &servers, &mut moves);
        assert!(moves.is_empty());
    }

    #[test]
    fn straggling_servers_are_not_receivers() {
        let mut m = ThresholdMigrator::new(2, 1);
        let mut moves = Vec::new();
        let mut servers = views(&[8, 0, 2]);
        servers[1].health = ServerHealth::Straggling;
        m.plan(0.0, &servers, &mut moves);
        assert!(!moves.is_empty());
        for mv in &moves {
            assert_ne!(mv.to, 1, "straggler received migrated work: {mv:?}");
        }
    }

    #[test]
    fn single_server_fleets_never_migrate() {
        let mut m = ThresholdMigrator::default();
        let mut moves = Vec::new();
        m.plan(0.0, &views(&[50]), &mut moves);
        assert!(moves.is_empty());
    }

    #[test]
    #[should_panic(expected = "release")]
    fn rejects_inverted_hysteresis() {
        let _ = ThresholdMigrator::new(2, 2);
    }
}
