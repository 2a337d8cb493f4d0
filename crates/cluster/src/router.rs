//! Request routing: the load-balancer policies of a simulated fleet.
//!
//! A [`Router`] picks the destination server for each arriving request. It
//! sees one [`ServerView`] per server — a cheap summary of the server's
//! current state (occupancy and DVFS operating point) refreshed by the
//! [`Cluster`](crate::Cluster) driver immediately before each routing
//! decision. Routers may keep internal state (e.g. the round-robin cursor)
//! but must be deterministic: the same request/view sequence must produce
//! the same choices, or cluster runs stop being reproducible. Scored
//! policies are [keyed](Router#keyed-routers): the driver routes them from
//! a tournament tree of their per-server keys.

use rubik_power::CorePowerModel;
use rubik_sim::{Freq, RequestSpec};

use crate::min_tree::{total_order_bits, MinTree};

/// Health of a server as tracked by the fault layer (see
/// [`crate::FaultPlan`]). Without a fault plan every server is
/// permanently [`Up`](ServerHealth::Up).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerHealth {
    /// Serving normally.
    #[default]
    Up,
    /// Alive but degraded (straggling): it still completes work, slowly.
    Straggling,
    /// Crashed: serves nothing until a `Recover` event.
    Down,
}

impl ServerHealth {
    /// Whether a health-aware router should send *new* work here. Only
    /// fully healthy servers are routable; stragglers keep serving what
    /// they already hold but stop receiving more.
    pub fn routable(self) -> bool {
        matches!(self, ServerHealth::Up)
    }
}

/// A per-server summary handed to [`Router::route`] (and to the fleet
/// controller and migrator hooks).
///
/// `in_flight` counts every request committed to the server — queued, in
/// service, and offered-but-not-yet-admitted — which is what a load balancer
/// observes: a request routed a microsecond ago occupies a slot even if the
/// server has not processed its arrival event yet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerView {
    /// Index of the server in the cluster.
    pub index: usize,
    /// Requests committed to the server (offered + queued + in service).
    pub in_flight: usize,
    /// Requests waiting in the FIFO queue (admitted but not in service) —
    /// the depth a [`Migrator`](crate::Migrator) can steal from.
    pub queued: usize,
    /// Frequency currently in effect on the server's core.
    pub current_freq: Freq,
    /// Capacity weight of the server's core class (1.0 for every server of a
    /// homogeneous fleet; see [`FleetSpec`](crate::FleetSpec)). Zero means
    /// "route nothing here".
    pub capacity: f64,
    /// Core-class index of the server within its
    /// [`FleetSpec`](crate::FleetSpec) (0 for homogeneous fleets).
    pub class: u32,
    /// Health as the applied fault ops left it ([`ServerHealth::Up`] when
    /// no fault plan is attached). Plain routers ignore it; wrap them in
    /// [`HealthAware`] to eject unhealthy servers from the candidate set.
    pub health: ServerHealth,
}

impl ServerView {
    /// Occupancy normalized by the server's capacity weight: the load metric
    /// capacity-aware policies compare. Zero-capacity servers report
    /// infinite load, so they lose every comparison against a server that
    /// can actually serve.
    pub fn effective_load(&self) -> f64 {
        if self.capacity > 0.0 {
            self.in_flight as f64 / self.capacity
        } else {
            f64::INFINITY
        }
    }
}

/// A keyed router's score for one server (see [`Router::key`]): routing
/// picks the server with the smallest key, the lowest index first among
/// equal keys.
///
/// Keys compare lexicographically: the health demotion [`HealthAware`]
/// applies to unroutable servers first, then the primary score, then the
/// secondary one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouteKey {
    demoted: bool,
    primary: u64,
    secondary: u64,
}

impl RouteKey {
    /// A key ordered by `primary`, then by `secondary`.
    pub const fn new(primary: u64, secondary: u64) -> Self {
        Self {
            demoted: false,
            primary,
            secondary,
        }
    }

    /// A key ordered by `primary`, then by `secondary`, each compared as
    /// [`f64::total_cmp`] compares them.
    pub fn from_f64(primary: f64, secondary: f64) -> Self {
        Self::new(total_order_bits(primary), total_order_bits(secondary))
    }

    /// This key, ranked after every undemoted key when `demote` is set.
    /// Demoting twice is demoting once, which is exactly the order of
    /// `(unroutable, (unroutable, inner))` for nested [`HealthAware`].
    fn demoted_if(mut self, demote: bool) -> Self {
        self.demoted |= demote;
        self
    }
}

/// A load-balancing policy for a [`Cluster`](crate::Cluster).
///
/// # Keyed routers
///
/// A scored policy can also declare a [`RouteKey`] per view through
/// [`Router::key`]. Its choice is then the server with the smallest
/// `(key, index)`, and the driver finds that server without handing the
/// router the whole fleet: it keeps a tournament tree over the keys,
/// re-keys only the servers whose views changed since the last route
/// (O(log n) each), and reads the root. [`JoinShortestQueue`],
/// [`PowerAware`], and [`HealthAware`] over either are keyed; their
/// `route` is the same key argmin over a slice, so both paths make the
/// same choice by construction.
///
/// The contract of a keyed router:
///
/// * `route` returns the key argmin, lowest index first among equal keys;
/// * the key reads only the view's state, never its `index`, so a keyed
///   router ignores the request and keeps no routing state;
/// * `key` returns `Some` for every view or for none (the driver asks
///   once per run, on server 0's view).
///
/// Stateful routers ([`RoundRobin`], [`Passthrough`]) return `None` and are
/// called with the full view slice on every decision. So is any wrapper
/// that does not forward `key` — with exactly the same choices, only
/// O(fleet) per route.
pub trait Router {
    /// Human-readable name used in experiment output.
    fn name(&self) -> &str;

    /// Chooses the destination server (an index into `servers`) for
    /// `request`. `servers` holds one view per server, in index order, and
    /// is never empty.
    fn route(&mut self, request: &RequestSpec, servers: &[ServerView]) -> usize;

    /// This router's score for one server, if it routes by score (see
    /// [keyed routers](Router#keyed-routers)). The default, `None`, keeps
    /// the router on the full-slice [`route`](Router::route) path.
    ///
    /// A router that returns `Some` promises that `route` picks the
    /// server with the smallest `(key, index)`, that the key depends on
    /// the view's state but not on its `index` (so routing ignores the
    /// request and keeps no state), and that every view gets a key. The
    /// driver then routes from a tournament tree of these keys in
    /// O(log n) per changed view and never calls `route`.
    fn key(&self, view: &ServerView) -> Option<RouteKey> {
        let _ = view;
        None
    }
}

/// The server with the smallest `(key, index)` — a keyed router's choice
/// over a slice (0 for an empty one). The driver's tournament tree
/// computes the same minimum incrementally.
fn key_argmin<R: Router + ?Sized>(router: &R, servers: &[ServerView]) -> usize {
    // A plain loop: `Iterator::min` over `(key, index)` pairs compiles to
    // code several times slower than this.
    let Some((first, rest)) = servers.split_first() else {
        return 0;
    };
    let (mut best_key, mut best) = (keyed(router, first), first.index);
    for view in rest {
        let key = keyed(router, view);
        if key < best_key || (key == best_key && view.index < best) {
            (best_key, best) = (key, view.index);
        }
    }
    best
}

/// `router`'s key for `view`, which a keyed router must provide.
fn keyed<R: Router + ?Sized>(router: &R, view: &ServerView) -> RouteKey {
    router.key(view).unwrap_or_else(|| {
        panic!(
            "keyed router {} returned no key for server {}",
            router.name(),
            view.index
        )
    })
}

/// Sends every request to server 0 — the identity router.
///
/// With a single server this makes a cluster an exact proxy for the
/// standalone simulator: the equivalence suite pins that a 1-server cluster
/// behind `Passthrough` reproduces [`rubik_sim::Server::run`] bitwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Passthrough;

impl Router for Passthrough {
    fn name(&self) -> &str {
        "passthrough"
    }

    fn route(&mut self, _request: &RequestSpec, _servers: &[ServerView]) -> usize {
        0
    }
}

/// Cycles through the servers in index order, ignoring their state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A round-robin router starting at server 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Router for RoundRobin {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn route(&mut self, _request: &RequestSpec, servers: &[ServerView]) -> usize {
        let choice = self.next % servers.len();
        self.next = (self.next + 1) % servers.len();
        choice
    }
}

/// Joins the server with the fewest in-flight requests (ties broken by the
/// lowest index) — the classic JSQ policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinShortestQueue;

impl JoinShortestQueue {
    /// A JSQ router.
    pub fn new() -> Self {
        Self
    }
}

impl Router for JoinShortestQueue {
    fn name(&self) -> &str {
        "join-shortest-queue"
    }

    fn route(&mut self, _request: &RequestSpec, servers: &[ServerView]) -> usize {
        key_argmin(self, servers)
    }

    fn key(&self, view: &ServerView) -> Option<RouteKey> {
        Some(RouteKey::new(view.in_flight as u64, 0))
    }
}

/// Capacity- and queue-aware routing with a power tie-break: among the
/// servers with the lowest capacity-normalized occupancy
/// ([`ServerView::effective_load`]), picks the one whose core currently
/// burns the least active power.
///
/// Per-server DVFS controllers (Rubik) leave each core at a different
/// operating point — a lightly loaded server that just finished a burst may
/// still sit at a high frequency while an equally idle neighbour coasts at
/// the minimum level. JSQ is blind to that difference; `PowerAware` routes
/// the marginal request to the cheaper core, nudging the fleet toward its
/// low-power operating points without sacrificing queue balance.
///
/// In a heterogeneous [`FleetSpec`](crate::FleetSpec) fleet the capacity
/// weighting makes the router send proportionally more work to "big" cores
/// (a big server at 2 in flight with capacity 2.0 looks as loaded as a
/// little server at 1 with capacity 1.0), and a zero-capacity class is
/// never routed to while any positive-capacity server exists. For a
/// homogeneous fleet every capacity is 1.0 and the policy degenerates to
/// exactly the JSQ-plus-power-tie-break it was before.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerAware {
    power: CorePowerModel,
}

impl PowerAware {
    /// A power-aware router scoring servers with the given core power model.
    pub fn new(power: CorePowerModel) -> Self {
        Self { power }
    }
}

impl Default for PowerAware {
    fn default() -> Self {
        Self::new(CorePowerModel::haswell_like())
    }
}

impl Router for PowerAware {
    fn name(&self) -> &str {
        "power-aware"
    }

    fn route(&mut self, _request: &RequestSpec, servers: &[ServerView]) -> usize {
        key_argmin(self, servers)
    }

    fn key(&self, view: &ServerView) -> Option<RouteKey> {
        Some(RouteKey::from_f64(
            view.effective_load(),
            self.power.active_power(view.current_freq),
        ))
    }
}

/// Wraps any [`Router`] with health-based candidate filtering: down and
/// straggling servers are ejected from the view slice the inner router
/// sees, and readmitted the moment the fault layer marks them
/// [`Up`](ServerHealth::Up) again.
///
/// If **no** server is routable (the whole fleet is down or straggling),
/// the wrapper degrades to the inner router over the full set — routing
/// somewhere beats dropping the request on the floor, and timeouts/retries
/// will rescue it if the destination never recovers.
///
/// The inner router sees re-indexed views (`index` runs over the healthy
/// subset) so index-arithmetic policies like [`RoundRobin`] cycle over the
/// healthy servers only; the wrapper maps the choice back to the true
/// server index. On an all-healthy fleet the filtered slice equals the
/// full slice, and the wrapper is behaviourally identical to the inner
/// router (pinned in `tests/fault_properties.rs`).
///
/// Over a keyed inner router the wrapper is keyed too, with key
/// `(unroutable, inner key)`: routable servers first, and the whole fleet
/// when none is routable — the same choice as the filtered slice, since
/// re-indexing preserves index order.
#[derive(Debug)]
pub struct HealthAware<R> {
    inner: R,
    name: String,
    /// Re-indexed healthy views handed to the inner router.
    scratch: Vec<ServerView>,
    /// Maps positions in `scratch` back to true server indices.
    map: Vec<usize>,
}

impl<R: Router> HealthAware<R> {
    /// Wraps `inner` with health filtering.
    pub fn new(inner: R) -> Self {
        let name = format!("health-aware({})", inner.name());
        Self {
            inner,
            name,
            scratch: Vec::new(),
            map: Vec::new(),
        }
    }

    /// The wrapped router.
    pub fn inner(&self) -> &R {
        &self.inner
    }
}

impl<R: Router> Router for HealthAware<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn route(&mut self, request: &RequestSpec, servers: &[ServerView]) -> usize {
        self.scratch.clear();
        self.map.clear();
        for view in servers {
            if view.health.routable() {
                let mut v = *view;
                v.index = self.scratch.len();
                self.scratch.push(v);
                self.map.push(view.index);
            }
        }
        if self.scratch.is_empty() {
            // Nothing healthy: degrade to failure-blind routing.
            return self.inner.route(request, servers);
        }
        let choice = self.inner.route(request, &self.scratch);
        self.map[choice.min(self.map.len() - 1)]
    }

    fn key(&self, view: &ServerView) -> Option<RouteKey> {
        let key = self.inner.key(view)?;
        Some(key.demoted_if(!view.health.routable()))
    }
}

/// A keyed router's per-server keys in a [`MinTree`]: the root holds the
/// fleet's smallest `(key, index)`, so a keyed route costs O(log n) per
/// server whose view changed since the previous route instead of O(n).
#[derive(Debug)]
pub(crate) struct RouteTree {
    tree: MinTree<RouteKey>,
    /// Servers whose views changed since the last route, each once.
    dirty: Vec<u32>,
    is_dirty: Vec<bool>,
}

impl RouteTree {
    /// Keys every view, or returns `None` if `router` is not keyed.
    pub(crate) fn build(router: &dyn Router, views: &[ServerView]) -> Option<Self> {
        router.key(views.first()?)?;
        let n = views.len();
        Some(Self {
            tree: MinTree::from_fn(n, |i| keyed(router, &views[i])),
            dirty: Vec::with_capacity(n),
            is_dirty: vec![false; n],
        })
    }

    /// Records that server `i`'s view changed.
    pub(crate) fn mark(&mut self, i: usize) {
        if !self.is_dirty[i] {
            self.is_dirty[i] = true;
            self.dirty.push(i as u32);
        }
    }

    /// Re-keys every marked server, then returns the server with the
    /// smallest `(key, index)`.
    pub(crate) fn route(&mut self, router: &dyn Router, views: &[ServerView]) -> usize {
        for i in self.dirty.drain(..) {
            let i = i as usize;
            self.is_dirty[i] = false;
            self.tree.set(i, keyed(router, &views[i]));
        }
        self.tree.min().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubik_stats::DeterministicRng;

    fn view(index: usize, in_flight: usize, mhz: u32) -> ServerView {
        view_with_capacity(index, in_flight, mhz, 1.0)
    }

    fn view_with_capacity(index: usize, in_flight: usize, mhz: u32, capacity: f64) -> ServerView {
        ServerView {
            index,
            in_flight,
            queued: in_flight.saturating_sub(1),
            current_freq: Freq::from_mhz(mhz),
            capacity,
            class: 0,
            health: ServerHealth::Up,
        }
    }

    fn req() -> RequestSpec {
        RequestSpec::new(0, 0.0, 1e6, 0.0)
    }

    #[test]
    fn passthrough_always_picks_server_zero() {
        let mut r = Passthrough;
        let views = [view(0, 9, 2400), view(1, 0, 800)];
        assert_eq!(r.route(&req(), &views), 0);
        assert_eq!(r.route(&req(), &views), 0);
    }

    #[test]
    fn round_robin_cycles_in_index_order() {
        let mut r = RoundRobin::new();
        let views = [view(0, 0, 2400), view(1, 0, 2400), view(2, 0, 2400)];
        let picks: Vec<usize> = (0..7).map(|_| r.route(&req(), &views)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn jsq_picks_fewest_in_flight_lowest_index() {
        let mut r = JoinShortestQueue::new();
        let views = [view(0, 3, 2400), view(1, 1, 2400), view(2, 1, 800)];
        assert_eq!(r.route(&req(), &views), 1, "tie broken by lowest index");
        let views = [view(0, 0, 2400), view(1, 1, 800)];
        assert_eq!(r.route(&req(), &views), 0);
    }

    #[test]
    fn power_aware_breaks_queue_ties_by_cheaper_core() {
        let mut r = PowerAware::default();
        // Equal occupancy: the 800 MHz core burns less than the 3.4 GHz one.
        let views = [view(0, 1, 3400), view(1, 1, 800)];
        assert_eq!(r.route(&req(), &views), 1);
        // Queue balance still dominates.
        let views = [view(0, 0, 3400), view(1, 1, 800)];
        assert_eq!(r.route(&req(), &views), 0);
    }

    #[test]
    fn power_aware_weights_occupancy_by_capacity() {
        let mut r = PowerAware::default();
        // A big core (capacity 2) at 2 in flight ties a little core
        // (capacity 1) at 1 in flight; the cheaper little core wins the tie.
        let views = [
            view_with_capacity(0, 2, 2400, 2.0),
            view_with_capacity(1, 1, 800, 1.0),
        ];
        assert_eq!(r.route(&req(), &views), 1);
        // At 3-vs-1 the big core's normalized load (1.5) loses to 1.0.
        let views = [
            view_with_capacity(0, 3, 800, 2.0),
            view_with_capacity(1, 1, 3400, 1.0),
        ];
        assert_eq!(r.route(&req(), &views), 1);
    }

    #[test]
    fn power_aware_never_routes_to_zero_capacity_servers() {
        let mut r = PowerAware::default();
        // The idle zero-capacity server reports infinite load, so the busy
        // full-capacity one still wins.
        let views = [
            view_with_capacity(0, 0, 800, 0.0),
            view_with_capacity(1, 7, 3400, 1.0),
        ];
        assert_eq!(r.route(&req(), &views), 1);
        assert!(views[0].effective_load().is_infinite());
    }

    #[test]
    fn health_aware_ejects_down_and_straggling_servers() {
        let mut r = HealthAware::new(JoinShortestQueue::new());
        let mut views = [view(0, 0, 2400), view(1, 3, 2400), view(2, 5, 2400)];
        views[0].health = ServerHealth::Down;
        // JSQ would pick 0 (fewest in flight); health filtering picks 1.
        assert_eq!(r.route(&req(), &views), 1);
        views[1].health = ServerHealth::Straggling;
        assert_eq!(r.route(&req(), &views), 2, "stragglers get no new work");
        // Recovery readmits immediately.
        views[0].health = ServerHealth::Up;
        assert_eq!(r.route(&req(), &views), 0);
    }

    #[test]
    fn health_aware_round_robin_cycles_over_the_healthy_subset() {
        let mut r = HealthAware::new(RoundRobin::new());
        let mut views = [view(0, 0, 2400), view(1, 0, 2400), view(2, 0, 2400)];
        views[1].health = ServerHealth::Down;
        let picks: Vec<usize> = (0..4).map(|_| r.route(&req(), &views)).collect();
        assert_eq!(picks, vec![0, 2, 0, 2], "cursor runs over healthy servers");
    }

    #[test]
    fn health_aware_with_nothing_healthy_degrades_to_the_inner_router() {
        let mut r = HealthAware::new(JoinShortestQueue::new());
        let mut views = [view(0, 4, 2400), view(1, 2, 2400)];
        views[0].health = ServerHealth::Down;
        views[1].health = ServerHealth::Down;
        // Better to route somewhere (and let timeouts rescue it) than drop.
        assert_eq!(r.route(&req(), &views), 1);
    }

    #[test]
    fn health_aware_matches_inner_router_on_a_healthy_fleet() {
        let views = [view(0, 3, 2400), view(1, 1, 800), view(2, 1, 3400)];
        let mut plain = PowerAware::default();
        let mut wrapped = HealthAware::new(PowerAware::default());
        for _ in 0..5 {
            assert_eq!(plain.route(&req(), &views), wrapped.route(&req(), &views));
        }
        assert_eq!(wrapped.name(), "health-aware(power-aware)");
    }

    #[test]
    fn routers_fall_back_to_server_zero_on_an_empty_view_slice() {
        // Cluster construction rejects empty fleets (ClusterError), so this
        // is unreachable from the driver; the routers still must not panic.
        assert_eq!(JoinShortestQueue::new().route(&req(), &[]), 0);
        assert_eq!(PowerAware::default().route(&req(), &[]), 0);
        assert_eq!(
            HealthAware::new(PowerAware::default()).route(&req(), &[]),
            0
        );
    }

    /// A random fleet drawn from small value ranges, so equal occupancy,
    /// equal frequency, and whole-key ties are common; some servers have
    /// zero capacity, health is mixed, and one fleet in eight is all down.
    fn random_views(rng: &mut DeterministicRng) -> Vec<ServerView> {
        let n = 1 + rng.index(12);
        let all_down = rng.index(8) == 0;
        (0..n)
            .map(|i| {
                let mhz = [800, 1600, 2400, 3400][rng.index(4)];
                let capacity = [0.0, 0.5, 1.0, 2.0][rng.index(4)];
                let mut v = view_with_capacity(i, rng.index(4), mhz, capacity);
                v.health = if all_down {
                    ServerHealth::Down
                } else {
                    [
                        ServerHealth::Up,
                        ServerHealth::Up,
                        ServerHealth::Straggling,
                        ServerHealth::Down,
                    ][rng.index(4)]
                };
                v
            })
            .collect()
    }

    fn keyed_routers() -> Vec<Box<dyn Router>> {
        vec![
            Box::new(JoinShortestQueue::new()),
            Box::new(PowerAware::default()),
            Box::new(HealthAware::new(JoinShortestQueue::new())),
            Box::new(HealthAware::new(PowerAware::default())),
            Box::new(HealthAware::new(HealthAware::new(JoinShortestQueue::new()))),
            Box::new(HealthAware::new(HealthAware::new(PowerAware::default()))),
        ]
    }

    /// The driver's choice for a keyed router: the smallest `(key, index)`.
    fn key_choice(router: &dyn Router, views: &[ServerView]) -> usize {
        views
            .iter()
            .map(|v| (router.key(v).expect("keyed router"), v.index))
            .min()
            .expect("non-empty fleet")
            .1
    }

    #[test]
    fn keyed_routers_route_to_their_key_argmin() {
        let mut rng = DeterministicRng::new(2015);
        for round in 0..3000 {
            let views = random_views(&mut rng);
            for mut router in keyed_routers() {
                assert_eq!(
                    router.route(&req(), &views),
                    key_choice(router.as_ref(), &views),
                    "{} on round {round}: {views:?}",
                    router.name()
                );
            }
        }
    }

    #[test]
    fn keys_order_servers_as_the_original_comparisons_did() {
        // JSQ and PowerAware as they compared views before routers had keys.
        let power = CorePowerModel::haswell_like();
        let jsq = |views: &[ServerView]| {
            views
                .iter()
                .min_by_key(|v| (v.in_flight, v.index))
                .map_or(0, |v| v.index)
        };
        let power_aware = |views: &[ServerView]| {
            views
                .iter()
                .min_by(|a, b| {
                    (a.effective_load().total_cmp(&b.effective_load()))
                        .then_with(|| {
                            power
                                .active_power(a.current_freq)
                                .total_cmp(&power.active_power(b.current_freq))
                        })
                        .then_with(|| a.index.cmp(&b.index))
                })
                .map_or(0, |v| v.index)
        };
        let mut rng = DeterministicRng::new(48);
        for _ in 0..3000 {
            let views = random_views(&mut rng);
            assert_eq!(key_choice(&JoinShortestQueue::new(), &views), jsq(&views));
            assert_eq!(
                key_choice(&PowerAware::new(power), &views),
                power_aware(&views)
            );
        }
    }

    #[test]
    fn stateful_routers_and_wrappers_of_them_have_no_key() {
        let v = view(0, 1, 2400);
        assert_eq!(RoundRobin::new().key(&v), None);
        assert_eq!(Passthrough.key(&v), None);
        assert_eq!(HealthAware::new(RoundRobin::new()).key(&v), None);
        assert!(HealthAware::new(PowerAware::default()).key(&v).is_some());
    }

    #[test]
    fn route_tree_tracks_the_key_argmin_through_view_changes() {
        let mut rng = DeterministicRng::new(7);
        for n in [1usize, 2, 3, 5, 8, 13, 33] {
            for router in keyed_routers() {
                let mut views: Vec<ServerView> = (0..n)
                    .map(|i| view_with_capacity(i, rng.index(3), 800, 1.0))
                    .collect();
                let mut tree = RouteTree::build(router.as_ref(), &views).expect("keyed");
                for step in 0..400 {
                    // Change a few views, as a drain between two routes does.
                    for _ in 0..rng.index(4) {
                        let i = rng.index(n);
                        let v = &mut views[i];
                        v.in_flight = rng.index(4);
                        v.current_freq = Freq::from_mhz([800, 2400, 3400][rng.index(3)]);
                        v.capacity = [0.0, 1.0, 2.0][rng.index(3)];
                        v.health = [ServerHealth::Up, ServerHealth::Down][rng.index(2)];
                        tree.mark(i);
                    }
                    assert_eq!(
                        tree.route(router.as_ref(), &views),
                        key_choice(router.as_ref(), &views),
                        "{} at n = {n}, step {step}",
                        router.name()
                    );
                }
            }
        }
        assert!(RouteTree::build(&RoundRobin::new(), &[view(0, 0, 800)]).is_none());
    }

    #[test]
    fn f64_keys_order_as_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.5,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    RouteKey::from_f64(a, 0.0).cmp(&RouteKey::from_f64(b, 0.0)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }
}
