//! Instruments for the traced run: per-layer count/busy accumulators,
//! coarse spans, and timing wrappers around the library's extension traits.
//!
//! Workloads are generic over [`Mode`]. The measured run uses [`Plain`],
//! which hands the library the plain types and times nothing, so the
//! end-to-end numbers carry no instrumentation at all. The traced run uses
//! [`Traced`], which wraps every router, arrival source, fleet controller,
//! migrator and DVFS policy in a timer. Hot per-request calls (routes,
//! arrivals, decisions, ticks) only bump a count and a busy time; coarse
//! calls (setup phases, the run, sweep cells, scheme calls, epochs,
//! migration plans) also record a span with its parent, kept in memory and
//! written out when the benchmark ends.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use rubik::cluster::{FleetCommand, Migration, ServerPowerView, ServerView};
use rubik::core::RubikStats;
use rubik::sim::{PolicyDecision, ServerState};
use rubik::{
    ArrivalSource, DvfsPolicy, FleetController, Freq, Migrator, RequestRecord, RequestSpec, Router,
    RubikController,
};

/// Calls into one layer: how many, and the host time spent inside them.
/// Statistics only, so relaxed atomics suffice.
#[derive(Debug)]
pub struct Counter {
    /// Span name recorded for coarse calls.
    name: &'static str,
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl Counter {
    const fn new(name: &'static str) -> Self {
        Self {
            name,
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    fn add_since(&self, start: Instant) {
        self.calls.fetch_add(1, Relaxed);
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Relaxed) as f64 * 1e-9
    }

    fn reset(&self) {
        self.calls.store(0, Relaxed);
        self.busy_ns.store(0, Relaxed);
    }
}

/// Every layer the traced run times, named after the module it calls into.
#[derive(Debug)]
pub struct Layers {
    /// `cluster::router`: `Router::route`.
    pub route: Counter,
    /// `load`: `ArrivalSource::next_arrival`.
    pub arrival: Counter,
    /// `load`: capturing a stream through `StreamingTraceWriter`.
    pub capture: Counter,
    /// `core::rubik`: `on_arrival` and `on_completion` decisions.
    pub decide: Counter,
    /// `core::rubik` + `core::tables`: `on_tick` (table rebuilds, feedback).
    pub tick: Counter,
    /// `core::rubik`: building a controller's profile and first tables.
    pub seed: Counter,
    /// `cluster::fleet`: `FleetController::on_epoch`.
    pub epoch: Counter,
    /// `cluster::migrate`: `Migrator::plan`.
    pub plan: Counter,
    /// `cluster::topology`: `StochasticFaults::compile`.
    pub compile: Counter,
    /// `sim::Server` under fixed frequency (`Harness::run_fixed`).
    pub fixed: Counter,
    /// `core::static_oracle` (`Harness::run_static_oracle`).
    pub static_oracle: Counter,
    /// `core::dynamic_oracle` (`Harness::run_dynamic_oracle`).
    pub dynamic_oracle: Counter,
    /// One Rubik scheme call in the paper grid.
    pub rubik_scheme: Counter,
    /// `workloads`: trace generation (`Harness::trace`).
    pub trace_gen: Counter,
    /// `coloc`: the datacenter sweep context.
    pub coloc_context: Counter,
    /// `coloc`: one datacenter load point.
    pub coloc: Counter,
    /// `sweep`: one grid cell.
    pub cell: Counter,
    /// The whole setup phase of one repetition.
    pub setup: Counter,
    /// The whole run phase of one repetition.
    pub run: Counter,
    /// Table rebuilds performed and skipped during runs (from `RubikStats`).
    pub rebuilds: AtomicU64,
    pub rebuilds_skipped: AtomicU64,
}

impl Layers {
    /// Zeroes every count and busy time (spans are kept).
    pub fn reset(&self) {
        for counter in [
            &self.route,
            &self.arrival,
            &self.capture,
            &self.decide,
            &self.tick,
            &self.seed,
            &self.epoch,
            &self.plan,
            &self.compile,
            &self.fixed,
            &self.static_oracle,
            &self.dynamic_oracle,
            &self.rubik_scheme,
            &self.trace_gen,
            &self.coloc_context,
            &self.coloc,
            &self.cell,
            &self.setup,
            &self.run,
        ] {
            counter.reset();
        }
        self.rebuilds.store(0, Relaxed);
        self.rebuilds_skipped.store(0, Relaxed);
    }
}

pub static LAYERS: Layers = Layers {
    route: Counter::new("router.route"),
    arrival: Counter::new("load.next_arrival"),
    capture: Counter::new("load.capture"),
    decide: Counter::new("rubik.decide"),
    tick: Counter::new("rubik.on_tick"),
    seed: Counter::new("rubik.seed"),
    epoch: Counter::new("fleet.on_epoch"),
    plan: Counter::new("migrate.plan"),
    compile: Counter::new("fault.compile"),
    fixed: Counter::new("harness.run_fixed"),
    static_oracle: Counter::new("harness.run_static_oracle"),
    dynamic_oracle: Counter::new("harness.run_dynamic_oracle"),
    rubik_scheme: Counter::new("harness.run_rubik"),
    trace_gen: Counter::new("harness.trace"),
    coloc_context: Counter::new("coloc.context"),
    coloc: Counter::new("coloc.evaluate"),
    cell: Counter::new("sweep.cell"),
    setup: Counter::new("setup"),
    run: Counter::new("run"),
    rebuilds: AtomicU64::new(0),
    rebuilds_skipped: AtomicU64::new(0),
};

/// One coarse call: name, start and end in ns since the first span, the
/// span that was open around it (0 = none), and the thread it ran on.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    thread: String,
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static ORIGIN: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The innermost span open on this thread (0 = none); pass it to
/// [`Mode::time_under`] for work that continues on another thread.
pub fn current_span() -> u64 {
    OPEN.with(|open| open.borrow().last().copied().unwrap_or(0))
}

fn traced_call<T>(counter: &Counter, parent: u64, f: impl FnOnce() -> T) -> T {
    let origin = *ORIGIN.get_or_init(Instant::now);
    let id = NEXT_SPAN.fetch_add(1, Relaxed);
    OPEN.with(|open| open.borrow_mut().push(id));
    let start = Instant::now();
    let out = f();
    counter.add_since(start);
    let end = Instant::now();
    OPEN.with(|open| open.borrow_mut().pop());
    let span = Span {
        id,
        parent,
        name: counter.name,
        start_ns: start.saturating_duration_since(origin).as_nanos() as u64,
        end_ns: end.saturating_duration_since(origin).as_nanos() as u64,
        thread: format!("{:?}", std::thread::current().id()),
    };
    SPANS
        .lock()
        .expect("span log poisoned by a panicking thread")
        .push(span);
    out
}

/// Writes every recorded span as one JSON array.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<usize> {
    use std::io::Write;
    let spans = SPANS
        .lock()
        .expect("span log poisoned by a panicking thread");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":\"{}\"}}{sep}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.thread
        )?;
    }
    out.write_all(b"]\n")?;
    out.flush()?;
    Ok(spans.len())
}

/// How a workload builds the objects it hands to the library.
pub trait Mode {
    /// The per-server DVFS policy type.
    type Policy: DvfsPolicy;
    /// The arrival source type wrapping `S`.
    type Source<S: ArrivalSource>: ArrivalSource;
    /// Whether this mode times anything.
    const TRACED: bool;

    fn policy(rubik: RubikController) -> Self::Policy;
    fn source<S: ArrivalSource>(source: S) -> Self::Source<S>;
    fn router(router: impl Router + 'static) -> Box<dyn Router>;
    fn fleet(fleet: impl FleetController + 'static) -> Box<dyn FleetController>;
    fn migrator(migrator: impl Migrator + 'static) -> Box<dyn Migrator>;

    /// Runs one coarse call, as a child of the span open on this thread.
    fn time<T>(counter: &Counter, f: impl FnOnce() -> T) -> T {
        Self::time_under(current_span(), counter, f)
    }

    /// Runs one coarse call as a child of `parent`.
    fn time_under<T>(parent: u64, counter: &Counter, f: impl FnOnce() -> T) -> T;
}

/// The measured run: plain library types, nothing timed.
#[derive(Debug)]
pub struct Plain;

impl Mode for Plain {
    type Policy = RubikController;
    type Source<S: ArrivalSource> = S;
    const TRACED: bool = false;

    fn policy(rubik: RubikController) -> RubikController {
        rubik
    }

    fn source<S: ArrivalSource>(source: S) -> S {
        source
    }

    fn router(router: impl Router + 'static) -> Box<dyn Router> {
        Box::new(router)
    }

    fn fleet(fleet: impl FleetController + 'static) -> Box<dyn FleetController> {
        Box::new(fleet)
    }

    fn migrator(migrator: impl Migrator + 'static) -> Box<dyn Migrator> {
        Box::new(migrator)
    }

    fn time_under<T>(_parent: u64, _counter: &Counter, f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// The traced run: every layer object wrapped in a timer.
#[derive(Debug)]
pub struct Traced;

impl Mode for Traced {
    type Policy = TimedPolicy;
    type Source<S: ArrivalSource> = Timed<S>;
    const TRACED: bool = true;

    fn policy(rubik: RubikController) -> TimedPolicy {
        TimedPolicy::new(rubik)
    }

    fn source<S: ArrivalSource>(source: S) -> Timed<S> {
        Timed(source)
    }

    fn router(router: impl Router + 'static) -> Box<dyn Router> {
        Box::new(Timed(router))
    }

    fn fleet(fleet: impl FleetController + 'static) -> Box<dyn FleetController> {
        Box::new(Timed(fleet))
    }

    fn migrator(migrator: impl Migrator + 'static) -> Box<dyn Migrator> {
        Box::new(Timed(migrator))
    }

    fn time_under<T>(parent: u64, counter: &Counter, f: impl FnOnce() -> T) -> T {
        traced_call(counter, parent, f)
    }
}

/// A timer around one router, arrival source, fleet controller or
/// migrator. Every other trait method is forwarded untouched.
#[derive(Debug)]
pub struct Timed<T>(T);

impl<R: Router> Router for Timed<R> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn route(&mut self, request: &RequestSpec, servers: &[ServerView]) -> usize {
        let start = Instant::now();
        let choice = self.0.route(request, servers);
        LAYERS.route.add_since(start);
        choice
    }
}

impl<S: ArrivalSource> ArrivalSource for Timed<S> {
    fn next_arrival(&mut self) -> Option<RequestSpec> {
        let start = Instant::now();
        let next = self.0.next_arrival();
        LAYERS.arrival.add_since(start);
        next
    }

    fn remaining_hint(&self) -> Option<usize> {
        self.0.remaining_hint()
    }
}

impl<F: FleetController> FleetController for Timed<F> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn epoch(&self) -> f64 {
        self.0.epoch()
    }

    fn on_epoch(
        &mut self,
        now: f64,
        elapsed: f64,
        servers: &[ServerPowerView<'_>],
        commands: &mut Vec<FleetCommand>,
    ) {
        let inner = &mut self.0;
        traced_call(&LAYERS.epoch, current_span(), || {
            inner.on_epoch(now, elapsed, servers, commands)
        });
    }
}

impl<M: Migrator> Migrator for Timed<M> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn interval(&self) -> f64 {
        self.0.interval()
    }

    fn plan(&mut self, now: f64, servers: &[ServerView], moves: &mut Vec<Migration>) {
        let inner = &mut self.0;
        traced_call(&LAYERS.plan, current_span(), || {
            inner.plan(now, servers, moves)
        });
    }
}

/// A timer around one Rubik controller. It forwards all seven
/// `DvfsPolicy` methods: a missed forward would fall back to the trait's
/// default and silently change idle power or fleet bound scaling. When
/// dropped it adds the table rebuilds the controller did while wrapped.
#[derive(Debug)]
pub struct TimedPolicy {
    inner: RubikController,
    at_wrap: RubikStats,
}

impl TimedPolicy {
    fn new(inner: RubikController) -> Self {
        let at_wrap = inner.stats();
        Self { inner, at_wrap }
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        let now = self.inner.stats();
        LAYERS.rebuilds.fetch_add(
            now.table_rebuilds_performed - self.at_wrap.table_rebuilds_performed,
            Relaxed,
        );
        LAYERS.rebuilds_skipped.fetch_add(
            now.table_rebuilds_skipped - self.at_wrap.table_rebuilds_skipped,
            Relaxed,
        );
    }
}

impl DvfsPolicy for TimedPolicy {
    fn name(&self) -> &str {
        DvfsPolicy::name(&self.inner)
    }

    fn on_arrival(&mut self, state: &ServerState) -> PolicyDecision {
        let start = Instant::now();
        let decision = self.inner.on_arrival(state);
        LAYERS.decide.add_since(start);
        decision
    }

    fn on_completion(&mut self, state: &ServerState, record: &RequestRecord) -> PolicyDecision {
        let start = Instant::now();
        let decision = self.inner.on_completion(state, record);
        LAYERS.decide.add_since(start);
        decision
    }

    fn on_tick(&mut self, state: &ServerState) -> PolicyDecision {
        let start = Instant::now();
        let decision = self.inner.on_tick(state);
        LAYERS.tick.add_since(start);
        decision
    }

    fn idle_frequency(&self) -> Option<Freq> {
        self.inner.idle_frequency()
    }

    fn latency_bound(&self) -> Option<f64> {
        DvfsPolicy::latency_bound(&self.inner)
    }

    fn set_latency_bound(&mut self, bound: f64) -> bool {
        DvfsPolicy::set_latency_bound(&mut self.inner, bound)
    }
}
