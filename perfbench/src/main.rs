//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload in its own process, so `peak_rss_mb`
//! is that workload's alone. Every input is generated from `--seed`. The
//! workload is repeated (setup, then run) until `--seconds` have passed:
//! `setup_s` is the median setup, `host_req_per_s` the requests served
//! over the summed run phases. Simulated metrics repeat exactly at a fixed
//! seed; every repetition must produce bit-identical outputs.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs one cold
//! traced repetition, then alternates measured and traced ones, checks
//! that all produce the same bits, prints the per-layer split of the warm
//! traced ones, and writes the traced spans to
//! `.bench_build/perfbench-spans/`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `attempted` counts the simulated requests offered across repetitions;
//! `failed` counts those never completed, or all of them if any output
//! check failed.

mod fleet;
mod paper;
mod probe;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use probe::{Mode, Plain, Traced, LAYERS};

/// The workloads, each chosen to stress different layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Routing-bound: `PowerAware` scans all 1000 servers per arrival.
    FleetPoweraware1k,
    /// Hook- and fault-heavy: table rebuilds, the fault layer, epochs,
    /// migration, and the JSON trace codec; routing is small.
    FleetFaultsDiurnal,
    /// No cluster code: single-server simulation, Rubik, the oracles,
    /// coloc and the sweep executor.
    PaperFigures,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::FleetPoweraware1k,
        Workload::FleetFaultsDiurnal,
        Workload::PaperFigures,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::FleetPoweraware1k => "fleet_poweraware_1k",
            Workload::FleetFaultsDiurnal => "fleet_faults_diurnal",
            Workload::PaperFigures => "paper_figures",
        }
    }

    fn rep<M: Mode>(self, seed: u64) -> Rep {
        match self {
            Workload::FleetPoweraware1k => fleet::poweraware::rep::<M>(seed),
            Workload::FleetFaultsDiurnal => fleet::faults::rep::<M>(seed),
            Workload::PaperFigures => paper::rep::<M>(seed),
        }
    }
}

/// Simulated end-to-end metrics: model outputs, exact at a fixed seed.
#[derive(Debug, Clone, Copy)]
pub struct SimMetrics {
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub energy_mj_per_req: f64,
    pub goodput_frac: f64,
}

impl SimMetrics {
    fn check_finite(&self, failures: &mut Vec<String>) {
        for (name, v) in [
            ("sim_p95_ms", self.p95_ms),
            ("sim_p99_ms", self.p99_ms),
            ("sim_energy_mj_per_req", self.energy_mj_per_req),
            ("goodput_frac", self.goodput_frac),
        ] {
            if !v.is_finite() {
                failures.push(format!("{name} is {v}"));
            }
        }
    }
}

/// What one repetition (setup, then run) of a workload produced.
#[derive(Debug)]
pub struct Rep {
    /// Setup timings (several when one setup is too short to time alone).
    setup_s: Vec<f64>,
    run_s: f64,
    /// Simulated requests served by the run phase.
    served: u64,
    offered: u64,
    /// Offered requests that never completed.
    lost: u64,
    sim: SimMetrics,
    /// Hash of the debug image of every simulated output.
    fingerprint: u64,
    /// Failed output checks.
    failures: Vec<String>,
    /// Per-layer values only the workload knows: outcome counters, sweep
    /// timings, memory per controller.
    layer: Vec<(&'static str, f64)>,
}

impl Rep {
    fn failed(setup_s: f64, run_s: f64, offered: usize, why: String) -> Rep {
        Rep {
            setup_s: vec![setup_s],
            run_s,
            served: 0,
            offered: offered.max(1) as u64,
            lost: offered.max(1) as u64,
            sim: SimMetrics {
                p95_ms: f64::NAN,
                p99_ms: f64::NAN,
                energy_mj_per_req: f64::NAN,
                goodput_frac: f64::NAN,
            },
            fingerprint: 0,
            failures: vec![why],
            layer: Vec::new(),
        }
    }

    fn layer(&self, name: &str) -> f64 {
        self.layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Derives an independent generator seed for one input stream of a
/// workload (splitmix64 over the run seed and the stream's name), kept
/// below 2^48 so the library's own seed offsets cannot overflow.
pub fn derive_seed(seed: u64, stream: &str) -> u64 {
    let mut z = stream.bytes().fold(seed ^ 0x9E37_79B9_7F4A_7C15, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
    });
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 16
}

/// Hash of a value's debug image. `{:?}` prints every `f64` in shortest
/// round-trip form, so equal hashes mean bit-identical outputs.
pub fn fingerprint<T: std::fmt::Debug>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    format!("{value:?}").hash(&mut hasher);
    hasher.finish()
}

fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN)
}

/// Resident memory of this process now, in kB.
pub fn rss_kb() -> f64 {
    proc_status_kb("VmRSS:")
}

fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A metric as printed: name, value, unit, and which way is better.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    better: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        better,
    }
}

/// Reps of a workload never run fewer than this, whatever `--seconds` says.
const MIN_REPS: usize = 3;

fn end_to_end(workload: Workload, seed: u64, budget: Duration) -> (Vec<Rep>, Vec<Metric>) {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        reps.push(workload.rep::<Plain>(seed));
    }
    let setup: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    let served: u64 = reps.iter().map(|r| r.served).sum();
    let run_s: f64 = reps.iter().map(|r| r.run_s).sum();
    let sim = reps[0].sim;
    let metrics = vec![
        metric("setup_s", median(&setup), "s", "lower"),
        metric("host_req_per_s", served as f64 / run_s, "req/s", "higher"),
        metric(
            "peak_rss_mb",
            proc_status_kb("VmHWM:") / 1024.0,
            "MB",
            "lower",
        ),
        metric("sim_p95_ms", sim.p95_ms, "sim_ms", "lower"),
        metric("sim_p99_ms", sim.p99_ms, "sim_ms", "lower"),
        metric(
            "sim_energy_mj_per_req",
            sim.energy_mj_per_req,
            "sim_mJ/req",
            "lower",
        ),
        metric("goodput_frac", sim.goodput_frac, "fraction", "higher"),
    ];
    (reps, metrics)
}

fn per_layer(workload: Workload, seed: u64, budget: Duration) -> (Vec<Rep>, Vec<Metric>) {
    // One cold traced repetition first, so its memory reading sees a fresh
    // heap; then warm measured and traced repetitions alternate until the
    // budget is spent, and only the warm ones feed the split.
    let cold = workload.rep::<Traced>(seed);
    LAYERS.reset();
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while traced.is_empty() || start.elapsed() < budget {
        plain.push(workload.rep::<Plain>(seed));
        traced.push(workload.rep::<Traced>(seed));
    }
    let n = traced.len() as f64;
    let per_rep = |c: &probe::Counter| (c.calls() as f64 / n, c.busy_s() / n);
    let ratio = |busy: f64, calls: f64, scale: f64| {
        if calls > 0.0 {
            busy / calls * scale
        } else {
            0.0
        }
    };
    let mean = |name: &str| traced.iter().map(|r| r.layer(name)).sum::<f64>() / n;

    let (routes, route_s) = per_rep(&LAYERS.route);
    let (arrivals, arrival_s) = per_rep(&LAYERS.arrival);
    let (decisions, decide_s) = per_rep(&LAYERS.decide);
    let (ticks, tick_s) = per_rep(&LAYERS.tick);
    let (seeds, seed_s) = per_rep(&LAYERS.seed);
    let (epochs, epoch_s) = per_rep(&LAYERS.epoch);
    let (plans, plan_s) = per_rep(&LAYERS.plan);
    let (_, run_s) = per_rep(&LAYERS.run);
    let (_, cell_s) = per_rep(&LAYERS.cell);
    let (_, fixed_s) = per_rep(&LAYERS.fixed);
    let (_, static_s) = per_rep(&LAYERS.static_oracle);
    let (_, dynamic_s) = per_rep(&LAYERS.dynamic_oracle);
    let (_, trace_gen_s) = per_rep(&LAYERS.trace_gen);
    let (_, coloc_s) = per_rep(&LAYERS.coloc);
    let rebuilds = LAYERS.rebuilds.load(std::sync::atomic::Ordering::Relaxed) as f64 / n;
    let skipped = LAYERS
        .rebuilds_skipped
        .load(std::sync::atomic::Ordering::Relaxed) as f64
        / n;
    // Engine self time: the run's thread time minus the timed layers
    // inside it. Paper cells run on worker threads, so there the run's
    // thread time is the sum of the cells.
    let engine_s = match workload {
        Workload::PaperFigures => {
            cell_s
                - (trace_gen_s
                    + fixed_s
                    + static_s
                    + dynamic_s
                    + coloc_s
                    + seed_s
                    + decide_s
                    + tick_s)
        }
        _ => run_s - (route_s + arrival_s + decide_s + tick_s + epoch_s + plan_s),
    };
    let served = traced[0].served as f64;
    let run_median = |reps: &[Rep]| median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());

    let metrics = vec![
        metric("router.calls", routes, "count", "lower"),
        metric("router.busy_s", route_s, "s", "lower"),
        metric(
            "router.ns_per_call",
            ratio(route_s, routes, 1e9),
            "ns",
            "lower",
        ),
        metric("load.arrivals", arrivals, "count", "lower"),
        metric("load.busy_s", arrival_s, "s", "lower"),
        metric(
            "load.ns_per_arrival",
            ratio(arrival_s, arrivals, 1e9),
            "ns",
            "lower",
        ),
        metric("load.capture_s", per_rep(&LAYERS.capture).1, "s", "lower"),
        metric("rubik.decisions", decisions, "count", "lower"),
        metric("rubik.decide_busy_s", decide_s, "s", "lower"),
        metric(
            "rubik.ns_per_decision",
            ratio(decide_s, decisions, 1e9),
            "ns",
            "lower",
        ),
        metric("rubik.ticks", ticks, "count", "lower"),
        metric("rubik.tick_busy_s", tick_s, "s", "lower"),
        metric("rubik.rebuilds", rebuilds, "count", "lower"),
        metric("rubik.rebuilds_skipped", skipped, "count", "higher"),
        metric(
            "rubik.ms_per_rebuild",
            ratio(tick_s, rebuilds, 1e3),
            "ms",
            "lower",
        ),
        metric("rubik.seeds", seeds, "count", "lower"),
        metric("rubik.seed_busy_s", seed_s, "s", "lower"),
        metric(
            "rubik.ms_per_seed",
            ratio(seed_s, seeds, 1e3),
            "ms",
            "lower",
        ),
        metric(
            "rubik.kb_per_controller",
            cold.layer("rubik.kb_per_controller"),
            "KB",
            "lower",
        ),
        metric("fleet.epochs", epochs, "count", "lower"),
        metric("fleet.busy_s", epoch_s, "s", "lower"),
        metric("migrate.plans", plans, "count", "lower"),
        metric("migrate.busy_s", plan_s, "s", "lower"),
        metric("migrate.moved", mean("migrate.moved"), "count", "lower"),
        metric(
            "fault.plan_events",
            mean("fault.plan_events"),
            "count",
            "lower",
        ),
        metric("fault.compile_s", per_rep(&LAYERS.compile).1, "s", "lower"),
        metric("fault.timeouts", mean("fault.timeouts"), "count", "lower"),
        metric("fault.retries", mean("fault.retries"), "count", "lower"),
        metric("fault.requeued", mean("fault.requeued"), "count", "lower"),
        metric("fault.hedged", mean("fault.hedged"), "count", "lower"),
        metric(
            "fault.hedge_win_frac",
            mean("fault.hedge_win_frac"),
            "fraction",
            "higher",
        ),
        metric("engine.self_s", engine_s, "s", "lower"),
        metric(
            "engine.us_per_request",
            ratio(engine_s, served, 1e6),
            "us",
            "lower",
        ),
        metric("sim.fixed_busy_s", fixed_s, "s", "lower"),
        metric("oracle.static_busy_s", static_s, "s", "lower"),
        metric("oracle.dynamic_busy_s", dynamic_s, "s", "lower"),
        metric("workloads.trace_s", trace_gen_s, "s", "lower"),
        metric("sweep.cells", mean("sweep.cells"), "count", "lower"),
        metric("sweep.cell_busy_s", mean("sweep.cell_busy_s"), "s", "lower"),
        metric("sweep.max_cell_s", mean("sweep.max_cell_s"), "s", "lower"),
        metric(
            "sweep.efficiency",
            mean("sweep.efficiency"),
            "fraction",
            "higher",
        ),
        metric(
            "coloc.context_s",
            per_rep(&LAYERS.coloc_context).1,
            "s",
            "lower",
        ),
        metric("coloc.busy_s", coloc_s, "s", "lower"),
        metric(
            "trace.overhead_frac",
            run_median(&traced) / run_median(&plain) - 1.0,
            "fraction",
            "lower",
        ),
    ];
    let mut reps = vec![cold];
    reps.extend(plain);
    reps.extend(traced);
    (reps, metrics)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let (reps, metrics) = if args.trace {
        per_layer(args.workload, args.seed, budget)
    } else {
        end_to_end(args.workload, args.seed, budget)
    };

    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();
    if let Some(k) = reps
        .iter()
        .position(|r| r.fingerprint != reps[0].fingerprint)
    {
        failures.push(format!(
            "repetition {k} produced different outputs from repetition 0{}",
            if args.trace {
                " (traced and measured runs disagree)"
            } else {
                ""
            }
        ));
    }
    let attempted: u64 = reps.iter().map(|r| r.offered).sum::<u64>().max(1);
    let correct = failures.is_empty();
    let failed = if correct {
        reps.iter().map(|r| r.lost).sum()
    } else {
        attempted
    };

    if args.trace {
        let path = std::path::Path::new(".bench_build/perfbench-spans").join(format!(
            "{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        match probe::write_spans(&path) {
            Ok(n) => println!("# {n} spans written to {}", path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    println!(
        "# workload {} seed {} repetitions {} trace {}",
        args.workload.name(),
        args.seed,
        reps.len(),
        u8::from(args.trace)
    );
    for f in &failures {
        println!("# CHECK FAILED: {f}");
    }
    let times = |f: fn(&Rep) -> f64| {
        let v: Vec<String> = reps.iter().map(|r| format!("{:.4}", f(r))).collect();
        v.join(" ")
    };
    println!("# run_s per repetition: {}", times(|r| r.run_s));
    println!(
        "# setup_s per repetition: {}",
        times(|r| median(&r.setup_s))
    );
    println!("# metric\tvalue\tunit\tbetter");
    for m in &metrics {
        println!("# {}\t{}\t{}\t{}", m.name, m.value, m.unit, m.better);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}
