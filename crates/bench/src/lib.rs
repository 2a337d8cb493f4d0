//! Shared harness for the experiment-reproduction binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that prints the corresponding rows/series as tab-separated
//! text. This library holds the pieces they share: building traces at the
//! paper's loads, computing the latency bound (tail latency of the
//! fixed-frequency scheme at 50% load), and running each scheme on a trace.
//!
//! # Perf tracking
//!
//! `benches/table_rebuild.rs` and `benches/decision_latency.rs` measure the
//! controller's two hot paths (spectral table rebuild vs the direct
//! reference builder, and per-arrival decision latency) and merge their
//! results into `BENCH_controller.json` at the repo root — one JSON object
//! `{"benchmarks": [{"id", "mean_ns", "median_ns", "min_ns", "samples",
//! "iters_per_sample", "elems_per_iter"}]}`, written by the vendored
//! criterion's JSON emitter and uploaded as a CI artifact so the perf
//! trajectory is visible across PRs. `benches/sweep_throughput.rs` adds the
//! fleet-scale axis: serial vs N-thread wall time of the paper-shaped
//! colocation grid on `rubik-sweep`, merged into the same file plus a
//! `BENCH_sweep.json` summary. `benches/cluster_throughput.rs` tracks the
//! multi-server event loop (10/100/1000-server fleets, Rubik per server)
//! and `benches/fleet_cap.rs` the fleet-management acceptance experiment
//! (100 big/little servers under a global power budget, with and without
//! queue migration); both merge their summaries into named sections of
//! `BENCH_cluster.json` via [`merge_bench_section`].

use rubik::core::{replay, replay_energy, replay_tail};
use rubik::load::LoadShape;
use rubik::{
    AdrenalineOracle, AppProfile, CorePowerModel, DynamicOracle, FixedFrequencyPolicy, Freq,
    RubikConfig, RubikController, RunResult, Server, SimConfig, StaticOracle, Telemetry, Trace,
    TraceLog, WorkloadGenerator,
};
use rubik_sweep::SweepExecutor;

pub mod faults;
pub mod hedge;

/// Tail percentile used throughout the evaluation.
pub const TAIL_QUANTILE: f64 = 0.95;

/// Command-line flags shared by every `fig*`/`table*` binary.
///
/// All flags are optional overrides of each binary's paper defaults:
///
/// * `--requests N` — requests per experiment run,
/// * `--seed N` — base RNG seed,
/// * `--threads N` — worker threads for the grid sweeps (`0` = one per
///   available core); forwarded to [`rubik_sweep::SweepExecutor`]. Results
///   are independent of this flag by the engine's determinism contract,
/// * `--trace-out PATH` — write a telemetry trace of the binary's
///   representative run to `PATH`: Chrome `trace_event` JSON (open in
///   `chrome://tracing` or Perfetto) when the path ends in `.trace.json`,
///   the self-describing `rubik-trace-v1` format otherwise. Recording never
///   changes results (the telemetry neutrality contract) and never touches
///   stdout, so golden captures are unaffected. Binaries without a traced
///   run accept and ignore the flag,
/// * `--load-shape SPEC` — replace a fleet binary's steady arrival process
///   with a time-varying one (see [`LoadShapeArg`]): `steady`,
///   `ramp:FROM:TO`, `step:BEFORE:AFTER`, or `diurnal:MEAN:AMPLITUDE`, all
///   loads as fractions of per-server nominal capacity. Binaries without a
///   shaped mode accept and ignore the flag; output with the flag absent is
///   byte-identical to before the flag existed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchArgs {
    /// Override for the per-run request count.
    pub requests: Option<usize>,
    /// Override for the base RNG seed.
    pub seed: Option<u64>,
    /// Worker threads for grid sweeps (`None` = binary default of auto).
    pub threads: Option<usize>,
    /// Telemetry trace destination (`None` = tracing disabled).
    pub trace_out: Option<String>,
    /// Time-varying load shape override (`None` = the binary's steady
    /// default arrival process).
    pub load_shape: Option<LoadShapeArg>,
}

/// The `--load-shape` axis: a parsed shape specification, turned into a
/// concrete [`LoadShape`] once the binary knows its duration scale.
///
/// All load levels are fractions of *per-server* nominal capacity, matching
/// the per-server loads the fleet binaries already print; sources scale to
/// the fleet with `ShapedSource::for_fleet`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadShapeArg {
    /// `steady` — constant at the binary's default per-server load.
    Steady,
    /// `ramp:FROM:TO` — linear ramp across the run.
    Ramp {
        /// Load at the start of the run.
        from: f64,
        /// Load at the end of the run.
        to: f64,
    },
    /// `step:BEFORE:AFTER` — a load step at the run midpoint.
    Step {
        /// Load before the midpoint.
        before: f64,
        /// Load after the midpoint.
        after: f64,
    },
    /// `diurnal:MEAN:AMPLITUDE` — two sinusoid periods across the run.
    Diurnal {
        /// Mean load.
        mean: f64,
        /// Swing amplitude (`≤ mean`).
        amplitude: f64,
    },
}

impl LoadShapeArg {
    /// Parses a `--load-shape` specification. Its levels are checked by
    /// [`LoadShape::validate`] on the shape over a unit window, so a spec
    /// parses only if the shape offers load somewhere.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the malformed part, or the shape's
    /// [`LoadShapeError`](rubik::load::LoadShapeError).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut parts = spec.split(':');
        let kind = parts.next().unwrap_or_default();
        let mut num = |name: &str| {
            parts
                .next()
                .ok_or_else(|| format!("--load-shape {kind}: missing {name}"))
                .and_then(|v| {
                    v.parse::<f64>()
                        .map_err(|_| format!("--load-shape {kind}: invalid {name} {v:?}"))
                })
        };
        let arg = match kind {
            "steady" => Self::Steady,
            "ramp" => Self::Ramp {
                from: num("FROM")?,
                to: num("TO")?,
            },
            "step" => Self::Step {
                before: num("BEFORE")?,
                after: num("AFTER")?,
            },
            "diurnal" => Self::Diurnal {
                mean: num("MEAN")?,
                amplitude: num("AMPLITUDE")?,
            },
            other => {
                return Err(format!(
                    "--load-shape: unknown shape {other:?} (expected steady, ramp, step, diurnal)"
                ))
            }
        };
        if parts.next().is_some() {
            return Err(format!("--load-shape {kind}: too many parameters"));
        }
        // Over a unit window; `steady` runs at the binary's own load,
        // which is valid.
        arg.to_shape(1.0, 1.0)
            .validate()
            .map_err(|e| format!("--load-shape {spec}: {e}"))?;
        Ok(arg)
    }

    /// The concrete [`LoadShape`] over a window of `duration` seconds;
    /// `base_load` fills in the level for [`LoadShapeArg::Steady`].
    pub fn to_shape(&self, base_load: f64, duration: f64) -> LoadShape {
        match *self {
            Self::Steady => LoadShape::Steady {
                load: base_load,
                duration,
            },
            Self::Ramp { from, to } => LoadShape::Ramp { from, to, duration },
            Self::Step { before, after } => LoadShape::Step {
                before,
                after,
                at: duration / 2.0,
                duration,
            },
            Self::Diurnal { mean, amplitude } => LoadShape::Diurnal {
                mean,
                amplitude,
                period: duration / 2.0,
                duration,
            },
        }
    }

    /// Time-averaged load of the shape, used to size the window so a run
    /// draws roughly the binary's request budget: the
    /// [`LoadShape::average_load`] of the shape over a one-second window,
    /// where halving is exact, so a step or ramp averages to
    /// `0.5 × (a + b)` bit for bit.
    pub fn average_load(&self, base_load: f64) -> f64 {
        self.to_shape(base_load, 1.0).average_load()
    }

    /// A stable human-readable label (used in figure headers).
    pub fn label(&self) -> String {
        match *self {
            Self::Steady => "steady".to_string(),
            Self::Ramp { from, to } => format!("ramp:{from}:{to}"),
            Self::Step { before, after } => format!("step:{before}:{after}"),
            Self::Diurnal { mean, amplitude } => format!("diurnal:{mean}:{amplitude}"),
        }
    }
}

impl BenchArgs {
    /// Parses the process arguments; prints usage and exits on `--help` or
    /// a malformed flag.
    pub fn parse() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", Self::usage());
            std::process::exit(0);
        }
        match Self::parse_from(&argv) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("error: {e}\n{}", Self::usage());
                std::process::exit(2);
            }
        }
    }

    /// Parses a flag list (exposed for tests).
    pub fn parse_from(argv: &[String]) -> Result<Self, String> {
        let mut args = Self::default();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .ok_or_else(|| format!("{name} requires a value"))
                    .and_then(|v| {
                        v.parse::<u64>()
                            .map_err(|_| format!("{name}: invalid number {v:?}"))
                    })
            };
            match flag.as_str() {
                "--requests" => args.requests = Some(value("--requests")? as usize),
                "--seed" => args.seed = Some(value("--seed")?),
                "--threads" => args.threads = Some(value("--threads")? as usize),
                "--trace-out" => {
                    let path = it
                        .next()
                        .ok_or_else(|| "--trace-out requires a path".to_string())?;
                    if path.is_empty() {
                        return Err("--trace-out: path must not be empty".to_string());
                    }
                    args.trace_out = Some(path.clone());
                }
                "--load-shape" => {
                    let spec = it
                        .next()
                        .ok_or_else(|| "--load-shape requires a shape spec".to_string())?;
                    args.load_shape = Some(LoadShapeArg::parse(spec)?);
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if args.requests == Some(0) {
            return Err("--requests must be at least 1".to_string());
        }
        Ok(args)
    }

    /// The usage string printed for `--help`.
    pub fn usage() -> String {
        "usage: <figure-binary> [--requests N] [--seed N] [--threads N] [--trace-out PATH]\n\
         \x20                [--load-shape SPEC]\n\
         \n\
         --requests N     requests per experiment run (default: the figure's paper shape)\n\
         --seed N         base RNG seed (default: the figure's published seed)\n\
         --threads N      worker threads for grid sweeps; 0 = one per core (default: 0)\n\
         --trace-out PATH write a telemetry trace of the representative run: Chrome\n\
         \x20                trace_event JSON if PATH ends in .trace.json, rubik-trace-v1\n\
         \x20                JSON otherwise (recording never changes results or stdout)\n\
         --load-shape SPEC time-varying arrival process for the fleet binaries:\n\
         \x20                steady | ramp:FROM:TO | step:BEFORE:AFTER |\n\
         \x20                diurnal:MEAN:AMPLITUDE, loads as fractions of per-server\n\
         \x20                nominal capacity (default: the figure's steady load)\n\
         \n\
         Results are bit-identical for any --threads value (rubik-sweep's\n\
         determinism contract); the flag only changes wall-clock time."
            .to_string()
    }

    /// Applies the request/seed overrides to a harness built with the
    /// binary's defaults.
    pub fn apply(&self, mut harness: Harness) -> Harness {
        if let Some(requests) = self.requests {
            harness.requests = requests;
        }
        if let Some(seed) = self.seed {
            harness.seed = seed;
        }
        harness
    }

    /// The requested thread count (`0` = auto) for grid sweeps.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or(0)
    }

    /// A sweep executor honouring `--threads`.
    pub fn executor(&self) -> SweepExecutor {
        SweepExecutor::new(self.threads())
    }

    /// Whether `--trace-out` asked for a telemetry trace.
    pub fn tracing(&self) -> bool {
        self.trace_out.is_some()
    }

    /// The telemetry to attach to a traced run:
    /// [`recording`](Telemetry::recording) when `--trace-out` was given,
    /// [`disabled`](Telemetry::disabled) (bitwise-invisible) otherwise.
    pub fn telemetry(&self) -> Telemetry {
        if self.tracing() {
            Telemetry::recording()
        } else {
            Telemetry::disabled()
        }
    }

    /// Writes `log` to the `--trace-out` path, if one was given: Chrome
    /// `trace_event` JSON when the path ends in `.trace.json`, the
    /// `rubik-trace-v1` format otherwise. Reports to stderr (never stdout —
    /// figure stdout is golden-pinned) and does not abort the binary on
    /// I/O errors: the figure's numbers are the primary product.
    pub fn emit_trace(&self, log: &TraceLog) {
        let Some(path) = &self.trace_out else {
            return;
        };
        let (format, body) = if path.ends_with(".trace.json") {
            ("chrome trace_event", rubik::telemetry::to_chrome_json(log))
        } else {
            (rubik::telemetry::FORMAT, rubik::telemetry::to_json(log))
        };
        match std::fs::write(path, body) {
            Ok(()) => eprintln!(
                "trace: wrote {format} ({} requests, {} epochs) to {path}",
                log.requests.len(),
                log.epochs.len()
            ),
            Err(e) => eprintln!("trace: could not write {path}: {e}"),
        }
    }
}

/// Default number of requests per experiment run. The paper's request counts
/// (Table 3) are used where runtime allows; this default keeps the full
/// harness runnable in minutes.
pub const DEFAULT_REQUESTS: usize = 4000;

/// The largest fleet power (W) over any epoch-aligned window of a cluster
/// run, integrated from the per-server timelines — the number a power cap
/// is judged by. The trailing partial window is measured over its actual
/// duration. Shared by the `fleet_cap` bench and the `fig_fleet` binary so
/// the recorded cap numbers and the figure always use the same accounting.
///
/// One forward cursor per server makes the whole computation a single
/// linear pass over the timelines (a per-window rescan would be quadratic
/// in the run length).
pub fn max_epoch_power(
    results: &[RunResult],
    duration: f64,
    epoch: f64,
    power: &CorePowerModel,
) -> f64 {
    use rubik::sim::CoreActivity;
    assert!(epoch > 0.0, "epoch must be positive");
    let span_power = |s: &rubik::sim::Segment| match s.activity {
        CoreActivity::Busy => power.active_power(s.freq),
        CoreActivity::Idle => power.idle_power(s.freq),
        CoreActivity::Sleep => power.sleep_power(),
    };
    let mut cursors = vec![0usize; results.len()];
    let mut max = 0.0f64;
    let mut from = 0.0;
    while from < duration {
        let to = (from + epoch).min(duration);
        let mut energy = 0.0;
        for (r, cursor) in results.iter().zip(&mut cursors) {
            let segments = r.segments();
            let mut i = *cursor;
            while i < segments.len() {
                let s = &segments[i];
                if s.start >= to {
                    break;
                }
                let start = s.start.max(from);
                let end = s.end.min(to);
                if end > start {
                    energy += span_power(s) * (end - start);
                }
                if s.end <= to {
                    i += 1;
                } else {
                    break;
                }
            }
            *cursor = i;
        }
        max = max.max(energy / (to - from));
        from = to;
    }
    max
}

/// Merges one named top-level section into a bench-summary JSON file
/// (`BENCH_cluster.json`): the file holds an object of `"section": value`
/// pairs, and each bench overwrites only its own section so independent
/// benches (`cluster_throughput`, `fleet_cap`) can share the file. `body`
/// must be a complete JSON value. Sections are written in name order, so
/// the output is deterministic regardless of which bench ran last, and
/// every other section is copied byte for byte. The merge is
/// [`rubik_json::merge_sections`], the one criterion writes
/// `BENCH_controller.json` through.
///
/// A file that is not such an object is replaced by the new section alone.
pub fn merge_bench_section(path: &str, section: &str, body: &str) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    std::fs::write(
        path,
        rubik_json::merge_sections(&existing, &[(section, body)]),
    )
}

/// The experiment context shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Simulator configuration (Table 2).
    pub sim: SimConfig,
    /// Core power model.
    pub power: CorePowerModel,
    /// Requests per run.
    pub requests: usize,
    /// Base RNG seed.
    pub seed: u64,
}

/// Outcome of one scheme on one trace.
#[derive(Debug, Clone, Copy)]
pub struct SchemeResult {
    /// 95th-percentile latency (seconds).
    pub tail_latency: f64,
    /// Active + idle core energy per request (J).
    pub energy_per_request: f64,
    /// Time the core spent serving requests (s).
    pub busy_time: f64,
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    /// Creates the default harness.
    pub fn new() -> Self {
        Self {
            sim: SimConfig::paper_simulated(),
            power: CorePowerModel::haswell_like(),
            requests: DEFAULT_REQUESTS,
            seed: 2015,
        }
    }

    /// Creates a harness with the real-system DVFS latency (Sec. 5.5).
    pub fn real_system() -> Self {
        Self {
            sim: SimConfig::paper_real_system(),
            ..Self::new()
        }
    }

    /// A harness with a custom request count (for the slower sweeps).
    pub fn with_requests(mut self, requests: usize) -> Self {
        self.requests = requests;
        self
    }

    /// The active-power closure used by the replay-based oracles.
    pub fn active_power(&self) -> impl Fn(Freq) -> f64 + '_ {
        move |f| self.power.active_power(f)
    }

    /// Generates a steady-load trace for an application.
    pub fn trace(&self, profile: &AppProfile, load: f64, seed_offset: u64) -> Trace {
        let mut generator = WorkloadGenerator::new(profile.clone(), self.seed + seed_offset);
        generator.steady_trace(load, self.requests)
    }

    /// The latency bound for an application: the tail latency of the
    /// fixed-frequency (nominal) scheme at 50% load (Sec. 5.2).
    pub fn latency_bound(&self, profile: &AppProfile) -> f64 {
        let trace = self.trace(profile, 0.5, 777);
        StaticOracle::new(self.sim.dvfs.clone(), TAIL_QUANTILE)
            .tail_at(&trace, self.sim.dvfs.nominal())
            .expect("non-empty calibration trace")
    }

    /// Runs the fixed-frequency baseline.
    pub fn run_fixed(&self, trace: &Trace, freq: Freq) -> SchemeResult {
        let mut policy = FixedFrequencyPolicy::new(freq);
        let result = Server::new(self.sim.clone()).run(trace, &mut policy);
        self.summarize(trace, &result)
    }

    /// Runs Rubik (with or without feedback), returning the scheme summary
    /// and the full simulation result.
    pub fn run_rubik(
        &self,
        trace: &Trace,
        bound: f64,
        feedback: bool,
    ) -> (SchemeResult, RunResult) {
        let mut cfg = RubikConfig::new(bound).with_profiling_window(2048);
        if !feedback {
            cfg = cfg.without_feedback();
        }
        let mut rubik = RubikController::seeded_for_trace(cfg, self.sim.dvfs.clone(), trace, 512);
        let result = Server::new(self.sim.clone()).run(trace, &mut rubik);
        (self.summarize(trace, &result), result)
    }

    /// Runs the StaticOracle scheme on a trace.
    pub fn run_static_oracle(&self, trace: &Trace, bound: f64) -> (SchemeResult, Freq) {
        let oracle = StaticOracle::new(self.sim.dvfs.clone(), TAIL_QUANTILE);
        let freq = oracle.lowest_feasible_freq(trace, bound);
        (self.run_fixed(trace, freq), freq)
    }

    /// Runs the AdrenalineOracle scheme on a trace (replay-based, as the
    /// scheme is defined offline).
    pub fn run_adrenaline(&self, trace: &Trace, bound: f64) -> SchemeResult {
        let policy = AdrenalineOracle::new(self.sim.dvfs.clone(), TAIL_QUANTILE).train(
            trace,
            bound,
            self.active_power(),
        );
        let freqs = policy.assign(trace);
        self.summarize_replay(trace, &freqs)
    }

    /// Runs the DynamicOracle scheme on a trace (replay-based).
    pub fn run_dynamic_oracle(&self, trace: &Trace, bound: f64) -> SchemeResult {
        let schedule = DynamicOracle::new(self.sim.dvfs.clone(), TAIL_QUANTILE).schedule(
            trace,
            bound,
            self.active_power(),
        );
        self.summarize_replay(trace, &schedule.freqs)
    }

    fn summarize(&self, trace: &Trace, result: &RunResult) -> SchemeResult {
        let residency = result.freq_residency();
        SchemeResult {
            tail_latency: result.tail_latency(TAIL_QUANTILE).unwrap_or(0.0),
            energy_per_request: self
                .power
                .energy_per_request(&residency, trace.len().max(1)),
            busy_time: residency.busy_time(),
        }
    }

    fn summarize_replay(&self, trace: &Trace, freqs: &[Freq]) -> SchemeResult {
        let records = replay(trace, freqs);
        let tail = replay_tail(&records, TAIL_QUANTILE).unwrap_or(0.0);
        // Replay-based schemes are charged active energy plus idle energy at
        // the minimum frequency for the rest of the trace duration, so they
        // are comparable with the event-simulated schemes.
        let active = replay_energy(trace, freqs, self.active_power());
        let busy: f64 = records.iter().map(|r| r.service_time()).sum();
        let duration = records.iter().map(|r| r.completion).fold(0.0f64, f64::max);
        let idle = (duration - busy).max(0.0) * self.power.idle_power(self.sim.dvfs.min());
        SchemeResult {
            tail_latency: tail,
            energy_per_request: (active + idle) / trace.len().max(1) as f64,
            busy_time: busy,
        }
    }

    /// Power savings of `scheme` relative to `baseline`, in percent.
    pub fn savings_percent(baseline: &SchemeResult, scheme: &SchemeResult) -> f64 {
        (1.0 - scheme.energy_per_request / baseline.energy_per_request) * 100.0
    }
}

/// Figs. 7 and 8: one application at 50% load, with the trace drawn at
/// `seed_offset` — the response-latency CDF of StaticOracle,
/// AdrenalineOracle and Rubik, then Rubik's busy-frequency histogram,
/// printed under `figure`'s label.
pub fn run_cdf_experiment(harness: &Harness, profile: &AppProfile, seed_offset: u64, figure: &str) {
    let bound = harness.latency_bound(profile);
    let trace = harness.trace(profile, 0.5, seed_offset);

    let oracle = StaticOracle::new(harness.sim.dvfs.clone(), TAIL_QUANTILE);
    let static_freq = oracle.lowest_feasible_freq(&trace, bound);
    let static_lat: Vec<f64> = replay(&trace, &vec![static_freq; trace.len()])
        .iter()
        .map(|r| r.latency())
        .collect();

    let adrenaline = AdrenalineOracle::new(harness.sim.dvfs.clone(), TAIL_QUANTILE).train(
        &trace,
        bound,
        harness.active_power(),
    );
    let adren_lat: Vec<f64> = replay(&trace, &adrenaline.assign(&trace))
        .iter()
        .map(|r| r.latency())
        .collect();

    let (_, rubik_result) = harness.run_rubik(&trace, bound, true);
    let rubik_lat = rubik_result.latencies();

    println!(
        "# {figure}: {} @ 50% load, tail bound {:.0} us",
        profile.name(),
        bound * 1e6
    );
    println!("## Response-latency CDF (us)");
    print_header(&["percentile", "static_oracle", "adrenaline_oracle", "rubik"]);
    for pct in [5, 10, 25, 50, 75, 90, 95, 99] {
        let q = pct as f64 / 100.0;
        println!(
            "{}\t{:.1}\t{:.1}\t{:.1}",
            pct,
            rubik::stats::percentile(&static_lat, q).unwrap() * 1e6,
            rubik::stats::percentile(&adren_lat, q).unwrap() * 1e6,
            rubik::stats::percentile(&rubik_lat, q).unwrap() * 1e6
        );
    }

    println!("## Rubik busy-frequency histogram (fraction of busy time)");
    print_header(&["freq_ghz", "fraction"]);
    for (freq, frac) in rubik_result.freq_residency().busy_fraction_per_freq() {
        println!("{:.1}\t{:.3}", freq.ghz(), frac);
    }
}

/// Prints a tab-separated header line.
pub fn print_header(columns: &[&str]) {
    println!("{}", columns.join("\t"));
}

/// Prints a tab-separated row of values with 4 significant digits.
pub fn print_row(label: &str, values: &[f64]) {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    println!("{label}\t{}", cells.join("\t"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(flags: &[&str]) -> Vec<String> {
        flags.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn bench_args_parse_all_flags() {
        let args = BenchArgs::parse_from(&argv(&[
            "--requests",
            "500",
            "--seed",
            "9",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(args.requests, Some(500));
        assert_eq!(args.seed, Some(9));
        assert_eq!(args.threads(), 4);

        let defaults = BenchArgs::parse_from(&[]).unwrap();
        assert_eq!(defaults, BenchArgs::default());
        assert_eq!(defaults.threads(), 0);
        assert!(!defaults.telemetry().is_enabled());

        let traced = BenchArgs::parse_from(&argv(&["--trace-out", "run.trace.json"])).unwrap();
        assert_eq!(traced.trace_out.as_deref(), Some("run.trace.json"));
        assert!(traced.tracing());
        assert!(traced.telemetry().is_enabled());
    }

    #[test]
    fn bench_args_parse_load_shapes() {
        let steady = BenchArgs::parse_from(&argv(&["--load-shape", "steady"])).unwrap();
        assert_eq!(steady.load_shape, Some(LoadShapeArg::Steady));

        let ramp = BenchArgs::parse_from(&argv(&["--load-shape", "ramp:0.2:0.7"])).unwrap();
        assert_eq!(
            ramp.load_shape,
            Some(LoadShapeArg::Ramp { from: 0.2, to: 0.7 })
        );
        let shape = ramp.load_shape.unwrap().to_shape(0.45, 10.0);
        assert_eq!(shape.duration(), 10.0);
        assert!((shape.load_at(5.0) - 0.45).abs() < 1e-12);
        assert!((ramp.load_shape.unwrap().average_load(0.45) - 0.45).abs() < 1e-12);
        assert_eq!(ramp.load_shape.unwrap().label(), "ramp:0.2:0.7");

        let step = LoadShapeArg::parse("step:0.3:0.6").unwrap();
        assert_eq!(
            step,
            LoadShapeArg::Step {
                before: 0.3,
                after: 0.6
            }
        );
        // The step lands at the window midpoint.
        let shape = step.to_shape(0.45, 8.0);
        assert_eq!(shape.load_at(3.9), 0.3);
        assert_eq!(shape.load_at(4.0), 0.6);

        let diurnal = LoadShapeArg::parse("diurnal:0.4:0.2").unwrap();
        let shape = diurnal.to_shape(0.45, 12.0);
        shape.validate().unwrap();
        assert!((shape.peak_load() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn bench_args_reject_bad_load_shapes() {
        for bad in [
            "",
            "sawtooth",
            "ramp",
            "ramp:0.2",
            "ramp:0.2:x",
            "ramp:0.2:0.4:0.6",
            "step:-0.1:0.5",
            "diurnal:0.3:0.4", // amplitude > mean
            "steady:0.4",      // steady takes no parameters
            "ramp:0:17",       // above 16x nominal capacity
            "ramp:nan:0.5",
            // No load anywhere: a run window sized by the average would
            // be infinite.
            "ramp:0:0",
            "step:0:0",
            "diurnal:0:0",
        ] {
            assert!(
                BenchArgs::parse_from(&argv(&["--load-shape", bad])).is_err(),
                "{bad:?} should be rejected"
            );
        }
        assert!(BenchArgs::parse_from(&argv(&["--load-shape"])).is_err());
    }

    #[test]
    fn bench_args_reject_bad_input() {
        assert!(BenchArgs::parse_from(&argv(&["--requests"])).is_err());
        assert!(BenchArgs::parse_from(&argv(&["--requests", "abc"])).is_err());
        assert!(BenchArgs::parse_from(&argv(&["--requests", "0"])).is_err());
        assert!(BenchArgs::parse_from(&argv(&["--frobnicate"])).is_err());
        assert!(BenchArgs::parse_from(&argv(&["--trace-out"])).is_err());
        assert!(BenchArgs::parse_from(&argv(&["--trace-out", ""])).is_err());
        // --threads 0 is valid: it means one worker per core.
        assert!(BenchArgs::parse_from(&argv(&["--threads", "0"])).is_ok());
    }

    #[test]
    fn bench_args_apply_overrides_harness_defaults() {
        let args = BenchArgs {
            requests: Some(123),
            seed: Some(77),
            threads: None,
            trace_out: None,
            load_shape: None,
        };
        let h = args.apply(Harness::new());
        assert_eq!(h.requests, 123);
        assert_eq!(h.seed, 77);

        let untouched = BenchArgs::default().apply(Harness::new());
        assert_eq!(untouched.requests, DEFAULT_REQUESTS);
        assert_eq!(untouched.seed, 2015);
    }

    #[test]
    fn latency_bound_is_above_the_mean_service_time() {
        let h = Harness::new().with_requests(1500);
        let profile = AppProfile::masstree();
        let bound = h.latency_bound(&profile);
        assert!(bound > profile.mean_service_time());
        assert!(bound < 50.0 * profile.mean_service_time());
    }

    #[test]
    fn scheme_runners_produce_consistent_summaries() {
        let h = Harness::new().with_requests(800);
        let profile = AppProfile::masstree();
        let bound = h.latency_bound(&profile);
        let trace = h.trace(&profile, 0.4, 1);

        let fixed = h.run_fixed(&trace, h.sim.dvfs.nominal());
        let (rubik, _) = h.run_rubik(&trace, bound, true);
        let (static_oracle, freq) = h.run_static_oracle(&trace, bound);

        assert!(fixed.energy_per_request > 0.0);
        assert!(rubik.tail_latency <= bound * 1.2);
        assert!(static_oracle.tail_latency <= bound * 1.001);
        assert!(freq <= h.sim.dvfs.nominal());
        assert!(Harness::savings_percent(&fixed, &rubik) > 0.0);
    }

    #[test]
    fn max_epoch_power_matches_the_per_window_residency_computation() {
        use rubik::sim::{CoreActivity, Segment};
        let power = CorePowerModel::haswell_like();
        let seg = |start: f64, end: f64, mhz: u32, activity: CoreActivity| Segment {
            start,
            end,
            freq: Freq::from_mhz(mhz),
            activity,
        };
        // Two servers whose segments straddle the window boundaries.
        let a = RunResult::new(
            vec![],
            vec![
                seg(0.0, 0.35, 2400, CoreActivity::Busy),
                seg(0.35, 0.8, 800, CoreActivity::Idle),
                seg(0.8, 1.1, 3400, CoreActivity::Busy),
            ],
            1.1,
        );
        let b = RunResult::new(
            vec![],
            vec![
                seg(0.0, 0.5, 1600, CoreActivity::Sleep),
                seg(0.5, 1.1, 2000, CoreActivity::Busy),
            ],
            1.1,
        );
        let results = [a, b];
        let duration = 1.1;
        let epoch = 0.25;
        // Reference: the straightforward per-window residency rescans.
        let mut expected = 0.0f64;
        let mut from = 0.0f64;
        while from < duration {
            let to = (from + epoch).min(duration);
            let energy: f64 = results
                .iter()
                .map(|r| power.energy(&r.freq_residency_between(from, to)).total())
                .sum();
            expected = expected.max(energy / (to - from));
            from = to;
        }
        let got = max_epoch_power(&results, duration, epoch, &power);
        assert!(
            (got - expected).abs() < 1e-9,
            "cursor pass {got} vs per-window reference {expected}"
        );
        assert!(got > 0.0);
        assert_eq!(max_epoch_power(&results, 0.0, epoch, &power), 0.0);
    }

    #[test]
    fn top_level_sections_roundtrip_nested_values() {
        let text = "{\n  \"a\": {\"x\": [1, 2], \"s\": \"b}r,ace\"},\n  \"b\": 3.5\n}\n";
        let sections = rubik_json::sections(text).unwrap();
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].0, "a");
        assert_eq!(sections[0].1, "{\"x\": [1, 2], \"s\": \"b}r,ace\"}");
        assert_eq!(sections[1], ("b".to_string(), "3.5"));
        assert!(rubik_json::sections("[1, 2]").is_err());
        assert!(rubik_json::sections("{\"k\": }").is_err());
    }

    #[test]
    fn the_committed_cluster_summary_merges_byte_for_byte() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(rubik_json::merge_sections(&text, &[]), text);
    }

    #[test]
    fn merge_bench_section_preserves_sibling_sections() {
        let dir = std::env::temp_dir().join("rubik_bench_merge_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_merge.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);

        merge_bench_section(path, "fleet_cap", "{\"budget\": 450}").unwrap();
        merge_bench_section(path, "cluster_throughput", "{\"fleets\": [1, 2]}").unwrap();
        // Overwriting one section leaves the other alone, and section order
        // is name-sorted regardless of write order.
        merge_bench_section(path, "fleet_cap", "{\"budget\": 500}").unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        let sections = rubik_json::sections(&text).unwrap();
        assert_eq!(
            sections,
            vec![
                ("cluster_throughput".to_string(), "{\"fleets\": [1, 2]}"),
                ("fleet_cap".to_string(), "{\"budget\": 500}"),
            ]
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn merge_bench_section_replaces_unrecognized_files() {
        let dir = std::env::temp_dir().join("rubik_bench_merge_test_legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_legacy.json");
        let path = path.to_str().unwrap();
        std::fs::write(path, "not json at all").unwrap();
        merge_bench_section(path, "fleet_cap", "{\"budget\": 1}").unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        let sections = rubik_json::sections(&text).unwrap();
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].0, "fleet_cap");
        let _ = std::fs::remove_file(path);
    }
}
