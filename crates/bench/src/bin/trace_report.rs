//! `trace_report` — tail-latency attribution from a telemetry trace.
//!
//! Two modes:
//!
//! * **File mode** — `trace_report [--quantile Q] FILE` parses a
//!   `rubik-trace-v1` JSON trace (written by any figure binary's
//!   `--trace-out` flag) and prints the tail-attribution table: the
//!   p95/p99 cohort's latency decomposed into queueing, service, backoff,
//!   and downtime.
//! * **Scenario mode** — `trace_report --scenario fleet_faults` re-runs
//!   the shared fleet-faults experiment (`rubik_bench::faults`) with
//!   telemetry recording and prints the table for both the failure-blind
//!   and the health-aware stack, so the two rescue philosophies can be
//!   compared component by component. `--fleet`, `--crashed`,
//!   `--requests`, and `--seed` resize the run; `--trace-out PATH` also
//!   writes the health-aware run's trace (Chrome `trace_event` JSON if
//!   PATH ends in `.trace.json`, `rubik-trace-v1` otherwise).
//!
//! Everything is deterministic: the same flags print the same bytes, which
//! the golden fixture `tests/golden/trace_report_fleet_faults.txt` pins.

use rubik::telemetry::{from_json, to_chrome_json, to_json};
use rubik::{Telemetry, TraceLog, TraceSource};
use rubik_bench::faults::FaultsScenario;

#[derive(Debug, Default)]
struct Args {
    quantile: Option<f64>,
    scenario: Option<String>,
    fleet: Option<usize>,
    crashed: Option<usize>,
    requests: Option<usize>,
    seed: Option<u64>,
    trace_out: Option<String>,
    file: Option<String>,
}

const USAGE: &str = "usage: trace_report [--quantile Q] FILE\n\
       trace_report --scenario fleet_faults [--fleet N] [--crashed N] [--requests N]\n\
       \x20                                   [--seed N] [--quantile Q] [--trace-out PATH]\n\
\n\
  FILE             a rubik-trace-v1 JSON trace (from any binary's --trace-out)\n\
  --quantile Q     tail quantile for the cohort (default: 0.95)\n\
  --scenario NAME  re-run a named experiment with telemetry; the only name is\n\
  \x20               fleet_faults (the crash-wave acceptance experiment), printing\n\
  \x20               the attribution table for the blind and health-aware stacks\n\
  --fleet N        scenario fleet size (default: 100)\n\
  --crashed N      servers lost to the crash wave (default: 10)\n\
  --requests N     scenario requests per server (default: 60)\n\
  --seed N         scenario trace seed (default: 2015)\n\
  --trace-out PATH also write the health-aware run's trace (Chrome trace_event\n\
  \x20               JSON if PATH ends in .trace.json, rubik-trace-v1 otherwise)";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--quantile" => {
                let v = value("--quantile")?;
                let q: f64 = v
                    .parse()
                    .map_err(|_| format!("--quantile: invalid number {v:?}"))?;
                if !(q > 0.0 && q < 1.0) {
                    return Err(format!("--quantile must be in (0, 1), got {q}"));
                }
                args.quantile = Some(q);
            }
            "--scenario" => args.scenario = Some(value("--scenario")?),
            "--fleet" => {
                args.fleet = Some(parse_count("--fleet", &value("--fleet")?)?);
            }
            "--crashed" => {
                args.crashed = Some(parse_count("--crashed", &value("--crashed")?)?);
            }
            "--requests" => {
                args.requests = Some(parse_count("--requests", &value("--requests")?)?);
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed: invalid number {v:?}"))?,
                );
            }
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            other if !other.starts_with('-') && args.file.is_none() => {
                args.file = Some(other.to_string());
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn parse_count(name: &str, v: &str) -> Result<usize, String> {
    let n: usize = v
        .parse()
        .map_err(|_| format!("{name}: invalid number {v:?}"))?;
    if n == 0 {
        return Err(format!("{name} must be at least 1"));
    }
    Ok(n)
}

fn print_attribution(log: &TraceLog, quantile: f64) {
    match log.attribute(quantile) {
        Some(report) => print!("{}", report.table()),
        None => println!("no completed requests — nothing to attribute"),
    }
}

fn emit_trace(path: &str, log: &TraceLog) {
    let body = if path.ends_with(".trace.json") {
        to_chrome_json(log)
    } else {
        to_json(log)
    };
    match std::fs::write(path, body) {
        Ok(()) => eprintln!("trace: wrote {path}"),
        Err(e) => eprintln!("trace: could not write {path}: {e}"),
    }
}

fn run_scenario(args: &Args, quantile: f64) -> Result<(), String> {
    let name = args.scenario.as_deref().expect("scenario mode");
    if name != "fleet_faults" {
        return Err(format!(
            "unknown scenario {name:?}; the only scenario is \"fleet_faults\""
        ));
    }
    let mut scenario = FaultsScenario::default();
    if let Some(fleet) = args.fleet {
        scenario.fleet = fleet;
    }
    if let Some(crashed) = args.crashed {
        scenario.crashed = crashed;
    }
    if scenario.crashed > scenario.fleet {
        return Err(format!(
            "--crashed {} exceeds --fleet {}",
            scenario.crashed, scenario.fleet
        ));
    }
    if let Some(requests) = args.requests {
        scenario.requests_per_server = requests;
    }
    if let Some(seed) = args.seed {
        scenario.seed = seed;
    }

    println!(
        "# fleet_faults: {} servers ({} crashed), load {:.2}/server, {} requests/server, \
         seed {}, budget {:.0} W, deadline {:.3} ms",
        scenario.fleet,
        scenario.crashed,
        scenario.load,
        scenario.requests_per_server,
        scenario.seed,
        scenario.budget(),
        scenario.deadline() * 1e3,
    );
    let trace = scenario.trace();
    for (label, aware) in [
        ("blind: jsq, deadline only", false),
        ("health-aware: health-aware(jsq) + timeouts + retries", true),
    ] {
        let report = scenario
            .cluster(&trace, aware)
            .with_telemetry(Telemetry::recording())
            .run(TraceSource::new(&trace))
            .map_err(|e| e.to_string())?;
        let (outcome, log) = (report.outcome, report.log.expect("recording"));
        let a = &outcome.availability;
        println!("\n## {label}");
        println!(
            "completed {}/{}, goodput {:.4}, deadline_exceeded {}, lost {}",
            a.completed,
            a.offered,
            a.goodput_fraction(),
            a.deadline_exceeded,
            a.lost,
        );
        print_attribution(&log, quantile);
        if aware {
            if let Some(path) = &args.trace_out {
                emit_trace(path, &log);
            }
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let quantile = args.quantile.unwrap_or(0.95);
    if args.scenario.is_some() {
        if args.file.is_some() {
            return Err("pass either a FILE or --scenario, not both".to_string());
        }
        return run_scenario(args, quantile);
    }
    let Some(file) = &args.file else {
        return Err("pass a trace FILE or --scenario fleet_faults".to_string());
    };
    let text = std::fs::read_to_string(file).map_err(|e| format!("could not read {file}: {e}"))?;
    let log = from_json(&text).map_err(|e| format!("{file}: {e}"))?;
    println!(
        "# {file}: {} servers, {} requests ({} lost), {} epochs, end {:.4} s",
        log.servers,
        log.requests.len(),
        log.lost(),
        log.epochs.len(),
        log.end,
    );
    print_attribution(&log, quantile);
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
