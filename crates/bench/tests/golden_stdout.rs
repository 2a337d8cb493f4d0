//! Byte-identical figure output across controller-internals changes.
//!
//! The incremental-rebuild work (version gating, the persistent
//! `TableBuilder`, incremental profiler histograms) is contractually
//! invisible: figure stdout must not change by a single byte. These tests
//! pin that by running the figure binaries at a small, fast grid size and
//! comparing against checked-in golden captures (`tests/golden/*.txt`)
//! taken before the rebuild path was made incremental.
//!
//! If a **deliberate** output-affecting change lands (new columns, model
//! changes), regenerate the fixtures with the exact commands below and
//! explain the diff in the commit:
//!
//! ```text
//! target/release/fig06_power_savings --requests 80 --seed 3 > crates/bench/tests/golden/fig06_power_savings.txt
//! target/release/fig15_coloc_tail    --requests 80 --seed 3 > crates/bench/tests/golden/fig15_coloc_tail.txt
//! target/release/fig09_load_sweep    --requests 60 --seed 5 > crates/bench/tests/golden/fig09_load_sweep.txt
//! target/release/fig_fleet           --requests 60 --seed 7 > crates/bench/tests/golden/fig_fleet.txt
//! target/release/trace_report --scenario fleet_faults --fleet 12 --crashed 3 \
//!     --requests 40 --seed 2015 > crates/bench/tests/golden/trace_report_fleet_faults.txt
//! ```

use std::process::Command;

fn assert_matches_golden(bin: &str, args: &[&str], fixture: &str) {
    let output = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to run {bin}: {e}"));
    assert!(
        output.status.success(),
        "{bin} exited with {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let golden_path = format!("{}/tests/golden/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden fixture {golden_path}: {e}"));
    assert!(
        output.stdout == golden,
        "{bin} stdout diverged from {fixture}:\n--- golden ---\n{}\n--- actual ---\n{}",
        String::from_utf8_lossy(&golden),
        String::from_utf8_lossy(&output.stdout)
    );
}

#[test]
fn fig06_stdout_is_byte_identical_to_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_fig06_power_savings"),
        &["--requests", "80", "--seed", "3"],
        "fig06_power_savings.txt",
    );
}

#[test]
fn fig09_stdout_is_byte_identical_to_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_fig09_load_sweep"),
        &["--requests", "60", "--seed", "5"],
        "fig09_load_sweep.txt",
    );
}

#[test]
fn fig15_stdout_is_byte_identical_to_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_fig15_coloc_tail"),
        &["--requests", "80", "--seed", "3"],
        "fig15_coloc_tail.txt",
    );
}

#[test]
fn trace_report_attribution_is_byte_identical_to_golden() {
    // Pins the telemetry stack end to end: deterministic trace recording
    // through the cluster driver, trace assembly, and the tail-attribution
    // decomposition for the blind vs health-aware fleet_faults runs.
    assert_matches_golden(
        env!("CARGO_BIN_EXE_trace_report"),
        &[
            "--scenario",
            "fleet_faults",
            "--fleet",
            "12",
            "--crashed",
            "3",
            "--requests",
            "40",
            "--seed",
            "2015",
        ],
        "trace_report_fleet_faults.txt",
    );
}

#[test]
fn trace_report_file_mode_reproduces_the_scenario_attribution() {
    // --trace-out round-trip: the health-aware run's trace written by
    // scenario mode, re-read in file mode, must yield the same table.
    let dir = std::env::temp_dir().join("rubik_trace_report_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("aware.json");
    let trace_path = trace_path.to_str().unwrap();

    let bin = env!("CARGO_BIN_EXE_trace_report");
    let scenario = Command::new(bin)
        .args([
            "--scenario",
            "fleet_faults",
            "--fleet",
            "8",
            "--crashed",
            "2",
            "--requests",
            "30",
            "--seed",
            "7",
            "--trace-out",
            trace_path,
        ])
        .output()
        .unwrap();
    assert!(
        scenario.status.success(),
        "scenario mode failed: {}",
        String::from_utf8_lossy(&scenario.stderr)
    );
    let stdout = String::from_utf8(scenario.stdout).unwrap();
    // The health-aware table is the last attribution block printed.
    let aware_table = stdout
        .rfind("p95 tail attribution")
        .map(|i| &stdout[i..])
        .expect("no attribution table in scenario stdout");

    let file_mode = Command::new(bin).arg(trace_path).output().unwrap();
    assert!(
        file_mode.status.success(),
        "file mode failed: {}",
        String::from_utf8_lossy(&file_mode.stderr)
    );
    let file_stdout = String::from_utf8(file_mode.stdout).unwrap();
    assert!(
        file_stdout.contains(aware_table),
        "file-mode attribution diverged from the scenario run:\n\
         --- scenario ---\n{aware_table}\n--- file mode ---\n{file_stdout}"
    );
    let _ = std::fs::remove_file(trace_path);
}

/// 64-bit FNV-1a: pins writer output without checking the bytes in.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn trace_report_trace_files_are_byte_pinned() {
    // The health-aware log of the golden scenario, written through both
    // telemetry writers (`rubik-trace-v1` and Chrome `trace_event`); the
    // lengths and hashes were taken before the JSON readers were merged.
    let dir = std::env::temp_dir().join("rubik_trace_report_pins");
    std::fs::create_dir_all(&dir).unwrap();
    for (file, pinned) in [
        ("golden.json", (97_803, 16_913_560_983_295_029_916)),
        ("golden.trace.json", (107_073, 6_943_133_629_324_192_515)),
    ] {
        let path = dir.join(file);
        let path = path.to_str().unwrap();
        let run = Command::new(env!("CARGO_BIN_EXE_trace_report"))
            .args([
                "--scenario",
                "fleet_faults",
                "--fleet",
                "12",
                "--crashed",
                "3",
                "--requests",
                "40",
                "--seed",
                "2015",
                "--trace-out",
                path,
            ])
            .output()
            .unwrap();
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let bytes = std::fs::read(path).unwrap();
        let _ = std::fs::remove_file(path);
        assert_eq!((bytes.len(), fnv1a(&bytes)), pinned, "{file}");
    }
}

#[test]
fn fig_fleet_stdout_is_byte_identical_to_golden() {
    // Pins the whole fleet-management stack end to end: budget apportioning
    // and waterfilling (PegasusFleet), queue migration (ThresholdMigrator),
    // heterogeneous FleetSpec fleets, and capacity-aware routing.
    assert_matches_golden(
        env!("CARGO_BIN_EXE_fig_fleet"),
        &["--requests", "60", "--seed", "7"],
        "fig_fleet.txt",
    );
}
