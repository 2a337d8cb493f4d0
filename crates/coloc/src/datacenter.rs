//! Datacenter-scale comparison: segregated vs RubikColoc (Fig. 14 / Fig. 16).
//!
//! The paper's baseline datacenter segregates work: 1000 servers run the five
//! latency-critical (LC) applications (200 servers each, 6 application copies
//! per server) and 1000 servers run 20 batch mixes (50 servers each). The
//! colocated datacenter managed by RubikColoc keeps the 1000 LC servers but
//! lets them absorb batch work in their idle core cycles, then provisions
//! just enough extra batch-only servers to match the segregated datacenter's
//! batch throughput (a fixed-work comparison). The figure of merit is total
//! datacenter power and server count, normalized to the segregated datacenter
//! at 60% LC load, swept over LC loads of 10–60%.

use rubik_power::ServerPowerModel;
use rubik_sweep::{SweepExecutor, SweepSpec};
use rubik_workloads::{AppProfile, BatchMix};

use crate::runner::{ColocatedCore, BATCH_LLC_SHARE};
use crate::schemes::{batch_tpw_freq, ColocScheme};

/// Configuration of the datacenter experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct DatacenterConfig {
    /// Number of LC (and colocated) servers.
    pub lc_servers: usize,
    /// Number of batch servers in the segregated baseline.
    pub batch_servers: usize,
    /// Cores per server.
    pub cores_per_server: usize,
    /// Requests simulated per (application, load) sample point.
    pub requests_per_sample: usize,
    /// RNG seed.
    pub seed: u64,
}

impl DatacenterConfig {
    /// The paper's setup (Fig. 14), with a reduced per-point request count so
    /// the sweep completes quickly.
    pub fn paper() -> Self {
        Self {
            lc_servers: 1000,
            batch_servers: 1000,
            cores_per_server: 6,
            requests_per_sample: 2000,
            seed: 42,
        }
    }

    /// A small configuration for tests.
    pub fn small() -> Self {
        Self {
            lc_servers: 10,
            batch_servers: 10,
            cores_per_server: 6,
            requests_per_sample: 600,
            seed: 7,
        }
    }
}

/// One point of the Fig. 16 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatacenterPoint {
    /// LC load for this point (fraction of capacity).
    pub lc_load: f64,
    /// Total power of the segregated datacenter (W).
    pub segregated_power: f64,
    /// Total power of the RubikColoc datacenter (W).
    pub coloc_power: f64,
    /// Servers used by the segregated datacenter.
    pub segregated_servers: usize,
    /// Servers used by the RubikColoc datacenter.
    pub coloc_servers: usize,
    /// Worst normalized LC tail latency across applications under RubikColoc.
    pub worst_normalized_tail: f64,
}

/// Shared immutable context for a datacenter sweep, built once per sweep
/// instead of once per load point.
///
/// Everything here is independent of the LC load being evaluated: the
/// application profiles, the batch mixes, the per-app latency bounds
/// (tail of the fixed-frequency scheme at 50% load — a full calibration
/// simulation each), and the batch-only server's power/throughput. The
/// sweep engine's cell closures capture this context by shared reference.
#[derive(Debug, Clone)]
pub struct DatacenterContext {
    /// The five LC application profiles.
    pub apps: Vec<AppProfile>,
    /// The batch mixes (paper: 20 mixes of SPEC-like apps).
    pub mixes: Vec<BatchMix>,
    /// Per-app latency bounds, index-aligned with `apps`.
    pub bounds: Vec<f64>,
    /// Idle power of one core at the minimum DVFS level (W).
    pub idle_core_power: f64,
    /// Server power outside the cores (W).
    pub platform_power: f64,
    /// Power of one batch-only server, all cores at TPW-optimal levels (W).
    pub batch_server_power: f64,
    /// Throughput of one batch-only server (work units / s).
    pub batch_server_tput: f64,
}

/// Runs the segregated-vs-colocated comparison.
#[derive(Debug, Clone)]
pub struct DatacenterComparison {
    config: DatacenterConfig,
    core: ColocatedCore,
    server_power: ServerPowerModel,
}

impl DatacenterComparison {
    /// Creates a comparison with the given configuration.
    pub fn new(config: DatacenterConfig) -> Self {
        Self {
            config,
            core: ColocatedCore::new(),
            server_power: ServerPowerModel::paper_simulated(),
        }
    }

    /// The configuration this comparison runs with.
    pub fn config(&self) -> &DatacenterConfig {
        &self.config
    }

    /// Builds the load-independent sweep context, fanning the per-app
    /// latency-bound calibrations across `threads` workers (`0` = auto).
    pub fn context_with_threads(&self, threads: usize) -> DatacenterContext {
        let apps = AppProfile::all();
        let mixes = BatchMix::paper_mixes(self.config.seed);
        let dvfs = self.core.sim_config().dvfs.clone();
        let power = self.core.power_model();
        let idle_core_power = power.idle_power(dvfs.min());

        // --- Batch-only server: all cores busy at TPW-optimal frequencies.
        let batch_core_power_and_tput: Vec<(f64, f64)> = mixes
            .iter()
            .map(|mix| {
                let per_app: Vec<(f64, f64)> = mix
                    .apps
                    .iter()
                    .map(|a| {
                        let f = batch_tpw_freq(a, 1.0, &dvfs, power);
                        (power.active_power(f), a.throughput(f, dvfs.nominal(), 1.0))
                    })
                    .collect();
                let p = per_app.iter().map(|x| x.0).sum::<f64>() / per_app.len() as f64;
                let t = per_app.iter().map(|x| x.1).sum::<f64>() / per_app.len() as f64;
                (p, t)
            })
            .collect();
        let mean_batch_core_power: f64 =
            batch_core_power_and_tput.iter().map(|x| x.0).sum::<f64>() / mixes.len() as f64;
        let mean_batch_core_tput: f64 =
            batch_core_power_and_tput.iter().map(|x| x.1).sum::<f64>() / mixes.len() as f64;
        let cores = self.config.cores_per_server as f64;
        let platform_power = self.server_power.idle_power() - cores * idle_core_power;
        let batch_server_power = platform_power + cores * mean_batch_core_power;
        let batch_server_tput = cores * mean_batch_core_tput;

        // Per-app latency bounds: each is an independent calibration
        // simulation, so fan them across the pool in app order.
        let bounds = SweepExecutor::new(threads).map_indexed(&apps, |i, app| {
            self.core.latency_bound(
                app,
                self.config.requests_per_sample,
                self.config.seed + i as u64,
            )
        });

        DatacenterContext {
            apps,
            mixes,
            bounds,
            idle_core_power,
            platform_power,
            batch_server_power,
            batch_server_tput,
        }
    }

    /// Evaluates one LC load point against a precomputed context.
    pub fn evaluate_with(&self, ctx: &DatacenterContext, lc_load: f64) -> DatacenterPoint {
        assert!(lc_load > 0.0 && lc_load < 1.0, "LC load must be in (0, 1)");
        let apps = &ctx.apps;
        let mixes = &ctx.mixes;
        let dvfs = &self.core.sim_config().dvfs;
        let idle_core_power = ctx.idle_core_power;
        let cores = self.config.cores_per_server as f64;
        let platform_power = ctx.platform_power;
        let batch_server_power = ctx.batch_server_power;
        let batch_server_tput = ctx.batch_server_tput;

        // --- Segregated LC server: 6 copies of one app at the StaticOracle
        // frequency for this load, no batch work.
        // --- Colocated server: RubikColoc outcome per app, averaged over a
        // subset of mixes for tractability.
        let mut seg_lc_power_total = 0.0;
        let mut coloc_power_total = 0.0;
        let mut coloc_batch_tput_total = 0.0;
        let mut worst_tail: f64 = 0.0;

        for (i, app) in apps.iter().enumerate() {
            let bound = ctx.bounds[i];

            // Segregated: StaticColoc without interference is equivalent to a
            // non-colocated StaticOracle server, so reuse the runner with the
            // no-interference model.
            let seg = ColocatedCore::new()
                .with_interference(crate::interference::CoreInterferenceModel::none())
                .run(
                    &crate::ColocRunSpec::new(
                        ColocScheme::StaticColoc,
                        app,
                        &mixes[i % mixes.len()],
                        bound,
                    )
                    .with_load(lc_load)
                    .with_requests(self.config.requests_per_sample)
                    .with_seed(self.config.seed + 100 + i as u64),
                );
            // Segregated servers do not run batch work on LC cores: only the
            // LC energy counts, idle time is charged at idle power.
            let seg_core_power = (seg.lc_energy
                + idle_core_power * (1.0 - seg.lc_utilization) * seg.duration)
                / seg.duration;
            seg_lc_power_total += platform_power + cores * seg_core_power;

            // Colocated: RubikColoc with interference and batch filling idle
            // time.
            let mix = &mixes[i % mixes.len()];
            let coloc = self.core.run(
                &crate::ColocRunSpec::new(ColocScheme::RubikColoc, app, mix, bound)
                    .with_load(lc_load)
                    .with_requests(self.config.requests_per_sample)
                    .with_seed(self.config.seed + 200 + i as u64),
            );
            worst_tail = worst_tail.max(coloc.normalized_tail);
            coloc_power_total += platform_power + cores * coloc.average_power();
            coloc_batch_tput_total += cores
                * (coloc.batch_work / coloc.duration).max(0.0).min(
                    self.core
                        .mean_batch_throughput(mix, dvfs.nominal(), BATCH_LLC_SHARE),
                );
        }

        let n_apps = apps.len() as f64;
        let seg_lc_server_power = seg_lc_power_total / n_apps;
        let coloc_server_power = coloc_power_total / n_apps;
        let coloc_batch_tput_per_server = coloc_batch_tput_total / n_apps;

        // --- Fixed-work batch accounting.
        let total_batch_tput_needed = self.config.batch_servers as f64 * batch_server_tput;
        let absorbed = self.config.lc_servers as f64 * coloc_batch_tput_per_server;
        let remaining = (total_batch_tput_needed - absorbed).max(0.0);
        let extra_batch_servers = (remaining / batch_server_tput).ceil() as usize;

        let segregated_power = self.config.lc_servers as f64 * seg_lc_server_power
            + self.config.batch_servers as f64 * batch_server_power;
        let coloc_power = self.config.lc_servers as f64 * coloc_server_power
            + extra_batch_servers as f64 * batch_server_power;

        DatacenterPoint {
            lc_load,
            segregated_power,
            coloc_power,
            segregated_servers: self.config.lc_servers + self.config.batch_servers,
            coloc_servers: self.config.lc_servers + extra_batch_servers,
            worst_normalized_tail: worst_tail,
        }
    }

    /// Evaluates a sweep of LC loads (Fig. 16 uses 10–60%), using every
    /// available core. Bit-identical to the serial path — see
    /// [`DatacenterComparison::sweep_with_threads`].
    pub fn sweep(&self, loads: &[f64]) -> Vec<DatacenterPoint> {
        self.sweep_with_threads(loads, 0)
    }

    /// Evaluates a sweep of LC loads on a `rubik-sweep` worker pool
    /// (`threads == 0` = auto, `1` = serial reference path).
    ///
    /// The context (profiles, mixes, latency bounds, batch-server power) is
    /// built once and shared immutably by every cell; each load point is one
    /// cell. Results are returned in load order and are bit-for-bit
    /// identical for any thread count (property-tested in
    /// `tests/parallel_determinism.rs`).
    pub fn sweep_with_threads(&self, loads: &[f64], threads: usize) -> Vec<DatacenterPoint> {
        if loads.is_empty() {
            return Vec::new();
        }
        let ctx = self.context_with_threads(threads);
        let spec = SweepSpec::new().axis("lc_load", loads.len());
        SweepExecutor::new(threads)
            .run(&spec, |cell| {
                self.evaluate_with(&ctx, loads[cell.get("lc_load")])
            })
            .into_results()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colocation_saves_power_and_servers() {
        let dc = DatacenterComparison::new(DatacenterConfig::small());
        let point = dc.evaluate_with(&dc.context_with_threads(1), 0.3);
        assert!(
            point.coloc_power < point.segregated_power,
            "coloc {} vs segregated {}",
            point.coloc_power,
            point.segregated_power
        );
        assert!(point.coloc_servers < point.segregated_servers);
        assert!(point.worst_normalized_tail < 1.5);
    }

    #[test]
    fn lower_lc_load_absorbs_more_batch_work() {
        let dc = DatacenterComparison::new(DatacenterConfig::small());
        let ctx = dc.context_with_threads(1);
        let low = dc.evaluate_with(&ctx, 0.15);
        let high = dc.evaluate_with(&ctx, 0.5);
        // At lower LC load more idle cycles are available, so fewer extra
        // batch servers are needed.
        assert!(low.coloc_servers <= high.coloc_servers);
    }

    #[test]
    #[should_panic(expected = "LC load")]
    fn rejects_out_of_range_load() {
        let dc = DatacenterComparison::new(DatacenterConfig::small());
        let _ = dc.evaluate_with(&dc.context_with_threads(1), 1.5);
    }
}
