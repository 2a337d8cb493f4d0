//! Fig. 7: masstree at 50% load — response-latency CDF for StaticOracle,
//! AdrenalineOracle and Rubik, and Rubik's busy-frequency histogram.

use rubik::AppProfile;
use rubik_bench::{run_cdf_experiment, BenchArgs, Harness};

fn main() {
    let harness = BenchArgs::parse().apply(Harness::new());
    run_cdf_experiment(&harness, &AppProfile::masstree(), 7, "Fig. 7");
}
