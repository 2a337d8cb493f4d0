//! Fig. 8: xapian at 50% load — response-latency CDF and Rubik's frequency
//! histogram (the higher service-time variability makes Rubik more
//! conservative than on masstree).

use rubik::AppProfile;
use rubik_bench::{run_cdf_experiment, BenchArgs, Harness};

fn main() {
    let harness = BenchArgs::parse().apply(Harness::new());
    run_cdf_experiment(&harness, &AppProfile::xapian(), 8, "Fig. 8");
}
