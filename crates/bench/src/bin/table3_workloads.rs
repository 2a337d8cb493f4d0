//! Table 3: latency-critical application configurations and request counts.

use rubik::AppProfile;
use rubik_bench::{print_header, BenchArgs, Harness};

fn main() {
    let harness = BenchArgs::parse().apply(Harness::new());
    println!("# Table 3: latency-critical applications");
    print_header(&[
        "app",
        "workload",
        "paper_requests",
        "mean_service_us",
        "cov",
        "mem_fraction",
        "tail_bound_us",
    ]);
    for app in AppProfile::all() {
        let bound = harness.latency_bound(&app);
        println!(
            "{}\t{}\t{}\t{:.0}\t{:.2}\t{:.2}\t{:.0}",
            app.name(),
            app.workload_config(),
            app.paper_requests(),
            app.mean_service_time() * 1e6,
            app.cov(),
            app.mem_fraction(),
            bound * 1e6
        );
    }
}
