//! RubikColoc: colocating batch work with a latency-critical application
//! (the paper's Sec. 6–7).
//!
//! One colocated core runs xapian (web search) at 60% load while batch work
//! from a SPEC-like mix fills the idle gaps. The example compares the four
//! colocation schemes of Fig. 15 and then runs a small datacenter-scale
//! comparison in the spirit of Fig. 16.
//!
//! ```text
//! cargo run --release --example colocation
//! ```

use rubik::coloc::ColocRunSpec;
use rubik::{
    AppProfile, BatchMix, ColocScheme, ColocatedCore, DatacenterComparison, DatacenterConfig,
};

fn main() {
    let profile = AppProfile::xapian();
    let mix = BatchMix::paper_mixes(3)[0].clone();
    let core = ColocatedCore::new();
    let requests = 3_000;
    let bound = core.latency_bound(&profile, requests, 11);

    println!(
        "Colocated core: {} @ 60% load + batch mix {:?}",
        profile.name(),
        mix.apps.iter().map(|a| a.name()).collect::<Vec<_>>()
    );
    println!("LC tail-latency bound: {:.2} ms", bound * 1e3);
    println!();
    println!(
        "{:<12} {:>18} {:>18} {:>20}",
        "scheme", "normalized tail", "batch work/s", "avg core power (W)"
    );
    for scheme in ColocScheme::all() {
        let outcome = core.run(
            &ColocRunSpec::new(scheme, &profile, &mix, bound)
                .with_load(0.6)
                .with_requests(requests)
                .with_seed(21),
        );
        println!(
            "{:<12} {:>18.2} {:>18.2} {:>20.2}",
            scheme.name(),
            outcome.normalized_tail,
            outcome.batch_work / outcome.duration,
            outcome.average_power(),
        );
    }

    println!();
    println!("Datacenter comparison (segregated vs RubikColoc), 20-server toy scale:");
    let dc = DatacenterComparison::new(DatacenterConfig::small());
    let ctx = dc.context_with_threads(1);
    println!(
        "{:>8} {:>22} {:>18} {:>14}",
        "LC load", "power vs segregated", "servers vs segr.", "worst tail"
    );
    for &load in &[0.2, 0.4, 0.6] {
        let p = dc.evaluate_with(&ctx, load);
        println!(
            "{:>7.0}% {:>21.0}% {:>17.0}% {:>14.2}",
            load * 100.0,
            p.coloc_power / p.segregated_power * 100.0,
            p.coloc_servers as f64 / p.segregated_servers as f64 * 100.0,
            p.worst_normalized_tail,
        );
    }
}
