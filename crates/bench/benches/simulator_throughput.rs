//! Simulator throughput: how many requests per second the event-driven
//! server simulation processes under the fixed-frequency baseline and under
//! Rubik (whose per-event decisions add controller work).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use rubik::{
    AppProfile, FixedFrequencyPolicy, RubikConfig, RubikController, Server, SimConfig,
    WorkloadGenerator,
};

fn bench_simulator(c: &mut Criterion) {
    let config = SimConfig::default();
    let profile = AppProfile::masstree();
    let mut generator = WorkloadGenerator::new(profile.clone(), 5);
    let trace = generator.steady_trace(0.5, 2000);
    let bound = 3.0 * profile.mean_service_time();

    let mut group = c.benchmark_group("simulator");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("fixed_frequency_2000_requests", |b| {
        b.iter(|| {
            let mut policy = FixedFrequencyPolicy::new(config.dvfs.nominal());
            Server::new(config.clone()).run(&trace, &mut policy)
        })
    });
    group.bench_function("rubik_2000_requests", |b| {
        b.iter(|| {
            let mut rubik = RubikController::seeded_for_trace(
                RubikConfig::new(bound).with_profiling_window(1024),
                config.dvfs.clone(),
                &trace,
                256,
            );
            Server::new(config.clone()).run(&trace, &mut rubik)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simulator
}
criterion_main!(benches);
