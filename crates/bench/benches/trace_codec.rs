//! The JSON trace codec alone: writing and replaying a captured request
//! stream, per request.
//!
//! The stream has the faulted fleet's shape: masstree requests for 100
//! servers under a diurnal load (mean 0.5, swing 0.2, two periods), about
//! 1500 requests per server, ~150k in all. It is generated once, before
//! any timing, so:
//!
//! * `trace_codec/write` times only `StreamingTraceWriter` formatting the
//!   pre-generated requests into a `Vec` reserved up front;
//! * `trace_codec/replay` times only `StreamingTraceReader` reading the
//!   pre-written bytes back.
//!
//! Both report the whole stream per iteration (`elems_per_iter` is its
//! request count), and the bench prints each as nanoseconds per request.
//! Results merge into `BENCH_controller.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use rubik::{
    AppProfile, ArrivalSource, LoadShape, RequestSpec, ShapedSource, StreamingTraceReader,
    StreamingTraceWriter, WorkloadGenerator,
};

const BENCH_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_controller.json");

const FLEET: usize = 100;
const REQUESTS_PER_SERVER: usize = 1500;
const DIURNAL_MEAN: f64 = 0.5;
const DIURNAL_AMPLITUDE: f64 = 0.2;
const SEED: u64 = 2015;

/// The fixed request stream, generated in full.
fn stream() -> Vec<RequestSpec> {
    let profile = AppProfile::masstree();
    // One server's arrival rate at load 1 sets the window that draws
    // REQUESTS_PER_SERVER at the diurnal mean.
    let capacity = WorkloadGenerator::new(profile.clone(), 0).steady_rate(1.0);
    let duration = REQUESTS_PER_SERVER as f64 / (DIURNAL_MEAN * capacity);
    let shape = LoadShape::Diurnal {
        mean: DIURNAL_MEAN,
        amplitude: DIURNAL_AMPLITUDE,
        period: duration / 2.0,
        duration,
    };
    let mut source = ShapedSource::new(profile, shape, SEED).for_fleet(FLEET);
    std::iter::from_fn(|| source.next_arrival()).collect()
}

/// Writes `requests` as one trace into `out`, which is cleared first.
fn write(requests: &[RequestSpec], out: &mut Vec<u8>) {
    out.clear();
    let mut writer = StreamingTraceWriter::new(out).expect("writing to a Vec cannot fail");
    for r in requests {
        writer.write(r).expect("writing to a Vec cannot fail");
    }
    writer.finish().expect("writing to a Vec cannot fail");
}

fn bench_trace_codec(c: &mut Criterion) {
    let requests = stream();
    let mut bytes = Vec::new();
    write(&requests, &mut bytes);
    let mut out = Vec::with_capacity(bytes.len());

    let mut group = c.benchmark_group("trace_codec");
    group.throughput(Throughput::Elements(requests.len() as u64));
    group.bench_function("write", |b| {
        b.iter(|| {
            write(black_box(&requests), &mut out);
            out.len()
        })
    });
    group.bench_function("replay", |b| {
        b.iter(|| {
            let mut reader = StreamingTraceReader::new(black_box(bytes.as_slice()))
                .expect("the captured trace has a header");
            let mut replayed = 0;
            while let Some(r) = reader.next_arrival() {
                black_box(r);
                replayed += 1;
            }
            reader.finish().expect("the captured trace replays whole");
            replayed
        })
    });
    group.finish();
    assert_eq!(out, bytes, "every write produced the same trace");

    let per_request = |id: &str| {
        let r = c.results().iter().rev().find(|r| r.id == id)?;
        Some(r.median_ns / r.elems_per_iter? as f64)
    };
    for id in ["trace_codec/write", "trace_codec/replay"] {
        if let Some(ns) = per_request(id) {
            println!("{id}: {ns:.1} ns per request ({} requests)", requests.len());
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().output_json(BENCH_JSON);
    targets = bench_trace_codec
}
criterion_main!(benches);
