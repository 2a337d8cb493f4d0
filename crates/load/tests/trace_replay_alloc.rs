//! Replaying a captured trace through `StreamingTraceReader` allocates
//! nothing per request: the reader lends each key and number token out of
//! one fixed buffer instead of building strings for them, so a trace of
//! any length costs the same few allocations (the buffer and nothing else
//! in the steady state). A counting global allocator pins that directly:
//! replaying 8x more requests must make exactly as many allocations.

use rubik_load::{ArrivalSource, PoissonSource, StreamingTraceReader, StreamingTraceWriter};
use rubik_testalloc::{allocations, CountingAllocator};
use rubik_workloads::AppProfile;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn capture(requests: usize) -> Vec<u8> {
    let mut source = PoissonSource::new(AppProfile::masstree(), 0.5, requests, 7);
    let mut writer = StreamingTraceWriter::new(Vec::new()).unwrap();
    while let Some(r) = source.next_arrival() {
        writer.write(&r).unwrap();
    }
    writer.finish().unwrap()
}

fn allocations_to_replay(requests: usize) -> u64 {
    let captured = capture(requests);
    let before = allocations();
    let mut reader = StreamingTraceReader::new(captured.as_slice()).unwrap();
    let mut replayed = 0;
    while reader.next_arrival().is_some() {
        replayed += 1;
    }
    reader.finish().unwrap();
    let after = allocations();
    assert_eq!(replayed, requests);
    after - before
}

#[test]
fn replay_allocations_do_not_scale_with_request_count() {
    let short = allocations_to_replay(512);
    let long = allocations_to_replay(4096);
    assert_eq!(
        short, long,
        "512 requests replayed with {short} allocations, 4096 with {long}"
    );
}
