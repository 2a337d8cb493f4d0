//! Streaming trace replay as an [`ArrivalSource`].
//!
//! The trace codec is [`rubik_workloads::trace_io`]: its reader pulls one
//! request at a time through a fixed buffer, and its writer, re-exported
//! here as [`StreamingTraceWriter`], appends requests as they are
//! generated. [`StreamingTraceReader`] adapts the reader into an arrival
//! stream, so huge captured traces replay through `Cluster::run` without
//! ever materializing. It adds the one check a pull-based source
//! needs: arrivals must be time-ordered, because nothing can sort them
//! after the fact.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use rubik_sim::RequestSpec;
pub use rubik_workloads::trace_io::TraceWriter as StreamingTraceWriter;
use rubik_workloads::trace_io::{JsonError, TraceIoError, TraceReader};

use crate::source::ArrivalSource;

/// Replays a trace file one request per pull with O(1) resident memory.
///
/// Implements [`ArrivalSource`], so a captured multi-gigabyte trace feeds
/// `Cluster::run` directly.
///
/// [`ArrivalSource::next_arrival`] cannot carry an error, so a parse or
/// I/O failure, or an arrival earlier than the one before it, ends the
/// stream early and is held for inspection: check
/// [`StreamingTraceReader::finish`] (or [`StreamingTraceReader::error`])
/// after the run to distinguish clean exhaustion from a truncated or
/// malformed file.
#[derive(Debug)]
pub struct StreamingTraceReader<R: Read> {
    trace: TraceReader<R>,
    last_arrival: f64,
    error: Option<TraceIoError>,
}

impl StreamingTraceReader<BufReader<File>> {
    /// Opens a trace file for streaming replay.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if the file cannot be opened and
    /// [`TraceIoError::Parse`] if it does not start with the trace header.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, TraceIoError> {
        TraceReader::open(path).map(Self::replaying)
    }
}

impl<R: Read> StreamingTraceReader<R> {
    /// Starts streaming from any reader; the `{"requests":[` header is
    /// parsed immediately.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] on a read failure and
    /// [`TraceIoError::Parse`] if the header is malformed.
    pub fn new(input: R) -> Result<Self, TraceIoError> {
        TraceReader::new(input).map(Self::replaying)
    }

    fn replaying(trace: TraceReader<R>) -> Self {
        Self {
            trace,
            last_arrival: f64::NEG_INFINITY,
            error: None,
        }
    }

    /// The error that ended the stream early, if any.
    pub fn error(&self) -> Option<&TraceIoError> {
        self.error.as_ref()
    }

    /// Consumes the reader, distinguishing clean exhaustion from failure.
    ///
    /// # Errors
    ///
    /// Returns the held error if the stream ended on a parse, ordering or
    /// I/O failure, or a truncation error if it ended before the closing
    /// `]}` was read.
    pub fn finish(self) -> Result<(), TraceIoError> {
        match self.error {
            Some(e) => Err(e),
            None => self.trace.finish(),
        }
    }
}

impl<R: Read> ArrivalSource for StreamingTraceReader<R> {
    fn next_arrival(&mut self) -> Option<RequestSpec> {
        if self.error.is_some() {
            return None;
        }
        match self.trace.next_request() {
            Ok(Some(spec)) if spec.arrival >= self.last_arrival => {
                self.last_arrival = spec.arrival;
                Some(spec)
            }
            Ok(Some(_)) => {
                let at = self.trace.offset();
                let e = JsonError::new("arrivals are out of order", at);
                self.error = Some(TraceIoError::Parse(e));
                None
            }
            Ok(None) => None,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{drain_to_trace, PoissonSource};
    use rubik_workloads::{trace_io, AppProfile, WorkloadGenerator};

    fn sample_trace(n: usize) -> rubik_sim::Trace {
        WorkloadGenerator::new(AppProfile::masstree(), 5).steady_trace(0.4, n)
    }

    #[test]
    fn streamed_bytes_match_batch_writer() {
        let trace = sample_trace(100);
        let mut writer = StreamingTraceWriter::new(Vec::new()).unwrap();
        for r in trace.requests() {
            writer.write(r).unwrap();
        }
        let bytes = writer.finish().unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), trace_io::to_json(&trace));
    }

    #[test]
    fn empty_stream_matches_batch_writer() {
        let writer = StreamingTraceWriter::new(Vec::new()).unwrap();
        let bytes = writer.finish().unwrap();
        assert_eq!(bytes, b"{\"requests\":[]}");
    }

    #[test]
    fn reader_reproduces_batch_parser_bit_for_bit() {
        let trace = sample_trace(200);
        let json = trace_io::to_json(&trace);
        let mut reader = StreamingTraceReader::new(json.as_bytes()).unwrap();
        let batch = trace_io::from_json(&json).unwrap();
        for expected in batch.requests() {
            let got = reader.next_arrival().unwrap();
            assert_eq!(got.id, expected.id);
            assert_eq!(got.arrival.to_bits(), expected.arrival.to_bits());
            assert_eq!(
                got.compute_cycles.to_bits(),
                expected.compute_cycles.to_bits()
            );
            assert_eq!(
                got.membound_time.to_bits(),
                expected.membound_time.to_bits()
            );
            assert_eq!(got.class, expected.class);
        }
        assert_eq!(reader.next_arrival(), None);
        reader.finish().unwrap();
    }

    #[test]
    fn file_round_trip_streams_both_ways() {
        let path = std::env::temp_dir().join("rubik_stream_io_test.json");
        let mut source = PoissonSource::new(AppProfile::xapian(), 0.5, 150, 9);
        let mut writer = StreamingTraceWriter::create(&path).unwrap();
        let mut written = 0;
        while let Some(r) = source.next_arrival() {
            writer.write(&r).unwrap();
            written += 1;
        }
        writer.finish().unwrap();
        assert_eq!(written, 150);
        let reader = StreamingTraceReader::open(&path).unwrap();
        let replayed = drain_to_trace(reader, None);
        std::fs::remove_file(&path).ok();
        let direct = drain_to_trace(PoissonSource::new(AppProfile::xapian(), 0.5, 150, 9), None);
        assert_eq!(replayed.len(), 150);
        for (a, b) in replayed.requests().iter().zip(direct.requests()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.arrival.to_bits(), b.arrival.to_bits());
            assert_eq!(a.compute_cycles.to_bits(), b.compute_cycles.to_bits());
            assert_eq!(a.membound_time.to_bits(), b.membound_time.to_bits());
            assert_eq!(a.class, b.class);
        }
    }

    #[test]
    fn reader_tolerates_whitespace_and_field_order() {
        let json = r#" {
            "requests": [
                {"arrival": 1.5e-3, "id": 7, "class": 2,
                 "membound_time": 0.0, "compute_cycles": 1e6}
            ]
        } "#;
        let mut reader = StreamingTraceReader::new(json.as_bytes()).unwrap();
        let r = reader.next_arrival().unwrap();
        assert_eq!(r.id, 7);
        assert_eq!(r.class, 2);
        assert_eq!(reader.next_arrival(), None);
        reader.finish().unwrap();
    }

    /// Malformed streams, each with a phrase its error must contain.
    const MALFORMED: [(&str, &str); 6] = [
        ("{\"requests\":", "expected '['"),
        ("{\"other\":[]}", "expected a \"requests\" field"),
        (
            "{\"requests\":[{\"id\":0,\"arrival\":0.0,\"compute_cycles\":1.0,\
             \"membound_time\":0.0}]}",
            "missing request field \"class\"",
        ),
        (
            "{\"requests\":[{\"id\":0,\"id\":1,\"arrival\":0.0,\"compute_cycles\":1.0,\
             \"membound_time\":0.0,\"class\":0}]}",
            "duplicate request field",
        ),
        (
            "{\"requests\":[{\"id\":0,\"arrival\":1e999,\"compute_cycles\":1.0,\
             \"membound_time\":0.0,\"class\":0}]}",
            "expected a finite number",
        ),
        (
            "{\"requests\":[{\"id\":0,\"wat\":1,\"arrival\":0.0,\"compute_cycles\":1.0,\
             \"membound_time\":0.0,\"class\":0}]}",
            "unknown request field",
        ),
    ];

    #[test]
    fn reader_rejects_malformed_streams() {
        for (json, needle) in MALFORMED {
            match StreamingTraceReader::new(json.as_bytes()) {
                Err(e) => assert!(e.to_string().contains(needle), "{json}: {e}"),
                Ok(mut reader) => {
                    while reader.next_arrival().is_some() {}
                    let err = reader.finish().expect_err(json).to_string();
                    assert!(err.contains(needle), "{json}: {err}");
                }
            }
        }
    }

    #[test]
    fn reader_rejects_truncated_and_unordered_streams() {
        // Truncated: writer dropped before finish().
        let trace = sample_trace(3);
        let mut truncated = Vec::new();
        let mut writer = StreamingTraceWriter::new(&mut truncated).unwrap();
        for r in trace.requests() {
            writer.write(r).unwrap();
        } // no finish(): missing "]}"
        let mut reader = StreamingTraceReader::new(&truncated[..]).unwrap();
        while reader.next_arrival().is_some() {}
        assert!(reader.finish().is_err(), "truncated file must be rejected");

        // Out of order: a pull-based reader cannot sort after the fact.
        let json = "{\"requests\":[\
            {\"id\":0,\"arrival\":2.0,\"compute_cycles\":1.0,\"membound_time\":0.0,\"class\":0},\
            {\"id\":1,\"arrival\":1.0,\"compute_cycles\":1.0,\"membound_time\":0.0,\"class\":0}]}";
        let mut reader = StreamingTraceReader::new(json.as_bytes()).unwrap();
        assert!(reader.next_arrival().is_some());
        assert_eq!(reader.next_arrival(), None);
        let err = reader.finish().expect_err("unordered").to_string();
        assert!(err.contains("out of order"), "{err}");
    }

    /// A reader that hands out one to seven bytes per call.
    struct Trickle<'a> {
        bytes: &'a [u8],
        calls: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let n = (1 + self.calls % 7).min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// The bits of every request a stream yields, then how it ended.
    fn replay<R: Read>(input: R) -> (Vec<[u64; 5]>, Result<(), String>) {
        let mut reader = match StreamingTraceReader::new(input) {
            Ok(reader) => reader,
            Err(e) => return (Vec::new(), Err(e.to_string())),
        };
        let mut requests = Vec::new();
        while let Some(r) = reader.next_arrival() {
            requests.push([
                r.id,
                r.arrival.to_bits(),
                r.compute_cycles.to_bits(),
                r.membound_time.to_bits(),
                u64::from(r.class),
            ]);
        }
        (requests, reader.finish().map_err(|e| e.to_string()))
    }

    #[test]
    fn reads_do_not_depend_on_chunk_boundaries() {
        // Whatever sizes the input's reads come in, the reader yields the
        // same requests bit for bit and fails with the same error at the
        // same byte offset as when it reads one whole slice.
        let trace = trace_io::to_json(&sample_trace(2_000));
        let (requests, ending) = replay(trace.as_bytes());
        assert_eq!((requests.len(), &ending), (2_000, &Ok(())));
        let malformed = MALFORMED.iter().map(|(json, _)| *json);
        for json in std::iter::once(trace.as_str()).chain(malformed) {
            let trickled = replay(Trickle {
                bytes: json.as_bytes(),
                calls: 0,
            });
            assert_eq!(trickled, replay(json.as_bytes()), "{json:.80}");
        }
    }
}
