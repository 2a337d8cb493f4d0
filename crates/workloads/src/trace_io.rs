//! Trace capture and replay.
//!
//! The paper's trace-driven characterization (Sec. 5.3) captures per-request
//! arrival times, core cycles, and memory-bound times, and replays the same
//! trace under different schemes so that every scheme sees an identical
//! request stream. This module is the one codec for such traces:
//! [`TraceWriter`] appends requests to any [`Write`] as they are generated,
//! and [`TraceReader`] pulls them back one at a time from any [`Read`]
//! through `rubik-json`'s tokenizer, so neither side holds more than one
//! request and a fixed buffer, however long the trace. [`to_json`],
//! [`from_json`], [`save`] and [`load`] are whole-trace wrappers over the
//! two.
//!
//! ```json
//! {"requests":[{"id":0,"arrival":0e0,"compute_cycles":1e6,
//!               "membound_time":1e-5,"class":0}, ...]}
//! ```
//!
//! Floats are written by `rubik-json`'s formatter ([`rubik_json::write_f64`]),
//! which spells each one byte for byte as `{:e}` would: the shortest form
//! that reads back to the same bits. Each record is assembled on the stack
//! and handed to the output in one write. The reader rejects unknown,
//! duplicate and missing fields, non-finite numbers, ids that are not exact
//! integers, and anything after the closing `]}`.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

pub use rubik_json::JsonError;
use rubik_json::{write_f64, write_u64, Elements, Reader, F64_LEN, U64_LEN};
use rubik_sim::{RequestSpec, Trace};

/// Errors returned by trace I/O.
#[derive(Debug)]
pub enum TraceIoError {
    /// The underlying file could not be read or written.
    Io(io::Error),
    /// The file contents could not be parsed as a trace.
    Parse(JsonError),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace file I/O failed: {e}"),
            TraceIoError::Parse(e) => write!(f, "trace file is not a valid trace: {e}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Parse(e) => Some(e),
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<JsonError> for TraceIoError {
    fn from(e: JsonError) -> Self {
        TraceIoError::Parse(e)
    }
}

/// Serializes a trace to a JSON string.
pub fn to_json(trace: &Trace) -> String {
    let mut out = Vec::with_capacity(64 * trace.len() + 16);
    write_trace(trace, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("the writer emits ASCII")
}

/// Parses a trace from a JSON string.
///
/// # Errors
///
/// Returns [`TraceIoError::Parse`] if the string is not a valid trace.
pub fn from_json(json: &str) -> Result<Trace, TraceIoError> {
    read_trace(TraceReader::new(json.as_bytes())?)
}

/// Writes a trace to a JSON file.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] if the file cannot be written.
pub fn save<P: AsRef<Path>>(trace: &Trace, path: P) -> Result<(), TraceIoError> {
    write_trace(trace, BufWriter::new(File::create(path)?))?;
    Ok(())
}

/// Reads a trace from a JSON file.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] if the file cannot be read and
/// [`TraceIoError::Parse`] if it is not a valid trace.
pub fn load<P: AsRef<Path>>(path: P) -> Result<Trace, TraceIoError> {
    read_trace(TraceReader::open(path)?)
}

fn write_trace<W: Write>(trace: &Trace, out: W) -> io::Result<W> {
    let mut writer = TraceWriter::new(out)?;
    for r in trace.requests() {
        writer.write(r)?;
    }
    writer.finish()
}

fn read_trace<R: Read>(mut reader: TraceReader<R>) -> Result<Trace, TraceIoError> {
    let mut requests = Vec::new();
    while let Some(r) = reader.next_request()? {
        requests.push(r);
    }
    Ok(Trace::new(requests))
}

/// Writes a trace one request at a time.
///
/// Call [`TraceWriter::finish`] to close the JSON structure; a writer
/// dropped without it leaves a truncated trace that readers reject, never
/// a silently short one.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    written: usize,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates (truncating) a trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Self::new(BufWriter::new(File::create(path)?))
    }
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace on any writer (the JSON header is written
    /// immediately).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the header cannot be written.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(b"{\"requests\":[")?;
        Ok(Self { out, written: 0 })
    }

    /// Appends one request.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the record cannot be written.
    pub fn write(&mut self, r: &RequestSpec) -> io::Result<()> {
        let record = Record::spell(r, self.written > 0);
        self.out.write_all(&record.bytes[..record.len])?;
        self.written += 1;
        Ok(())
    }

    /// Closes the JSON structure and flushes, returning the inner writer.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the trailer cannot be written.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.write_all(b"]}")?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Bytes a record's numbers and punctuation may touch: a comma, the
/// braces, keys, colons and commas (62), and room for each number's
/// longest spelling, two integers and three floats. The longest record is
/// 10 bytes shorter, since the class is a `u32`.
const RECORD_ROOM: usize = 1 + 62 + 2 * U64_LEN + 3 * F64_LEN;

/// One request's bytes, assembled on the stack so that the writer hands
/// its output one `write_all` per request.
struct Record {
    bytes: [u8; RECORD_ROOM],
    len: usize,
}

impl Record {
    /// Spells `r` as a trace record, after a comma unless it is the first.
    /// Not generic, so the writer's every output type shares this one
    /// compiled copy, with the pieces below inlined into it.
    fn spell(r: &RequestSpec, comma: bool) -> Self {
        let mut record = Self {
            bytes: [0; RECORD_ROOM],
            len: 0,
        };
        if comma {
            record.push(b",");
        }
        record.push(b"{\"id\":");
        record.u64(r.id);
        record.push(b",\"arrival\":");
        record.f64(r.arrival);
        record.push(b",\"compute_cycles\":");
        record.f64(r.compute_cycles);
        record.push(b",\"membound_time\":");
        record.f64(r.membound_time);
        record.push(b",\"class\":");
        record.u64(u64::from(r.class));
        record.push(b"}");
        record
    }

    fn push(&mut self, text: &[u8]) {
        self.bytes[self.len..self.len + text.len()].copy_from_slice(text);
        self.len += text.len();
    }

    fn f64(&mut self, v: f64) {
        let (room, _) = self.bytes[self.len..]
            .split_first_chunk_mut()
            .expect("RECORD_ROOM holds the longest float");
        self.len += write_f64(v, room);
    }

    fn u64(&mut self, v: u64) {
        let (room, _) = self.bytes[self.len..]
            .split_first_chunk_mut()
            .expect("RECORD_ROOM holds the longest integer");
        self.len += write_u64(v, room);
    }
}

/// The request fields, in the order the writer puts them.
const FIELDS: &[&str] = &["id", "arrival", "compute_cycles", "membound_time", "class"];

/// Reads a trace one request per call, holding one request and a fixed
/// buffer however long the trace is.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    json: Reader<R>,
    requests: Elements,
    /// The closing `]}` and the end of the input have been read.
    done: bool,
}

impl TraceReader<BufReader<File>> {
    /// Opens a trace file.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if the file cannot be opened and
    /// [`TraceIoError::Parse`] if it does not start with the trace header.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, TraceIoError> {
        Self::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> TraceReader<R> {
    /// Starts reading a trace from any reader; the `{"requests":[` header
    /// is read immediately.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] on a read failure and
    /// [`TraceIoError::Parse`] if the header is malformed.
    pub fn new(input: R) -> Result<Self, TraceIoError> {
        let mut json = Reader::new(input);
        match Self::header(&mut json) {
            Ok(requests) => Ok(Self {
                json,
                requests,
                done: false,
            }),
            Err(e) => Err(trace_error(&mut json, e)),
        }
    }

    fn header(json: &mut Reader<R>) -> Result<Elements, JsonError> {
        json.expect(b'{')?;
        let at = json.token_offset()?;
        if json.str()? != "requests" {
            return Err(JsonError::new("expected a \"requests\" field", at));
        }
        json.expect(b':')?;
        json.array()
    }

    /// The next request, or `None` once the closing `]}` and the end of
    /// the input have been read.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] on a read failure and
    /// [`TraceIoError::Parse`] if the next request or the end of the trace
    /// is malformed. The reader is then left inside the document; stop
    /// reading.
    pub fn next_request(&mut self) -> Result<Option<RequestSpec>, TraceIoError> {
        if self.done {
            return Ok(None);
        }
        self.read_request()
            .map_err(|e| trace_error(&mut self.json, e))
    }

    fn read_request(&mut self) -> Result<Option<RequestSpec>, JsonError> {
        let json = &mut self.json;
        if !self.requests.next(json)? {
            json.expect(b'}')?;
            json.end()?;
            self.done = true;
            return Ok(None);
        }
        let mut spec = RequestSpec::new(0, 0.0, 0.0, 0.0);
        let mut fields = json.object("request", FIELDS)?;
        while let Some(field) = fields.next(json)? {
            match field {
                "id" => spec.id = json.uint()?,
                "arrival" => spec.arrival = json.f64()?,
                "compute_cycles" => spec.compute_cycles = json.f64()?,
                "membound_time" => spec.membound_time = json.f64()?,
                "class" => spec.class = json.uint()?,
                _ => unreachable!("a request has only FIELDS"),
            }
        }
        Ok(Some(spec))
    }

    /// Bytes of the trace read so far.
    pub fn offset(&self) -> usize {
        self.json.offset()
    }

    /// Checks that the whole trace has been read.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Parse`] if the closing `]}` has not been
    /// read.
    pub fn finish(self) -> Result<(), TraceIoError> {
        if self.done {
            Ok(())
        } else {
            Err(TraceIoError::Parse(JsonError::new(
                "trace stream ended before the closing \"]}\"",
                self.offset(),
            )))
        }
    }
}

/// A tokenizer error as a trace error: the I/O error behind it, if any.
fn trace_error<R>(json: &mut Reader<R>, e: JsonError) -> TraceIoError {
    match json.take_io_error() {
        Some(io) => TraceIoError::Io(io),
        None => TraceIoError::Parse(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppProfile, WorkloadGenerator};

    /// The writer emits shortest-roundtrip floats, so traces survive a
    /// round-trip bit-exactly; the comparison is still by value so the test
    /// also documents what matters for replay.
    fn assert_traces_equivalent(a: &Trace, b: &Trace) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.requests().iter().zip(b.requests()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.class, y.class);
            assert!((x.arrival - y.arrival).abs() <= 1e-12 * x.arrival.abs().max(1.0));
            assert!(
                (x.compute_cycles - y.compute_cycles).abs()
                    <= 1e-12 * x.compute_cycles.abs().max(1.0)
            );
            assert!(
                (x.membound_time - y.membound_time).abs() <= 1e-12 * x.membound_time.abs().max(1.0)
            );
        }
    }

    #[test]
    fn json_roundtrip_preserves_trace() {
        let mut g = WorkloadGenerator::new(AppProfile::masstree(), 1);
        let trace = g.steady_trace(0.4, 200);
        let json = to_json(&trace);
        let back = from_json(&json).unwrap();
        assert_traces_equivalent(&trace, &back);
    }

    #[test]
    fn file_roundtrip_preserves_trace() {
        let mut g = WorkloadGenerator::new(AppProfile::shore(), 2);
        let trace = g.steady_trace(0.3, 100);
        let dir = std::env::temp_dir();
        let path = dir.join("rubik_trace_io_test.json");
        save(&trace, &path).unwrap();
        let back = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_traces_equivalent(&trace, &back);
    }

    #[test]
    fn whitespace_and_field_order_are_tolerated() {
        let json = r#" {
            "requests": [
                {"arrival": 1.5e-3, "id": 7, "class": 2,
                 "membound_time": 0.0, "compute_cycles": 1e6}
            ]
        } "#;
        let t = from_json(json).unwrap();
        assert_eq!(t.len(), 1);
        let r = t.requests()[0];
        assert_eq!(r.id, 7);
        assert_eq!(r.class, 2);
        assert!((r.arrival - 1.5e-3).abs() < 1e-18);
        assert!((r.compute_cycles - 1e6).abs() < 1e-6);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = from_json(&to_json(&Trace::default())).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn parse_error_is_reported() {
        let err = from_json("not json").unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(_)));
        assert!(err.to_string().contains("not a valid trace"));
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err = from_json(r#"{"requests":[{"id":0,"bogus":1}]}"#).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(_)));
    }

    #[test]
    fn missing_fields_are_rejected() {
        // A truncated request must not silently default to zero work.
        let err = from_json(r#"{"requests":[{"id":3,"arrival":0.0}]}"#).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(_)));
        assert!(err.to_string().contains("missing request field"));
    }

    #[test]
    fn duplicate_fields_are_rejected() {
        let err = from_json(
            r#"{"requests":[{"id":0,"id":1,"arrival":0.0,"compute_cycles":1.0,
                "membound_time":0.0,"class":0}]}"#,
        )
        .unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(_)));
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        // 1e999 overflows to +inf under f64 parsing; accepting it would
        // poison every downstream latency computation.
        let err = from_json(
            r#"{"requests":[{"id":0,"arrival":1e999,"compute_cycles":1.0,
                "membound_time":0.0,"class":0}]}"#,
        )
        .unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(_)));
    }

    #[test]
    fn fractional_ids_are_rejected() {
        let err = from_json(
            r#"{"requests":[{"id":1.5,"arrival":0.0,"compute_cycles":1.0,
                "membound_time":0.0,"class":0}]}"#,
        )
        .unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(_)));
    }

    #[test]
    fn large_ids_roundtrip_exactly() {
        // Ids above 2^53 would corrupt under an f64 round-trip; the integer
        // fields must parse as integers.
        let big = (1u64 << 60) + 12345;
        let trace = Trace::new(vec![RequestSpec::new(big, 0.0, 1.0, 0.0)]);
        let back = from_json(&to_json(&trace)).unwrap();
        assert_eq!(back.requests()[0].id, big);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let err = from_json("{\"requests\":[]} extra").unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(_)));
    }

    /// 64-bit FNV-1a: pins writer output without checking the bytes in.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn writer_bytes_are_pinned() {
        // Length and hash of the writer's output, taken before the batch
        // and streaming codecs were merged into one.
        let trace = WorkloadGenerator::new(AppProfile::masstree(), 1).steady_trace(0.4, 200);
        let json = to_json(&trace);
        assert_eq!(
            (json.len(), fnv1a(json.as_bytes())),
            (25_225, 12_958_152_575_550_001_346)
        );
    }

    #[test]
    fn the_longest_record_fits_the_stack_buffer() {
        let tiny = -f64::MIN_POSITIVE;
        let mut longest = RequestSpec::new(u64::MAX, tiny, tiny, tiny);
        longest.class = u32::MAX;
        let mut writer = TraceWriter::new(Vec::new()).unwrap();
        writer.write(&longest).unwrap();
        let header = writer.out.len();
        writer.write(&longest).unwrap();
        assert_eq!(writer.out.len() - header, RECORD_ROOM - 10);
        let back = from_json(&String::from_utf8(writer.finish().unwrap()).unwrap()).unwrap();
        assert_eq!(back.requests(), &[longest, longest]);
    }

    #[test]
    fn reader_memory_is_bounded_by_buffer_not_trace() {
        // The reader's buffer is fixed-size; a large trace streams through
        // it without growing allocations proportional to the trace.
        let trace = WorkloadGenerator::new(AppProfile::masstree(), 5).steady_trace(0.4, 2_000);
        let json = to_json(&trace);
        let mut reader = TraceReader::new(json.as_bytes()).unwrap();
        assert_eq!(reader.json.window(), 8 * 1024);
        let mut replayed = 0;
        while reader.next_request().unwrap().is_some() {
            replayed += 1;
        }
        assert_eq!(reader.json.window(), 8 * 1024);
        assert_eq!(replayed, 2_000);
    }

    #[test]
    fn read_failures_are_reported_as_io_errors() {
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("disk gone"))
            }
        }
        let trace = WorkloadGenerator::new(AppProfile::masstree(), 3).steady_trace(0.4, 10);
        let json = to_json(&trace);
        let half = &json.as_bytes()[..json.len() / 2];
        let mut reader = TraceReader::new(half.chain(Broken)).unwrap();
        let err = loop {
            match reader.next_request() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("a failing input cannot end cleanly"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, TraceIoError::Io(_)), "{err}");
    }

    #[test]
    fn missing_file_is_reported_as_io_error() {
        let err = load("/nonexistent/rubik/trace.json").unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
    }
}
