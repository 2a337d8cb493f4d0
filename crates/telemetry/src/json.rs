//! Self-serialized JSON for [`TraceLog`]: writer and reader.
//!
//! [`to_json`] emits a stable `rubik-trace-v1` document, with floats in
//! Rust's shortest-roundtrip `{:?}` form, and [`from_json`] reads it back
//! through the workspace's one JSON tokenizer (`rubik-json`), so a write →
//! read cycle is lossless. The reader is as strict as the trace codec's:
//! unknown, duplicate and missing fields, non-finite numbers, inexact
//! integers (request ids included) and trailing data are errors.

use rubik_json::{Fields, JsonError, Reader};

use crate::event::{RequestEvent, RequestEventKind, ServerEvent, ServerEventKind};
use crate::fleet::{EpochSample, ServerSample};
use crate::log::{RequestTrace, TraceLog};

/// Format tag written into every document.
pub const FORMAT: &str = "rubik-trace-v1";

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn push_f64(out: &mut String, v: f64) {
    debug_assert!(v.is_finite(), "trace times and powers are finite");
    out.push_str(&format!("{v:?}"));
}

fn push_request_event(out: &mut String, event: &RequestEvent) {
    out.push_str("{\"at\":");
    push_f64(out, event.at);
    match event.kind {
        RequestEventKind::Routed { server, attempt } => {
            out.push_str(&format!(
                ",\"kind\":\"routed\",\"server\":{server},\"attempt\":{attempt}"
            ));
        }
        RequestEventKind::TimedOut { server, attempt } => {
            out.push_str(&format!(
                ",\"kind\":\"timed_out\",\"server\":{server},\"attempt\":{attempt}"
            ));
        }
        RequestEventKind::Backoff { until } => {
            out.push_str(",\"kind\":\"backoff\",\"until\":");
            push_f64(out, until);
        }
        RequestEventKind::Salvaged { server } => {
            out.push_str(&format!(",\"kind\":\"salvaged\",\"server\":{server}"));
        }
        RequestEventKind::Requeued { from, to } => {
            out.push_str(&format!(
                ",\"kind\":\"requeued\",\"from\":{from},\"to\":{to}"
            ));
        }
        RequestEventKind::Migrated { from, to } => {
            out.push_str(&format!(
                ",\"kind\":\"migrated\",\"from\":{from},\"to\":{to}"
            ));
        }
        RequestEventKind::Dropped { server } => {
            out.push_str(&format!(",\"kind\":\"dropped\",\"server\":{server}"));
        }
        RequestEventKind::Hedged { server, attempt } => {
            out.push_str(&format!(
                ",\"kind\":\"hedged\",\"server\":{server},\"attempt\":{attempt}"
            ));
        }
        RequestEventKind::HedgeWon { server } => {
            out.push_str(&format!(",\"kind\":\"hedge_won\",\"server\":{server}"));
        }
        RequestEventKind::HedgeCancelled { server } => {
            out.push_str(&format!(
                ",\"kind\":\"hedge_cancelled\",\"server\":{server}"
            ));
        }
    }
    out.push('}');
}

fn push_server_event(out: &mut String, event: &ServerEvent) {
    out.push_str("{\"at\":");
    push_f64(out, event.at);
    out.push_str(&format!(",\"server\":{}", event.server));
    match event.kind {
        ServerEventKind::Down => out.push_str(",\"kind\":\"down\""),
        ServerEventKind::Up => out.push_str(",\"kind\":\"up\""),
        ServerEventKind::StraggleStart { slowdown } => {
            out.push_str(",\"kind\":\"straggle_start\",\"slowdown\":");
            push_f64(out, slowdown);
        }
        ServerEventKind::StraggleEnd => out.push_str(",\"kind\":\"straggle_end\""),
        ServerEventKind::FreqStuck { mhz } => {
            out.push_str(",\"kind\":\"freq_stuck\",\"mhz\":");
            match mhz {
                Some(mhz) => out.push_str(&mhz.to_string()),
                None => out.push_str("null"),
            }
        }
    }
    out.push('}');
}

fn push_opt_f64(out: &mut String, v: Option<f64>) {
    match v {
        Some(v) => push_f64(out, v),
        None => out.push_str("null"),
    }
}

fn push_request(out: &mut String, request: &RequestTrace) {
    out.push_str(&format!("{{\"id\":{},\"arrival\":", request.id));
    push_f64(out, request.arrival);
    out.push_str(",\"start\":");
    push_opt_f64(out, request.start);
    out.push_str(",\"completion\":");
    push_opt_f64(out, request.completion);
    out.push_str(",\"server\":");
    match request.server {
        Some(server) => out.push_str(&server.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(",\"events\":[");
    for (i, event) in request.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_request_event(out, event);
    }
    out.push_str("]}");
}

fn push_epoch(out: &mut String, epoch: &EpochSample) {
    out.push_str("{\"start\":");
    push_f64(out, epoch.start);
    out.push_str(",\"end\":");
    push_f64(out, epoch.end);
    out.push_str(",\"power\":");
    push_f64(out, epoch.power);
    out.push_str(&format!(
        ",\"queued\":{},\"in_flight\":{},\"completions\":{},\"retries\":{},\"timeouts\":{}",
        epoch.queued, epoch.in_flight, epoch.completions, epoch.retries, epoch.timeouts
    ));
    out.push_str(",\"per_server\":[");
    for (i, server) in epoch.per_server.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"queued\":{},\"in_flight\":{},\"freq_mhz\":{},\"power\":",
            server.queued, server.in_flight, server.freq_mhz
        ));
        push_f64(out, server.power);
        out.push_str(&format!(",\"down\":{}}}", server.down));
    }
    out.push_str("]}");
}

/// Serialize a [`TraceLog`] as a `rubik-trace-v1` JSON document.
pub fn to_json(log: &TraceLog) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"format\":\"{FORMAT}\",\"servers\":{},\"end\":",
        log.servers
    ));
    push_f64(&mut out, log.end);
    out.push_str(",\n\"requests\":[");
    for (i, request) in log.requests.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        push_request(&mut out, request);
    }
    out.push_str("],\n\"server_events\":[");
    for (i, event) in log.server_events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        push_server_event(&mut out, event);
    }
    out.push_str("],\n\"epochs\":[");
    for (i, epoch) in log.epochs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        push_epoch(&mut out, epoch);
    }
    out.push_str("]}\n");
    out
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

type Json<'a> = Reader<&'a [u8]>;

/// Each kind of request event, with the fields an event of that kind holds.
const REQUEST_EVENT_KINDS: &[(&str, &[&str])] = &[
    ("routed", &["at", "kind", "server", "attempt"]),
    ("timed_out", &["at", "kind", "server", "attempt"]),
    ("backoff", &["at", "kind", "until"]),
    ("salvaged", &["at", "kind", "server"]),
    ("requeued", &["at", "kind", "from", "to"]),
    ("migrated", &["at", "kind", "from", "to"]),
    ("dropped", &["at", "kind", "server"]),
    ("hedged", &["at", "kind", "server", "attempt"]),
    ("hedge_won", &["at", "kind", "server"]),
    ("hedge_cancelled", &["at", "kind", "server"]),
];

/// Each kind of server event, with the fields an event of that kind holds.
const SERVER_EVENT_KINDS: &[(&str, &[&str])] = &[
    ("down", &["at", "server", "kind"]),
    ("up", &["at", "server", "kind"]),
    ("straggle_start", &["at", "server", "kind", "slowdown"]),
    ("straggle_end", &["at", "server", "kind"]),
    ("freq_stuck", &["at", "server", "kind", "mhz"]),
];

/// Reads an event's `kind`, one of `kinds`, and requires exactly the
/// fields that kind holds.
fn read_kind(
    json: &mut Json,
    fields: &mut Fields,
    what: &str,
    kinds: &[(&'static str, &[&str])],
) -> Result<&'static str, JsonError> {
    let at = json.token_offset()?;
    let name = json.str()?;
    match kinds.iter().find(|(kind, _)| *kind == name) {
        Some(&(kind, holds)) => {
            fields.require(holds);
            Ok(kind)
        }
        None => Err(JsonError::new(format!("unknown {what} kind `{name}`"), at)),
    }
}

fn read_request_event(json: &mut Json) -> Result<RequestEvent, JsonError> {
    let (mut at, mut kind, mut until) = (0.0, "", 0.0);
    let (mut server, mut attempt, mut from, mut to) = (0, 0, 0, 0);
    let names = &["at", "kind", "server", "attempt", "until", "from", "to"];
    let mut fields = json.object("request event", names)?;
    while let Some(field) = fields.next(json)? {
        match field {
            "at" => at = json.f64()?,
            "kind" => kind = read_kind(json, &mut fields, "request event", REQUEST_EVENT_KINDS)?,
            "server" => server = json.uint()?,
            "attempt" => attempt = json.uint()?,
            "until" => until = json.f64()?,
            "from" => from = json.uint()?,
            "to" => to = json.uint()?,
            _ => unreachable!("a request event has only its names"),
        }
    }
    let kind = match kind {
        "routed" => RequestEventKind::Routed { server, attempt },
        "timed_out" => RequestEventKind::TimedOut { server, attempt },
        "backoff" => RequestEventKind::Backoff { until },
        "salvaged" => RequestEventKind::Salvaged { server },
        "requeued" => RequestEventKind::Requeued { from, to },
        "migrated" => RequestEventKind::Migrated { from, to },
        "dropped" => RequestEventKind::Dropped { server },
        "hedged" => RequestEventKind::Hedged { server, attempt },
        "hedge_won" => RequestEventKind::HedgeWon { server },
        "hedge_cancelled" => RequestEventKind::HedgeCancelled { server },
        _ => unreachable!("`kind` is required and checked"),
    };
    Ok(RequestEvent { at, kind })
}

fn read_server_event(json: &mut Json) -> Result<ServerEvent, JsonError> {
    let (mut at, mut server, mut kind, mut slowdown, mut mhz) = (0.0, 0, "", 0.0, None);
    let mut fields = json.object("server event", &["at", "server", "kind", "slowdown", "mhz"])?;
    while let Some(field) = fields.next(json)? {
        match field {
            "at" => at = json.f64()?,
            "server" => server = json.uint()?,
            "kind" => kind = read_kind(json, &mut fields, "server event", SERVER_EVENT_KINDS)?,
            "slowdown" => slowdown = json.f64()?,
            "mhz" => mhz = json.optional(Reader::uint)?,
            _ => unreachable!("a server event has only its names"),
        }
    }
    let kind = match kind {
        "down" => ServerEventKind::Down,
        "up" => ServerEventKind::Up,
        "straggle_start" => ServerEventKind::StraggleStart { slowdown },
        "straggle_end" => ServerEventKind::StraggleEnd,
        "freq_stuck" => ServerEventKind::FreqStuck { mhz },
        _ => unreachable!("`kind` is required and checked"),
    };
    Ok(ServerEvent { at, server, kind })
}

fn read_request(json: &mut Json) -> Result<RequestTrace, JsonError> {
    let mut request = RequestTrace {
        id: 0,
        arrival: 0.0,
        start: None,
        completion: None,
        server: None,
        events: Vec::new(),
    };
    let names = &["id", "arrival", "start", "completion", "server", "events"];
    let mut fields = json.object("request", names)?;
    while let Some(field) = fields.next(json)? {
        match field {
            "id" => request.id = json.uint()?,
            "arrival" => request.arrival = json.f64()?,
            "start" => request.start = json.optional(Reader::f64)?,
            "completion" => request.completion = json.optional(Reader::f64)?,
            "server" => request.server = json.optional(Reader::uint)?,
            "events" => request.events = json.list(read_request_event)?,
            _ => unreachable!("a request has only its names"),
        }
    }
    Ok(request)
}

fn read_server_sample(json: &mut Json) -> Result<ServerSample, JsonError> {
    let mut sample = ServerSample::default();
    let names = &["queued", "in_flight", "freq_mhz", "power", "down"];
    let mut fields = json.object("server sample", names)?;
    while let Some(field) = fields.next(json)? {
        match field {
            "queued" => sample.queued = json.uint()?,
            "in_flight" => sample.in_flight = json.uint()?,
            "freq_mhz" => sample.freq_mhz = json.uint()?,
            "power" => sample.power = json.f64()?,
            "down" => sample.down = json.bool()?,
            _ => unreachable!("a server sample has only its names"),
        }
    }
    Ok(sample)
}

fn read_epoch(json: &mut Json) -> Result<EpochSample, JsonError> {
    let mut epoch = EpochSample::default();
    let names = &[
        "start",
        "end",
        "power",
        "queued",
        "in_flight",
        "completions",
        "retries",
        "timeouts",
        "per_server",
    ];
    let mut fields = json.object("epoch", names)?;
    while let Some(field) = fields.next(json)? {
        match field {
            "start" => epoch.start = json.f64()?,
            "end" => epoch.end = json.f64()?,
            "power" => epoch.power = json.f64()?,
            "queued" => epoch.queued = json.uint()?,
            "in_flight" => epoch.in_flight = json.uint()?,
            "completions" => epoch.completions = json.uint()?,
            "retries" => epoch.retries = json.uint()?,
            "timeouts" => epoch.timeouts = json.uint()?,
            "per_server" => epoch.per_server = json.list(read_server_sample)?,
            _ => unreachable!("an epoch has only its names"),
        }
    }
    Ok(epoch)
}

/// Parse a `rubik-trace-v1` JSON document back into a [`TraceLog`].
///
/// # Errors
///
/// Returns the first syntax or schema error, with its byte offset.
pub fn from_json(text: &str) -> Result<TraceLog, JsonError> {
    let mut json = Reader::new(text.as_bytes());
    let mut log = TraceLog::default();
    let names = &[
        "format",
        "servers",
        "end",
        "requests",
        "server_events",
        "epochs",
    ];
    let mut fields = json.object("trace", names)?;
    while let Some(field) = fields.next(&mut json)? {
        match field {
            "format" => {
                let at = json.token_offset()?;
                let format = json.str()?;
                if format != FORMAT {
                    let message = format!("unsupported trace format `{format}`");
                    return Err(JsonError::new(message, at));
                }
            }
            "servers" => log.servers = json.uint()?,
            "end" => log.end = json.f64()?,
            "requests" => log.requests = json.list(read_request)?,
            "server_events" => log.server_events = json.list(read_server_event)?,
            "epochs" => log.epochs = json.list(read_epoch)?,
            _ => unreachable!("a trace has only its names"),
        }
    }
    json.end()?;
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> TraceLog {
        TraceLog {
            servers: 2,
            end: 1.5,
            requests: vec![
                RequestTrace {
                    id: 0,
                    arrival: 0.0,
                    start: Some(0.125),
                    completion: Some(0.25),
                    server: Some(1),
                    events: vec![
                        RequestEvent {
                            at: 0.0,
                            kind: RequestEventKind::Routed {
                                server: 0,
                                attempt: 1,
                            },
                        },
                        RequestEvent {
                            at: 0.05,
                            kind: RequestEventKind::TimedOut {
                                server: 0,
                                attempt: 1,
                            },
                        },
                        RequestEvent {
                            at: 0.05,
                            kind: RequestEventKind::Backoff { until: 0.1 },
                        },
                        RequestEvent {
                            at: 0.1,
                            kind: RequestEventKind::Routed {
                                server: 1,
                                attempt: 2,
                            },
                        },
                        RequestEvent {
                            at: 0.15,
                            kind: RequestEventKind::Hedged {
                                server: 0,
                                attempt: 2,
                            },
                        },
                        RequestEvent {
                            at: 0.25,
                            kind: RequestEventKind::HedgeWon { server: 1 },
                        },
                        RequestEvent {
                            at: 0.25,
                            kind: RequestEventKind::HedgeCancelled { server: 0 },
                        },
                    ],
                },
                RequestTrace {
                    id: 3,
                    arrival: 0.5,
                    start: None,
                    completion: None,
                    server: None,
                    events: vec![
                        RequestEvent {
                            at: 0.5,
                            kind: RequestEventKind::Migrated { from: 1, to: 0 },
                        },
                        RequestEvent {
                            at: 0.75,
                            kind: RequestEventKind::Salvaged { server: 0 },
                        },
                        RequestEvent {
                            at: 0.8,
                            kind: RequestEventKind::Requeued { from: 0, to: 1 },
                        },
                        RequestEvent {
                            at: 1.0,
                            kind: RequestEventKind::Dropped { server: 1 },
                        },
                    ],
                },
            ],
            server_events: vec![
                ServerEvent {
                    at: 0.7,
                    server: 0,
                    kind: ServerEventKind::Down,
                },
                ServerEvent {
                    at: 0.9,
                    server: 0,
                    kind: ServerEventKind::Up,
                },
                ServerEvent {
                    at: 0.2,
                    server: 1,
                    kind: ServerEventKind::StraggleStart { slowdown: 2.5 },
                },
                ServerEvent {
                    at: 0.4,
                    server: 1,
                    kind: ServerEventKind::StraggleEnd,
                },
                ServerEvent {
                    at: 0.6,
                    server: 1,
                    kind: ServerEventKind::FreqStuck { mhz: Some(1200) },
                },
                ServerEvent {
                    at: 0.8,
                    server: 1,
                    kind: ServerEventKind::FreqStuck { mhz: None },
                },
            ],
            epochs: vec![EpochSample {
                start: 0.0,
                end: 0.75,
                power: 12.5,
                queued: 3,
                in_flight: 4,
                completions: 1,
                retries: 1,
                timeouts: 1,
                per_server: vec![
                    ServerSample {
                        queued: 1,
                        in_flight: 2,
                        freq_mhz: 2400,
                        power: 7.5,
                        down: false,
                    },
                    ServerSample {
                        queued: 2,
                        in_flight: 2,
                        freq_mhz: 1200,
                        power: 5.0,
                        down: true,
                    },
                ],
            }],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let log = sample_log();
        let text = to_json(&log);
        let parsed = from_json(&text).expect("roundtrip parse");
        assert_eq!(parsed, log);
    }

    #[test]
    fn writer_output_is_stable() {
        // A second serialization of the same log is byte-identical — the
        // property golden trace fixtures rely on.
        let log = sample_log();
        assert_eq!(to_json(&log), to_json(&log));
    }

    #[test]
    fn rejects_foreign_formats() {
        let err = from_json("{\"format\":\"other\"}").unwrap_err();
        assert!(err.to_string().contains("unsupported trace format"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(from_json("").is_err());
        assert!(from_json("{\"format\":").is_err());
        assert!(from_json("[1, 2").is_err());
        assert!(from_json("{\"a\" 1}").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_exponents() {
        let text = r#"{"s":"a\"b\\c","n":-1.5e-3}"#;
        let mut json = Reader::new(text.as_bytes());
        let mut fields = json.object("test", &["s", "n"]).unwrap();
        while let Some(field) = fields.next(&mut json).unwrap() {
            match field {
                "s" => assert_eq!(json.str().unwrap(), "a\"b\\c"),
                _ => assert_eq!(json.f64().unwrap(), -1.5e-3),
            }
        }
    }

    #[test]
    fn reader_is_as_strict_as_the_trace_codec() {
        // Each case was accepted, or read back wrong, before telemetry
        // read through the shared tokenizer.
        let valid = to_json(&sample_log());
        let big_id = (1u64 << 53) + 1;
        let cases = [
            (
                "trailing data",
                format!("{valid}this is not json"),
                Some("trailing data"),
            ),
            (
                "a repeated key",
                valid.replacen("\"servers\":2", "\"servers\":2,\"servers\":3", 1),
                Some("duplicate trace field \"servers\""),
            ),
            (
                "an overflowing float",
                valid.replacen("\"end\":1.5", "\"end\":1e999", 1),
                Some("expected a finite number"),
            ),
            (
                "an id above 2^53",
                valid.replacen("{\"id\":3,", &format!("{{\"id\":{big_id},"), 1),
                None,
            ),
        ];
        for (what, text, error) in cases {
            assert_ne!(text, valid, "{what}: the case must change the document");
            match (from_json(&text), error) {
                (Err(e), Some(needle)) => assert!(e.to_string().contains(needle), "{what}: {e}"),
                (Ok(log), None) => assert_eq!(log.requests[1].id, big_id, "{what}"),
                (got, _) => panic!("{what}: {got:?}"),
            }
        }
    }
}
