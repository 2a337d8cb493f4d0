//! The assembled [`TraceLog`]: one per-request timeline per offered request,
//! plus server events and the fleet time series.

use std::collections::BTreeMap;

use crate::event::{RequestEvent, RequestEventKind, ServerEvent};
use crate::fleet::{bucket_completions, EpochSample};
use rubik_sim::RunResult;

/// The full lifecycle of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// Request identifier.
    pub id: u64,
    /// Arrival time at the cluster.
    pub arrival: f64,
    /// Time service began on the completing server, if the request completed.
    pub start: Option<f64>,
    /// Completion time, if the request completed. `None` means lost.
    pub completion: Option<f64>,
    /// Index of the completing server, if the request completed.
    pub server: Option<u32>,
    /// Lifecycle events in time order (empty for logs synthesized from bare
    /// [`RunResult`]s).
    pub events: Vec<RequestEvent>,
}

impl RequestTrace {
    /// End-to-end latency, or `None` for a lost request.
    pub fn latency(&self) -> Option<f64> {
        self.completion.map(|c| c - self.arrival)
    }

    /// Whether the request completed.
    pub fn completed(&self) -> bool {
        self.completion.is_some()
    }

    /// Number of forced moves (migration hops plus crash requeues).
    pub fn hops(&self) -> u32 {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    RequestEventKind::Migrated { .. } | RequestEventKind::Requeued { .. }
                )
            })
            .count() as u32
    }
}

/// A complete, self-contained record of one cluster run.
///
/// Serializes to JSON via [`crate::json::to_json`] and to Chrome
/// `trace_event` format via [`crate::chrome::to_chrome_json`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceLog {
    /// Number of servers in the fleet.
    pub servers: usize,
    /// End time of the run.
    pub end: f64,
    /// Per-request timelines, sorted by request id.
    pub requests: Vec<RequestTrace>,
    /// Server state changes in time order.
    pub server_events: Vec<ServerEvent>,
    /// Per-epoch fleet time series.
    pub epochs: Vec<EpochSample>,
}

impl TraceLog {
    /// Merges a recorded event stream with the per-server results into
    /// per-request timelines, and takes the server events and the fleet
    /// time series (its completion counts filled in) as they are.
    pub(crate) fn assemble(
        request_events: &[(u64, RequestEvent)],
        server_events: Vec<ServerEvent>,
        mut epochs: Vec<EpochSample>,
        results: &[RunResult],
        end: f64,
    ) -> Self {
        let mut requests: BTreeMap<u64, RequestTrace> = BTreeMap::new();
        for (server, result) in results.iter().enumerate() {
            for record in result.records() {
                requests.insert(
                    record.id,
                    RequestTrace {
                        id: record.id,
                        arrival: record.arrival,
                        start: Some(record.start),
                        completion: Some(record.completion),
                        server: Some(server as u32),
                        events: Vec::new(),
                    },
                );
            }
        }
        for &(id, event) in request_events {
            let entry = requests.entry(id).or_insert_with(|| RequestTrace {
                id,
                // A lost request has no record; its first event is the
                // initial routing, which happens at the arrival instant.
                arrival: event.at,
                start: None,
                completion: None,
                server: None,
                events: Vec::new(),
            });
            entry.events.push(event);
        }
        let mut completions: Vec<f64> = requests.values().filter_map(|r| r.completion).collect();
        bucket_completions(&mut epochs, &mut completions);
        Self {
            servers: results.len(),
            end,
            requests: requests.into_values().collect(),
            server_events,
            epochs,
        }
    }

    /// Synthesize a log from bare single- or multi-server [`RunResult`]s.
    ///
    /// Useful for binaries that drive [`rubik_sim`] directly, without the
    /// cluster driver: timelines have no lifecycle events, but queueing and
    /// service spans (and therefore Chrome export and attribution) still
    /// work from the records.
    pub fn from_results(results: &[RunResult]) -> Self {
        Self::assemble(
            &[],
            Vec::new(),
            Vec::new(),
            results,
            results.iter().map(RunResult::end_time).fold(0.0, f64::max),
        )
    }

    /// Number of completed requests.
    pub fn completed(&self) -> usize {
        self.requests.iter().filter(|r| r.completed()).count()
    }

    /// Number of offered requests that never completed.
    pub fn lost(&self) -> usize {
        self.requests.len() - self.completed()
    }

    /// Down windows per server: `(from, to)` intervals during which the
    /// server was crashed, with an open crash clamped to [`TraceLog::end`].
    pub fn down_windows(&self) -> Vec<Vec<(f64, f64)>> {
        let mut windows = vec![Vec::new(); self.servers];
        let mut open: Vec<Option<f64>> = vec![None; self.servers];
        for event in &self.server_events {
            let s = event.server as usize;
            if s >= self.servers {
                continue;
            }
            match event.kind {
                crate::event::ServerEventKind::Down => {
                    open[s].get_or_insert(event.at);
                }
                crate::event::ServerEventKind::Up => {
                    if let Some(from) = open[s].take() {
                        windows[s].push((from, event.at));
                    }
                }
                _ => {}
            }
        }
        for (s, from) in open.into_iter().enumerate() {
            if let Some(from) = from {
                windows[s].push((from, self.end.max(from)));
            }
        }
        windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{RequestEventKind, ServerEventKind};
    use rubik_sim::RequestRecord;

    fn record(id: u64, arrival: f64, start: f64, completion: f64) -> RequestRecord {
        RequestRecord {
            id,
            arrival,
            start,
            completion,
            compute_cycles: 1.0,
            membound_time: 0.0,
            queue_len_at_arrival: 0,
            class: 0,
        }
    }

    fn result(records: Vec<RequestRecord>, end: f64) -> RunResult {
        RunResult::new(records, Vec::new(), end)
    }

    #[test]
    fn assembles_records_and_events_by_id() {
        let routed = |at, server| RequestEvent {
            at,
            kind: RequestEventKind::Routed { server, attempt: 1 },
        };
        let events = [
            (2, routed(0.1, 1)),
            // Request 9 is lost: events only, no record.
            (9, routed(0.2, 0)),
            (
                9,
                RequestEvent {
                    at: 0.5,
                    kind: RequestEventKind::Dropped { server: 0 },
                },
            ),
        ];
        let results = vec![
            result(vec![], 1.0),
            result(vec![record(2, 0.1, 0.15, 0.3)], 1.0),
        ];
        let log = TraceLog::assemble(&events, Vec::new(), Vec::new(), &results, 1.0);
        assert_eq!(log.servers, 2);
        assert_eq!(log.requests.len(), 2);
        let r2 = &log.requests[0];
        assert_eq!((r2.id, r2.server), (2, Some(1)));
        assert_eq!(r2.latency(), Some(0.3 - 0.1));
        assert_eq!(r2.events.len(), 1);
        let r9 = &log.requests[1];
        assert_eq!((r9.id, r9.server), (9, None));
        assert!(!r9.completed());
        assert_eq!(r9.arrival, 0.2);
        assert_eq!(log.completed(), 1);
        assert_eq!(log.lost(), 1);
    }

    #[test]
    fn from_results_covers_bare_runs() {
        let results = vec![result(vec![record(0, 0.0, 0.1, 0.2)], 0.7)];
        let log = TraceLog::from_results(&results);
        assert_eq!(log.servers, 1);
        assert_eq!(log.end, 0.7);
        assert_eq!(log.requests[0].start, Some(0.1));
        assert!(log.requests[0].events.is_empty());
    }

    #[test]
    fn down_windows_pair_and_clamp() {
        let mut log = TraceLog {
            servers: 2,
            end: 10.0,
            ..TraceLog::default()
        };
        for (at, server, kind) in [
            (1.0, 0, ServerEventKind::Down),
            (3.0, 0, ServerEventKind::Up),
            (5.0, 1, ServerEventKind::Down),
        ] {
            log.server_events.push(ServerEvent { at, server, kind });
        }
        let windows = log.down_windows();
        assert_eq!(windows[0], vec![(1.0, 3.0)]);
        assert_eq!(windows[1], vec![(5.0, 10.0)]);
    }
}
