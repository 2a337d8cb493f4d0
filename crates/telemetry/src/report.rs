//! Tail-latency attribution: decompose the tail cohort's latency into
//! queueing / service / backoff / downtime components.
//!
//! The decomposition walks each request's lifecycle events to reconstruct
//! *where* the request was waiting at every instant, then charges each wall
//! -clock slice to one bucket:
//!
//! - **service** — in service on the completing server (from the record);
//! - **backoff** — parked client-side between a timeout/salvage and the
//!   retry delivery;
//! - **downtime** — enqueued on a server while that server was crashed;
//! - **queueing** — everything else (healthy-server queueing delay).
//!
//! The buckets are exhaustive and non-overlapping, so per request
//! `queueing + service + backoff + downtime == total` (up to float
//! rounding, which the queueing residual absorbs).

use crate::event::RequestEventKind;
use crate::log::{RequestTrace, TraceLog};
use rubik_stats::percentile;

/// One request's latency split into attribution buckets.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyBreakdown {
    /// Time waiting in a healthy server's queue.
    pub queueing: f64,
    /// Time in service on the completing server.
    pub service: f64,
    /// Time parked client-side between retries.
    pub backoff: f64,
    /// Time enqueued on a crashed server.
    pub downtime: f64,
    /// End-to-end latency.
    pub total: f64,
    /// Forced moves (migration hops + crash requeues).
    pub hops: u32,
}

impl LatencyBreakdown {
    fn accumulate(&mut self, other: &LatencyBreakdown) {
        self.queueing += other.queueing;
        self.service += other.service;
        self.backoff += other.backoff;
        self.downtime += other.downtime;
        self.total += other.total;
        self.hops += other.hops;
    }

    fn scaled(&self, inv: f64) -> LatencyBreakdown {
        LatencyBreakdown {
            queueing: self.queueing * inv,
            service: self.service * inv,
            backoff: self.backoff * inv,
            downtime: self.downtime * inv,
            total: self.total * inv,
            hops: self.hops,
        }
    }
}

/// Attribution of a tail cohort, produced by [`TraceLog::attribute`].
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// The tail quantile the cohort was selected at (e.g. `0.95`).
    pub quantile: f64,
    /// Completed requests in the log.
    pub completed: usize,
    /// Offered requests that never completed.
    pub lost: usize,
    /// Latency at the quantile; the cohort is every completed request at or
    /// above it.
    pub threshold: f64,
    /// Cohort size.
    pub cohort: usize,
    /// Mean breakdown over the cohort (`hops` is the cohort total).
    pub cohort_mean: LatencyBreakdown,
    /// Mean breakdown over *all* completed requests.
    pub overall_mean: LatencyBreakdown,
    /// Completed requests that launched a hedged duplicate.
    pub hedged: usize,
    /// Hedged requests whose duplicate finished first.
    pub hedge_wins: usize,
    /// Cohort requests that launched a hedged duplicate.
    pub cohort_hedged: usize,
    /// Cohort requests whose duplicate finished first.
    pub cohort_hedge_wins: usize,
}

impl AttributionReport {
    /// Render the fixed-format breakdown table pinned by the golden fixture.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let pct = self.quantile * 100.0;
        let label = if (pct - pct.round()).abs() < 1e-9 {
            format!("p{:.0}", pct)
        } else {
            format!("p{:.1}", pct)
        };
        out.push_str(&format!(
            "{} tail attribution: cohort {} of {} completed ({} lost), threshold {:.4} ms\n",
            label,
            self.cohort,
            self.completed,
            self.lost,
            self.threshold * 1e3,
        ));
        out.push_str("  component   cohort ms   share   overall ms\n");
        let total = self.cohort_mean.total.max(f64::MIN_POSITIVE);
        for (name, cohort, overall) in [
            (
                "queueing",
                self.cohort_mean.queueing,
                self.overall_mean.queueing,
            ),
            (
                "service",
                self.cohort_mean.service,
                self.overall_mean.service,
            ),
            (
                "backoff",
                self.cohort_mean.backoff,
                self.overall_mean.backoff,
            ),
            (
                "downtime",
                self.cohort_mean.downtime,
                self.overall_mean.downtime,
            ),
            ("total", self.cohort_mean.total, self.overall_mean.total),
        ] {
            out.push_str(&format!(
                "  {:<10} {:>9.4}  {:>5.1}%  {:>10.4}\n",
                name,
                cohort * 1e3,
                100.0 * cohort / total,
                overall * 1e3,
            ));
        }
        out.push_str(&format!(
            "  forced moves per cohort request: {:.2}\n",
            self.cohort_mean.hops as f64 / (self.cohort.max(1)) as f64,
        ));
        // Hedging line only when the run hedged at all, so traces from
        // hedge-free runs (and their golden fixtures) render unchanged.
        if self.hedged > 0 {
            out.push_str(&format!(
                "  hedged: {} of {} completed ({} won); cohort {} ({} won)\n",
                self.hedged,
                self.completed,
                self.hedge_wins,
                self.cohort_hedged,
                self.cohort_hedge_wins,
            ));
        }
        out
    }
}

/// Total overlap between `[from, to)` and a set of disjoint windows.
fn overlap(from: f64, to: f64, windows: &[(f64, f64)]) -> f64 {
    windows
        .iter()
        .map(|&(a, b)| (to.min(b) - from.max(a)).max(0.0))
        .sum()
}

/// Decompose one completed request against the fleet's down windows.
///
/// `down` is indexed by server, as returned by [`TraceLog::down_windows`].
pub fn breakdown(request: &RequestTrace, down: &[Vec<(f64, f64)>]) -> Option<LatencyBreakdown> {
    let completion = request.completion?;
    let start = request.start.unwrap_or(completion);
    let total = completion - request.arrival;
    let service = completion - start;
    let mut backoff = 0.0;
    let mut downtime = 0.0;
    // Walk the request's location timeline: (server, since) while enqueued.
    let mut location: Option<(u32, f64)> = None;
    let mut close = |loc: &mut Option<(u32, f64)>, at: f64| {
        if let Some((server, since)) = loc.take() {
            if let Some(windows) = down.get(server as usize) {
                downtime += overlap(since, at, windows);
            }
        }
    };
    for event in &request.events {
        match event.kind {
            RequestEventKind::Routed { server, .. } => {
                close(&mut location, event.at);
                location = Some((server, event.at));
            }
            RequestEventKind::Requeued { to, .. } | RequestEventKind::Migrated { to, .. } => {
                close(&mut location, event.at);
                location = Some((to, event.at));
            }
            RequestEventKind::TimedOut { .. }
            | RequestEventKind::Salvaged { .. }
            | RequestEventKind::Dropped { .. } => {
                close(&mut location, event.at);
            }
            RequestEventKind::Backoff { until } => {
                backoff += (until - event.at).max(0.0);
            }
            // The hedged duplicate waits in parallel with the primary, and
            // the buckets charge each wall-clock slice exactly once, so the
            // primary's location keeps the charge; hedging shows up as a
            // shorter total, not as a new bucket.
            RequestEventKind::Hedged { .. }
            | RequestEventKind::HedgeWon { .. }
            | RequestEventKind::HedgeCancelled { .. } => {}
        }
    }
    // The final wait ends when service starts.
    close(&mut location, start);
    let queueing = (total - service - backoff - downtime).max(0.0);
    Some(LatencyBreakdown {
        queueing,
        service,
        backoff,
        downtime,
        total,
        hops: request.hops(),
    })
}

impl TraceLog {
    /// Attribute the latency of the tail cohort at `quantile`.
    ///
    /// Returns `None` when no request completed (there is no tail to
    /// attribute).
    pub fn attribute(&self, quantile: f64) -> Option<AttributionReport> {
        let down = self.down_windows();
        let flags = |r: &RequestTrace| {
            let hedged = r
                .events
                .iter()
                .any(|e| matches!(e.kind, RequestEventKind::Hedged { .. }));
            let won = r
                .events
                .iter()
                .any(|e| matches!(e.kind, RequestEventKind::HedgeWon { .. }));
            (hedged, won)
        };
        let mut rows: Vec<(f64, LatencyBreakdown, (bool, bool))> = self
            .requests
            .iter()
            .filter_map(|r| breakdown(r, &down).map(|b| (b.total, b, flags(r))))
            .collect();
        if rows.is_empty() {
            return None;
        }
        rows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite latencies"));
        let latencies: Vec<f64> = rows.iter().map(|&(t, ..)| t).collect();
        let threshold = percentile(&latencies, quantile)?;
        let mut cohort_mean = LatencyBreakdown::default();
        let mut overall_mean = LatencyBreakdown::default();
        let mut cohort = 0usize;
        let (mut hedged, mut hedge_wins) = (0usize, 0usize);
        let (mut cohort_hedged, mut cohort_hedge_wins) = (0usize, 0usize);
        for (total, row, (was_hedged, won)) in &rows {
            overall_mean.accumulate(row);
            hedged += usize::from(*was_hedged);
            hedge_wins += usize::from(*won);
            if *total >= threshold {
                cohort_mean.accumulate(row);
                cohort += 1;
                cohort_hedged += usize::from(*was_hedged);
                cohort_hedge_wins += usize::from(*won);
            }
        }
        let cohort_hops = cohort_mean.hops;
        let mut cohort_mean = cohort_mean.scaled(1.0 / cohort.max(1) as f64);
        cohort_mean.hops = cohort_hops;
        let overall_hops = overall_mean.hops;
        let mut overall_mean = overall_mean.scaled(1.0 / rows.len() as f64);
        overall_mean.hops = overall_hops;
        Some(AttributionReport {
            quantile,
            completed: rows.len(),
            lost: self.lost(),
            threshold,
            cohort,
            cohort_mean,
            overall_mean,
            hedged,
            hedge_wins,
            cohort_hedged,
            cohort_hedge_wins,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{RequestEvent, ServerEvent, ServerEventKind};

    fn request(
        id: u64,
        arrival: f64,
        start: f64,
        completion: f64,
        events: Vec<RequestEvent>,
    ) -> RequestTrace {
        RequestTrace {
            id,
            arrival,
            start: Some(start),
            completion: Some(completion),
            server: Some(0),
            events,
        }
    }

    fn routed(at: f64, server: u32, attempt: u32) -> RequestEvent {
        RequestEvent {
            at,
            kind: RequestEventKind::Routed { server, attempt },
        }
    }

    #[test]
    fn plain_request_splits_into_queueing_and_service() {
        let r = request(0, 1.0, 1.4, 2.0, vec![routed(1.0, 0, 1)]);
        let b = breakdown(&r, &[Vec::new()]).unwrap();
        assert_eq!(b.total, 1.0);
        assert!((b.service - 0.6).abs() < 1e-12);
        assert!((b.queueing - 0.4).abs() < 1e-12);
        assert_eq!(b.backoff, 0.0);
        assert_eq!(b.downtime, 0.0);
    }

    #[test]
    fn downtime_counts_only_while_parked_on_the_crashed_server() {
        // Routed to server 0 at t=0; server 0 down over [1, 3]; requeued to
        // server 1 at t=3; service on 1 over [4, 5].
        let events = vec![
            routed(0.0, 0, 1),
            RequestEvent {
                at: 3.0,
                kind: RequestEventKind::Requeued { from: 0, to: 1 },
            },
        ];
        let r = request(0, 0.0, 4.0, 5.0, events);
        let down = vec![vec![(1.0, 3.0)], Vec::new()];
        let b = breakdown(&r, &down).unwrap();
        assert_eq!(b.total, 5.0);
        assert_eq!(b.service, 1.0);
        assert_eq!(b.downtime, 2.0);
        assert!((b.queueing - 2.0).abs() < 1e-12);
        assert_eq!(b.hops, 1);
    }

    #[test]
    fn backoff_charges_the_scheduled_retry_gap() {
        // Timed out on server 0 at t=1, backed off until t=1.5, retried on
        // server 1, served over [2, 3].
        let events = vec![
            routed(0.0, 0, 1),
            RequestEvent {
                at: 1.0,
                kind: RequestEventKind::TimedOut {
                    server: 0,
                    attempt: 1,
                },
            },
            RequestEvent {
                at: 1.0,
                kind: RequestEventKind::Backoff { until: 1.5 },
            },
            routed(1.5, 1, 2),
        ];
        let r = request(0, 0.0, 2.0, 3.0, events);
        let b = breakdown(&r, &[Vec::new(), Vec::new()]).unwrap();
        assert_eq!(b.service, 1.0);
        assert_eq!(b.backoff, 0.5);
        assert!((b.queueing - 1.5).abs() < 1e-12);
    }

    #[test]
    fn lost_requests_are_excluded() {
        let r = RequestTrace {
            id: 0,
            arrival: 0.0,
            start: None,
            completion: None,
            server: None,
            events: vec![routed(0.0, 0, 1)],
        };
        assert!(breakdown(&r, &[Vec::new()]).is_none());
    }

    #[test]
    fn attribute_selects_the_tail_cohort() {
        let mut log = TraceLog {
            servers: 1,
            end: 100.0,
            ..TraceLog::default()
        };
        // 20 requests with latencies 1..=20 ms; p95 cohort = the slowest.
        for i in 0..20u64 {
            let lat = (i + 1) as f64 * 1e-3;
            log.requests
                .push(request(i, 0.0, lat * 0.25, lat, vec![routed(0.0, 0, 1)]));
        }
        let report = log.attribute(0.95).unwrap();
        assert_eq!(report.completed, 20);
        assert!(report.cohort >= 1 && report.cohort <= 2);
        assert!(report.cohort_mean.total >= 0.019);
        // Components sum back to the total.
        let m = &report.cohort_mean;
        assert!((m.queueing + m.service + m.backoff + m.downtime - m.total).abs() < 1e-12);
        let rendered = report.table();
        assert!(rendered.starts_with("p95 tail attribution"));
        assert!(rendered.contains("queueing"));
    }

    #[test]
    fn attribute_returns_none_without_completions() {
        let log = TraceLog {
            servers: 1,
            end: 1.0,
            requests: vec![RequestTrace {
                id: 0,
                arrival: 0.0,
                start: None,
                completion: None,
                server: None,
                events: Vec::new(),
            }],
            server_events: Vec::new(),
            epochs: Vec::new(),
        };
        assert!(log.attribute(0.95).is_none());
    }

    #[test]
    fn down_windows_feed_attribution_end_to_end() {
        let mut log = TraceLog {
            servers: 2,
            end: 10.0,
            ..TraceLog::default()
        };
        log.server_events.push(ServerEvent {
            at: 1.0,
            server: 0,
            kind: ServerEventKind::Down,
        });
        log.server_events.push(ServerEvent {
            at: 3.0,
            server: 0,
            kind: ServerEventKind::Up,
        });
        log.requests
            .push(request(0, 0.5, 3.5, 4.0, vec![routed(0.5, 0, 1)]));
        let report = log.attribute(0.95).unwrap();
        assert!((report.cohort_mean.downtime - 2.0).abs() < 1e-12);
    }
}
