//! Fleet-level result aggregation.

use rubik_power::CorePowerModel;
use rubik_sim::RunResult;
use rubik_stats::percentile;

/// Per-server summary inside a [`ClusterOutcome`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerOutcome {
    /// Core-class index of the server (see
    /// [`FleetSpec`](crate::FleetSpec); 0 for homogeneous fleets).
    pub class: u32,
    /// Requests this server completed.
    pub requests: usize,
    /// This server's own tail latency (0 if it served nothing).
    pub tail_latency: f64,
    /// Core energy over the run (J): active + idle + sleep.
    pub energy: f64,
    /// Seconds spent executing requests.
    pub busy_time: f64,
    /// Seconds spent idle (clock-gated).
    pub idle_time: f64,
    /// Seconds spent in deep sleep.
    pub sleep_time: f64,
    /// End of this server's timeline. The cluster driver coasts every
    /// server to the fleet's end before finishing, so within a
    /// [`ClusterOutcome`] this equals the run duration and the server is
    /// charged idle/sleep power through the whole run.
    pub end_time: f64,
    /// Seconds this server spent down (crashed) during the run — a subset
    /// of `sleep_time`, since downtime is charged at sleep power. Always
    /// 0.0 without a [`FaultPlan`](crate::FaultPlan).
    pub downtime: f64,
}

impl ServerOutcome {
    /// Core utilization: busy time over total residency time.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_time + self.idle_time + self.sleep_time;
        if total <= 0.0 {
            0.0
        } else {
            self.busy_time / total
        }
    }
}

/// Availability metrics of a cluster run: what a fleet operator asks first
/// when servers die, lag, or get stuck.
///
/// Without a [`FaultPlan`](crate::FaultPlan) or
/// [`RequestPolicy`](crate::RequestPolicy) these degenerate to "everything
/// offered was served in time": `offered == completed == goodput`,
/// everything else zero, and `tail_latency_ok` equals the plain tail (the
/// empty-plan bit-neutrality contract).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AvailabilityStats {
    /// Requests offered to the cluster (the input trace length).
    pub offered: usize,
    /// Requests that completed somewhere, on time or not.
    pub completed: usize,
    /// Requests that completed *within their deadline* — the number the
    /// operator actually gets paid for. With no deadline configured every
    /// completion is goodput.
    pub goodput: usize,
    /// Requests that never completed: lost in a crash with no retry left,
    /// or still stranded when the run ended.
    pub lost: usize,
    /// Requests that missed their deadline: late completions plus losses.
    pub deadline_exceeded: usize,
    /// Timeout expirations detected by the request-lifecycle layer (one
    /// request can time out once per attempt).
    pub timeouts: usize,
    /// Retry attempts dispatched (after backoff) by the lifecycle layer.
    pub retries: usize,
    /// Queued requests pulled off a crashing server and re-routed by the
    /// failure drain.
    pub requeued_on_failure: usize,
    /// In-service requests salvaged (re-dispatched) from a crashing server
    /// under [`RequestPolicy::salvage_in_flight`](crate::RequestPolicy).
    pub salvaged_in_flight: usize,
    /// Speculative duplicates launched by
    /// [`RequestPolicy::with_hedging`](crate::RequestPolicy::with_hedging).
    pub hedged: usize,
    /// Hedged pairs whose *duplicate* completed first — the completions
    /// hedging actually bought.
    pub hedge_wins: usize,
    /// Losing copies of hedged pairs cancelled after the other copy
    /// completed (one per resolved pair, whichever side won).
    pub hedge_cancelled: usize,
    /// Tail latency over *successful* (within-deadline) completions only —
    /// the p95-of-successes a recovery curve is judged by. `None` when no
    /// request succeeded (an all-lost or all-late run has no success tail
    /// to report; 0.0 would masquerade as a perfect one).
    pub tail_latency_ok: Option<f64>,
}

impl AvailabilityStats {
    /// Fraction of offered requests that became goodput (1.0 for an empty
    /// run — nothing offered, nothing failed).
    pub fn goodput_fraction(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.goodput as f64 / self.offered as f64
        }
    }

    /// Fraction of offered requests that missed their deadline or were
    /// lost (0.0 for an empty run).
    pub fn error_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.deadline_exceeded as f64 / self.offered as f64
        }
    }
}

/// Aggregated totals for one core class of a heterogeneous fleet (see
/// [`ClusterOutcome::class_totals`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassTotals {
    /// Core-class index.
    pub class: u32,
    /// Number of servers of this class.
    pub servers: usize,
    /// Requests completed by this class.
    pub requests: usize,
    /// Core energy (J) consumed by this class.
    pub energy: f64,
    /// Seconds spent executing requests, summed across the class.
    pub busy_time: f64,
    /// Seconds spent idle, summed across the class.
    pub idle_time: f64,
    /// Seconds spent in deep sleep, summed across the class.
    pub sleep_time: f64,
}

/// The aggregated result of one cluster run: global latency statistics,
/// fleet energy/power, and the per-server residency breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// Total requests completed across the fleet.
    pub requests: usize,
    /// Global tail latency over every request in the fleet.
    pub tail_latency: f64,
    /// Global mean latency.
    pub mean_latency: f64,
    /// Total core energy across the fleet (J).
    pub fleet_energy: f64,
    /// Average fleet power (W): fleet energy over the run duration.
    pub fleet_power: f64,
    /// Wall-clock duration of the run (the latest server end time).
    pub duration: f64,
    /// Requests moved between servers by the cluster's
    /// [`Migrator`](crate::Migrator) (0 when no migrator is attached).
    pub migrated_requests: usize,
    /// Availability metrics (goodput, errors, retries, downtime-adjacent
    /// counters). Degenerate "all served" values without a fault plan or
    /// request policy.
    pub availability: AvailabilityStats,
    /// Per-server summaries, in server index order.
    pub per_server: Vec<ServerOutcome>,
}

impl ClusterOutcome {
    /// Aggregates per-server [`RunResult`]s into a fleet outcome, labelling
    /// each server with its core-class index. The global tail is the
    /// quantile over the *pooled* latencies of every request — the number a
    /// fleet operator's SLO is written against — not a mean of per-server
    /// tails.
    ///
    /// # Panics
    ///
    /// Panics if `classes` and `results` differ in length.
    pub(crate) fn aggregate(
        results: &[RunResult],
        classes: &[u32],
        power: &CorePowerModel,
        quantile: f64,
    ) -> Self {
        assert_eq!(
            classes.len(),
            results.len(),
            "one class label per server result"
        );
        let latencies: Vec<f64> = results
            .iter()
            .flat_map(|r| r.records().iter().map(|rec| rec.latency()))
            .collect();
        let requests = latencies.len();
        let tail_latency = percentile(&latencies, quantile).unwrap_or(0.0);
        let mean_latency = if requests == 0 {
            0.0
        } else {
            latencies.iter().sum::<f64>() / requests as f64
        };
        let duration = results.iter().map(|r| r.end_time()).fold(0.0, f64::max);

        let per_server: Vec<ServerOutcome> = results
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let res = r.freq_residency();
                ServerOutcome {
                    class: classes[i],
                    requests: r.records().len(),
                    tail_latency: r.tail_latency(quantile).unwrap_or(0.0),
                    energy: power.energy(&res).total(),
                    busy_time: res.busy_time(),
                    idle_time: res.idle_time(),
                    sleep_time: res.sleep,
                    end_time: r.end_time(),
                    downtime: 0.0,
                }
            })
            .collect();

        let fleet_energy: f64 = per_server.iter().map(|s| s.energy).sum();
        let fleet_power = if duration > 0.0 {
            fleet_energy / duration
        } else {
            0.0
        };

        Self {
            requests,
            tail_latency,
            mean_latency,
            fleet_energy,
            fleet_power,
            duration,
            migrated_requests: 0,
            // Neutral fill: everything offered was served in time. The
            // driver overwrites this when a fault layer is active.
            availability: AvailabilityStats {
                offered: requests,
                completed: requests,
                goodput: requests,
                tail_latency_ok: if requests == 0 {
                    None
                } else {
                    Some(tail_latency)
                },
                ..AvailabilityStats::default()
            },
            per_server,
        }
    }

    /// Number of servers in the fleet.
    pub fn servers(&self) -> usize {
        self.per_server.len()
    }

    /// Fleet energy per completed request (J), or 0 for an empty run.
    pub fn energy_per_request(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.fleet_energy / self.requests as f64
        }
    }

    /// Mean core utilization across the fleet.
    pub fn mean_utilization(&self) -> f64 {
        if self.per_server.is_empty() {
            return 0.0;
        }
        self.per_server.iter().map(|s| s.utilization()).sum::<f64>() / self.per_server.len() as f64
    }

    /// The spread of load across the fleet: the largest per-server request
    /// count divided by the ideal (uniform) share. 1.0 means perfectly
    /// balanced; round-robin sits near 1, a broken router far above. An
    /// all-idle fleet (no requests, so no spread to measure — the division
    /// by the mean share would otherwise be 0/0) reports 0.0.
    pub fn load_imbalance(&self) -> f64 {
        if self.requests == 0 || self.per_server.is_empty() {
            return 0.0;
        }
        let max = self
            .per_server
            .iter()
            .map(|s| s.requests)
            .max()
            .unwrap_or(0) as f64;
        let ideal = self.requests as f64 / self.per_server.len() as f64;
        max / ideal
    }

    /// Aggregated totals per core class (sorted by class index): completed
    /// requests, energy, and busy/idle/sleep residency. Heterogeneous-fleet
    /// experiments report these per big/little class.
    pub fn class_totals(&self) -> Vec<ClassTotals> {
        let mut totals: Vec<ClassTotals> = Vec::new();
        for s in &self.per_server {
            let slot = match totals.iter_mut().find(|t| t.class == s.class) {
                Some(slot) => slot,
                None => {
                    totals.push(ClassTotals {
                        class: s.class,
                        ..ClassTotals::default()
                    });
                    totals.last_mut().expect("just pushed")
                }
            };
            slot.servers += 1;
            slot.requests += s.requests;
            slot.energy += s.energy;
            slot.busy_time += s.busy_time;
            slot.idle_time += s.idle_time;
            slot.sleep_time += s.sleep_time;
        }
        totals.sort_by_key(|t| t.class);
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubik_sim::{CoreActivity, Freq, RequestRecord, Segment};

    fn record(id: u64, arrival: f64, completion: f64) -> RequestRecord {
        RequestRecord {
            id,
            arrival,
            start: arrival,
            completion,
            compute_cycles: 1e6,
            membound_time: 0.0,
            queue_len_at_arrival: 0,
            class: 0,
        }
    }

    fn result(records: Vec<RequestRecord>, busy: f64, idle: f64) -> RunResult {
        let segments = vec![
            Segment {
                start: 0.0,
                end: busy,
                freq: Freq::from_mhz(2400),
                activity: CoreActivity::Busy,
            },
            Segment {
                start: busy,
                end: busy + idle,
                freq: Freq::from_mhz(2400),
                activity: CoreActivity::Idle,
            },
        ];
        let end = busy + idle;
        RunResult::new(records, segments, end)
    }

    #[test]
    fn aggregate_pools_latencies_across_servers() {
        let power = CorePowerModel::haswell_like();
        // Server 0: latencies 1 ms ×10; server 1: 3 ms ×10.
        let a = result((0..10).map(|i| record(i, 0.0, 1e-3)).collect(), 0.5, 0.5);
        let b = result((10..20).map(|i| record(i, 0.0, 3e-3)).collect(), 0.8, 0.2);
        let o = ClusterOutcome::aggregate(&[a, b], &[0, 0], &power, 0.95);
        assert_eq!(o.requests, 20);
        assert_eq!(o.servers(), 2);
        // The pooled 95th percentile lands in the slow server's latencies.
        assert!((o.tail_latency - 3e-3).abs() < 1e-9);
        assert!((o.mean_latency - 2e-3).abs() < 1e-9);
        assert!((o.duration - 1.0).abs() < 1e-12);
        assert!(o.fleet_energy > 0.0);
        assert!((o.fleet_power - o.fleet_energy).abs() < 1e-9); // duration = 1 s
        assert!(o.energy_per_request() > 0.0);
        assert!(o.mean_utilization() > 0.5);
    }

    #[test]
    fn empty_fleet_outcome_is_zeroed() {
        let power = CorePowerModel::haswell_like();
        let o = ClusterOutcome::aggregate(&[], &[], &power, 0.95);
        assert_eq!(o.requests, 0);
        assert_eq!(o.tail_latency, 0.0);
        assert_eq!(o.fleet_power, 0.0);
        assert_eq!(o.migrated_requests, 0);
        assert_eq!(o.load_imbalance(), 0.0);
    }

    #[test]
    fn all_idle_fleet_load_imbalance_is_zero_not_nan() {
        // Regression: an empty trace through a real fleet used to hit the
        // division by the (zero) mean share. The guard must return 0.0 — a
        // finite, "no spread" answer — never NaN.
        let power = CorePowerModel::haswell_like();
        // Three servers that each served nothing but idled for a second.
        let idle = |_: usize| result(vec![], 0.0, 1.0);
        let results: Vec<RunResult> = (0..3).map(idle).collect();
        let o = ClusterOutcome::aggregate(&results, &[0; 3], &power, 0.95);
        assert_eq!(o.requests, 0);
        let imbalance = o.load_imbalance();
        assert!(!imbalance.is_nan(), "all-idle imbalance must not be NaN");
        assert_eq!(imbalance, 0.0);
    }

    #[test]
    fn class_totals_aggregate_per_core_class() {
        let power = CorePowerModel::haswell_like();
        let a = result((0..30).map(|i| record(i, 0.0, 1e-3)).collect(), 0.9, 0.1);
        let b = result((30..40).map(|i| record(i, 0.0, 1e-3)).collect(), 0.3, 0.7);
        let c = result((40..45).map(|i| record(i, 0.0, 1e-3)).collect(), 0.2, 0.8);
        let o = ClusterOutcome::aggregate(&[a, b, c], &[0, 1, 1], &power, 0.95);
        assert_eq!(o.per_server[0].class, 0);
        assert_eq!(o.per_server[2].class, 1);
        let totals = o.class_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].class, 0);
        assert_eq!(totals[0].servers, 1);
        assert_eq!(totals[0].requests, 30);
        assert_eq!(totals[1].class, 1);
        assert_eq!(totals[1].servers, 2);
        assert_eq!(totals[1].requests, 15);
        assert!((totals[1].busy_time - 0.5).abs() < 1e-12);
        assert!((totals[1].idle_time - 1.5).abs() < 1e-12);
        let energy: f64 = totals.iter().map(|t| t.energy).sum();
        assert!((energy - o.fleet_energy).abs() < 1e-9);
    }

    #[test]
    fn neutral_availability_fill_matches_the_plain_outcome() {
        let power = CorePowerModel::haswell_like();
        let a = result((0..10).map(|i| record(i, 0.0, 1e-3)).collect(), 0.5, 0.5);
        let o = ClusterOutcome::aggregate(&[a], &[0], &power, 0.95);
        let av = o.availability;
        assert_eq!(av.offered, 10);
        assert_eq!(av.completed, 10);
        assert_eq!(av.goodput, 10);
        assert_eq!(av.lost, 0);
        assert_eq!(av.deadline_exceeded, 0);
        assert_eq!(av.timeouts + av.retries + av.requeued_on_failure, 0);
        let tail_ok = av.tail_latency_ok.expect("successful completions exist");
        assert_eq!(tail_ok.to_bits(), o.tail_latency.to_bits());
        assert_eq!(av.goodput_fraction(), 1.0);
        assert_eq!(av.error_fraction(), 0.0);
        assert_eq!(o.per_server[0].downtime, 0.0);
    }

    #[test]
    fn availability_fractions_handle_empty_runs() {
        let av = AvailabilityStats::default();
        assert_eq!(av.goodput_fraction(), 1.0);
        assert_eq!(av.error_fraction(), 0.0);
        assert_eq!(av.tail_latency_ok, None);
        let av = AvailabilityStats {
            offered: 10,
            completed: 8,
            goodput: 6,
            lost: 2,
            deadline_exceeded: 4,
            ..AvailabilityStats::default()
        };
        assert!((av.goodput_fraction() - 0.6).abs() < 1e-12);
        assert!((av.error_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn load_imbalance_flags_skew() {
        let power = CorePowerModel::haswell_like();
        let a = result((0..30).map(|i| record(i, 0.0, 1e-3)).collect(), 0.9, 0.1);
        let b = result((30..40).map(|i| record(i, 0.0, 1e-3)).collect(), 0.3, 0.7);
        let o = ClusterOutcome::aggregate(&[a, b], &[0, 0], &power, 0.95);
        // 30 of 40 requests on one of two servers: 30 / 20 = 1.5.
        assert!((o.load_imbalance() - 1.5).abs() < 1e-12);
    }
}
