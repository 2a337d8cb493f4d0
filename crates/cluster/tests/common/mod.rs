//! Bit-images shared by the cluster suites: two runs are the same run only
//! if these vectors are equal, so every suite that pins bit-identity
//! compares them instead of rounding floats.

use rubik_cluster::ClusterOutcome;
use rubik_sim::RunResult;

/// Every record and power segment of one server's run, as raw bits.
pub fn result_bits(r: &RunResult) -> Vec<u64> {
    let mut bits = vec![r.end_time().to_bits()];
    for rec in r.records() {
        bits.extend_from_slice(&[
            rec.id,
            rec.arrival.to_bits(),
            rec.start.to_bits(),
            rec.completion.to_bits(),
            rec.queue_len_at_arrival as u64,
        ]);
    }
    for s in r.segments() {
        bits.extend_from_slice(&[
            s.start.to_bits(),
            s.end.to_bits(),
            s.freq.mhz() as u64,
            s.activity as u64,
        ]);
    }
    bits
}

/// A fleet outcome as raw bits: the fleet totals, the availability
/// counters, the migration count, and each server's class, totals and
/// downtime.
pub fn outcome_bits(o: &ClusterOutcome) -> Vec<u64> {
    let a = &o.availability;
    let mut bits = vec![
        o.requests as u64,
        o.migrated_requests as u64,
        o.tail_latency.to_bits(),
        o.mean_latency.to_bits(),
        o.fleet_energy.to_bits(),
        o.fleet_power.to_bits(),
        o.duration.to_bits(),
        a.offered as u64,
        a.completed as u64,
        a.goodput as u64,
        a.lost as u64,
        a.deadline_exceeded as u64,
        a.timeouts as u64,
        a.retries as u64,
        a.requeued_on_failure as u64,
        a.salvaged_in_flight as u64,
        a.hedged as u64,
        a.hedge_wins as u64,
        a.hedge_cancelled as u64,
        a.tail_latency_ok.map_or(u64::MAX, f64::to_bits),
    ];
    for s in &o.per_server {
        bits.extend_from_slice(&[
            s.class as u64,
            s.requests as u64,
            s.tail_latency.to_bits(),
            s.energy.to_bits(),
            s.busy_time.to_bits(),
            s.idle_time.to_bits(),
            s.sleep_time.to_bits(),
            s.end_time.to_bits(),
            s.downtime.to_bits(),
        ]);
    }
    bits
}
