//! Per-epoch fleet time series.
//!
//! The cluster driver already meters power per control epoch for the fleet
//! controller; recording telemetry extends that metering into a retained
//! series of [`EpochSample`]s taken on its own (usually finer) epoch: fleet
//! power, queue depths, in-flight counts, per-server DVFS state, and
//! cumulative retry/timeout counters.

/// Snapshot of one server at a sample boundary.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerSample {
    /// Requests waiting in the server's queue.
    pub queued: u32,
    /// Requests queued or in service.
    pub in_flight: u32,
    /// DVFS frequency at the sample instant, in MHz.
    pub freq_mhz: u32,
    /// Mean power over the sample window, in watts.
    pub power: f64,
    /// Whether the server was crashed at the sample instant.
    pub down: bool,
}

/// One fleet-wide sample window `[start, end)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EpochSample {
    /// Window start time.
    pub start: f64,
    /// Window end time (the sample instant).
    pub end: f64,
    /// Mean fleet power over the window, in watts.
    pub power: f64,
    /// Total requests queued across the fleet at the sample instant.
    pub queued: u32,
    /// Total requests in flight (queued + in service) at the sample instant.
    pub in_flight: u32,
    /// Requests that completed inside this window (filled at finalize).
    pub completions: u32,
    /// Cumulative retries issued up to the sample instant.
    pub retries: u64,
    /// Cumulative client timeouts up to the sample instant.
    pub timeouts: u64,
    /// Per-server detail, indexed by server.
    pub per_server: Vec<ServerSample>,
}

impl EpochSample {
    /// Window length.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Fills [`EpochSample::completions`] by bucketing completion times into
/// the windows of `epochs` (in time order). A completion lands in the
/// window whose `[start, end)` span contains it; completions at or past the
/// final window's `end` are credited to the final window.
pub(crate) fn bucket_completions(epochs: &mut [EpochSample], completion_times: &mut [f64]) {
    if epochs.is_empty() {
        return;
    }
    completion_times.sort_by(|a, b| a.partial_cmp(b).expect("finite completion times"));
    let mut cursor = 0;
    let last = epochs.len() - 1;
    for (i, epoch) in epochs.iter_mut().enumerate() {
        let mut count = 0u32;
        while cursor < completion_times.len() && (completion_times[cursor] < epoch.end || i == last)
        {
            count += 1;
            cursor += 1;
        }
        epoch.completions = count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(start: f64, end: f64) -> EpochSample {
        EpochSample {
            start,
            end,
            ..EpochSample::default()
        }
    }

    #[test]
    fn completions_bucket_into_their_windows() {
        let mut epochs = vec![window(0.0, 1.0), window(1.0, 2.0), window(2.0, 2.5)];
        let mut times = vec![0.5, 0.9, 1.0, 2.4, 2.5, 7.0];
        bucket_completions(&mut epochs, &mut times);
        let counts: Vec<u32> = epochs.iter().map(|e| e.completions).collect();
        // 2.5 and 7.0 land past the final window's end and are credited to it.
        assert_eq!(counts, vec![2, 1, 3]);
    }

    #[test]
    fn empty_recorder_ignores_completions() {
        // No sample windows (a log built from bare results): nothing to
        // fill, and no window to credit the completion to.
        bucket_completions(&mut [], &mut [1.0]);
    }
}
