//! Latency histograms and the shared pipeline metrics monitor.

use pcr::SimTime;

/// The input-to-echo latency histogram: the kernel's log₂-µs one, with
/// 40 buckets (1 µs to ~9 minutes) and interpolated quantiles.
pub type LatencyHistogram = pcr::Log2Histogram<40>;

/// Pipeline-side counters and histograms, shared via one monitor.
#[derive(Clone, Debug, Default)]
pub struct ServeMetrics {
    /// Input-to-echo latency of painted requests, whole run.
    pub latency: LatencyHistogram,
    /// Same, current control window only (controller resets it).
    pub window: LatencyHistogram,
    /// Ingress-queue sojourn of requests reaching the X connection.
    pub sojourn: LatencyHistogram,
    /// Requests painted.
    pub painted: u64,
    /// Batches painted.
    pub batches: u64,
    /// Batches failed by the (simulated) connection outage.
    pub outage_failed_batches: u64,
}

impl ServeMetrics {
    /// Records a painted request's input-to-echo latency.
    pub fn record_paint(&mut self, produced_at: SimTime, painted_at: SimTime) {
        let lat = painted_at.saturating_since(produced_at);
        self.latency.record(lat);
        self.window.record(lat);
        self.painted += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{micros, millis, SimDuration};

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(micros(i * 10));
        }
        let p50 = h.quantile_us(0.5).unwrap();
        let p99 = h.quantile_us(0.99).unwrap();
        let p999 = h.quantile_us(0.999).unwrap();
        assert!(p50 <= p99 && p99 <= p999);
        assert!(p999 <= h.max_us());
        // log2 buckets: p50 within a factor of 2 of the true 5000µs.
        assert!((2500..=10_000).contains(&p50), "p50 {p50}");
        assert_eq!(h.count(), 1000);
        h.reset();
        assert_eq!(h.quantile_us(0.5), None);
    }

    #[test]
    fn zero_and_huge_observations_survive() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::ZERO);
        h.record(millis(10_000_000));
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_us(0.01).unwrap(), 0);
        assert!(h.quantile_us(1.0).unwrap() <= h.max_us());
        assert_eq!(h.rows().len(), 2);
    }
}
