//! Execution-interval statistics (paper §3).
//!
//! An *execution interval* is the length of time between thread switches.
//! The paper reports a bimodal distribution: a peak at about 3 ms (75 % of
//! Cedar intervals fall in 0–5 ms) from eternal and transient threads that
//! run briefly and block, and a second peak at 45–50 ms from threads that
//! exhaust the 50 ms timeslice — and although most intervals are short,
//! the 45–50 ms intervals carry 20–50 % (Cedar) / 30–80 % (GVX) of the
//! total execution time.

use pcr::{millis, SimDuration, SimTime};

/// Bucket width: the paper's plots resolve 1 ms.
const BUCKET_WIDTH: SimDuration = millis(1);
/// 60 one-millisecond buckets up to 60 ms, plus the overflow bucket.
const BUCKETS: usize = 61;

/// Histogram of execution-interval lengths with fixed-width buckets.
#[derive(Clone, Debug)]
pub struct IntervalHistogram {
    buckets: [u64; BUCKETS],
    /// Sum of interval lengths per bucket (for CPU-weighted statistics).
    bucket_time: [SimDuration; BUCKETS],
    count: u64,
    total: SimDuration,
}

impl IntervalHistogram {
    /// A histogram matching the paper's plots: 1 ms buckets up to 60 ms;
    /// longer intervals land in the final overflow bucket.
    pub fn new() -> Self {
        IntervalHistogram {
            buckets: [0; BUCKETS],
            bucket_time: [SimDuration::ZERO; BUCKETS],
            count: 0,
            total: SimDuration::ZERO,
        }
    }

    /// Records one execution interval.
    pub fn record(&mut self, interval: SimDuration) {
        let idx = ((interval.as_micros() / BUCKET_WIDTH.as_micros()) as usize).min(BUCKETS - 1);
        self.buckets[idx] += 1;
        self.bucket_time[idx] += interval;
        self.count += 1;
        self.total += interval;
    }

    /// Number of intervals recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total execution time across all intervals.
    pub fn total_time(&self) -> SimDuration {
        self.total
    }

    /// Fraction (by count) of intervals in `[lo, hi)`.
    pub fn fraction_between(&self, lo: SimDuration, hi: SimDuration) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let in_range: u64 = self
            .iter()
            .filter(|(start, _, _)| *start >= lo && *start < hi)
            .map(|(_, _, n)| n)
            .sum();
        in_range as f64 / self.count as f64
    }

    /// Fraction (by accumulated time) of total execution time contributed
    /// by intervals in `[lo, hi)` — the paper's "between 20 % and 50 % of
    /// the total execution time is accumulated by threads running for
    /// periods of 45 to 50 ms".
    pub fn time_fraction_between(&self, lo: SimDuration, hi: SimDuration) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        let in_range: SimDuration = self
            .iter()
            .filter(|(start, _, _)| *start >= lo && *start < hi)
            .map(|(_, time, _)| time)
            .sum();
        in_range.as_micros() as f64 / self.total.as_micros() as f64
    }

    /// The bucket start with the most intervals at or above `from`
    /// (to find the second mode past the short-interval peak).
    pub fn mode_at_or_above(&self, from: SimDuration) -> Option<SimDuration> {
        let start_idx = (from.as_micros() / BUCKET_WIDTH.as_micros()) as usize;
        self.buckets
            .iter()
            .enumerate()
            .skip(start_idx)
            .max_by_key(|(_, &n)| n)
            .filter(|(_, &n)| n > 0)
            .map(|(i, _)| BUCKET_WIDTH * i as u64)
    }

    /// Iterates `(bucket_start, bucket_count_time, count)` triples.
    fn iter(&self) -> impl Iterator<Item = (SimDuration, SimDuration, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, &n)| (BUCKET_WIDTH * i as u64, self.bucket_time[i], n))
    }

    /// Renders the histogram rows: `(bucket_start_ms, count, pct, time_pct)`.
    pub fn rows(&self) -> Vec<(u64, u64, f64, f64)> {
        self.iter()
            .map(|(start, time, n)| {
                let pct = if self.count == 0 {
                    0.0
                } else {
                    100.0 * n as f64 / self.count as f64
                };
                let tpct = if self.total.is_zero() {
                    0.0
                } else {
                    100.0 * time.as_micros() as f64 / self.total.as_micros() as f64
                };
                (start.as_millis(), n, pct, tpct)
            })
            .collect()
    }
}

impl Default for IntervalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds an [`IntervalHistogram`] from the runtime's event stream.
///
/// Install it as (part of) a trace sink; it measures the time between
/// consecutive `Switch` events, attributing each interval to the thread
/// being switched away from.
#[derive(Debug)]
pub struct IntervalCollector {
    hist: IntervalHistogram,
    last_switch: Option<SimTime>,
}

impl IntervalCollector {
    /// Creates a collector with the paper's default bucketing.
    pub fn new() -> Self {
        IntervalCollector {
            hist: IntervalHistogram::new(),
            last_switch: None,
        }
    }

    /// The histogram accumulated so far.
    pub fn histogram(&self) -> &IntervalHistogram {
        &self.hist
    }

    /// Consumes the collector, returning its histogram.
    pub fn into_histogram(self) -> IntervalHistogram {
        self.hist
    }
}

impl Default for IntervalCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl pcr::TraceSink for IntervalCollector {
    fn record(&mut self, ev: &pcr::Event) {
        if let pcr::EventKind::Switch { .. } = ev.kind {
            if let Some(prev) = self.last_switch {
                self.hist.record(ev.t.saturating_since(prev));
            }
            self.last_switch = Some(ev.t);
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::micros;

    #[test]
    fn records_into_correct_buckets() {
        let mut h = IntervalHistogram::new();
        h.record(micros(500)); // bucket 0
        h.record(micros(1500)); // bucket 1
        h.record(millis(45)); // bucket 45
        h.record(millis(500)); // overflow bucket 60
        assert_eq!(h.count(), 4);
        let rows = h.rows();
        assert_eq!(rows[0].1, 1);
        assert_eq!(rows[1].1, 1);
        assert_eq!(rows[45].1, 1);
        assert_eq!(rows[60].1, 1);
    }

    #[test]
    fn fraction_between_counts() {
        let mut h = IntervalHistogram::new();
        for _ in 0..3 {
            h.record(millis(2));
        }
        h.record(millis(46));
        assert!((h.fraction_between(millis(0), millis(5)) - 0.75).abs() < 1e-9);
        assert!((h.fraction_between(millis(45), millis(50)) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn time_fraction_weights_by_duration() {
        let mut h = IntervalHistogram::new();
        // 5 short intervals of 1ms (5ms) + one 45ms interval (45ms).
        for _ in 0..5 {
            h.record(millis(1));
        }
        h.record(millis(45));
        let f = h.time_fraction_between(millis(45), millis(50));
        assert!((f - 0.9).abs() < 1e-9, "f = {f}");
    }

    #[test]
    fn mode_detection() {
        let mut h = IntervalHistogram::new();
        for _ in 0..10 {
            h.record(millis(3));
        }
        for _ in 0..7 {
            h.record(millis(45));
        }
        assert_eq!(h.mode_at_or_above(millis(0)), Some(millis(3)));
        assert_eq!(h.mode_at_or_above(millis(10)), Some(millis(45)));
    }

    #[test]
    fn collector_measures_switch_gaps() {
        use pcr::TraceSink;
        let mut c = IntervalCollector::new();
        let mk = |t_us: u64| pcr::Event {
            t: pcr::SimTime::from_micros(t_us),
            kind: pcr::EventKind::Switch {
                from: None,
                to: pcr::ThreadId::from_u32(0),
                to_priority: pcr::Priority::DEFAULT,
                ready_for: pcr::SimDuration::ZERO,
            },
        };
        c.record(&mk(0));
        c.record(&mk(3_000));
        c.record(&mk(48_000));
        let h = c.into_histogram();
        assert_eq!(h.count(), 2);
        assert!(h.fraction_between(millis(0), millis(5)) > 0.49);
        assert!(h.fraction_between(millis(45), millis(50)) > 0.49);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = IntervalHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.fraction_between(millis(0), millis(5)), 0.0);
        assert_eq!(h.time_fraction_between(millis(45), millis(50)), 0.0);
        assert_eq!(h.mode_at_or_above(millis(0)), None);
    }
}
