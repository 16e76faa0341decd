//! The latency histogram: log₂ buckets of microseconds.
//!
//! One type serves the scheduler's wakeup-to-run profile
//! ([`crate::SchedLatency`], one histogram per priority) and the serve
//! world's input-to-echo latencies (`serverd::LatencyHistogram`); they
//! differ only in how many buckets they keep before the last one
//! becomes open-ended.

use crate::time::SimDuration;

/// A log₂-bucketed microsecond latency histogram of `N` buckets.
///
/// Bucket 0 holds a zero; bucket `b > 0` covers `[2^(b-1), 2^b)`
/// microseconds, and the last bucket is open-ended. Alongside the
/// counts it keeps the sample count, sum and maximum, so the mean and
/// the worst case are exact while quantiles are resolved to a bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Histogram<const N: usize> {
    counts: [u64; N],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl<const N: usize> Default for Log2Histogram<N> {
    fn default() -> Self {
        Log2Histogram {
            counts: [0; N],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl<const N: usize> Log2Histogram<N> {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket a sample of `us` microseconds falls into.
    fn bucket_of(us: u64) -> usize {
        ((64 - us.leading_zeros()) as usize).min(N - 1)
    }

    /// Lower bound (inclusive), in microseconds, of bucket `b`.
    fn bucket_floor_us(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            1u64 << (b - 1)
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, d: SimDuration) {
        let us = d.as_micros();
        self.counts[Self::bucket_of(us)] += 1;
        self.count += 1;
        self.sum_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// The count of each bucket.
    pub fn counts(&self) -> &[u64; N] {
        &self.counts
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the observations, µs.
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Largest observation, µs.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Mean, µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// The bucket holding the `q`-quantile (`q` ∈ (0, 1]), with its
    /// count and the 0-based rank of the quantile inside it.
    fn quantile_bucket(&self, q: f64) -> Option<(usize, u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                return Some((b, c, rank - seen - 1));
            }
            seen += c;
        }
        unreachable!("the counts sum to the sample count")
    }

    /// The `q`-quantile in µs (`q` ∈ (0, 1]); `None` when empty.
    /// Deterministic: integer rank, linear interpolation across the
    /// bucket's value range by intra-bucket position, capped by the
    /// largest sample.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        let (b, c, within) = self.quantile_bucket(q)?;
        let lo = Self::bucket_floor_us(b);
        let hi = if b == 0 { 0 } else { (1u64 << b) - 1 };
        let v = lo as f64 + (hi - lo) as f64 * (within as f64 / c as f64);
        Some((v as u64).min(self.max_us))
    }

    /// The floor of the bucket holding the `q`-quantile, µs: a power of
    /// two (or zero) at or below it. `None` when empty.
    pub fn quantile_floor_us(&self, q: f64) -> Option<u64> {
        self.quantile_bucket(q)
            .map(|(b, _, _)| Self::bucket_floor_us(b))
    }

    /// Quantile as a duration.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        self.quantile_us(q).map(SimDuration::from_micros)
    }

    /// Resets to empty (control-window reuse).
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Nonzero `(bucket_floor_us, count)` rows, lowest bucket first.
    pub fn rows(&self) -> Vec<(u64, u64)> {
        let nonzero = self.counts.iter().enumerate().filter(|(_, &c)| c > 0);
        nonzero
            .map(|(b, &c)| (Self::bucket_floor_us(b), c))
            .collect()
    }

    /// The observations since an earlier snapshot `start` of the same
    /// histogram. The maximum is not windowable from counters alone, so
    /// the later one is kept (an upper bound for the window).
    pub fn since(&self, start: &Self) -> Self {
        let mut out = self.clone();
        for (c, s) in out.counts.iter_mut().zip(&start.counts) {
            *c -= s;
        }
        out.count -= start.count;
        out.sum_us -= start.sum_us;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::micros;

    #[test]
    fn buckets_are_powers_of_two_with_an_open_last_one() {
        type H = Log2Histogram<4>;
        let floors: Vec<u64> = [0, 1, 2, 3, 4, 7, 8, 1 << 40]
            .map(|us| H::bucket_floor_us(H::bucket_of(us)))
            .to_vec();
        assert_eq!(floors, [0, 1, 2, 2, 4, 4, 4, 4]);
    }

    #[test]
    fn a_window_is_the_difference_of_two_snapshots() {
        let mut h = Log2Histogram::<20>::new();
        h.record(micros(3));
        let start = h.clone();
        h.record(micros(100));
        h.record(micros(0));
        let w = h.since(&start);
        assert_eq!((w.count(), w.sum_us(), w.max_us()), (2, 100, 100));
        assert_eq!(w.rows(), [(0, 1), (64, 1)]);
        assert_eq!(w.quantile_floor_us(0.5), Some(0));
        assert_eq!(w.quantile_floor_us(1.0), Some(64));
    }
}
