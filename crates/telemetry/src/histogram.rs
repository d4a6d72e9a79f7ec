//! Fixed-bucket log2 latency histograms.
//!
//! Values are bucketed by bit width: bucket 0 holds exactly 0, bucket
//! `i` (1..=64) holds values in `[2^(i-1), 2^i)`. That covers the whole
//! `u64` domain in 65 counters, so recording is O(1). Quantiles are
//! estimated from bucket upper bounds clamped to the observed min/max,
//! which keeps them monotone in the requested rank.

/// Number of buckets: one for zero plus one per bit width.
pub const BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a value: 0 for 0, otherwise its bit width.
fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Largest value a bucket can hold (`u64::MAX` for the last one).
fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample, if any.
    pub fn mean(&self) -> Option<u64> {
        (self.count > 0).then(|| (self.sum / self.count as u128) as u64)
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`): the upper bound of the
    /// bucket containing the rank-`ceil(q*count)` sample, clamped to the
    /// observed `[min, max]`. Returns `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper_bound(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Condenses the histogram into the fixed summary used by reports.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            mean: self.mean().unwrap_or(0),
            p50: self.quantile(0.50).unwrap_or(0),
            p95: self.quantile(0.95).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
        }
    }
}

/// Fixed-size digest of a [`Histogram`], embedded in run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Mean sample (0 when empty).
    pub mean: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn extreme_values_round_trip() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn quantiles_are_monotone_in_rank() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for i in 0..1000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            h.record(x >> (x % 40));
        }
        let qs: Vec<u64> = (0..=20)
            .map(|i| h.quantile(i as f64 / 20.0).unwrap())
            .collect();
        for pair in qs.windows(2) {
            assert!(pair[0] <= pair[1], "quantiles not monotone: {qs:?}");
        }
        assert!(qs[0] >= h.min().unwrap());
        assert_eq!(*qs.last().unwrap(), h.max().unwrap());
    }

    #[test]
    fn quantile_bounds_respect_observed_range() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(120);
        // Bucket upper bound would be 127, but max observed is 120.
        assert_eq!(h.quantile(0.99), Some(120));
        // Lower clamp: bucket 0's bound (0) can never be below min.
        assert!(h.quantile(0.01).unwrap() >= 100);
    }

    #[test]
    fn single_bucket_histogram_pins_every_quantile() {
        // All samples share one bucket (and one value): every quantile,
        // including the endpoints, must be that value.
        let mut h = Histogram::new();
        for _ in 0..7 {
            h.record(37);
        }
        for q in [0.0, 0.25, 0.5, 0.75, 0.95, 1.0] {
            assert_eq!(h.quantile(q), Some(37), "q={q}");
        }
        let s = h.summary();
        assert_eq!((s.min, s.max, s.mean, s.p50, s.p99), (37, 37, 37, 37, 37));
    }

    #[test]
    fn endpoint_quantiles_clamp_to_observed_extremes() {
        let mut h = Histogram::new();
        h.record(1);
        h.record(1000);
        h.record(40);
        // q=0 clamps the rank to the first sample → min's bucket → min.
        assert_eq!(h.quantile(0.0), Some(1));
        // q=1 is the last bucket's bound (1023) clamped to the max.
        assert_eq!(h.quantile(1.0), Some(1000));
        // Out-of-range requests clamp instead of panicking.
        assert_eq!(h.quantile(-3.0), Some(1));
        assert_eq!(h.quantile(7.5), Some(1000));
    }

    #[test]
    fn one_sample_histogram_summary() {
        let mut h = Histogram::new();
        h.record(0);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!((s.min, s.max, s.p50, s.p95, s.p99), (0, 0, 0, 0, 0));
    }

    #[test]
    fn summary_matches_direct_queries() {
        let mut h = Histogram::new();
        for v in 1..=1024u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1024);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1024);
        assert_eq!(s.p50, h.quantile(0.50).unwrap());
        assert_eq!(s.p95, h.quantile(0.95).unwrap());
        assert_eq!(s.p99, h.quantile(0.99).unwrap());
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }
}
