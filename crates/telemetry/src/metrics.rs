//! Atomic metric primitives: counters, gauges, fixed-bucket histograms.
//!
//! All types are lock-free after creation: recording from the hot path
//! is a handful of relaxed atomic operations. Aggregation (summaries,
//! percentiles) happens only when a [`crate::registry::Snapshot`] is taken.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    /// Adds `delta`.
    pub(crate) fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a point-in-time value plus its high-water mark.
///
/// The high-water mark is what a post-hoc snapshot needs — e.g. the
/// simulator's maximum event-queue depth over a whole run.
#[derive(Debug, Default)]
pub(crate) struct Gauge {
    value: AtomicI64,
    max: AtomicI64,
}

impl Gauge {
    /// Sets the current value, updating the high-water mark.
    pub(crate) fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest value ever set.
    pub(crate) fn high_water(&self) -> i64 {
        self.max.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one per power of two, covering the full
/// `u64` range (bucket `i` holds values whose bit length is `i`, i.e.
/// `2^(i-1) <= v < 2^i`, with bucket 0 holding zero).
pub const BUCKETS: usize = 65;

/// A fixed-bucket (power-of-two) histogram with exact count/sum/min/max.
///
/// Percentile estimates come from the bucket boundaries, clamped to the
/// observed `[min, max]` range — so constant distributions report exact
/// percentiles and any estimate is within 2x of the true value.
#[derive(Debug)]
pub(crate) struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Box::new([0u64; BUCKETS].map(AtomicU64::new)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

impl Histogram {
    /// Records one sample.
    pub(crate) fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample, or 0 if empty.
    pub(crate) fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX && self.count() == 0 {
            0
        } else {
            m
        }
    }

    /// Largest sample, or 0 if empty.
    pub(crate) fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`).
    ///
    /// Returns the upper bound of the bucket containing the rank-`q`
    /// sample, clamped into the observed `[min, max]`.
    pub(crate) fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Takes a point-in-time summary.
    pub(crate) fn summary(&self) -> HistogramSummary {
        let count = self.count();
        HistogramSummary {
            count,
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
        }
    }
}

/// A point-in-time summary of a `Histogram`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub(crate) sum: u64,
    /// Smallest sample (0 if empty).
    pub(crate) min: u64,
    /// Largest sample (0 if empty).
    pub(crate) max: u64,
    /// Estimated median.
    pub(crate) p50: u64,
    /// Estimated 90th percentile.
    pub(crate) p90: u64,
    /// Estimated 99th percentile.
    pub(crate) p99: u64,
}

impl HistogramSummary {
    /// Mean sample value (0 if empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = Gauge::default();
        g.set(5);
        g.set(12);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 12);
    }

    #[test]
    fn bucket_indexing() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.summary(), HistogramSummary::default());
        assert_eq!(h.summary().mean(), 0.0);
    }

    #[test]
    fn constant_distribution_is_exact() {
        let h = Histogram::default();
        for _ in 0..100 {
            h.observe(100);
        }
        let s = h.summary();
        assert_eq!((s.p50, s.p90, s.p99), (100, 100, 100));
        assert_eq!(s.min, 100);
        assert_eq!(s.max, 100);
        assert_eq!(s.mean(), 100.0);
    }

    #[test]
    fn percentiles_within_bucket_error() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!((s.min, s.max), (1, 1000));
        // True percentiles: 500, 900, 990. Power-of-two buckets put the
        // estimate at the enclosing bucket's upper bound, so the
        // estimate e satisfies true <= e < 2 * true.
        for (estimate, truth) in [(s.p50, 500u64), (s.p90, 900), (s.p99, 990)] {
            assert!(
                estimate >= truth && estimate < truth * 2,
                "estimate {estimate} for true percentile {truth}"
            );
        }
        // Extremes are exact thanks to min/max clamping.
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(1.0), 1000);
    }

    #[test]
    fn zero_samples_land_in_bucket_zero() {
        let h = Histogram::default();
        h.observe(0);
        h.observe(0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.max(), 0);
    }
}
