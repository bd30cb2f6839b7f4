//! Read-latency histogram.
//!
//! Power-of-two buckets over nanoseconds: enough resolution to separate
//! the hierarchy's levels (0 / 32 / 148 / 332 ns and their queued tails)
//! at constant memory cost. The simulator records every read's latency;
//! reports expose percentiles — the tail is where contention lives.

use coma_types::Nanos;

/// Number of log2 buckets (covers up to ~2 ms, far beyond any access).
const BUCKETS: usize = 22;

/// A histogram of read latencies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHisto {
    counts: [u64; BUCKETS],
    total: u64,
    max_ns: Nanos,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        LatencyHisto {
            counts: [0; BUCKETS],
            total: 0,
            max_ns: 0,
        }
    }
}

#[inline]
fn bucket_of(ns: Nanos) -> usize {
    if ns == 0 {
        0
    } else {
        ((64 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Upper bound (exclusive) of a bucket, for display.
fn bucket_hi(i: usize) -> Nanos {
    if i == 0 {
        1
    } else {
        1u64 << i
    }
}

impl LatencyHisto {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one access latency.
    #[inline]
    pub fn record(&mut self, ns: Nanos) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn max_ns(&self) -> Nanos {
        self.max_ns
    }

    /// Upper-bound estimate of the `q`-quantile (0.0 ..= 1.0): the
    /// exclusive top of the bucket containing it (exact for the max).
    pub fn quantile(&self, q: f64) -> Nanos {
        assert!((0.0..=1.0).contains(&q));
        if self.total == 0 {
            return 0;
        }
        let target = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_hi(i).min(self.max_ns.max(1));
            }
        }
        self.max_ns
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, o: &LatencyHisto) {
        for i in 0..BUCKETS {
            self.counts[i] += o.counts[i];
        }
        self.total += o.total;
        self.max_ns = self.max_ns.max(o.max_ns);
    }

    /// Every bucket count, then the total, then the maximum, as fixed-width
    /// words; simbench folds them into its report digest.
    pub fn to_words(&self) -> Vec<u64> {
        let mut w = Vec::with_capacity(BUCKETS + 2);
        w.extend_from_slice(&self.counts);
        w.push(self.total);
        w.push(self.max_ns);
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(32), 6);
        assert_eq!(bucket_of(332), 9);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = LatencyHisto::new();
        for _ in 0..90 {
            h.record(0); // FLC hits
        }
        for _ in 0..10 {
            h.record(332); // remote
        }
        assert_eq!(h.total(), 100);
        assert_eq!(h.quantile(0.5), 1); // bucket [0,1): FLC
        let p99 = h.quantile(0.99);
        assert!((332..=512).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 332u64.max(h.quantile(1.0)).min(512));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHisto::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHisto::new();
        a.record(32);
        let mut b = LatencyHisto::new();
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.max_ns(), 1000);
    }
}
