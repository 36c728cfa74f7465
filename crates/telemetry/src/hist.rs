//! The workspace's shared log₂-bucket [`Histogram`] and the
//! nearest-rank [`percentile`] accessor.
//!
//! The histogram began life as `fleet::Histogram` (per-device reboot /
//! freshness-failure distributions); it is generalized here so fleet
//! aggregation, metric latency histograms, and drivers all share one
//! quantile implementation instead of re-deriving them ad hoc. The
//! bucket layout is load-bearing for fleet artifacts (schema v1 stores
//! the raw bucket array), so it is frozen: bucket 0 holds zeros, bucket
//! `b ≥ 1` holds `[2^(b-1), 2^b)`.

/// Number of buckets in a [`Histogram`]: bucket 0 holds zeros, bucket
/// `b ≥ 1` holds values in `[2^(b-1), 2^b)`.
pub const HIST_BUCKETS: usize = 65;

/// A log₂-bucket histogram of `u64` samples. Exact-merge friendly:
/// bucket counts are plain `u64` sums, so merging partial histograms in
/// any grouping gives identical results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// The bucket index `v` lands in.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// The largest value bucket `b` can hold (`0` for bucket 0).
    pub fn bucket_max(b: usize) -> u64 {
        if b == 0 {
            0
        } else if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// A histogram from raw bucket counts.
    ///
    /// # Panics
    ///
    /// When `buckets` is not exactly [`HIST_BUCKETS`] long.
    pub fn from_buckets(buckets: Vec<u64>) -> Histogram {
        assert_eq!(buckets.len(), HIST_BUCKETS, "histogram bucket count");
        Histogram { buckets }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let b = &mut self.buckets[Self::bucket_of(v)];
        *b = b.saturating_add(1);
    }

    /// Adds every bucket of `other` into `self`. Bucket counts saturate
    /// rather than wrap: a pinned count misstates only how far past
    /// `u64::MAX` the sweep went, while a wrapped one would silently
    /// reorder every percentile derived from it.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, v) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(*v);
        }
    }

    /// Total recorded samples.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The bucket counts, zeros first then doubling ranges.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// The upper bound of the bucket containing the `p`-th percentile
    /// (`p` in `[0, 100]`) of recorded values, or 0 for an empty
    /// histogram. Bucketed percentiles are what the fleet table
    /// renders: exact enough for tail shapes, mergeable without
    /// per-sample state.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return Self::bucket_max(b);
            }
        }
        Self::bucket_max(HIST_BUCKETS - 1)
    }

    /// The median bucket's upper bound.
    pub(crate) fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// The 90th-percentile bucket's upper bound.
    pub(crate) fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// The 99th-percentile bucket's upper bound.
    pub(crate) fn p99(&self) -> u64 {
        self.percentile(99.0)
    }
}

/// The p-th percentile (nearest-rank) of a non-empty sorted sample —
/// the exact-quantile companion to [`Histogram::percentile`], shared by
/// the serve self-test and the serve bench driver.
///
/// # Panics
///
/// On an empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_hits_bucket_upper_bounds_exactly_at_edges() {
        // One sample per power of two: 0, 1, 2, 4, … 2^63. Sample i
        // (0-based) lives alone in bucket i, so the p-th percentile
        // lands exactly on a bucket edge for every rank.
        let mut h = Histogram::default();
        h.record(0);
        for b in 0..=63u32 {
            h.record(1u64 << b);
        }
        assert_eq!(h.total(), 65);
        assert_eq!(h.percentile(0.0), 0, "rank clamps to the first sample");
        // Rank r (1-based) selects bucket r-1, whose max is 2^(r-1)-1.
        let rank_to_p = |r: u64| (r as f64) * 100.0 / 65.0;
        assert_eq!(h.percentile(rank_to_p(1)), Histogram::bucket_max(0));
        assert_eq!(h.percentile(rank_to_p(2)), Histogram::bucket_max(1));
        assert_eq!(h.percentile(rank_to_p(33)), Histogram::bucket_max(32));
        assert_eq!(h.percentile(rank_to_p(64)), Histogram::bucket_max(63));
        assert_eq!(h.percentile(100.0), u64::MAX, "top bucket is saturated");
    }

    #[test]
    fn percentile_helpers_match_the_general_accessor() {
        let mut h = Histogram::default();
        for v in [1, 2, 3, 5, 9, 17, 33, 65, 129, 1025] {
            h.record(v);
        }
        assert_eq!(h.p50(), h.percentile(50.0));
        assert_eq!(h.p90(), h.percentile(90.0));
        assert_eq!(h.p99(), h.percentile(99.0));
        // Ten samples in buckets 1..=11: p50 is rank 5 (value 9 →
        // bucket 4, max 15); p99 is rank 10 (value 1025 → bucket 11).
        assert_eq!(h.p50(), 15);
        assert_eq!(h.p99(), Histogram::bucket_max(11));
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let h = Histogram::default();
        assert_eq!(h.total(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn nearest_rank_percentile_at_sample_boundaries() {
        let xs = [10, 20, 30, 40];
        assert_eq!(percentile(&xs, 0.0), 10);
        assert_eq!(percentile(&xs, 25.0), 10);
        assert_eq!(percentile(&xs, 25.1), 20);
        assert_eq!(percentile(&xs, 50.0), 20);
        assert_eq!(percentile(&xs, 75.0), 30);
        assert_eq!(percentile(&xs, 99.0), 40);
        assert_eq!(percentile(&xs, 100.0), 40);
        assert_eq!(percentile(&[7], 50.0), 7);
    }

    #[test]
    fn from_buckets_round_trips() {
        let mut h = Histogram::default();
        h.record(5);
        h.record(1 << 40);
        let h2 = Histogram::from_buckets(h.buckets().to_vec());
        assert_eq!(h, h2);
    }

    #[test]
    #[should_panic(expected = "histogram bucket count")]
    fn from_buckets_rejects_wrong_lengths() {
        let _ = Histogram::from_buckets(vec![0; 3]);
    }
}
