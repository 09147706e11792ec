//! Log2-bucketed histograms over `u64` samples.
//!
//! Bucket `0` holds the value `0`; bucket `k` (1 ≤ k ≤ 64) holds values
//! in `[2^(k-1), 2^k - 1]`, so the full `u64` range — including
//! `u64::MAX` — maps to one of 65 buckets. Merging adds bucket-wise,
//! which makes histogram aggregation commutative across shards.

/// Number of buckets: the zero bucket plus one per power of two.
pub const BUCKETS: usize = 65;

/// The bucket index a sample falls into.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// A log2-bucketed histogram: counts per bucket plus exact count, sum,
/// min and max. The sum is kept in `u128` so even `u64::MAX`-sized
/// samples cannot overflow it in practice.
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
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Adds another histogram bucket-wise (commutative and associative).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Has no samples?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// The non-empty buckets as `(index, count)` pairs, in index order
    /// (the sparse form the JSON report serializes).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (i, *c))
    }

    /// Rebuilds a histogram from its serialized parts (the JSON report
    /// and the study checkpoint). `None` when a bucket index is out of
    /// range or given twice; otherwise the parts are trusted to be
    /// mutually consistent.
    pub fn from_parts(
        buckets: impl IntoIterator<Item = (usize, u64)>,
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
    ) -> Option<Histogram> {
        let mut h = Histogram::new();
        let mut seen = [false; BUCKETS];
        for (i, c) in buckets {
            if std::mem::replace(seen.get_mut(i)?, true) {
                return None;
            }
            h.buckets[i] = c;
        }
        h.count = count;
        h.sum = sum;
        h.min = if count == 0 { u64::MAX } else { min };
        h.max = max;
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inclusive `(low, high)` value range of bucket `i`.
    fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < BUCKETS, "bucket index {i} out of range");
        if i == 0 {
            (0, 0)
        } else {
            let low = 1u64 << (i - 1);
            let high = if i == 64 { u64::MAX } else { (1u64 << i) - 1 };
            (low, high)
        }
    }

    #[test]
    fn zero_duration_samples_land_in_the_zero_bucket() {
        let mut h = Histogram::new();
        h.observe(0);
        h.observe(0);
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn u64_max_is_representable() {
        let mut h = Histogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.bucket(64), 2);
        assert_eq!(h.max(), u64::MAX);
        // The u128 sum holds two u64::MAX samples exactly.
        assert_eq!(h.sum(), 2 * u128::from(u64::MAX));
    }

    #[test]
    fn bucket_boundaries() {
        // Exact powers of two open a new bucket; one less stays below.
        for k in 1..=63usize {
            let low = 1u64 << (k - 1);
            let high = (1u64 << k) - 1;
            assert_eq!(bucket_index(low), k, "low edge of bucket {k}");
            assert_eq!(bucket_index(high), k, "high edge of bucket {k}");
            assert_eq!(bucket_bounds(k), (low, high));
        }
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bounds(64), (1u64 << 63, u64::MAX));
        assert_eq!(bucket_bounds(0), (0, 0));
    }

    #[test]
    fn every_bound_maps_into_its_own_bucket() {
        for i in 0..BUCKETS {
            let (low, high) = bucket_bounds(i);
            assert_eq!(bucket_index(low), i);
            assert_eq!(bucket_index(high), i);
        }
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [0, 1, 7, 1 << 20, u64::MAX] {
            a.observe(v);
        }
        for v in [3, 3, 1 << 40] {
            b.observe(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 8);
        assert_eq!(ab.min(), 0);
        assert_eq!(ab.max(), u64::MAX);
    }

    #[test]
    fn parts_roundtrip() {
        let mut h = Histogram::new();
        for v in [0, 5, 5, 900, u64::MAX] {
            h.observe(v);
        }
        let rebuilt = Histogram::from_parts(
            h.nonzero_buckets().collect::<Vec<_>>(),
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
        );
        assert_eq!(rebuilt, Some(h));
        // Empty round-trip keeps the empty sentinel state.
        let empty = Histogram::from_parts([], 0, 0, 0, 0);
        assert_eq!(empty, Some(Histogram::new()));
    }

    #[test]
    fn parts_refuse_an_out_of_range_or_repeated_bucket() {
        assert_eq!(Histogram::from_parts([(BUCKETS, 1)], 1, 1, 1, 1), None);
        assert_eq!(Histogram::from_parts([(3, 1), (3, 2)], 3, 12, 4, 4), None);
        assert!(Histogram::from_parts([(BUCKETS - 1, 1)], 1, 1, 1, 1).is_some());
    }
}
