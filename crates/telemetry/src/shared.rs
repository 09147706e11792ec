//! Cross-thread metric sinks.
//!
//! Most of the pipeline records into thread-local [`crate::Registry`]s,
//! but one place genuinely shares state across threads: transport
//! wrappers cloned into parallel shards. Their sink is plain relaxed
//! atomics — every operation is commutative (add / min / max), so
//! totals are scheduling-independent even though interleavings are
//! not.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::{bucket_index, Histogram, BUCKETS};

/// A log2 histogram over atomics, mirroring [`Histogram`]. The sum is a
/// `u64` (no 128-bit atomics) — callers record simulation-scale values,
/// far from overflow.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram::new()
    }
}

impl AtomicHistogram {
    /// An empty atomic histogram.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample (relaxed; every component op commutes).
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The owned-histogram view of the current state. Call after the
    /// recording threads have quiesced (joined) for exact totals.
    pub fn snapshot(&self) -> Histogram {
        let count = self.count.load(Ordering::Relaxed);
        Histogram::from_parts(
            self.buckets
                .iter()
                .enumerate()
                .map(|(i, b)| (i, b.load(Ordering::Relaxed)))
                .filter(|(_, c)| *c > 0)
                .collect::<Vec<_>>(),
            count,
            u128::from(self.sum.load(Ordering::Relaxed)),
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn atomic_histogram_matches_owned_histogram() {
        let ah = AtomicHistogram::new();
        let mut h = Histogram::new();
        for v in [0, 1, 3, 900, 1 << 33] {
            ah.observe(v);
            h.observe(v);
        }
        assert_eq!(ah.snapshot(), h);
    }

    #[test]
    fn atomic_histogram_totals_survive_threads() {
        let ah = Arc::new(AtomicHistogram::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ah = Arc::clone(&ah);
                s.spawn(move || {
                    for i in 0..100 {
                        ah.observe(t * 1000 + i);
                    }
                });
            }
        });
        let snap = ah.snapshot();
        assert_eq!(snap.count(), 400);
        assert_eq!(snap.min(), 0);
        assert_eq!(snap.max(), 3099);
    }
}
