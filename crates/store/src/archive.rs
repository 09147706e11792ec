//! [`Archive`]: an LSM-lite mutable address set.
//!
//! Inserts land in a `HashSet` memtable; when the memtable reaches its
//! cap it is frozen into a segment: the spill emits one pre-sorted run
//! (sort the drained memtable once, delta-encode it) and touches no
//! existing segment. Compaction is size-tiered: segments are bucketed
//! into power-of-two size classes, and only when a class accumulates
//! `fanout` segments are *those* merged (cascading upward if the
//! result fills its own class). Each address is therefore re-encoded
//! once per tier level — `O(log spills)` — instead of the whole
//! archive being re-encoded every `fanout` spills. The rule is
//! deterministic, so the segment list after any insert sequence is a
//! pure function of that sequence.
//!
//! Lookups go memtable first (the hot set: recently inserted addresses
//! repeat far more often than archived ones), then prune segments by
//! their O(1) min/max bounds, then by a per-segment [`Bloom`] filter —
//! only segments the bloom cannot rule out pay the fence binary search.
//! Blooms are a pure function of segment contents (rebuilt on freeze,
//! compaction, and checkpoint restore), so they never perturb
//! observable state; the prune effectiveness is tracked in relaxed
//! counters surfaced by [`Archive::bloom_stats`].
//!
//! More importantly for the determinism contract: the *observable* state
//! (membership, `len`, ordered iteration) is content-based and therefore
//! independent of freeze/compaction boundaries entirely. Segments are
//! pairwise disjoint and disjoint from the memtable (an address is only
//! inserted once), so `len` is a plain sum.

use crate::bloom::Bloom;
use crate::compact::CompactSet;
use std::collections::HashSet;
use std::net::Ipv6Addr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default (initial) memtable spill threshold.
pub const DEFAULT_MEMTABLE_CAP: usize = 1 << 16;
/// Ceiling for the adaptive memtable cap: sustained ingest may grow the
/// memtable to amortize spills, but never past ~1M resident keys.
pub const MAX_MEMTABLE_CAP: usize = 1 << 20;
/// Adaptive growth cadence: after this many spills at one cap the cap
/// doubles (bounded by [`MAX_MEMTABLE_CAP`]). A workload that spills
/// often is ingesting fast enough that a bigger memtable pays for
/// itself in fewer, larger, better-packed segments.
const SPILLS_PER_GROWTH: u32 = 4;
/// Default per-size-class fanout before tiered compaction merges the
/// class.
pub const DEFAULT_FANOUT: usize = 8;

/// Power-of-two size class of a segment: `log2` of the smallest power
/// of two covering `len`. Segments in one class are within 2x of each
/// other, so merging a full class is the balanced, write-amortized
/// move.
fn size_class(len: usize) -> u32 {
    len.max(1).next_power_of_two().trailing_zeros()
}

/// Bloom prune effectiveness counters for one [`Archive`], snapshot via
/// [`Archive::bloom_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BloomStats {
    /// Segment probes that passed the min/max bounds prune (and so would
    /// have paid a fence search without the bloom).
    pub candidates: u64,
    /// Of those, probes the bloom ruled out without a fence search.
    pub pruned: u64,
}

impl BloomStats {
    /// Fraction of bounds-surviving segment probes the bloom skipped.
    pub fn prune_ratio(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pruned as f64 / self.candidates as f64
        }
    }
}

/// A mutable IPv6 address set backed by a memtable plus frozen
/// [`CompactSet`] segments.
pub struct Archive {
    memtable: HashSet<u128>,
    segments: Vec<CompactSet>,
    /// Per-segment bloom filters, parallel to `segments`; a pure
    /// function of each segment's contents.
    blooms: Vec<Bloom>,
    memtable_cap: usize,
    /// Whether the cap grows with sustained ingest. Fixed-cap archives
    /// ([`Archive::with_memtable_cap`]) keep their exact spill schedule.
    adaptive: bool,
    /// Spills since the cap last grew (adaptive mode only).
    spills_at_cap: u32,
    fanout: usize,
    /// Lookup accounting (relaxed: counters only, never observable in
    /// deterministic state).
    bloom_candidates: AtomicU64,
    bloom_pruned: AtomicU64,
}

impl Clone for Archive {
    fn clone(&self) -> Archive {
        Archive {
            memtable: self.memtable.clone(),
            segments: self.segments.clone(),
            blooms: self.blooms.clone(),
            memtable_cap: self.memtable_cap,
            adaptive: self.adaptive,
            spills_at_cap: self.spills_at_cap,
            fanout: self.fanout,
            bloom_candidates: AtomicU64::new(self.bloom_candidates.load(Ordering::Relaxed)),
            bloom_pruned: AtomicU64::new(self.bloom_pruned.load(Ordering::Relaxed)),
        }
    }
}

impl Default for Archive {
    fn default() -> Archive {
        Archive::new()
    }
}

impl Archive {
    /// An empty archive with an **adaptive** memtable cap: it starts at
    /// [`DEFAULT_MEMTABLE_CAP`] and doubles after every
    /// `SPILLS_PER_GROWTH` spills, bounded by [`MAX_MEMTABLE_CAP`], so
    /// sustained ingest amortizes freeze cost into fewer, larger
    /// segments. The cap schedule is a pure function of the insert
    /// sequence, and observable state never depends on the cap at all.
    pub fn new() -> Archive {
        let mut ar = Archive::with_memtable_cap(DEFAULT_MEMTABLE_CAP);
        ar.adaptive = true;
        ar
    }

    /// An empty archive that spills to a segment every `cap` inserts —
    /// the cap is fixed, so the spill schedule is exact.
    pub fn with_memtable_cap(cap: usize) -> Archive {
        Archive {
            memtable: HashSet::new(),
            segments: Vec::new(),
            blooms: Vec::new(),
            memtable_cap: cap.max(1),
            adaptive: false,
            spills_at_cap: 0,
            fanout: DEFAULT_FANOUT,
            bloom_candidates: AtomicU64::new(0),
            bloom_pruned: AtomicU64::new(0),
        }
    }

    /// Rebuilds an archive from frozen segments (e.g. a decoded
    /// checkpoint). Segments must be pairwise disjoint, as produced by
    /// [`Archive::segments`] after a freeze. Bloom filters are rebuilt
    /// from the segment contents, so a restored archive prunes exactly
    /// like the one that was flushed.
    pub fn from_segments(segments: Vec<CompactSet>, cap: usize) -> Archive {
        let blooms = segments.iter().map(Bloom::for_segment).collect();
        Archive {
            memtable: HashSet::new(),
            segments,
            blooms,
            memtable_cap: cap.max(1),
            adaptive: false,
            spills_at_cap: 0,
            fanout: DEFAULT_FANOUT,
            bloom_candidates: AtomicU64::new(0),
            bloom_pruned: AtomicU64::new(0),
        }
    }

    /// Number of distinct addresses.
    pub fn len(&self) -> usize {
        self.memtable.len() + self.segments.iter().map(CompactSet::len).sum::<usize>()
    }

    /// True when no address has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test across the memtable and every segment.
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        let a = u128::from(addr);
        self.memtable.contains(&a) || self.in_segments(a)
    }

    /// Segment-side membership: prune by O(1) min/max bounds, then by
    /// the per-segment bloom filter, and only pay the fence binary
    /// search on segments neither could rule out.
    fn in_segments(&self, a: u128) -> bool {
        self.segments.iter().zip(&self.blooms).any(|(s, b)| {
            let in_bounds = s.bounds_u128().is_some_and(|(lo, hi)| lo <= a && a <= hi);
            if !in_bounds {
                return false;
            }
            self.bloom_candidates.fetch_add(1, Ordering::Relaxed);
            if !b.may_contain(a) {
                self.bloom_pruned.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            s.contains_u128(a)
        })
    }

    /// Snapshot of the bloom prune counters.
    pub fn bloom_stats(&self) -> BloomStats {
        BloomStats {
            candidates: self.bloom_candidates.load(Ordering::Relaxed),
            pruned: self.bloom_pruned.load(Ordering::Relaxed),
        }
    }

    /// Inserts an address; returns `true` on first sight.
    pub fn insert(&mut self, addr: Ipv6Addr) -> bool {
        let a = u128::from(addr);
        // Memtable first: on collection workloads a re-seen address is
        // overwhelmingly likely to be a *recent* one still in the hot
        // set, and the hash probe is far cheaper than segment searches.
        if self.memtable.contains(&a) || self.in_segments(a) {
            return false;
        }
        self.memtable.insert(a);
        if self.memtable.len() >= self.memtable_cap {
            self.freeze();
        }
        true
    }

    /// Spills the memtable into a frozen segment and runs size-tiered
    /// compaction. Idempotent on an empty memtable.
    ///
    /// The spill path emits one pre-sorted run — the drained memtable,
    /// sorted once — and leaves every existing segment untouched.
    /// Compaction then merges only a *full size class*: segments are
    /// bucketed by the power of two covering their length, and when a
    /// class holds `fanout` segments they are k-way merged into one
    /// (which lands in a higher class and may cascade). Each address is
    /// re-encoded once per tier level rather than on every `fanout`-th
    /// spill, at the cost of keeping `O(fanout · log n)` resident
    /// segments instead of `fanout`. Segments remain pairwise disjoint
    /// (a merge of disjoint sets is disjoint from the rest), and the
    /// schedule depends only on the insert sequence.
    pub fn freeze(&mut self) {
        if !self.memtable.is_empty() {
            let mut v: Vec<u128> = self.memtable.drain().collect();
            v.sort_unstable();
            let seg = CompactSet::from_sorted(v);
            self.blooms.push(Bloom::for_segment(&seg));
            self.segments.push(seg);
            if self.adaptive && self.memtable_cap < MAX_MEMTABLE_CAP {
                self.spills_at_cap += 1;
                if self.spills_at_cap >= SPILLS_PER_GROWTH {
                    self.spills_at_cap = 0;
                    self.memtable_cap = (self.memtable_cap * 2).min(MAX_MEMTABLE_CAP);
                }
            }
        }
        while let Some(class) = self.full_size_class() {
            let idxs: Vec<usize> = (0..self.segments.len())
                .filter(|&i| size_class(self.segments[i].len()) == class)
                .collect();
            let refs: Vec<&CompactSet> = idxs.iter().map(|&i| &self.segments[i]).collect();
            let merged = CompactSet::union_all(&refs);
            for &i in idxs.iter().rev() {
                self.segments.remove(i);
                self.blooms.remove(i);
            }
            self.blooms.push(Bloom::for_segment(&merged));
            self.segments.push(merged);
        }
    }

    /// Merges the memtable and every frozen segment into one segment
    /// with one rebuilt bloom filter, and releases the memtable's spare
    /// capacity.
    ///
    /// The heavy-hammer maintenance move for a long-lived archive at a
    /// quiet point (end of a sustained ingest, before serving a query
    /// burst): one k-way merge re-encodes each address exactly once,
    /// after which the resident footprint is a single densely
    /// delta-packed segment and lookups probe a single bounds check,
    /// bloom, and fence search. Size-tiered [`Archive::freeze`] deliberately
    /// tolerates `O(fanout · log n)` overlapping segments to amortize
    /// writes; `optimize` trades one full rewrite to drop that
    /// fragmentation.
    pub fn optimize(&mut self) {
        self.freeze();
        if self.segments.len() > 1 {
            let refs: Vec<&CompactSet> = self.segments.iter().collect();
            let merged = CompactSet::union_all(&refs);
            self.blooms = vec![Bloom::for_segment(&merged)];
            self.segments = vec![merged];
        }
        self.memtable.shrink_to_fit();
    }

    /// The smallest size class currently holding at least `fanout`
    /// segments, if any.
    fn full_size_class(&self) -> Option<u32> {
        let mut counts = std::collections::BTreeMap::<u32, usize>::new();
        for s in &self.segments {
            *counts.entry(size_class(s.len())).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .find(|&(_, n)| n >= self.fanout)
            .map(|(class, _)| class)
    }

    /// The frozen segments (call [`Archive::freeze`] first to include
    /// the memtable).
    pub fn segments(&self) -> &[CompactSet] {
        &self.segments
    }

    /// Ordered (ascending) iteration over every address.
    pub fn iter(&self) -> impl Iterator<Item = Ipv6Addr> + '_ {
        let mut mem: Vec<u128> = self.memtable.iter().copied().collect();
        mem.sort_unstable();
        // Segments and memtable are pairwise disjoint, so a merge of
        // their sorted streams is already duplicate-free.
        let mut streams: Vec<Box<dyn Iterator<Item = u128> + '_>> = self
            .segments
            .iter()
            .map(|s| Box::new(s.iter_u128()) as Box<dyn Iterator<Item = u128> + '_>)
            .collect();
        streams.push(Box::new(mem.into_iter()));
        let mut peeked: Vec<(Option<u128>, Box<dyn Iterator<Item = u128> + '_>)> =
            streams.into_iter().map(|mut it| (it.next(), it)).collect();
        std::iter::from_fn(move || {
            let min = peeked.iter().filter_map(|(h, _)| *h).min()?;
            for (head, it) in &mut peeked {
                if *head == Some(min) {
                    *head = it.next();
                }
            }
            Some(min)
        })
        .map(Ipv6Addr::from)
    }

    /// A single [`CompactSet`] with the archive's full contents.
    pub fn to_compact(&self) -> CompactSet {
        CompactSet::from_sorted(self.iter().map(u128::from))
    }

    /// Resident heap bytes across memtable, segments, and bloom
    /// filters.
    pub fn heap_bytes(&self) -> usize {
        self.memtable.capacity() * (std::mem::size_of::<u128>() + 1)
            + self
                .segments
                .iter()
                .map(CompactSet::heap_bytes)
                .sum::<usize>()
            + self.blooms.iter().map(Bloom::heap_bytes).sum::<usize>()
    }
}

impl std::fmt::Debug for Archive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Archive")
            .field("len", &self.len())
            .field("segments", &self.segments.len())
            .field("memtable", &self.memtable.len())
            .finish()
    }
}

impl Extend<Ipv6Addr> for Archive {
    fn extend<T: IntoIterator<Item = Ipv6Addr>>(&mut self, iter: T) {
        for a in iter {
            self.insert(a);
        }
    }
}

impl FromIterator<Ipv6Addr> for Archive {
    fn from_iter<T: IntoIterator<Item = Ipv6Addr>>(iter: T) -> Archive {
        let mut ar = Archive::new();
        ar.extend(iter);
        ar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(a: u128) -> Ipv6Addr {
        Ipv6Addr::from(a)
    }

    #[test]
    fn insert_dedup_across_freeze_boundaries() {
        let mut ar = Archive::with_memtable_cap(8);
        for i in 0..100u128 {
            assert!(ar.insert(addr(i)));
        }
        // Everything again: all duplicates, wherever they froze to.
        for i in 0..100u128 {
            assert!(!ar.insert(addr(i)));
        }
        assert_eq!(ar.len(), 100);
        assert!(ar.contains(addr(0)));
        assert!(ar.contains(addr(99)));
        assert!(!ar.contains(addr(100)));
        let got: Vec<u128> = ar.iter().map(u128::from).collect();
        assert_eq!(got, (0..100u128).collect::<Vec<_>>());
    }

    #[test]
    fn observable_state_independent_of_cap() {
        // Same inserts through wildly different freeze schedules must
        // agree on every observable.
        let addrs: Vec<Ipv6Addr> = (0..500u128).map(|i| addr(i * 7919)).collect();
        let mut small = Archive::with_memtable_cap(3);
        let mut big = Archive::with_memtable_cap(1 << 20);
        for &a in &addrs {
            assert_eq!(small.insert(a), big.insert(a));
        }
        assert_eq!(small.len(), big.len());
        assert_eq!(
            small.iter().collect::<Vec<_>>(),
            big.iter().collect::<Vec<_>>()
        );
        assert_eq!(small.to_compact(), big.to_compact());
        assert!(no_size_class_is_full(&small));
    }

    /// The compaction invariant: after a freeze, every power-of-two
    /// size class holds fewer than `fanout` segments.
    fn no_size_class_is_full(ar: &Archive) -> bool {
        let mut counts = std::collections::BTreeMap::<u32, usize>::new();
        for s in ar.segments() {
            *counts.entry(size_class(s.len())).or_insert(0) += 1;
        }
        counts.values().all(|&n| n < DEFAULT_FANOUT)
    }

    #[test]
    fn optimize_collapses_to_one_segment_without_changing_observables() {
        let mut ar = Archive::with_memtable_cap(16);
        for i in 0..2000u128 {
            ar.insert(addr(i * 2_654_435_761));
        }
        let before: Vec<u128> = ar.iter().map(u128::from).collect();
        let fragmented = ar.heap_bytes();
        assert!(ar.segments().len() > 1);
        ar.optimize();
        assert_eq!(ar.segments().len(), 1);
        assert!(
            ar.heap_bytes() < fragmented,
            "optimize must shrink resident bytes"
        );
        assert_eq!(ar.iter().map(u128::from).collect::<Vec<_>>(), before);
        for &a in &before {
            assert!(ar.contains(Ipv6Addr::from(a)));
        }
        assert!(!ar.contains(addr(1)));
        // The archive stays usable: further inserts dedup correctly.
        assert!(!ar.insert(addr(0)));
        assert!(ar.insert(addr(3)));
        assert_eq!(ar.len(), before.len() + 1);
    }

    #[test]
    fn tiered_compaction_keeps_segments_bounded_and_disjoint() {
        let mut ar = Archive::with_memtable_cap(4);
        for i in 0..1000u128 {
            assert!(ar.insert(addr(i * 2_654_435_761)));
        }
        ar.freeze();
        assert!(!ar.segments().is_empty());
        // Size-tiered bound: no class full, so the resident count stays
        // O(fanout · log n) — here 250 runs collapse to a handful.
        assert!(no_size_class_is_full(&ar));
        assert!(ar.segments().len() <= DEFAULT_FANOUT * 4);
        // Disjointness: len is the plain sum and the k-way merged
        // iteration is strictly increasing with no duplicates dropped.
        let total: usize = ar.segments().iter().map(CompactSet::len).sum();
        assert_eq!(total, ar.len());
        let v: Vec<u128> = ar.iter().map(u128::from).collect();
        assert_eq!(v.len(), 1000);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        // Bounds prune must not change membership answers.
        for i in 0..1000u128 {
            assert!(ar.contains(addr(i * 2_654_435_761)));
            assert!(!ar.insert(addr(i * 2_654_435_761)));
        }
        assert!(!ar.contains(addr(3)));
    }

    #[test]
    fn bloom_prunes_misses_without_changing_answers() {
        let mut ar = Archive::with_memtable_cap(64);
        for i in 0..5_000u128 {
            ar.insert(addr(i * 2_654_435_761));
        }
        ar.freeze();
        assert_eq!(ar.segments().len(), ar.blooms.len());
        // Misses inside the global bounds: the bounds prune can't help,
        // the bloom must carry the load.
        for i in 0..5_000u128 {
            assert!(!ar.contains(addr(i * 2_654_435_761 + 1)));
        }
        let stats = ar.bloom_stats();
        assert!(stats.candidates > 0);
        assert!(
            stats.prune_ratio() > 0.9,
            "bloom pruned too little: {stats:?}"
        );
        // And membership answers are still exact.
        for i in 0..5_000u128 {
            assert!(ar.contains(addr(i * 2_654_435_761)));
        }
        // A restored archive rebuilds identical filters.
        ar.freeze();
        let restored = Archive::from_segments(ar.segments().to_vec(), 64);
        assert_eq!(restored.blooms, ar.blooms);
    }

    #[test]
    fn adaptive_cap_grows_under_sustained_ingest_and_stays_bounded() {
        let mut ar = Archive::new();
        assert_eq!(ar.memtable_cap, DEFAULT_MEMTABLE_CAP);
        // Drive spills directly: every freeze of a non-empty memtable
        // counts toward growth, regardless of how full it was.
        for s in 0..SPILLS_PER_GROWTH as u128 {
            ar.memtable.insert(s);
            ar.freeze();
        }
        assert_eq!(ar.memtable_cap, DEFAULT_MEMTABLE_CAP * 2);
        // Growth saturates at MAX_MEMTABLE_CAP no matter how sustained
        // the ingest gets.
        for s in 0..200u128 {
            ar.memtable.insert(1000 + s);
            ar.freeze();
        }
        assert_eq!(ar.memtable_cap, MAX_MEMTABLE_CAP);
        // Fixed-cap archives never adapt.
        let mut fixed = Archive::with_memtable_cap(8);
        for i in 0..100u128 {
            fixed.insert(addr(i));
        }
        assert_eq!(fixed.memtable_cap, 8);
    }
}
