//! [`Archive`]: an LSM-lite mutable address set.
//!
//! Inserts land in a `HashSet` memtable; when the memtable reaches its
//! cap it is frozen into a segment: the spill emits one pre-sorted run
//! (sort the drained memtable once, delta-encode it) and touches no
//! existing segment. Compaction is size-tiered: segments are bucketed
//! into power-of-two size classes, and only when a class accumulates
//! [`DEFAULT_FANOUT`] segments are *those* merged (cascading upward if the
//! result fills its own class). Each address is therefore re-encoded
//! once per tier level — `O(log spills)` — instead of the whole
//! archive being re-encoded every [`DEFAULT_FANOUT`] spills. The rule is
//! deterministic, so the segment list after any insert sequence is a
//! pure function of that sequence.
//!
//! A lookup goes memtable first (the hot set: recently inserted
//! addresses repeat far more often than archived ones; hashed with the
//! address fold of [`v6addr::hash`], not SipHash), then asks one
//! archive-wide front [`Bloom`] over every frozen address, and only on
//! a maybe walks the segments: O(1) min/max bounds, the segment's own
//! bloom, and the fence binary search for segments neither rules out.
//! The key is hashed once for every filter. On a first sight — nearly
//! every poll of a collection feed — the front filter's one probe
//! replaces a probe per segment.
//!
//! The front filter is sized for the smallest power of two covering the
//! frozen length; each spill extends it, and it is rebuilt from the
//! segments when that power of two grows. Every filter is a pure
//! function of frozen contents (segment blooms are rebuilt on freeze
//! and compaction, all of them on checkpoint restore), so none perturbs
//! observable state; prune effectiveness is counted in
//! [`Archive::bloom_stats`].
//!
//! More importantly for the determinism contract: the *observable* state
//! (membership, `len`, ordered iteration) is content-based and therefore
//! independent of freeze/compaction boundaries entirely. Segments are
//! pairwise disjoint and disjoint from the memtable (an address is only
//! inserted once), so `len` is a plain sum.

use crate::bloom::{self, Bloom};
use crate::compact::{CompactSet, KWayMerge};
use std::collections::HashSet;
use std::net::Ipv6Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use v6addr::hash::FoldBuildHasher;

/// Default (initial) memtable spill threshold.
pub const DEFAULT_MEMTABLE_CAP: usize = 1 << 16;
/// Ceiling for the growing memtable cap: sustained ingest may grow the
/// memtable to amortize spills, but never past ~1M resident keys.
pub const MAX_MEMTABLE_CAP: usize = 1 << 20;
/// Growth cadence: after this many spills at one cap the cap
/// doubles (bounded by [`MAX_MEMTABLE_CAP`]). A workload that spills
/// often is ingesting fast enough that a bigger memtable pays for
/// itself in fewer, larger, better-packed segments.
const SPILLS_PER_GROWTH: u32 = 4;
/// Segments a size class holds before tiered compaction merges the
/// class.
pub const DEFAULT_FANOUT: usize = 8;

/// Power-of-two size class of a segment: `log2` of the smallest power
/// of two covering `len`. Segments in one class are within 2x of each
/// other, so merging a full class is the balanced, write-amortized
/// move.
fn size_class(len: usize) -> u32 {
    len.max(1).next_power_of_two().trailing_zeros()
}

/// The memtable: a hash set keyed by the address fold.
type Memtable = HashSet<u128, FoldBuildHasher>;

/// Bloom prune effectiveness counters for one [`Archive`], snapshot via
/// [`Archive::bloom_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BloomStats {
    /// Filter probes that, without the filter, would have led to a
    /// fence search: one per front-filter verdict, plus one per segment
    /// that passed the min/max bounds prune.
    pub candidates: u64,
    /// Of those, probes the filter ruled out without a fence search.
    pub pruned: u64,
}

impl BloomStats {
    /// Fraction of filter probes that skipped a fence search.
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
    memtable: Memtable,
    segments: Vec<CompactSet>,
    /// Per-segment bloom filters, parallel to `segments`; a pure
    /// function of each segment's contents.
    blooms: Vec<Bloom>,
    /// One filter over every frozen address, asked before any segment:
    /// sized for the smallest power of two covering the frozen length,
    /// `None` while nothing is frozen. A pure function of the frozen
    /// contents.
    front: Option<Bloom>,
    memtable_cap: usize,
    /// Spills since the cap last grew.
    spills_at_cap: u32,
    /// Lookup accounting, never observable in deterministic state.
    /// Atomic only so that `contains(&self)` can count; `insert` adds
    /// through `get_mut`, without an atomic instruction.
    bloom_candidates: AtomicU64,
    bloom_pruned: AtomicU64,
}

impl Clone for Archive {
    fn clone(&self) -> Archive {
        Archive {
            memtable: self.memtable.clone(),
            segments: self.segments.clone(),
            blooms: self.blooms.clone(),
            front: self.front.clone(),
            memtable_cap: self.memtable_cap,
            spills_at_cap: self.spills_at_cap,
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
    /// An empty archive whose memtable cap starts at
    /// [`DEFAULT_MEMTABLE_CAP`].
    pub fn new() -> Archive {
        Archive::with_memtable_cap(DEFAULT_MEMTABLE_CAP)
    }

    /// An empty archive whose memtable cap starts at `cap`. Every
    /// archive grows its cap the same way: it doubles after every
    /// `SPILLS_PER_GROWTH` spills, bounded by [`MAX_MEMTABLE_CAP`], so
    /// sustained ingest amortizes freeze cost into fewer, larger
    /// segments. The cap schedule is a pure function of the insert
    /// sequence, and observable state never depends on the cap at all.
    pub fn with_memtable_cap(cap: usize) -> Archive {
        Archive {
            memtable_cap: cap.max(1),
            ..Archive::from_segments(Vec::new())
        }
    }

    /// Rebuilds an archive from frozen segments (e.g. a decoded
    /// checkpoint), its cap starting at [`DEFAULT_MEMTABLE_CAP`].
    /// Segments must be pairwise disjoint, as produced by
    /// [`Archive::segments`] after a freeze. Bloom filters are rebuilt
    /// from the segment contents, so a restored archive prunes exactly
    /// like the one that was flushed.
    pub fn from_segments(segments: Vec<CompactSet>) -> Archive {
        let blooms = segments.iter().map(Bloom::for_segment).collect();
        let front = front_filter(&segments);
        Archive {
            memtable: Memtable::default(),
            segments,
            blooms,
            front,
            memtable_cap: DEFAULT_MEMTABLE_CAP,
            spills_at_cap: 0,
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
        if self.memtable.contains(&a) {
            return true;
        }
        let mut probes = BloomStats::default();
        let found = self.in_segments(a, &mut probes);
        self.bloom_candidates
            .fetch_add(probes.candidates, Ordering::Relaxed);
        self.bloom_pruned
            .fetch_add(probes.pruned, Ordering::Relaxed);
        found
    }

    /// Segment-side membership, counting filter verdicts into `probes`:
    /// the front filter first, then per segment the O(1) min/max
    /// bounds and the segment's bloom; only a segment none of them rules
    /// out pays the fence binary search. The key is hashed once.
    fn in_segments(&self, a: u128, probes: &mut BloomStats) -> bool {
        let Some(front) = &self.front else {
            return false;
        };
        let h = bloom::hashes(a);
        probes.candidates += 1;
        if !front.may_contain_hashed(h) {
            probes.pruned += 1;
            return false;
        }
        self.segments.iter().zip(&self.blooms).any(|(s, b)| {
            let in_bounds = s.bounds_u128().is_some_and(|(lo, hi)| lo <= a && a <= hi);
            if !in_bounds {
                return false;
            }
            probes.candidates += 1;
            if !b.may_contain_hashed(h) {
                probes.pruned += 1;
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
        if self.memtable.contains(&a) {
            return false;
        }
        let mut probes = BloomStats::default();
        let archived = self.in_segments(a, &mut probes);
        *self.bloom_candidates.get_mut() += probes.candidates;
        *self.bloom_pruned.get_mut() += probes.pruned;
        if archived {
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
    /// sorted once — and leaves every existing segment untouched. The
    /// run is added to the front filter, unless the frozen length
    /// crossed a power of two: then the filter is rebuilt at the new
    /// size from every segment (amortized O(1) per address).
    /// Compaction then merges only a *full size class*: segments are
    /// bucketed by the power of two covering their length, and when a
    /// class holds [`DEFAULT_FANOUT`] segments they are k-way merged into one
    /// (which lands in a higher class and may cascade). Each address is
    /// re-encoded once per tier level rather than on every fanout-th
    /// spill, at the cost of keeping `O(fanout · log n)` resident
    /// segments instead of fanout. Segments remain pairwise disjoint
    /// (a merge of disjoint sets is disjoint from the rest), and the
    /// schedule depends only on the insert sequence.
    pub fn freeze(&mut self) {
        if !self.memtable.is_empty() {
            let frozen: usize = self.segments.iter().map(CompactSet::len).sum();
            let mut v: Vec<u128> = self.memtable.drain().collect();
            v.sort_unstable();
            let same_size = frozen.next_power_of_two() == (frozen + v.len()).next_power_of_two();
            let seg = CompactSet::from_sorted(v.iter().copied());
            self.blooms.push(Bloom::for_segment(&seg));
            self.segments.push(seg);
            match &mut self.front {
                Some(front) if same_size => v.iter().for_each(|&a| front.insert(a)),
                _ => self.front = front_filter(&self.segments),
            }
            if self.memtable_cap < MAX_MEMTABLE_CAP {
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

    /// The smallest size class currently holding at least
    /// [`DEFAULT_FANOUT`] segments, if any.
    fn full_size_class(&self) -> Option<u32> {
        let mut counts = std::collections::BTreeMap::<u32, usize>::new();
        for s in &self.segments {
            *counts.entry(size_class(s.len())).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .find(|&(_, n)| n >= DEFAULT_FANOUT)
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
        let mut streams: Vec<Box<dyn Iterator<Item = u128> + '_>> = self
            .segments
            .iter()
            .map(|s| Box::new(s.iter_u128()) as Box<dyn Iterator<Item = u128> + '_>)
            .collect();
        streams.push(Box::new(mem.into_iter()));
        KWayMerge::new(streams).map(Ipv6Addr::from)
    }

    /// A single [`CompactSet`] with the archive's full contents.
    pub fn to_compact(&self) -> CompactSet {
        CompactSet::from_sorted(self.iter().map(u128::from))
    }

    /// Resident heap bytes across memtable, segments, and bloom
    /// filters (the front filter included).
    pub fn heap_bytes(&self) -> usize {
        self.memtable.capacity() * (std::mem::size_of::<u128>() + 1)
            + self
                .segments
                .iter()
                .map(CompactSet::heap_bytes)
                .sum::<usize>()
            + self.blooms.iter().map(Bloom::heap_bytes).sum::<usize>()
            + self.front.as_ref().map_or(0, Bloom::heap_bytes)
    }
}

/// The front filter over `segments`: every address, in a [`Bloom`] sized
/// for the smallest power of two covering their total length; `None`
/// when they hold nothing.
fn front_filter(segments: &[CompactSet]) -> Option<Bloom> {
    let n: usize = segments.iter().map(CompactSet::len).sum();
    (n > 0).then(|| {
        let mut front = Bloom::with_capacity(n.next_power_of_two());
        for a in segments.iter().flat_map(CompactSet::iter_u128) {
            front.insert(a);
        }
        front
    })
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
        // agree on every observable; `small`'s 166 runs of three cascade.
        let addrs: Vec<Ipv6Addr> = (0..500u128).map(|i| addr(i * 7919)).collect();
        let mut small = Archive::with_memtable_cap(3);
        let mut big = Archive::with_memtable_cap(1 << 20);
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(small.insert(a), big.insert(a));
            if i % 3 == 2 {
                small.freeze();
            }
        }
        assert!(small.segments().len() < 166 / DEFAULT_FANOUT);
        assert_eq!(small.len(), big.len());
        assert_eq!(
            small.iter().collect::<Vec<_>>(),
            big.iter().collect::<Vec<_>>()
        );
        assert_eq!(small.to_compact(), big.to_compact());
        assert!(no_size_class_is_full(&small));
    }

    /// The compaction invariant: after a freeze, every power-of-two
    /// size class holds fewer than [`DEFAULT_FANOUT`] segments.
    fn no_size_class_is_full(ar: &Archive) -> bool {
        let mut counts = std::collections::BTreeMap::<u32, usize>::new();
        for s in ar.segments() {
            *counts.entry(size_class(s.len())).or_insert(0) += 1;
        }
        counts.values().all(|&n| n < DEFAULT_FANOUT)
    }

    #[test]
    fn tiered_compaction_keeps_segments_bounded_and_disjoint() {
        let mut ar = Archive::with_memtable_cap(4);
        for i in 0..1000u128 {
            assert!(ar.insert(addr(i * 2_654_435_761)));
            if i % 4 == 3 {
                ar.freeze();
            }
        }
        // Size-tiered bound: no class full, so the resident count stays
        // O(fanout · log n) — here 250 runs of four, frozen whatever the
        // cap has grown to, collapse to a handful: 32s cascade into 256s.
        assert!(no_size_class_is_full(&ar));
        assert!(ar.segments().len() < 250 / DEFAULT_FANOUT);
        let longest = ar.segments().iter().map(CompactSet::len).max();
        assert!(longest >= Some(4 * DEFAULT_FANOUT * DEFAULT_FANOUT));
        assert_eq!(ar.segments().len(), ar.blooms.len());
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
        // A freeze after every 64th insert: the runs compact, so the
        // filters are dropped and rebuilt along with their segments.
        let mut ar = Archive::with_memtable_cap(64);
        for i in 0..5_000u128 {
            ar.insert(addr(i * 2_654_435_761));
            if i % 64 == 63 {
                ar.freeze();
            }
        }
        ar.freeze();
        let longest = ar.segments().iter().map(CompactSet::len).max();
        assert!(longest >= Some(64 * DEFAULT_FANOUT * DEFAULT_FANOUT));
        let rebuilt: Vec<Bloom> = ar.segments().iter().map(Bloom::for_segment).collect();
        assert_eq!(ar.blooms, rebuilt);
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
        // A restored archive rebuilds identical filters, the front one
        // included.
        ar.freeze();
        let restored = Archive::from_segments(ar.segments().to_vec());
        assert_eq!(restored.blooms, ar.blooms);
        assert!(ar.front.is_some());
        assert_eq!(restored.front, ar.front);
        // The front filter is a function of the frozen contents alone:
        // extended over many spills (and rebuilt whenever the frozen
        // length passed a power of two) or built in one spill, it ends
        // up bit-identical.
        let mut small = Archive::with_memtable_cap(3);
        let mut big = Archive::with_memtable_cap(1 << 20);
        for i in 0..1_000u128 {
            small.insert(addr(i * 7919));
            big.insert(addr(i * 7919));
        }
        small.freeze();
        big.freeze();
        assert!(small.segments().len() > 1);
        assert_eq!(big.segments().len(), 1);
        assert_eq!(small.front, big.front);
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
        // A restored archive grows the same way: a study's spill
        // schedule does not depend on whether it was ever checkpointed.
        let mut restored = Archive::from_segments(ar.segments().to_vec());
        for s in 0..SPILLS_PER_GROWTH as u128 {
            restored.memtable.insert(5000 + s);
            restored.freeze();
        }
        assert_eq!(restored.memtable_cap, DEFAULT_MEMTABLE_CAP * 2);
    }
}
