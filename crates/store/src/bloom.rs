//! Blocked bloom filters for [`Archive`](crate::Archive) lookups.
//!
//! Min/max bounds pruning helps little once segments span the address
//! space — a compacted archive's largest segment covers nearly every
//! probe, so most misses would still pay a fence binary search per
//! segment. A bloom filter answers "definitely not here" in one
//! cache-line probe with no false negatives. The archive keeps two
//! kinds: one per segment, sized for that segment, and one front
//! filter over every frozen address, sized for the smallest power of
//! two covering them, so a first sight is usually ruled out by a single
//! probe however many segments there are.
//!
//! The filter is a **blocked** bloom: the table is an array of 512-bit
//! (cache-line) blocks, a key hashes to exactly one block, and all [`K`]
//! probe bits land inside it. Two consequences matter here:
//!
//! * one memory access per query instead of `K` scattered ones, and
//! * the block count is `ceil(n · BITS_PER_KEY / 512)` — **not** rounded
//!   up to a power of two. The classic pow2 table nearly doubles in the
//!   worst case (a 9.3M-key segment rounds 8.9 MiB up to 16 MiB); the
//!   blocked layout stays within one block of the 8-bits/key target,
//!   because block selection uses a modulo rather than a mask.
//!
//! The filter is a pure function of the keys inserted and the capacity
//! it was sized for: [`K`] probe bits derived by double hashing
//! (`h2 >> 9i`) from the address fold, [`v6addr::hash::fold`] — the
//! same fold the archive's memtable and every `AddrSet` hash with. A
//! lookup computes that pair once with `hashes` and hands it to every
//! filter it asks. Deterministic by construction, so archives rebuilt
//! from checkpointed segments carry bit-identical filters.

use crate::compact::CompactSet;
use v6addr::hash::{fold, splitmix64};

/// Target filter density: bits per stored address. The table size is
/// `ceil(n * BITS_PER_KEY / BLOCK_BITS)` blocks — within one cache line
/// of the target, never rounded to a power of two.
pub const BITS_PER_KEY: usize = 8;

/// Probes per query, all within one block. Blocked filters pay a small
/// fp penalty versus an unblocked table at equal density (keys collide
/// on whole blocks), so we use 5 probes where the unblocked design used
/// 4: ≈3% false positives at 8 bits/key.
pub const K: u32 = 5;

/// Bits per block: one 64-byte cache line.
const BLOCK_BITS: usize = 512;
const WORDS_PER_BLOCK: usize = BLOCK_BITS / 64;

/// The two hash bases for an address: `h1` (the fold) picks the block,
/// `h2` yields the in-block probe bits (9 bits each, shifted out per
/// probe). A lookup computes them once for every filter it asks.
#[inline]
pub(crate) fn hashes(a: u128) -> (u64, u64) {
    let h1 = fold(a);
    (h1, splitmix64(h1))
}

/// The `i`-th probe bit within a block: consecutive 9-bit windows of
/// `h2`, wrapping into fresh splitmix output if `K` ever outgrows the
/// 64-bit budget (7 probes fit; we use [`K`]).
#[inline]
fn probe_bit(h2: u64, i: u32) -> usize {
    ((h2 >> (9 * i)) & (BLOCK_BITS as u64 - 1)) as usize
}

/// A fixed-size blocked bloom filter over `u128` addresses. No false
/// negatives; false-positive rate set by [`BITS_PER_KEY`] and [`K`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    /// Bit table: `nblocks * WORDS_PER_BLOCK` words. Not a power of two.
    words: Vec<u64>,
    /// Number of 512-bit blocks.
    nblocks: u64,
}

impl Bloom {
    /// An empty filter sized for `n` keys: `ceil(n * 8 / 512)` blocks.
    pub fn with_capacity(n: usize) -> Bloom {
        let nblocks = (n.max(1) * BITS_PER_KEY).div_ceil(BLOCK_BITS).max(1);
        Bloom {
            words: vec![0; nblocks * WORDS_PER_BLOCK],
            nblocks: nblocks as u64,
        }
    }

    /// Builds the filter for a frozen segment — a pure function of the
    /// segment's contents.
    pub fn for_segment(seg: &CompactSet) -> Bloom {
        let mut b = Bloom::with_capacity(seg.len());
        for a in seg.iter_u128() {
            b.insert(a);
        }
        b
    }

    /// Sets the key's probe bits (all within one block).
    pub fn insert(&mut self, a: u128) {
        let (h1, h2) = hashes(a);
        let base = (h1 % self.nblocks) as usize * WORDS_PER_BLOCK;
        for i in 0..K {
            let bit = probe_bit(h2, i);
            self.words[base + bit / 64] |= 1 << (bit % 64);
        }
    }

    /// `false` means the key is definitely absent; `true` means it may
    /// be present (false positives at the configured rate).
    #[cfg(test)]
    fn may_contain(&self, a: u128) -> bool {
        self.may_contain_hashed(hashes(a))
    }

    /// For a key already hashed with `hashes`: `false` means the key is
    /// definitely absent; `true` means it may be present (false
    /// positives at the configured rate).
    pub(crate) fn may_contain_hashed(&self, (h1, h2): (u64, u64)) -> bool {
        let base = (h1 % self.nblocks) as usize * WORDS_PER_BLOCK;
        (0..K).all(|i| {
            let bit = probe_bit(h2, i);
            self.words[base + bit / 64] & (1 << (bit % 64)) != 0
        })
    }

    /// Resident heap bytes of the bit table.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let keys: Vec<u128> = (0..10_000u128)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let seg = CompactSet::from_sorted({
            let mut v = keys.clone();
            v.sort_unstable();
            v
        });
        let b = Bloom::for_segment(&seg);
        for &k in &keys {
            assert!(b.may_contain(k));
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let n = 10_000u128;
        let mut b = Bloom::with_capacity(n as usize);
        for i in 0..n {
            b.insert(i.wrapping_mul(2_654_435_761));
        }
        // Probe disjoint keys; a blocked filter at 8 bits/key with 5
        // probes stays well under 5%.
        let fp = (0..n)
            .filter(|i| b.may_contain(i.wrapping_mul(2_654_435_761).wrapping_add(1)))
            .count();
        assert!(
            (fp as f64) < n as f64 * 0.05,
            "false-positive rate too high: {fp}/{n}"
        );
    }

    #[test]
    fn table_tracks_target_density_without_pow2_rounding() {
        // The old pow2 table rounded 9.3M keys * 8 bits up to 16 MiB.
        // The blocked table must stay within one block of 8 bits/key.
        for n in [1usize, 100, 65_536, 1_000_000, 9_300_000] {
            let b = Bloom::with_capacity(n);
            let target_bits = n.max(1) * BITS_PER_KEY;
            let table_bits = b.heap_bytes() * 8;
            assert!(table_bits >= target_bits, "undersized for n={n}");
            assert!(
                table_bits < target_bits + BLOCK_BITS + 64,
                "table for n={n} overshoots target: {table_bits} vs {target_bits}"
            );
        }
    }

    #[test]
    fn deterministic_across_builds() {
        let seg = CompactSet::from_sorted((0..5_000u128).map(|i| i * 97));
        assert_eq!(Bloom::for_segment(&seg), Bloom::for_segment(&seg));
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let b = Bloom::with_capacity(0);
        assert!(!b.may_contain(42));
    }
}
