//! [`CompactSet`]: an immutable, sorted IPv6 address set stored as
//! delta-encoded blocks behind a fence-pointer index.
//!
//! # Layout
//!
//! Addresses are sorted as `u128` and cut into blocks of at most
//! [`BLOCK_CAP`] entries. A block stores its first address raw (16
//! little-endian bytes) followed by LEB128 varints of the strictly
//! positive deltas between consecutive addresses. One `Fence` per
//! block — `(first, last, count, byte offset)` — lives in a parallel
//! vector, so `contains` is a binary search over fences plus a decode of
//! at most one block, and ordered iteration is a straight walk of the
//! byte stream.
//!
//! Because the representation is sorted, set algebra (union,
//! difference, overlap counting) streams over decoded iterators with
//! two-pointer / k-way merges — no intermediate `HashSet` is ever
//! materialized. Masked network views (`/48`s, `/64`s, …) fall out of
//! the same property: masking low bits preserves `u128` order, so
//! distinct-network counting is a run-length pass over one sorted
//! stream.

use crate::codec;
use std::net::Ipv6Addr;
use v6addr::AddrSet;

/// Maximum addresses per delta block.
pub const BLOCK_CAP: usize = 256;

/// Per-block index entry: everything `contains` needs to decide whether
/// to decode the block at `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fence {
    pub(crate) first: u128,
    pub(crate) last: u128,
    pub(crate) count: u32,
    pub(crate) offset: u32,
}

/// An immutable sorted set of IPv6 addresses in delta-block encoding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactSet {
    pub(crate) fences: Vec<Fence>,
    pub(crate) data: Vec<u8>,
    pub(crate) len: usize,
}

/// The netmask for a prefix length, as high bits of a `u128`.
pub(crate) fn mask(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - u32::from(len.min(128)))
    }
}

impl CompactSet {
    /// The empty set.
    pub fn new() -> CompactSet {
        CompactSet::default()
    }

    /// Builds a set from a **non-decreasing** stream of `u128`
    /// addresses; duplicates are dropped.
    ///
    /// # Panics
    ///
    /// Panics if the stream decreases — sortedness is the structural
    /// invariant everything else relies on. Use the `FromIterator`
    /// impls for unsorted input.
    pub fn from_sorted(iter: impl IntoIterator<Item = u128>) -> CompactSet {
        fn start_block(fences: &mut Vec<Fence>, data: &mut Vec<u8>, first: u128) {
            fences.push(Fence {
                first,
                last: first,
                count: 1,
                offset: u32::try_from(data.len()).expect("segment data exceeds 4 GiB"),
            });
            data.extend_from_slice(&first.to_le_bytes());
        }

        let mut fences: Vec<Fence> = Vec::new();
        let mut data: Vec<u8> = Vec::new();
        let mut len = 0usize;
        let mut prev: Option<u128> = None;
        let mut in_block = 0usize;
        for a in iter {
            match prev {
                Some(p) if a < p => panic!("CompactSet::from_sorted: input decreased"),
                Some(p) if a == p => continue,
                Some(p) => {
                    if in_block == BLOCK_CAP {
                        start_block(&mut fences, &mut data, a);
                        in_block = 1;
                    } else {
                        codec::put_varint(&mut data, a - p);
                        let f = fences.last_mut().expect("open block");
                        f.last = a;
                        f.count += 1;
                        in_block += 1;
                    }
                }
                None => {
                    start_block(&mut fences, &mut data, a);
                    in_block = 1;
                }
            }
            len += 1;
            prev = Some(a);
        }
        // The set is immutable from here on: return the doubling
        // growth slack so `heap_bytes` reflects what is actually kept
        // resident.
        data.shrink_to_fit();
        fences.shrink_to_fit();
        CompactSet { fences, data, len }
    }

    /// Number of addresses in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resident heap bytes of the encoded set: data buffer + fence
    /// index.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() + self.fences.capacity() * std::mem::size_of::<Fence>()
    }

    /// Smallest and largest address in the set as raw integers, `None`
    /// when empty — O(1) off the fence index. Callers holding many
    /// disjoint sets (e.g. [`Archive`](crate::Archive) segments) use
    /// this to skip whole segments before the per-set binary search.
    pub fn bounds_u128(&self) -> Option<(u128, u128)> {
        Some((self.fences.first()?.first, self.fences.last()?.last))
    }

    /// Membership test: binary search over fences, then decode at most
    /// one block.
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        self.contains_u128(u128::from(addr))
    }

    /// [`CompactSet::contains`] on the raw integer form.
    pub fn contains_u128(&self, a: u128) -> bool {
        let i = self.fences.partition_point(|f| f.first <= a);
        let Some(f) = i.checked_sub(1).and_then(|i| self.fences.get(i)) else {
            return false;
        };
        if a > f.last {
            return false;
        }
        if a == f.first || a == f.last {
            return true;
        }
        let mut pos = f.offset as usize + 16;
        let mut cur = f.first;
        for _ in 1..f.count {
            cur += read_delta(&self.data, &mut pos);
            if cur >= a {
                return cur == a;
            }
        }
        false
    }

    /// Ordered iteration over the raw `u128` address stream.
    pub fn iter_u128(&self) -> BlockIter<'_> {
        BlockIter {
            set: self,
            block: 0,
            emitted: 0,
            pos: 0,
            cur: 0,
        }
    }

    /// Ordered (ascending) iteration over the addresses.
    pub fn iter(&self) -> impl Iterator<Item = Ipv6Addr> + '_ {
        self.iter_u128().map(Ipv6Addr::from)
    }

    /// Streaming k-way union of any number of sets.
    pub fn union_all(sets: &[&CompactSet]) -> CompactSet {
        CompactSet::from_sorted(KWayMerge::new(sets.iter().map(|s| s.iter_u128()).collect()))
    }

    /// Streaming two-set union.
    pub fn union(&self, other: &CompactSet) -> CompactSet {
        CompactSet::union_all(&[self, other])
    }

    /// Streaming difference (`self \ other`).
    pub fn difference(&self, other: &CompactSet) -> CompactSet {
        let mut rhs = other.iter_u128().peekable();
        CompactSet::from_sorted(self.iter_u128().filter(move |&a| {
            while rhs.next_if(|&b| b < a).is_some() {}
            rhs.peek() != Some(&a)
        }))
    }

    /// Number of addresses present in both sets, without materializing
    /// the intersection: the mirror of [`difference`](CompactSet::difference).
    pub fn overlap_count(&self, other: &CompactSet) -> usize {
        let mut rhs = other.iter_u128().peekable();
        self.iter_u128()
            .filter(|&a| {
                while rhs.next_if(|&b| b < a).is_some() {}
                rhs.peek() == Some(&a)
            })
            .count()
    }

    /// Run-length group-by over the masked sorted stream: one
    /// `(network, address count)` pair per distinct masked network, in
    /// ascending network order.
    pub fn masked_counts(&self, len: u8) -> impl Iterator<Item = (u128, u64)> + '_ {
        let m = mask(len);
        let mut it = self.iter_u128().map(move |a| a & m).peekable();
        std::iter::from_fn(move || {
            let net = it.next()?;
            let mut count = 1u64;
            while it.next_if(|&x| x == net).is_some() {
                count += 1;
            }
            Some((net, count))
        })
    }
}

impl FromIterator<u128> for CompactSet {
    fn from_iter<I: IntoIterator<Item = u128>>(iter: I) -> CompactSet {
        let mut v: Vec<u128> = iter.into_iter().collect();
        v.sort_unstable();
        CompactSet::from_sorted(v)
    }
}

/// One sort of the table's unordered view, then
/// [`CompactSet::from_sorted`]: the same bytes as building from
/// [`AddrSet::iter`], which sorts a copy of its own first.
impl From<&AddrSet> for CompactSet {
    fn from(set: &AddrSet) -> CompactSet {
        set.raw().collect()
    }
}

impl FromIterator<Ipv6Addr> for CompactSet {
    fn from_iter<I: IntoIterator<Item = Ipv6Addr>>(iter: I) -> CompactSet {
        iter.into_iter().map(u128::from).collect()
    }
}

/// Ordered decoder over a [`CompactSet`]'s blocks.
#[derive(Debug, Clone)]
pub struct BlockIter<'a> {
    set: &'a CompactSet,
    block: usize,
    emitted: u32,
    pos: usize,
    cur: u128,
}

impl Iterator for BlockIter<'_> {
    type Item = u128;

    fn next(&mut self) -> Option<u128> {
        loop {
            let f = self.set.fences.get(self.block)?;
            if self.emitted == 0 {
                self.pos = f.offset as usize + 16;
                self.cur = f.first;
                self.emitted = 1;
                return Some(self.cur);
            }
            if self.emitted == f.count {
                self.block += 1;
                self.emitted = 0;
                continue;
            }
            self.cur += read_delta(&self.set.data, &mut self.pos);
            self.emitted += 1;
            return Some(self.cur);
        }
    }

    /// Finishes the open block, then walks whole blocks in a tight loop:
    /// `count`, `sum`, `for_each` and the adapters built on them skip
    /// `next`'s per-address state machine.
    fn fold<B, F: FnMut(B, u128) -> B>(mut self, init: B, mut f: F) -> B {
        let (fences, data) = (&self.set.fences, &self.set.data[..]);
        let mut acc = init;
        if self.emitted > 0 {
            if let Some(fence) = fences.get(self.block) {
                for _ in self.emitted..fence.count {
                    self.cur += read_delta(data, &mut self.pos);
                    acc = f(acc, self.cur);
                }
            }
            self.block += 1;
        }
        for fence in fences.get(self.block..).unwrap_or_default() {
            let (mut pos, mut cur) = (fence.offset as usize + 16, fence.first);
            acc = f(acc, cur);
            for _ in 1..fence.count {
                cur += read_delta(data, &mut pos);
                acc = f(acc, cur);
            }
        }
        acc
    }
}

/// The continuation bit of each byte lane of a `u128`.
const CONTINUATION: u128 = 0x8080_8080_8080_8080_8080_8080_8080_8080;
/// The low half of each 16-, 32- and 64-bit lane of a `u128`.
const LOW_8_OF_16: u128 = 0x00ff_00ff_00ff_00ff_00ff_00ff_00ff_00ff;
const LOW_16_OF_32: u128 = 0x0000_ffff_0000_ffff_0000_ffff_0000_ffff;
const LOW_32_OF_64: u128 = 0x0000_0000_ffff_ffff_0000_0000_ffff_ffff;

/// Decodes the LEB128 delta at `data[*pos..]`, advancing `pos`.
///
/// The fast path loads 16 bytes at once, finds the stop byte (the
/// lowest lane whose continuation bit is clear), drops the bytes past
/// it and the continuation bits, and squeezes the 7-bit groups together
/// in four mask-and-shift steps over lanes of 16, 32, 64 and 128 bits.
/// Fewer than 16 bytes left, or no stop byte among them (a delta above
/// 112 bits), falls back to the checked [`codec::read_varint`]. Only
/// validated blocks reach this decoder: untrusted bytes go through
/// `codec::read_varint` alone.
#[inline]
fn read_delta(data: &[u8], pos: &mut usize) -> u128 {
    if let Some(chunk) = data.get(*pos..*pos + 16) {
        let w = u128::from_le_bytes(chunk.try_into().expect("a 16-byte chunk"));
        let stops = !w & CONTINUATION;
        if stops != 0 {
            let stop_bit = stops.trailing_zeros();
            *pos += (stop_bit as usize + 1) / 8;
            let x = w & (u128::MAX >> (127 - stop_bit)) & !CONTINUATION;
            let x = (x & LOW_8_OF_16) | ((x & !LOW_8_OF_16) >> 1);
            let x = (x & LOW_16_OF_32) | ((x & !LOW_16_OF_32) >> 2);
            let x = (x & LOW_32_OF_64) | ((x & !LOW_32_OF_64) >> 4);
            return (x & u128::from(u64::MAX)) | ((x >> 64) << 56);
        }
    }
    codec::read_varint(data, pos).expect("validated block decodes")
}

/// Streaming k-way merge of sorted streams. Each distinct value is
/// yielded once: streams tied at the minimum all advance together
/// (every input is a set, so duplicates only occur *across* streams).
///
/// A min-heap over the stream heads makes each step O(log k) instead of
/// the O(k) min-scan over all heads — the difference shows on archive
/// compaction and ordered iteration, which merge every segment at once.
pub(crate) struct KWayMerge<I> {
    /// Min-heap of `(head value, stream index)`; a stream is absent
    /// once exhausted.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u128, usize)>>,
    iters: Vec<I>,
}

impl<I: Iterator<Item = u128>> KWayMerge<I> {
    pub(crate) fn new(mut iters: Vec<I>) -> KWayMerge<I> {
        let heap = iters
            .iter_mut()
            .enumerate()
            .filter_map(|(i, it)| it.next().map(|v| std::cmp::Reverse((v, i))))
            .collect();
        KWayMerge { heap, iters }
    }

    /// Replaces the top stream's head with its next one in place (one
    /// sift-down instead of a pop and a push), or drops an exhausted
    /// stream.
    fn advance(&mut self) {
        let mut top = self.heap.peek_mut().expect("advance on non-empty heap");
        let std::cmp::Reverse((_, i)) = *top;
        match self.iters[i].next() {
            Some(v) => *top = std::cmp::Reverse((v, i)),
            None => {
                std::collections::binary_heap::PeekMut::pop(top);
            }
        }
    }
}

impl<I: Iterator<Item = u128>> Iterator for KWayMerge<I> {
    type Item = u128;

    fn next(&mut self) -> Option<u128> {
        let std::cmp::Reverse((min, _)) = *self.heap.peek()?;
        self.advance();
        // Coalesce streams tied at the minimum.
        while let Some(&std::cmp::Reverse((v, _))) = self.heap.peek() {
            if v != min {
                break;
            }
            self.advance();
        }
        Some(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn set_of(addrs: &[u128]) -> CompactSet {
        addrs.iter().copied().collect()
    }

    /// `overlap_count` against the `BTreeSet` intersection and against
    /// what `difference` leaves out, both ways round.
    fn check_overlap(a: &BTreeSet<u128>, b: &BTreeSet<u128>) {
        let (ca, cb): (CompactSet, CompactSet) =
            (a.iter().copied().collect(), b.iter().copied().collect());
        let want = a.intersection(b).count();
        assert_eq!(ca.overlap_count(&cb), want);
        assert_eq!(cb.overlap_count(&ca), want);
        assert_eq!(ca.overlap_count(&cb), ca.len() - ca.difference(&cb).len());
    }

    proptest! {
        #[test]
        fn overlap_count_matches_btreeset_intersection(
            a in proptest::collection::btree_set(0u128..600, 0..400),
            b in proptest::collection::btree_set(0u128..600, 0..400),
        ) {
            check_overlap(&a, &b);
        }
    }

    /// `read_delta` against `codec::read_varint` on one encoding of `v`
    /// behind `lead` bytes and ahead of `tail` trailing bytes: the same
    /// value, the same end position.
    fn check_delta(v: u128, lead: usize, tail: &[u8]) {
        let mut buf = vec![0xa5; lead];
        codec::put_varint(&mut buf, v);
        let end = buf.len();
        buf.extend_from_slice(tail);
        let (mut fast, mut checked) = (lead, lead);
        assert_eq!(read_delta(&buf, &mut fast), v, "{v:#x} tail {}", tail.len());
        assert_eq!(codec::read_varint(&buf, &mut checked).ok(), Some(v));
        assert_eq!((fast, checked), (end, end), "{v:#x} tail {}", tail.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        /// Every encoding length from 1 to 19 bytes (the shift spreads
        /// the values over all bit widths), with 0–20 trailing bytes so
        /// that varints starting in the buffer's last 15 bytes take the
        /// fallback and the rest the 16-byte load.
        #[test]
        fn fast_delta_decode_matches_read_varint(
            v in any::<u128>(),
            shift in 0u32..128,
            lead in 0usize..24,
            tail in proptest::collection::vec(any::<u8>(), 0..21),
        ) {
            check_delta(v >> shift, lead, &tail);
        }
    }

    #[test]
    fn fast_delta_decode_at_every_width_and_buffer_end() {
        for bits in 0..=128u32 {
            let top = u128::MAX >> (128 - bits.max(1));
            for v in [top, top >> 1, 1u128 << bits.min(127), 0] {
                for tail in 0..=16 {
                    check_delta(v, 3, &vec![0xff; tail]);
                }
            }
        }
    }

    /// `fold` after `nth(k)` yields what `next` would have: from the
    /// start, mid-block, at either side of a block edge, at the end and
    /// past it.
    #[test]
    fn fold_resumes_where_next_left_off() {
        let addrs: Vec<u128> = (0..(BLOCK_CAP as u128 * 3 + 7))
            .map(|i| i * i * 977 + (i << 70))
            .collect();
        let set = set_of(&addrs);
        let cap = BLOCK_CAP;
        for k in [
            0,
            1,
            100,
            cap - 2,
            cap - 1,
            cap,
            cap + 1,
            2 * cap,
            addrs.len() - 1,
            addrs.len(),
            addrs.len() + 5,
        ] {
            let mut it = set.iter_u128();
            assert_eq!(it.nth(k), addrs.get(k).copied(), "nth({k})");
            let mut by_next = it.clone();
            let want: Vec<u128> = std::iter::from_fn(|| by_next.next()).collect();
            let got = it.fold(Vec::new(), |mut v, a| {
                v.push(a);
                v
            });
            assert_eq!(got, want, "after nth({k})");
            assert_eq!(
                got,
                addrs.get(k + 1..).unwrap_or_default(),
                "after nth({k})"
            );
        }
        assert_eq!(set.iter_u128().fold(0, |n, _| n + 1), addrs.len());
    }

    #[test]
    fn from_addr_set_is_the_sorted_build() {
        let mut feed = paper_shaped_feed();
        feed.extend(edge_addresses());
        let table: AddrSet = feed.iter().map(|&a| Ipv6Addr::from(a)).collect();
        let want: CompactSet = table.iter().collect();
        assert_eq!(CompactSet::from(&table), want);
        assert_eq!(CompactSet::from(&AddrSet::new()), CompactSet::new());
    }

    #[test]
    fn overlap_count_of_empty_disjoint_and_equal_sets() {
        let empty = BTreeSet::new();
        let some: BTreeSet<u128> = edge_addresses().into_iter().collect();
        let shifted: BTreeSet<u128> = some.iter().map(|a| a ^ (1 << 70)).collect();
        assert!(some.is_disjoint(&shifted));
        for (a, b) in [
            (&empty, &empty),
            (&some, &empty),
            (&empty, &some),
            (&some, &shifted),
            (&some, &some),
        ] {
            check_overlap(a, b);
        }
    }

    #[test]
    fn bounds_come_from_the_fence_index() {
        assert_eq!(CompactSet::new().bounds_u128(), None);
        let one = set_of(&[42]);
        assert_eq!(one.bounds_u128(), Some((42, 42)));
        // More than one block, so first and last live in different fences.
        let many: Vec<u128> = (0..(BLOCK_CAP as u128 * 3 + 7))
            .map(|i| i * 11 + 5)
            .collect();
        let set = set_of(&many);
        assert!(set.fences.len() > 1);
        assert_eq!(
            set.bounds_u128(),
            Some((many[0], *many.last().expect("non-empty")))
        );
    }

    /// The edge patterns the satellite task names: `::`, `ff..ff`,
    /// dense /64 runs, and EUI-64-style IIDs.
    fn edge_addresses() -> Vec<u128> {
        let mut v = vec![0u128, u128::MAX, u128::MAX - 1, 1, 2];
        // Dense run inside one /64.
        let base = 0x2001_0db8_0001_0002_u128 << 64;
        for i in 0..600u128 {
            v.push(base | i);
        }
        // EUI-64 IIDs: OUI | fffe | NIC, universal/local bit flipped.
        for nic in [0u128, 0x1234, 0xff_ffff] {
            v.push(base | (0x0290_a9ff_fe00_0000 + nic));
        }
        // Sparse high addresses.
        v.push(0xfe80_u128 << 112);
        v.push(0xff02_u128 << 112 | 1);
        v
    }

    #[test]
    fn roundtrip_edge_patterns() {
        let mut addrs = edge_addresses();
        let set: CompactSet = addrs.iter().copied().collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(set.len(), addrs.len());
        let decoded: Vec<u128> = set.iter_u128().collect();
        assert_eq!(decoded, addrs);
        for &a in &addrs {
            assert!(set.contains_u128(a), "missing {a:#x}");
        }
        assert!(!set.contains_u128(3));
        assert!(!set.contains_u128(u128::MAX - 2));
        // Spills into multiple blocks.
        assert!(set.fences.len() > 1);
    }

    #[test]
    fn empty_and_single() {
        let empty = CompactSet::new();
        assert!(empty.is_empty());
        assert_eq!(empty.iter_u128().count(), 0);
        assert!(!empty.contains_u128(0));
        let one = set_of(&[42]);
        assert_eq!(one.len(), 1);
        assert!(one.contains_u128(42));
        assert!(!one.contains_u128(41));
    }

    #[test]
    fn from_sorted_dedups() {
        let set = CompactSet::from_sorted([1u128, 1, 2, 2, 2, 9]);
        assert_eq!(set.len(), 3);
        assert_eq!(set.iter_u128().collect::<Vec<_>>(), vec![1, 2, 9]);
    }

    #[test]
    #[should_panic(expected = "input decreased")]
    fn from_sorted_rejects_unsorted() {
        let _ = CompactSet::from_sorted([5u128, 3]);
    }

    #[test]
    fn set_algebra() {
        let a = set_of(&[1, 2, 3, 10, 20]);
        let b = set_of(&[2, 3, 4, 20, 30]);
        assert_eq!(
            a.union(&b).iter_u128().collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 10, 20, 30]
        );
        assert_eq!(
            a.difference(&b).iter_u128().collect::<Vec<_>>(),
            vec![1, 10]
        );
        assert_eq!(a.overlap_count(&b), 3);
        assert_eq!(CompactSet::union_all(&[&a, &b, &set_of(&[99])]).len(), 8);
    }

    #[test]
    fn kway_merge_handles_ties_and_empty_streams() {
        // Ties across many streams collapse to one occurrence; empty
        // streams neither stall nor contribute.
        let a = set_of(&[1, 5, 9]);
        let b = set_of(&[1, 5, 9]);
        let c = set_of(&[5]);
        let empty = CompactSet::new();
        let merged: Vec<u128> = KWayMerge::new(vec![
            a.iter_u128(),
            empty.iter_u128(),
            b.iter_u128(),
            c.iter_u128(),
            empty.iter_u128(),
        ])
        .collect();
        assert_eq!(merged, vec![1, 5, 9]);
        // All streams empty ⇒ merge is immediately exhausted.
        let mut none = KWayMerge::new(vec![empty.iter_u128(), empty.iter_u128()]);
        assert_eq!(none.next(), None);
        // No streams at all.
        assert_eq!(KWayMerge::<BlockIter>::new(Vec::new()).next(), None);
        // Interleaved, partially overlapping streams of uneven length.
        let x = set_of(&[0, 2, 4, 6, 8, 100]);
        let y = set_of(&[1, 2, 3, 4]);
        let merged: Vec<u128> = KWayMerge::new(vec![x.iter_u128(), y.iter_u128()]).collect();
        assert_eq!(merged, vec![0, 1, 2, 3, 4, 6, 8, 100]);
        // Matches union_all through the public API.
        assert_eq!(
            CompactSet::union_all(&[&x, &y])
                .iter_u128()
                .collect::<Vec<_>>(),
            merged
        );
    }

    #[test]
    fn network_views() {
        let p48 = |hi: u128, lo: u128| (hi << 80) | lo;
        let a = set_of(&[p48(1, 1), p48(1, 2), p48(2, 1), p48(3, 1)]);
        let counts: Vec<u64> = a.masked_counts(48).map(|(_, c)| c).collect();
        assert_eq!(counts, vec![2, 1, 1]);
        // len = 0 masks everything into one network.
        assert_eq!(a.masked_counts(0).count(), 1);
    }

    /// The collected population in miniature (Figure 1): 30 % privacy
    /// addresses (random IIDs), 20 % EUI-64 under eight vendor OUIs, 50 %
    /// small-integer IIDs, over 16 × 16 /64s so sorted deltas cluster the
    /// way per-network populations do. Duplicates included, like a feed
    /// replayed across prefix rotations.
    fn paper_shaped_feed() -> Vec<u128> {
        const OUIS: [u64; 8] = [
            0x3c_a62f, 0xcc_ce1e, 0x98_9bcb, 0x00_1f3f, 0xb8_27eb, 0x28_9e97, 0x74_42a1, 0x5c_4979,
        ];
        // A splitmix64 stream.
        let mut state = 0x0053_544f_5245_u64;
        let mut next = move || {
            let x = v6addr::hash::splitmix64(state);
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            x
        };
        (0..100_000)
            .map(|_| {
                let r = next();
                let net = (0x2a00 + u128::from(r % 16)) << 112 | u128::from((r >> 8) % 16) << 64;
                let iid = match r % 10 {
                    0..=2 => next(),
                    // ff:fe stuffing and the u-bit flipped.
                    3 | 4 => {
                        let oui = OUIS[(r >> 4) as usize % OUIS.len()] ^ 0x02_0000;
                        oui << 40 | 0xfffe << 24 | next() & 0xff_ffff
                    }
                    _ => (r >> 16) & 0x0fff,
                };
                net | u128::from(iid)
            })
            .collect()
    }

    #[test]
    fn compact_beats_hashset_on_dense_runs() {
        let base = 0x2001_0db8_u128 << 96;
        let dense: Vec<u128> = (0..10_000u128).map(|i| base | (i * 3)).collect();
        for addrs in [dense, paper_shaped_feed()] {
            let hashset: std::collections::HashSet<u128> = addrs.iter().copied().collect();
            let hs_bytes = hashset.capacity() * (std::mem::size_of::<u128>() + 1);
            let set: CompactSet = addrs.iter().copied().collect();
            let mut archive = crate::Archive::new();
            for &a in &addrs {
                archive.insert(Ipv6Addr::from(a));
            }
            // In the form a checkpoint restores it: one segment.
            let archive = crate::Archive::from_segments(vec![archive.to_compact()]);
            assert_eq!(archive.len(), hashset.len());
            // The archive adds a bloom byte per address to the set's ~4;
            // against a table this close to its resize point (86 % load
            // on the paper feed) that is 3.8x, not 4x.
            for (what, bytes, fraction) in [
                ("CompactSet", set.heap_bytes(), 4),
                ("restored Archive", archive.heap_bytes(), 3),
            ] {
                assert!(
                    bytes * fraction <= hs_bytes,
                    "{what} {bytes} B exceeds 1/{fraction} of the HashSet baseline {hs_bytes} B"
                );
            }
        }
    }
}
