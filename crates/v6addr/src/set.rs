//! A deduplicating hash set of addresses, with overlap counts.
//!
//! [`AddrSet`] is the mutable set collection inserts into (per-server
//! address sets, the R&L sample, hitlist sources). Dataset-level
//! statistics — distinct /48 networks, per-network density, overlaps
//! between datasets (the paper's Table 1) — are computed on
//! `store::CompactSet`, which every analysis converts to.

use crate::prefix::Prefix;
use std::collections::HashSet;
use std::net::Ipv6Addr;

/// A deduplicating set of IPv6 addresses.
#[derive(Debug, Clone, Default)]
pub struct AddrSet {
    addrs: HashSet<u128>,
}

impl AddrSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an address; returns `true` if it was new.
    #[inline]
    pub fn insert(&mut self, addr: Ipv6Addr) -> bool {
        self.addrs.insert(u128::from(addr))
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        self.addrs.contains(&u128::from(addr))
    }

    /// Number of distinct addresses.
    #[inline]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Iterates addresses in **ascending** order.
    ///
    /// Ordered iteration is the default on purpose: the backing store is
    /// a `HashSet`, and letting its unspecified order leak made every
    /// consumer (dataset stats, vendor rankings, hitlist filtering) a
    /// latent determinism hazard. The sort costs `O(n log n)` per call.
    pub fn iter(&self) -> impl Iterator<Item = Ipv6Addr> + '_ {
        let mut v: Vec<u128> = self.addrs.iter().copied().collect();
        v.sort_unstable();
        v.into_iter().map(Ipv6Addr::from)
    }

    /// Addresses sorted ascending (stable output for reports and tests).
    pub fn sorted(&self) -> Vec<Ipv6Addr> {
        let mut v: Vec<u128> = self.addrs.iter().copied().collect();
        v.sort_unstable();
        v.into_iter().map(Ipv6Addr::from).collect()
    }

    /// Number of addresses shared with `other`.
    pub fn overlap(&self, other: &AddrSet) -> usize {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small
            .addrs
            .iter()
            .filter(|b| large.addrs.contains(b))
            .count()
    }

    /// Number of /`len` networks shared with `other`.
    ///
    /// A single sorted-merge pass over two flat, deduplicated vectors —
    /// the old implementation materialized two full masked `HashSet`s
    /// per call, which dominated the allocation profile of Table 1's
    /// overlap rows.
    pub fn network_overlap(&self, other: &AddrSet, len: u8) -> usize {
        let mask = Prefix::netmask(len);
        let masked = |s: &AddrSet| {
            let mut v: Vec<u128> = s.addrs.iter().map(|&b| b & mask).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let (mine, theirs) = (masked(self), masked(other));
        let (mut i, mut j, mut shared) = (0, 0, 0);
        while i < mine.len() && j < theirs.len() {
            match mine[i].cmp(&theirs[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        shared
    }

    /// Union in place.
    pub fn extend_from(&mut self, other: &AddrSet) {
        self.addrs.extend(other.addrs.iter().copied());
    }
}

impl FromIterator<Ipv6Addr> for AddrSet {
    fn from_iter<I: IntoIterator<Item = Ipv6Addr>>(iter: I) -> Self {
        let mut s = AddrSet::new();
        for a in iter {
            s.insert(a);
        }
        s
    }
}

impl Extend<Ipv6Addr> for AddrSet {
    fn extend<I: IntoIterator<Item = Ipv6Addr>>(&mut self, iter: I) {
        for a in iter {
            self.insert(a);
        }
    }
}

/// Median of an iterator of counts, even-count mean convention.
pub fn median_u64<I: IntoIterator<Item = u64>>(values: I) -> Option<f64> {
    let mut v: Vec<u64> = values.into_iter().collect();
    if v.is_empty() {
        return None;
    }
    v.sort_unstable();
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2] as f64
    } else {
        (v[n / 2 - 1] as f64 + v[n / 2] as f64) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn set(addrs: &[&str]) -> AddrSet {
        addrs.iter().map(|s| a(s)).collect()
    }

    #[test]
    fn insert_dedups() {
        let mut s = AddrSet::new();
        assert!(s.insert(a("2001:db8::1")));
        assert!(!s.insert(a("2001:db8::1")));
        assert_eq!(s.len(), 1);
        assert!(s.contains(a("2001:db8::1")));
        assert!(!s.contains(a("2001:db8::2")));
    }

    #[test]
    fn median_conventions() {
        assert_eq!(median_u64([]), None);
        assert_eq!(median_u64([5]), Some(5.0));
        assert_eq!(median_u64([1, 2]), Some(1.5));
        assert_eq!(median_u64([3, 1, 2]), Some(2.0));
        assert_eq!(median_u64([708, 709, 1, 100_000]), Some(708.5));
    }

    #[test]
    fn overlap_counts() {
        let x = set(&["2001:db8:1::1", "2001:db8:2::1", "2001:db8:3::1"]);
        let y = set(&["2001:db8:2::1", "2001:db8:3::2", "2001:db8:4::1"]);
        assert_eq!(x.overlap(&y), 1);
        assert_eq!(y.overlap(&x), 1); // symmetric
        assert_eq!(x.network_overlap(&y, 48), 2); // db8:2 and db8:3
        assert_eq!(x.network_overlap(&y, 128), 1);
    }

    #[test]
    fn iter_is_ordered() {
        let s = set(&["2001:db8::3", "2001:db8::1", "ff::", "::1", "2001:db8::2"]);
        let via_iter: Vec<Ipv6Addr> = s.iter().collect();
        assert_eq!(via_iter, s.sorted());
    }

    /// Equivalence of the sorted-merge `network_overlap` against the
    /// old two-`HashSet` implementation, across prefix lengths and a
    /// pseudo-random workload.
    #[test]
    fn network_overlap_matches_hashset_reference() {
        let reference = |x: &AddrSet, y: &AddrSet, len: u8| {
            let mask = Prefix::netmask(len);
            let a: HashSet<u128> = x.iter().map(|v| u128::from(v) & mask).collect();
            let b: HashSet<u128> = y.iter().map(|v| u128::from(v) & mask).collect();
            a.intersection(&b).count()
        };
        let mut state = 0x9e37_79b9_u128;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state
        };
        let x: AddrSet = (0..300)
            .map(|_| Ipv6Addr::from(next() >> 40 << 30))
            .collect();
        let y: AddrSet = (0..300)
            .map(|_| Ipv6Addr::from(next() >> 40 << 30))
            .collect();
        for len in [0u8, 16, 32, 48, 64, 96, 128] {
            assert_eq!(
                x.network_overlap(&y, len),
                reference(&x, &y, len),
                "len {len}"
            );
            assert_eq!(x.network_overlap(&x, len), reference(&x, &x, len));
        }
    }

    #[test]
    fn extend_and_union() {
        let mut x = set(&["2001:db8::1"]);
        let y = set(&["2001:db8::1", "2001:db8::2"]);
        x.extend_from(&y);
        assert_eq!(x.len(), 2);
        x.extend([a("2001:db8::3")]);
        assert_eq!(x.len(), 3);
    }

    #[test]
    fn sorted_is_ascending_and_complete() {
        let s = set(&["2001:db8::3", "2001:db8::1", "2001:db8::2"]);
        let v = s.sorted();
        assert_eq!(
            v,
            vec![a("2001:db8::1"), a("2001:db8::2"), a("2001:db8::3")]
        );
    }

    #[test]
    fn empty_set_stats() {
        let s = AddrSet::new();
        assert!(s.is_empty());
        assert_eq!(s.overlap(&s.clone()), 0);
    }
}
