//! A deduplicating hash set of addresses.
//!
//! [`AddrSet`] is the mutable set collection inserts into (per-server
//! address sets, the R&L sample, hitlist sources). Dataset-level
//! statistics — distinct /48 networks, per-network density, overlaps
//! between datasets (the paper's Table 1) — are computed on
//! `store::CompactSet`, which every analysis converts to.

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
    fn iter_is_ordered() {
        let s = set(&["2001:db8::3", "2001:db8::1", "ff::", "::1", "2001:db8::2"]);
        let via_iter: Vec<Ipv6Addr> = s.iter().collect();
        assert_eq!(via_iter, s.sorted());
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
        assert_eq!(s.iter().count(), 0);
    }
}
