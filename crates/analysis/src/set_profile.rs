//! One decode pass per dataset: everything Table 1, Figure 1 and the
//! takeaways ask of an address set, gathered while the sorted stream is
//! read once.
//!
//! A [`SetProfile`] is a pure function of a [`CompactSet`] and the
//! [`Topology`] it is resolved against. Because the stream is ascending
//! and origin is a function of the top 32 bits, the AS (and its
//! [`AsType`]) is looked up once per /32 *run*, not once per address;
//! /48 densities fall out of the same run-length pass. The per-dataset
//! rows ([`DatasetStats`], [`AddressStructure`]) and the pairwise
//! [`OverlapStats`] are then arithmetic on profiles: medians over the
//! stored counts, shared /48s and ASes as two-pointer merges of the
//! stored key lists.

use crate::iid_dist::AddressStructure;
use crate::overlap::{DatasetStats, OverlapStats};
use netsim::peeringdb::AsType;
use netsim::topology::Topology;
use std::cmp::Ordering;
use std::net::Ipv6Addr;
use store::CompactSet;
use v6addr::set::median_u64;
use v6addr::{classify_raw, Iid, IidDistribution};

/// The group-bys of one address set, from one pass over it.
#[derive(Debug, Clone, PartialEq)]
pub struct SetProfile {
    /// Distinct addresses.
    total: u64,
    /// `(origin ASN, addresses)`, ascending by ASN, one entry per AS
    /// however many /32s it announces. Unrouted addresses have no entry.
    per_as: Vec<(u32, u64)>,
    /// Addresses whose origin AS is labelled Cable/DSL/ISP.
    eyeball: u64,
    /// `(top 48 bits, addresses)`, ascending.
    per_48: Vec<(u64, u64)>,
    /// IID class histogram.
    iid: IidDistribution,
}

impl SetProfile {
    /// Profiles `set` against `topology` in one pass.
    pub fn build(set: &CompactSet, topology: &Topology) -> SetProfile {
        let mut p = SetProfile {
            total: 0,
            per_as: Vec::new(),
            eyeball: 0,
            per_48: Vec::new(),
            iid: IidDistribution::new(),
        };
        // The open /32 run: (top 32 bits, addresses in it).
        let mut run: Option<(u32, u64)> = None;
        set.iter_u128().for_each(|a| {
            p.total += 1;
            p.iid.add_class(classify_raw(Iid(a as u64)));
            let net48 = (a >> 80) as u64;
            match p.per_48.last_mut() {
                Some((net, n)) if *net == net48 => *n += 1,
                _ => p.per_48.push((net48, 1)),
            }
            let net32 = (a >> 96) as u32;
            match &mut run {
                Some((net, n)) if *net == net32 => *n += 1,
                _ => {
                    if let Some(done) = run.replace((net32, 1)) {
                        p.close_run(done, topology);
                    }
                }
            }
        });
        if let Some(done) = run {
            p.close_run(done, topology);
        }
        // Runs arrive in address order; an AS with several /32s has
        // several. Fold them into one entry per ASN.
        p.per_as.sort_unstable_by_key(|&(asn, _)| asn);
        p.per_as.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        p
    }

    /// Resolves one finished /32 run to its AS.
    fn close_run(&mut self, (net32, count): (u32, u64), topology: &Topology) {
        let Some(asn) = topology.origin(Ipv6Addr::from(u128::from(net32) << 96)) else {
            return;
        };
        self.per_as.push((asn.0, count));
        if topology.info(asn).map(|i| i.kind) == Some(AsType::CableDslIsp) {
            self.eyeball += count;
        }
    }

    /// This dataset's column of Table 1.
    pub fn stats(&self, label: &str) -> DatasetStats {
        DatasetStats {
            label: label.to_string(),
            addresses: self.total,
            nets48: self.per_48.len() as u64,
            ases: self.per_as.len() as u64,
            median_per_48: median_u64(self.per_48.iter().map(|c| c.1)).unwrap_or(0.0),
            median_per_as: median_u64(self.per_as.iter().map(|c| c.1)).unwrap_or(0.0),
        }
    }

    /// This dataset's bars of Figure 1.
    pub fn structure(&self) -> AddressStructure {
        AddressStructure {
            iid: self.iid.clone(),
            eyeball_as_share: if self.total == 0 {
                0.0
            } else {
                self.eyeball as f64 / self.total as f64
            },
            total: self.total,
        }
    }

    /// An "⋯ overlap" row of Table 1. Shared /48s and ASes come from the
    /// two profiles; `shared_addresses` is the one number they cannot
    /// give — the caller's `CompactSet::overlap_count` of the two sets.
    pub fn overlap(&self, other: &SetProfile, shared_addresses: u64) -> OverlapStats {
        OverlapStats {
            addresses: shared_addresses,
            nets48: shared_keys(&self.per_48, &other.per_48),
            ases: shared_keys(&self.per_as, &other.per_as),
        }
    }
}

/// Number of keys present in both ascending, duplicate-free lists.
fn shared_keys<K: Ord>(a: &[(K, u64)], b: &[(K, u64)]) -> u64 {
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::country;
    use netsim::topology::{AsInfo, Asn};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashSet};
    use v6addr::IidClass;

    /// AS 1 (eyeball) announces two /32s with AS 2's (hosting) between
    /// them; AS 3 is a second eyeball network. `2a03::/32` and
    /// `3fff::/32` are unrouted.
    const BASES: [u16; 6] = [0x2a00, 0x2a01, 0x2a02, 0x2a03, 0x2600, 0x3fff];

    fn topo() -> Topology {
        let mut t = Topology::new();
        for (asn, kind, allocs) in [
            (1, AsType::CableDslIsp, vec!["2a00::/32", "2a02::/32"]),
            (2, AsType::Hosting, vec!["2a01::/32"]),
            (3, AsType::CableDslIsp, vec!["2600::/32"]),
        ] {
            t.register(AsInfo {
                asn: Asn(asn),
                kind,
                country: country::DE,
                allocations: allocs.iter().map(|p| p.parse().unwrap()).collect(),
            });
        }
        t
    }

    fn set(addrs: &[&str]) -> CompactSet {
        addrs
            .iter()
            .map(|s| s.parse::<Ipv6Addr>().unwrap())
            .collect()
    }

    /// The definitions the profile must reproduce, computed the slow
    /// way: `origin` per address, ordered-map group-bys.
    struct Naive {
        addrs: HashSet<u128>,
        per_as: BTreeMap<u32, u64>,
        per_48: BTreeMap<u64, u64>,
        eyeball: u64,
        iid: IidDistribution,
    }

    fn naive(raw: &[u128], topo: &Topology) -> Naive {
        let addrs: HashSet<u128> = raw.iter().copied().collect();
        let mut n = Naive {
            per_as: BTreeMap::new(),
            per_48: BTreeMap::new(),
            eyeball: 0,
            iid: IidDistribution::new(),
            addrs,
        };
        for &a in &n.addrs {
            let addr = Ipv6Addr::from(a);
            if let Some(asn) = topo.origin(addr) {
                *n.per_as.entry(asn.0).or_insert(0) += 1;
            }
            *n.per_48.entry((a >> 80) as u64).or_insert(0) += 1;
            let kind = topo
                .origin(addr)
                .and_then(|asn| topo.info(asn))
                .map(|i| i.kind);
            if kind == Some(AsType::CableDslIsp) {
                n.eyeball += 1;
            }
            n.iid.add(addr);
        }
        n
    }

    fn shared<K: Ord>(a: &BTreeMap<K, u64>, b: &BTreeMap<K, u64>) -> u64 {
        a.keys().filter(|k| b.contains_key(k)).count() as u64
    }

    /// Holds the profiles of `ours` and `other`, and the three row
    /// structs derived from them, to the naive reference.
    fn check_against_naive(ours: &[u128], other: &[u128]) {
        let topo = topo();
        let (ref_a, ref_b) = (naive(ours, &topo), naive(other, &topo));
        let set_a: CompactSet = ours.iter().copied().collect();
        let set_b: CompactSet = other.iter().copied().collect();
        let (pa, pb) = (
            SetProfile::build(&set_a, &topo),
            SetProfile::build(&set_b, &topo),
        );
        for (p, r) in [(&pa, &ref_a), (&pb, &ref_b)] {
            let total = r.addrs.len() as u64;
            assert_eq!(p.total, total);
            assert_eq!(p.per_as, r.per_as.clone().into_iter().collect::<Vec<_>>());
            assert_eq!(p.per_48, r.per_48.clone().into_iter().collect::<Vec<_>>());
            assert_eq!(p.eyeball, r.eyeball);
            assert_eq!(p.iid, r.iid);

            let d = p.stats("x");
            assert_eq!(d.label, "x");
            assert_eq!(d.addresses, total);
            assert_eq!(d.nets48, r.per_48.len() as u64);
            assert_eq!(d.ases, r.per_as.len() as u64);
            let median = |m: &mut dyn Iterator<Item = u64>| median_u64(m).unwrap_or(0.0);
            assert_eq!(d.median_per_48, median(&mut r.per_48.values().copied()));
            assert_eq!(d.median_per_as, median(&mut r.per_as.values().copied()));

            let s = p.structure();
            assert_eq!(s.total, total);
            assert_eq!(s.iid, r.iid);
            let share = if total == 0 {
                0.0
            } else {
                r.eyeball as f64 / total as f64
            };
            assert_eq!(s.eyeball_as_share, share);
        }
        let o = pa.overlap(&pb, set_a.overlap_count(&set_b) as u64);
        assert_eq!(
            o,
            OverlapStats {
                addresses: ref_a.addrs.intersection(&ref_b.addrs).count() as u64,
                nets48: shared(&ref_a.per_48, &ref_b.per_48),
                ases: shared(&ref_a.per_as, &ref_b.per_as),
            }
        );
    }

    /// The draw behind one address: which of [`BASES`], which of a
    /// handful of /48s and /64s below it (so runs and overlaps happen),
    /// the IID's shape and its random bits.
    type Draw = (usize, u128, u8, u64);

    fn draws() -> impl Strategy<Value = Vec<Draw>> {
        proptest::collection::vec((0usize..6, 0u128..12, 0u8..6, any::<u64>()), 0..80)
    }

    fn addrs(draws: &[Draw]) -> Vec<u128> {
        draws
            .iter()
            .map(|&(base, net, shape, r)| {
                let iid = match shape {
                    0 => 0,
                    1 => r & 0xff,
                    2 => r & 0xffff,
                    3 => (r & !0x0000_00ff_ff00_0000) | 0x0000_00ff_fe00_0000,
                    4 => r & 0x0f0f_0000,
                    _ => r,
                };
                u128::from(BASES[base]) << 112 | (net / 3) << 80 | (net % 3) << 64 | u128::from(iid)
            })
            .collect()
    }

    proptest! {
        #[test]
        fn profile_and_rows_match_naive_reference(ours in draws(), other in draws()) {
            check_against_naive(&addrs(&ours), &addrs(&other));
        }
    }

    #[test]
    fn empty_and_single_address_sets_match_the_reference() {
        let routed = 0x2a02_u128 << 112 | 7;
        let unrouted = 0x3fff_u128 << 112 | 7;
        for (a, b) in [
            (vec![], vec![]),
            (vec![routed], vec![]),
            (vec![routed], vec![routed]),
            (vec![unrouted], vec![routed]),
            (vec![0x2a00_u128 << 112], vec![routed]),
        ] {
            check_against_naive(&a, &b);
        }
        let d = SetProfile::build(&CompactSet::default(), &topo()).stats("empty");
        assert_eq!((d.addresses, d.nets48, d.ases), (0, 0, 0));
        assert_eq!((d.median_per_48, d.median_per_as), (0.0, 0.0));
    }

    #[test]
    fn stats_and_medians() {
        let raw = [
            "2a00:0:1::1",
            "2a00:0:1::2",
            "2a00:0:1::3",
            "2a00:0:2::1",
            "2a01:0:1::1",
        ];
        let d = SetProfile::build(&set(&raw), &topo()).stats("test");
        assert_eq!(d.addresses, 5);
        assert_eq!(d.nets48, 3);
        assert_eq!(d.ases, 2);
        // /48 densities: [3, 1, 1] → median 1; AS densities: [4, 1] → 2.5.
        assert_eq!(d.median_per_48, 1.0);
        assert_eq!(d.median_per_as, 2.5);
        // AS 1's second /32 joins its first: still two ASes, [5, 1] → 3.
        let mut more = raw.to_vec();
        more.push("2a02::1");
        let d = SetProfile::build(&set(&more), &topo()).stats("test");
        assert_eq!(d.ases, 2);
        assert_eq!(d.median_per_as, 3.0);
    }

    #[test]
    fn overlaps() {
        let topo = topo();
        let ours = set(&["2a00:0:1::1", "2a00:0:2::1", "2a01:0:1::1"]);
        let other = set(&["2a00:0:1::1", "2a00:0:1::9", "2600:0:1::1"]);
        let o = SetProfile::build(&ours, &topo).overlap(
            &SetProfile::build(&other, &topo),
            ours.overlap_count(&other) as u64,
        );
        assert_eq!(o.addresses, 1);
        assert_eq!(o.nets48, 1);
        assert_eq!(o.ases, 1); // only AS 1 shared
    }

    /// A denser pair than the property draws: 400 addresses a side over
    /// three /32s, against `HashSet` intersections.
    #[test]
    fn overlaps_match_hashset_reference() {
        let mut state = 0xfeed_u128;
        let mut step = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state
        };
        let bases = [0x2a00u128 << 112, 0x2a01u128 << 112, 0x2600u128 << 112];
        let draw = |r: u128| bases[(r % 3) as usize] | (r >> 64 & 0xffff_ffff);
        let ours: Vec<u128> = (0..400).map(|_| draw(step())).collect();
        let other: Vec<u128> = (0..400).map(|_| draw(step())).collect();
        check_against_naive(&ours, &other);
    }

    #[test]
    fn structure_over_mixed_set() {
        let s = SetProfile::build(
            &set(&[
                "2a00::a1f3:9c42:7e5b:d608", // eyeball, high entropy
                "2a01::1",                   // hosting, low byte
                "2a01::",                    // hosting, zero
                "2a01:0:1::53",              // hosting, low byte
            ]),
            &topo(),
        )
        .structure();
        assert_eq!(s.total, 4);
        assert!((s.eyeball_as_share - 0.25).abs() < 1e-12);
        assert_eq!(s.iid.count(IidClass::LowByte), 2);
        assert_eq!(s.iid.count(IidClass::Zero), 1);
        assert_eq!(s.iid.count(IidClass::HighEntropy), 1);
    }
}
