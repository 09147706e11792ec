//! EUI-64 / MAC vendor analysis (paper Appendix B, Table 4 and Figure 4).
//!
//! Extracts embedded MACs from collected addresses, filters on the
//! universal ("unique") bit, joins OUIs against the registry, and ranks
//! manufacturers by distinct MACs and by addresses. Figure 4's view —
//! which collecting-server location contributed which embedding classes —
//! is computed from the per-server address sets.

use netsim::country::Country;
use std::collections::{HashMap, HashSet};
use std::net::Ipv6Addr;
use v6addr::eui64::{classify_embedding, extract_mac, MacEmbedding};
use v6addr::{AddrSet, Mac, OuiDb};

/// Aggregate EUI-64 statistics over one address set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Eui64Stats {
    /// Total addresses inspected.
    pub addresses: u64,
    /// Addresses with an EUI-64 IID (any embedding).
    pub eui64_addresses: u64,
    /// Distinct EUI-64 identifiers.
    pub distinct_eui64: u64,
    /// Addresses whose embedded MAC has the universal bit.
    pub universal_addresses: u64,
    /// Distinct universal MACs.
    pub distinct_universal_macs: u64,
    /// Distinct universal MACs with a registry-listed OUI.
    pub distinct_listed_macs: u64,
}

/// Per-vendor row of Table 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VendorRow {
    /// Manufacturer (registry organisation, or `(Unlisted)`).
    pub manufacturer: String,
    /// Distinct MACs.
    pub macs: u64,
    /// Addresses embedding those MACs.
    pub ips: u64,
}

/// Label for OUIs absent from the registry.
pub const UNLISTED: &str = "(Unlisted)";

/// Computes aggregate stats and the vendor ranking over any stream of
/// addresses (set iterators, archive iterators, raw feeds).
pub fn vendor_ranking<I>(addrs: I, db: &OuiDb) -> (Eui64Stats, Vec<VendorRow>)
where
    I: IntoIterator<Item = Ipv6Addr>,
{
    let mut stats = Eui64Stats::default();
    let mut per_vendor: HashMap<&str, (HashSet<Mac>, u64)> = HashMap::new();
    let mut distinct_eui: HashSet<u64> = HashSet::new();
    let mut distinct_universal: HashSet<Mac> = HashSet::new();
    let mut distinct_listed: HashSet<Mac> = HashSet::new();

    for addr in addrs {
        stats.addresses += 1;
        let Some(mac) = extract_mac(addr) else {
            continue;
        };
        stats.eui64_addresses += 1;
        distinct_eui.insert(mac.to_u64());
        if mac.is_local() {
            continue;
        }
        stats.universal_addresses += 1;
        distinct_universal.insert(mac);
        let vendor = match db.lookup(mac.oui()) {
            Some(org) => {
                distinct_listed.insert(mac);
                org
            }
            None => UNLISTED,
        };
        let (macs, ips) = per_vendor.entry(vendor).or_default();
        macs.insert(mac);
        *ips += 1;
    }

    stats.distinct_eui64 = distinct_eui.len() as u64;
    stats.distinct_universal_macs = distinct_universal.len() as u64;
    stats.distinct_listed_macs = distinct_listed.len() as u64;

    let mut rows: Vec<VendorRow> = per_vendor
        .into_iter()
        .map(|(manufacturer, (macs, ips))| VendorRow {
            manufacturer: manufacturer.to_string(),
            macs: macs.len() as u64,
            ips,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.macs
            .cmp(&a.macs)
            .then_with(|| a.manufacturer.cmp(&b.manufacturer))
    });
    (stats, rows)
}

/// Figure 4: per collecting-server location, the distribution of MAC
/// embedding classes among collected addresses. A count does not depend
/// on the order it is taken in, so each set is read in table order
/// ([`AddrSet::raw`]); only the classes present get an entry.
pub fn embedding_by_location(
    per_location: &[(Country, &AddrSet)],
    db: &OuiDb,
) -> Vec<(Country, HashMap<MacEmbedding, u64>)> {
    // In declaration order, so `class as usize` indexes it.
    const CLASSES: [MacEmbedding; 4] = [
        MacEmbedding::None,
        MacEmbedding::UniversalListed,
        MacEmbedding::UniversalUnlisted,
        MacEmbedding::Local,
    ];
    per_location
        .iter()
        .map(|(c, set)| {
            let mut counts = [0u64; 4];
            for a in set.raw() {
                let class = classify_embedding(Ipv6Addr::from(a), |oui| db.is_listed(oui));
                counts[class as usize] += 1;
            }
            let counts = CLASSES
                .into_iter()
                .zip(counts)
                .filter(|&(_, n)| n > 0)
                .collect();
            (*c, counts)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;
    use v6addr::Eui64;

    fn addr_with_mac(prefix: u64, mac: &str) -> Ipv6Addr {
        let mac: Mac = mac.parse().unwrap();
        Ipv6Addr::from((u128::from(prefix) << 64) | u128::from(Eui64::from_mac(mac).0))
    }

    #[test]
    fn ranking_counts_macs_and_ips() {
        let db = OuiDb::builtin();
        let mut set = AddrSet::new();
        // Two addresses embedding the same AVM MAC (prefix churn)…
        set.insert(addr_with_mac(1, "3c:a6:2f:00:00:01"));
        set.insert(addr_with_mac(2, "3c:a6:2f:00:00:01"));
        // …one more AVM MAC, one Sonos, one unlisted, one local.
        set.insert(addr_with_mac(3, "3c:a6:2f:00:00:02"));
        set.insert(addr_with_mac(4, "00:0e:58:00:00:01"));
        set.insert(addr_with_mac(5, "d4:12:34:00:00:01"));
        set.insert(addr_with_mac(6, "06:00:00:00:00:01"));
        // A non-EUI-64 address.
        set.insert("2001:db8::1".parse().unwrap());

        let (stats, rows) = vendor_ranking(set.iter(), &db);
        assert_eq!(stats.addresses, 7);
        assert_eq!(stats.eui64_addresses, 6);
        assert_eq!(stats.distinct_eui64, 5);
        assert_eq!(stats.universal_addresses, 5);
        assert_eq!(stats.distinct_universal_macs, 4);
        assert_eq!(stats.distinct_listed_macs, 3);

        assert_eq!(
            rows[0].manufacturer,
            "AVM Audiovisuelles Marketing und Computersysteme GmbH"
        );
        assert_eq!(rows[0].macs, 2);
        assert_eq!(rows[0].ips, 3);
        assert!(rows
            .iter()
            .any(|r| r.manufacturer == UNLISTED && r.macs == 1));
        assert!(rows.iter().any(|r| r.manufacturer == "Sonos, Inc."));
    }

    #[test]
    fn embedding_by_location_classes() {
        let db = OuiDb::builtin();
        let mut de = AddrSet::new();
        de.insert(addr_with_mac(1, "3c:a6:2f:00:00:01")); // listed
        de.insert(addr_with_mac(2, "d4:00:00:00:00:01")); // unlisted universal
        let mut us = AddrSet::new();
        us.insert(addr_with_mac(3, "06:00:00:00:00:01")); // local
        us.insert("2001:db8::1".parse().unwrap()); // none

        let rows = embedding_by_location(
            &[(netsim::country::DE, &de), (netsim::country::US, &us)],
            &db,
        );
        assert_eq!(rows[0].1[&MacEmbedding::UniversalListed], 1);
        assert_eq!(rows[0].1[&MacEmbedding::UniversalUnlisted], 1);
        assert_eq!(rows[1].1[&MacEmbedding::Local], 1);
        assert_eq!(rows[1].1[&MacEmbedding::None], 1);
    }

    #[test]
    fn empty_set() {
        let db = OuiDb::builtin();
        let (stats, rows) = vendor_ranking(AddrSet::new().iter(), &db);
        assert_eq!(stats, Eui64Stats::default());
        assert!(rows.is_empty());
    }
}
