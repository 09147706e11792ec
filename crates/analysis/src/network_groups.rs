//! Aggregation by network, AS and country (paper Appendix C, Tables 5/6).

use netsim::geodb::GeoDb;
use netsim::topology::Topology;
use std::collections::HashSet;
use std::net::Ipv6Addr;
use v6addr::Prefix;

/// Counts of one address population at every aggregation level of
/// Table 5.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkCounts {
    /// Distinct addresses.
    pub addrs: u64,
    /// Distinct /32 networks.
    pub nets32: u64,
    /// Distinct /48 networks.
    pub nets48: u64,
    /// Distinct /56 networks.
    pub nets56: u64,
    /// Distinct /64 networks.
    pub nets64: u64,
    /// Distinct origin ASes.
    pub ases: u64,
    /// Distinct countries.
    pub countries: u64,
}

/// Computes all aggregation levels over an address iterator (duplicates
/// allowed): sort, dedup, then one pass in which every network boundary
/// shows in the highest bit that differs from the previous address.
/// Origin and country are functions of the /32, so they are looked up
/// once per /32 run.
pub fn network_counts<I>(addrs: I, topology: &Topology) -> NetworkCounts
where
    I: IntoIterator<Item = Ipv6Addr>,
{
    let geo = GeoDb::new(topology);
    let mut sorted: Vec<u128> = addrs.into_iter().map(u128::from).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let mut c = NetworkCounts {
        addrs: sorted.len() as u64,
        ..NetworkCounts::default()
    };
    let (mut ases, mut countries) = (Vec::new(), Vec::new());
    let mut prev = None;
    for &a in &sorted {
        // The first address opens a network at every level.
        let differ = prev.map_or(u128::MAX, |p| a ^ p);
        c.nets64 += u64::from(differ >> 64 != 0);
        c.nets56 += u64::from(differ >> 72 != 0);
        c.nets48 += u64::from(differ >> 80 != 0);
        if differ >> 96 != 0 {
            c.nets32 += 1;
            let addr = Ipv6Addr::from(a);
            ases.extend(topology.origin(addr));
            countries.extend(geo.lookup(addr));
        }
        prev = Some(a);
    }
    c.ases = distinct(ases);
    c.countries = distinct(countries);
    c
}

fn distinct<T: Ord>(mut found: Vec<T>) -> u64 {
    found.sort_unstable();
    found.dedup();
    found.len() as u64
}

/// Table 6 view: group labels counted by IPs and by /48, /56, /64
/// networks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupNetworkRow {
    /// Group label.
    pub label: String,
    /// Distinct addresses.
    pub ips: u64,
    /// Distinct /48s.
    pub nets48: u64,
    /// Distinct /56s.
    pub nets56: u64,
    /// Distinct /64s.
    pub nets64: u64,
}

/// Counts each labelled group by networks.
pub fn group_network_rows(groups: &[(String, Vec<Ipv6Addr>)]) -> Vec<GroupNetworkRow> {
    let mut rows: Vec<GroupNetworkRow> = groups
        .iter()
        .map(|(label, addrs)| {
            let distinct: HashSet<Ipv6Addr> = addrs.iter().copied().collect();
            let count = |len: u8| {
                distinct
                    .iter()
                    .map(|a| u128::from(*a) & Prefix::netmask(len))
                    .collect::<HashSet<_>>()
                    .len() as u64
            };
            GroupNetworkRow {
                label: label.clone(),
                ips: distinct.len() as u64,
                nets48: count(48),
                nets56: count(56),
                nets64: count(64),
            }
        })
        .collect();
    rows.sort_by(|a, b| b.ips.cmp(&a.ips).then_with(|| a.label.cmp(&b.label)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::country;
    use netsim::peeringdb::AsType;
    use netsim::topology::{AsInfo, Asn};

    fn topo() -> Topology {
        let mut t = Topology::new();
        t.register(AsInfo {
            asn: Asn(1),
            kind: AsType::CableDslIsp,
            country: country::DE,
            allocations: vec!["2a00::/32".parse().unwrap()],
        });
        t.register(AsInfo {
            asn: Asn(2),
            kind: AsType::Hosting,
            country: country::US,
            allocations: vec!["2600::/32".parse().unwrap()],
        });
        t
    }

    #[test]
    fn counts_all_levels() {
        let topo = topo();
        let addrs: Vec<Ipv6Addr> = [
            "2a00:0:1::1",
            "2a00:0:1::2",     // same /64
            "2a00:0:1:100::1", // same /48, new /56+/64
            "2600::1",         // other AS/country
            "2a00:0:1::1",     // duplicate
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
        let c = network_counts(addrs.iter().copied(), &topo);
        assert_eq!(c.addrs, 4);
        assert_eq!(c.nets32, 2);
        assert_eq!(c.nets48, 2);
        assert_eq!(c.nets56, 3);
        assert_eq!(c.nets64, 3);
        assert_eq!(c.ases, 2);
        assert_eq!(c.countries, 2);
    }

    /// The boundary-counting pass against one `HashSet` per level, over
    /// a pseudo-random population with duplicates, two routed /32s and
    /// unrouted space.
    #[test]
    fn counts_match_hashset_reference() {
        let topo = topo();
        let mut state = 0xbeef_u128;
        let mut step = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 32
        };
        let bases = [0x2a00u128 << 112, 0x2600u128 << 112, 0x3fffu128 << 112];
        let addrs: Vec<Ipv6Addr> = (0..600)
            .map(|_| {
                let r = step();
                // Two bits of freedom at each of /48, /56 and /64, four in the IID.
                let low = (r & 3) << 80 | (r >> 2 & 3) << 72 | (r >> 4 & 3) << 64 | (r >> 6 & 15);
                Ipv6Addr::from(bases[(r >> 10) as usize % 3] | low)
            })
            .collect();
        let distinct: HashSet<Ipv6Addr> = addrs.iter().copied().collect();
        assert!(distinct.len() < addrs.len(), "population has duplicates");
        let nets = |len: u8| {
            distinct
                .iter()
                .map(|a| u128::from(*a) & Prefix::netmask(len))
                .collect::<HashSet<_>>()
                .len() as u64
        };
        let expect = NetworkCounts {
            addrs: distinct.len() as u64,
            nets32: nets(32),
            nets48: nets(48),
            nets56: nets(56),
            nets64: nets(64),
            ases: distinct
                .iter()
                .filter_map(|a| topo.origin(*a))
                .collect::<HashSet<_>>()
                .len() as u64,
            countries: distinct
                .iter()
                .filter_map(|a| topo.country_of(*a))
                .collect::<HashSet<_>>()
                .len() as u64,
        };
        assert_eq!(network_counts(addrs.iter().copied(), &topo), expect);
        assert_eq!(
            network_counts(std::iter::empty(), &topo),
            NetworkCounts::default()
        );
    }

    #[test]
    fn unrouted_addresses_count_networks_only() {
        let topo = topo();
        let addrs: Vec<Ipv6Addr> = vec!["3fff::1".parse().unwrap()];
        let c = network_counts(addrs.iter().copied(), &topo);
        assert_eq!(c.addrs, 1);
        assert_eq!(c.ases, 0);
        assert_eq!(c.countries, 0);
    }

    #[test]
    fn group_rows_sorted_by_ips() {
        let groups = vec![
            ("small".to_string(), vec!["2a00::1".parse().unwrap()]),
            (
                "big".to_string(),
                vec![
                    "2a00:0:1::1".parse().unwrap(),
                    "2a00:0:1::2".parse().unwrap(),
                    "2a00:0:2::1".parse().unwrap(),
                ],
            ),
        ];
        let rows = group_network_rows(&groups);
        assert_eq!(rows[0].label, "big");
        assert_eq!(rows[0].ips, 3);
        assert_eq!(rows[0].nets48, 2);
        assert_eq!(rows[0].nets64, 2);
        assert_eq!(rows[1].ips, 1);
    }
}
