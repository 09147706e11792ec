//! AS-level topology: autonomous systems, their /32 allocations, and
//! address → AS resolution.
//!
//! Every AS in the simulated world owns one or more /32 allocations (the
//! common RIR allocation size), keeping address → AS lookup an exact-match
//! on the /32 — a deliberate simplification over longest-prefix matching
//! that is lossless here because allocations never nest (documented in
//! DESIGN.md).

use crate::country::Country;
use crate::peeringdb::AsType;
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv6Addr;
use v6addr::Prefix;

/// An autonomous system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Registry record of one AS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsInfo {
    /// The AS number.
    pub asn: Asn,
    /// Organisation name.
    pub name: String,
    /// PeeringDB type label.
    pub kind: AsType,
    /// Registered country.
    pub country: Country,
    /// Address allocations (always /32 in this world).
    pub allocations: Vec<Prefix>,
}

/// The assembled AS-level topology.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    ases: Vec<AsInfo>,
    index: HashMap<Asn, usize>,
    by_alloc: HashMap<u128, Asn>,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an AS.
    ///
    /// # Panics
    /// Panics if the ASN is already registered, an allocation is not a
    /// /32, or an allocation collides with an existing one — the world
    /// generator must never produce such a topology.
    pub fn register(&mut self, info: AsInfo) {
        assert!(
            !self.index.contains_key(&info.asn),
            "{} registered twice",
            info.asn
        );
        for alloc in &info.allocations {
            assert_eq!(alloc.len(), 32, "allocation {alloc} is not a /32");
            let prev = self.by_alloc.insert(alloc.bits(), info.asn);
            assert!(prev.is_none(), "allocation {alloc} assigned twice");
        }
        self.index.insert(info.asn, self.ases.len());
        self.ases.push(info);
    }

    /// The AS owning `addr`, if any.
    pub fn origin(&self, addr: Ipv6Addr) -> Option<Asn> {
        self.by_alloc
            .get(&(u128::from(addr) & Prefix::netmask(32)))
            .copied()
    }

    /// Record for an ASN.
    pub fn info(&self, asn: Asn) -> Option<&AsInfo> {
        self.index.get(&asn).map(|&i| &self.ases[i])
    }

    /// The PeeringDB type of the AS owning `addr` ([`AsType::Unlisted`]
    /// when unrouted).
    pub fn as_type_of(&self, addr: Ipv6Addr) -> AsType {
        self.origin(addr)
            .and_then(|asn| self.info(asn))
            .map(|i| i.kind)
            .unwrap_or(AsType::Unlisted)
    }

    /// Country of the AS owning `addr`.
    pub fn country_of(&self, addr: Ipv6Addr) -> Option<Country> {
        self.origin(addr)
            .and_then(|asn| self.info(asn))
            .map(|i| i.country)
    }

    /// All registered ASes.
    pub fn ases(&self) -> &[AsInfo] {
        &self.ases
    }

    /// Number of registered ASes.
    pub fn len(&self) -> usize {
        self.ases.len()
    }

    /// Is the topology empty?
    pub fn is_empty(&self) -> bool {
        self.ases.is_empty()
    }

    /// ASes registered in `country`.
    pub fn ases_in(&self, country: Country) -> impl Iterator<Item = &AsInfo> + '_ {
        self.ases.iter().filter(move |a| a.country == country)
    }

    /// ASes with a given PeeringDB type.
    pub fn ases_of_type(&self, kind: AsType) -> impl Iterator<Item = &AsInfo> + '_ {
        self.ases.iter().filter(move |a| a.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::country;

    fn sample() -> Topology {
        let mut t = Topology::new();
        t.register(AsInfo {
            asn: Asn(64500),
            name: "Eyeball GmbH".into(),
            kind: AsType::CableDslIsp,
            country: country::DE,
            allocations: vec!["2001:4d00::/32".parse().unwrap()],
        });
        t.register(AsInfo {
            asn: Asn(64501),
            name: "Hoster BV".into(),
            kind: AsType::Hosting,
            country: country::NL,
            allocations: vec![
                "2a02:100::/32".parse().unwrap(),
                "2a02:101::/32".parse().unwrap(),
            ],
        });
        t
    }

    #[test]
    fn origin_lookup() {
        let t = sample();
        assert_eq!(
            t.origin("2001:4d00:1:2::3".parse().unwrap()),
            Some(Asn(64500))
        );
        assert_eq!(
            t.origin("2a02:101:ffff::1".parse().unwrap()),
            Some(Asn(64501))
        );
        assert_eq!(t.origin("2a03::1".parse().unwrap()), None);
    }

    #[test]
    fn type_and_country_lookup() {
        let t = sample();
        let a: Ipv6Addr = "2001:4d00::1".parse().unwrap();
        assert_eq!(t.as_type_of(a), AsType::CableDslIsp);
        assert_eq!(t.country_of(a), Some(country::DE));
        let unrouted: Ipv6Addr = "2a0f::1".parse().unwrap();
        assert_eq!(t.as_type_of(unrouted), AsType::Unlisted);
        assert_eq!(t.country_of(unrouted), None);
    }

    #[test]
    fn filters() {
        let t = sample();
        assert_eq!(t.ases_in(country::DE).count(), 1);
        assert_eq!(t.ases_of_type(AsType::Hosting).count(), 1);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_asn_panics() {
        let mut t = sample();
        t.register(AsInfo {
            asn: Asn(64500),
            name: "dup".into(),
            kind: AsType::Nsp,
            country: country::US,
            allocations: vec![],
        });
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn overlapping_allocation_panics() {
        let mut t = sample();
        t.register(AsInfo {
            asn: Asn(64502),
            name: "overlap".into(),
            kind: AsType::Nsp,
            country: country::US,
            allocations: vec!["2001:4d00::/32".parse().unwrap()],
        });
    }

    #[test]
    #[should_panic(expected = "not a /32")]
    fn non_slash32_allocation_panics() {
        let mut t = Topology::new();
        t.register(AsInfo {
            asn: Asn(1),
            name: "bad".into(),
            kind: AsType::Nsp,
            country: country::US,
            allocations: vec!["2001:db8::/48".parse().unwrap()],
        });
    }
}
