//! Synthetic geolocation database (GeoLite2 stand-in, paper ref \[37\]).
//!
//! Appendix C's Table 5 counts responsive *countries* per protocol using
//! MaxMind's GeoLite2. Our stand-in resolves an address to the registered
//! country of its origin AS — exactly as accurate as the simulation needs,
//! since the world generator places every prefix in its AS's country.

use crate::country::Country;
use crate::topology::Topology;
use std::net::Ipv6Addr;

/// Address → country resolver.
#[derive(Debug, Clone, Copy)]
pub struct GeoDb<'a> {
    topology: &'a Topology,
}

impl<'a> GeoDb<'a> {
    /// A view over the topology.
    pub fn new(topology: &'a Topology) -> Self {
        GeoDb { topology }
    }

    /// The country an address geolocates to, if routed.
    pub fn lookup(&self, addr: Ipv6Addr) -> Option<Country> {
        self.topology.country_of(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::country;
    use crate::peeringdb::AsType;
    use crate::topology::{AsInfo, Asn};

    #[test]
    fn lookup_via_topology() {
        let mut t = Topology::new();
        t.register(AsInfo {
            asn: Asn(64500),
            kind: AsType::CableDslIsp,
            country: country::JP,
            allocations: vec!["2400:1000::/32".parse().unwrap()],
        });
        let geo = GeoDb::new(&t);
        assert_eq!(
            geo.lookup("2400:1000::1".parse().unwrap()),
            Some(country::JP)
        );
        assert_eq!(geo.lookup("2a00::1".parse().unwrap()), None);
    }
}
