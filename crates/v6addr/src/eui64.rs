//! EUI-64 interface identifiers and MAC embedding (RFC 4291 Appendix A).
//!
//! A SLAAC host without privacy extensions derives its 64-bit interface
//! identifier from its MAC address: the MAC is split in half, `ff:fe` is
//! inserted in the middle, and the universal/local bit is inverted. The
//! result leaks the hardware address — and the manufacturer — into the IPv6
//! address, which the paper's Appendix B exploits to rank device vendors.

use crate::mac::Mac;
use std::fmt;
use std::net::Ipv6Addr;

/// A 64-bit EUI-64 identifier as it appears in the low 64 bits of an IPv6
/// address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Eui64(pub u64);

impl Eui64 {
    /// Builds the modified EUI-64 for a MAC, as SLAAC does: insert `ff:fe`
    /// and flip the universal/local bit.
    pub fn from_mac(mac: Mac) -> Eui64 {
        let m = mac.0;
        let bytes = [
            m[0] ^ 0x02, // invert U/L bit
            m[1],
            m[2],
            0xff,
            0xfe,
            m[3],
            m[4],
            m[5],
        ];
        Eui64(u64::from_be_bytes(bytes))
    }

    /// Is the `ff:fe` marker present in the middle of the identifier?
    /// This is the structural signature of a MAC-derived IID.
    #[inline]
    pub fn has_fffe_marker(&self) -> bool {
        (self.0 >> 24) & 0xffff == 0xfffe
    }

    /// Recovers the embedded MAC if the `ff:fe` marker is present.
    ///
    /// The returned MAC has the universal/local bit flipped back, i.e. it is
    /// the hardware address as the host would report it.
    pub fn to_mac(&self) -> Option<Mac> {
        if !self.has_fffe_marker() {
            return None;
        }
        let b = self.0.to_be_bytes();
        Some(Mac([b[0] ^ 0x02, b[1], b[2], b[5], b[6], b[7]]))
    }

    /// The interface-identifier half (low 64 bits) of an address.
    #[inline]
    pub fn of_addr(addr: Ipv6Addr) -> Eui64 {
        Eui64(u128::from(addr) as u64)
    }
}

impl fmt::Display for Eui64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0.to_be_bytes();
        write!(
            f,
            "{:02x}{:02x}:{:02x}{:02x}:{:02x}{:02x}:{:02x}{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
        )
    }
}

impl fmt::Debug for Eui64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Eui64({self})")
    }
}

/// Extracts the MAC embedded in an IPv6 address, if the interface
/// identifier carries the EUI-64 `ff:fe` marker.
pub fn extract_mac(addr: Ipv6Addr) -> Option<Mac> {
    Eui64::of_addr(addr).to_mac()
}

/// Result of classifying an address's MAC embedding, matching the paper's
/// Figure 4 categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacEmbedding {
    /// No `ff:fe` marker — not an EUI-64 IID.
    None,
    /// EUI-64 with a universally administered (globally unique) MAC whose
    /// OUI is listed in the registry.
    UniversalListed,
    /// EUI-64 with a universally administered MAC but an OUI unknown to the
    /// registry ("unlisted" in Table 4).
    UniversalUnlisted,
    /// EUI-64 with a locally administered (randomised/virtual) MAC.
    Local,
}

/// Classifies the MAC embedding of an address against an OUI registry
/// lookup function.
pub fn classify_embedding<F: Fn(crate::mac::Oui) -> bool>(
    addr: Ipv6Addr,
    oui_listed: F,
) -> MacEmbedding {
    match extract_mac(addr) {
        None => MacEmbedding::None,
        Some(mac) if mac.is_local() => MacEmbedding::Local,
        Some(mac) if oui_listed(mac.oui()) => MacEmbedding::UniversalListed,
        Some(_) => MacEmbedding::UniversalUnlisted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In the *modified* EUI-64 encoding the universal/local bit is
    /// stored inverted: a set bit in the IID means a globally unique MAC.
    fn claims_universal_mac(iid: Eui64) -> bool {
        (iid.0 >> 56) & 0x02 != 0
    }

    #[test]
    fn rfc4291_example() {
        // RFC 4291 App. A example: MAC 34-56-78-9A-BC-DE →
        // IID 36-56-78-FF-FE-9A-BC-DE.
        let mac: Mac = "34:56:78:9a:bc:de".parse().unwrap();
        let iid = Eui64::from_mac(mac);
        assert_eq!(iid.0, 0x3656_78ff_fe9a_bcde);
        assert!(iid.has_fffe_marker());
        assert!(claims_universal_mac(iid));
        assert_eq!(iid.to_mac(), Some(mac));
    }

    #[test]
    fn local_mac_roundtrip() {
        let mac: Mac = "02:00:00:11:22:33".parse().unwrap();
        assert!(mac.is_local());
        let iid = Eui64::from_mac(mac);
        // Local bit is stored inverted → cleared in the IID.
        assert!(!claims_universal_mac(iid));
        assert_eq!(iid.to_mac(), Some(mac));
    }

    #[test]
    fn extraction_from_full_address() {
        let mac: Mac = "3c:a6:2f:12:34:56".parse().unwrap();
        let iid = Eui64::from_mac(mac);
        let addr = Ipv6Addr::from((0x2001_0db8_0001_0002u128) << 64 | u128::from(iid.0));
        assert_eq!(extract_mac(addr), Some(mac));
    }

    #[test]
    fn no_marker_no_mac() {
        let addr: Ipv6Addr = "2001:db8::1".parse().unwrap();
        assert_eq!(extract_mac(addr), None);
        // Random privacy-extension style IID without the marker.
        let addr: Ipv6Addr = "2001:db8::a1b2:c3d4:e5f6:0798".parse().unwrap();
        assert_eq!(extract_mac(addr), None);
    }

    #[test]
    fn classify_embedding_categories() {
        let listed_oui = crate::mac::Oui([0x3c, 0xa6, 0x2f]);
        let lookup = |o: crate::mac::Oui| o == listed_oui;

        let mk = |mac: &str| {
            let mac: Mac = mac.parse().unwrap();
            Ipv6Addr::from((0x2001_0db8u128) << 96 | u128::from(Eui64::from_mac(mac).0))
        };

        assert_eq!(
            classify_embedding(mk("3c:a6:2f:00:00:01"), lookup),
            MacEmbedding::UniversalListed
        );
        assert_eq!(
            classify_embedding(mk("00:11:22:00:00:01"), lookup),
            MacEmbedding::UniversalUnlisted
        );
        assert_eq!(
            classify_embedding(mk("06:11:22:00:00:01"), lookup),
            MacEmbedding::Local
        );
        assert_eq!(
            classify_embedding("2001:db8::1".parse().unwrap(), lookup),
            MacEmbedding::None
        );
    }

    #[test]
    fn display_format() {
        let mac: Mac = "34:56:78:9a:bc:de".parse().unwrap();
        assert_eq!(Eui64::from_mac(mac).to_string(), "3656:78ff:fe9a:bcde");
    }
}
