//! Property-based tests for the v6addr foundation.

use proptest::prelude::*;
use std::net::Ipv6Addr;
use v6addr::{classify_iid, Eui64, IidClass, Mac, Prefix};

proptest! {
    /// Prefix::of always contains the source address and is canonical.
    #[test]
    fn prefix_of_contains_addr(bits in any::<u128>(), len in 0u8..=128) {
        let addr = Ipv6Addr::from(bits);
        let p = Prefix::of(addr, len);
        prop_assert!(p.contains(addr));
        prop_assert_eq!(p, Prefix::new(p.network(), len));
    }

    /// Truncating to a shorter prefix preserves containment.
    #[test]
    fn truncate_preserves_containment(bits in any::<u128>(), a in 0u8..=128, b in 0u8..=128) {
        let (short, long) = (a.min(b), a.max(b));
        let addr = Ipv6Addr::from(bits);
        let p = Prefix::of(addr, long);
        let t = p.truncate(short);
        prop_assert!(t.covers(&p));
        prop_assert!(t.contains(addr));
    }

    /// Display → FromStr round-trips.
    #[test]
    fn prefix_display_roundtrip(bits in any::<u128>(), len in 0u8..=128) {
        let p = Prefix::of(Ipv6Addr::from(bits), len);
        let parsed: Prefix = p.to_string().parse().unwrap();
        prop_assert_eq!(parsed, p);
    }

    /// host() output always lies inside the prefix.
    #[test]
    fn host_inside_prefix(bits in any::<u128>(), len in 0u8..=128, host in any::<u128>()) {
        let p = Prefix::of(Ipv6Addr::from(bits), len);
        prop_assert!(p.contains(p.host(host)));
    }

    /// MAC → EUI-64 → MAC round-trips for every MAC.
    #[test]
    fn eui64_roundtrip(raw in any::<u64>()) {
        let mac = Mac::from_u64(raw & 0xffff_ffff_ffff);
        let iid = Eui64::from_mac(mac);
        prop_assert!(iid.has_fffe_marker());
        prop_assert_eq!(iid.to_mac(), Some(mac));
        // The modified EUI-64 stores the universal/local bit inverted.
        prop_assert_eq!((iid.0 >> 56) & 0x02 != 0, !mac.is_local());
    }

    /// MAC Display → FromStr round-trips.
    #[test]
    fn mac_display_roundtrip(raw in any::<u64>()) {
        let mac = Mac::from_u64(raw & 0xffff_ffff_ffff);
        let parsed: Mac = mac.to_string().parse().unwrap();
        prop_assert_eq!(parsed, mac);
    }

    /// Classification is total and structured classes only fire for
    /// genuinely structured identifiers.
    #[test]
    fn classify_structured_soundness(bits in any::<u128>()) {
        let addr = Ipv6Addr::from(bits);
        let class = classify_iid(addr);
        let iid = bits as u64;
        match class {
            IidClass::Zero => prop_assert_eq!(iid, 0),
            IidClass::LowByte => {
                prop_assert!(iid != 0 && iid & !0xff == 0)
            }
            IidClass::LowTwoBytes => {
                prop_assert!(iid & !0xffff == 0 && iid & !0xff != 0)
            }
            IidClass::Eui64 => {
                prop_assert!((iid >> 24) & 0xffff == 0xfffe)
            }
            _ => {
                // Entropy classes never swallow structured identifiers.
                prop_assert!(iid & !0xffff != 0);
            }
        }
    }

    /// Entropy is scale-free in [0, 1].
    #[test]
    fn entropy_bounds(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let h = v6addr::entropy::nybble_entropy(&data);
        prop_assert!((0.0..=1.0).contains(&h));
    }
}
