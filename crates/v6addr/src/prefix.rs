//! IPv6 CIDR prefixes.
//!
//! [`Prefix`] is the aggregation unit used throughout the study: collected
//! addresses are grouped into /48, /56 and /64 networks (Tables 1, 5 and 6),
//! routing and AS assignment happen on allocation prefixes, and aliased
//! regions (CDN front-ends) are whole prefixes that answer on every address.

use std::fmt;
use std::net::Ipv6Addr;
use std::str::FromStr;

/// An IPv6 CIDR prefix: a network address plus a prefix length in `0..=128`.
///
/// The host bits of the stored address are always zero; constructors
/// canonicalise their input, so two `Prefix` values compare equal iff they
/// denote the same network.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    bits: u128,
    len: u8,
}

impl Prefix {
    /// Builds a prefix from any address inside it and a length, truncating
    /// host bits.
    ///
    /// # Panics
    /// Panics if `len > 128`.
    pub fn new(addr: Ipv6Addr, len: u8) -> Self {
        assert!(len <= 128, "prefix length {len} out of range");
        Prefix {
            bits: u128::from(addr) & Self::netmask(len),
            len,
        }
    }

    /// The network mask for a prefix length.
    #[inline]
    pub fn netmask(len: u8) -> u128 {
        if len == 0 {
            0
        } else {
            u128::MAX << (128 - len as u32)
        }
    }

    /// The network address (host bits zero).
    #[inline]
    pub fn network(&self) -> Ipv6Addr {
        Ipv6Addr::from(self.bits)
    }

    /// The prefix length.
    #[inline]
    #[allow(clippy::len_without_is_empty)] // a prefix length, not a container length
    pub fn len(&self) -> u8 {
        self.len
    }

    /// The raw network bits.
    #[inline]
    pub fn bits(&self) -> u128 {
        self.bits
    }

    /// The last address inside the prefix.
    pub fn last(&self) -> Ipv6Addr {
        Ipv6Addr::from(self.bits | !Self::netmask(self.len))
    }

    /// Does this prefix contain `addr`?
    #[inline]
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        u128::from(addr) & Self::netmask(self.len) == self.bits
    }

    /// Does this prefix contain the whole of `other`?
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && (other.bits & Self::netmask(self.len)) == self.bits
    }

    /// Truncates this prefix (or an address inside it) to a shorter length.
    ///
    /// # Panics
    /// Panics if `len > self.len()` — a prefix cannot be "truncated" to a
    /// more specific network.
    pub fn truncate(&self, len: u8) -> Prefix {
        assert!(
            len <= self.len,
            "cannot truncate /{} to more-specific /{}",
            self.len,
            len
        );
        Prefix {
            bits: self.bits & Self::netmask(len),
            len,
        }
    }

    /// The enclosing network of `addr` at `len` bits: `net(addr, 48)` is the
    /// /48 the address lives in.
    #[inline]
    pub fn of(addr: Ipv6Addr, len: u8) -> Prefix {
        Prefix::new(addr, len)
    }

    /// The `i`-th subnet of this prefix when split into `sub_len`-bit
    /// networks, e.g. `p.subnet(64, 3)` is the fourth /64 inside `p`.
    ///
    /// # Panics
    /// Panics if `sub_len < self.len()`, `sub_len > 128`, or `i` does not fit
    /// in the available subnet bits.
    pub fn subnet(&self, sub_len: u8, i: u128) -> Prefix {
        assert!(sub_len >= self.len && sub_len <= 128);
        let free = (sub_len - self.len) as u32;
        assert!(
            free == 128 || i < (1u128 << free.min(127)) << u32::from(free == 128),
            "subnet index {i} out of range for /{} inside /{}",
            sub_len,
            self.len
        );
        let shifted = if sub_len == 128 {
            i
        } else {
            i << (128 - sub_len as u32)
        };
        Prefix {
            bits: self.bits | shifted,
            len: sub_len,
        }
    }

    /// An address inside the prefix with the given host-part value.
    ///
    /// Host bits of `host` beyond the prefix's free bits are masked off, so
    /// the result is always inside the prefix.
    pub fn host(&self, host: u128) -> Ipv6Addr {
        Ipv6Addr::from(self.bits | (host & !Self::netmask(self.len)))
    }

    /// Number of /`sub_len` subnets inside this prefix (saturating at
    /// `u128::MAX` for /0 → /128).
    pub fn subnet_count(&self, sub_len: u8) -> u128 {
        assert!(sub_len >= self.len && sub_len <= 128);
        let free = (sub_len - self.len) as u32;
        if free >= 128 {
            u128::MAX
        } else {
            1u128 << free
        }
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self})")
    }
}

/// Errors from [`Prefix::from_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsePrefixError {
    /// Missing `/` separator.
    MissingSlash,
    /// The address part did not parse as an IPv6 address.
    BadAddress,
    /// The length part did not parse, or exceeded 128.
    BadLength,
}

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePrefixError::MissingSlash => write!(f, "missing '/' in prefix"),
            ParsePrefixError::BadAddress => write!(f, "invalid IPv6 address in prefix"),
            ParsePrefixError::BadLength => write!(f, "invalid prefix length"),
        }
    }
}

impl std::error::Error for ParsePrefixError {}

impl FromStr for Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or(ParsePrefixError::MissingSlash)?;
        let addr: Ipv6Addr = addr.parse().map_err(|_| ParsePrefixError::BadAddress)?;
        let len: u8 = len.parse().map_err(|_| ParsePrefixError::BadLength)?;
        if len > 128 {
            return Err(ParsePrefixError::BadLength);
        }
        Ok(Prefix::new(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalises_host_bits() {
        let a = p("2001:db8::dead:beef/48");
        assert_eq!(a.network(), "2001:db8::".parse::<Ipv6Addr>().unwrap());
        assert_eq!(a, p("2001:db8::/48"));
    }

    #[test]
    fn contains_and_covers() {
        let net = p("2001:db8::/32");
        assert!(net.contains("2001:db8:ffff::1".parse().unwrap()));
        assert!(!net.contains("2001:db9::1".parse().unwrap()));
        assert!(net.covers(&p("2001:db8:1::/48")));
        assert!(!net.covers(&p("2001:db9::/48")));
        assert!(!p("2001:db8::/48").covers(&net));
        assert!(net.covers(&net));
    }

    #[test]
    fn truncate_to_shorter() {
        let n = p("2001:db8:aaaa:bbbb::/64");
        assert_eq!(n.truncate(48), p("2001:db8:aaaa::/48"));
        assert_eq!(n.truncate(0), p("::/0"));
    }

    #[test]
    #[should_panic]
    fn truncate_to_longer_panics() {
        p("2001:db8::/32").truncate(48);
    }

    #[test]
    fn of_address() {
        let a: Ipv6Addr = "2001:db8:1:1234:3:4:5:6".parse().unwrap();
        assert_eq!(Prefix::of(a, 48), p("2001:db8:1::/48"));
        assert_eq!(Prefix::of(a, 56), p("2001:db8:1:1200::/56"));
        assert_eq!(Prefix::of(a, 64), p("2001:db8:1:1234::/64"));
    }

    #[test]
    fn subnet_enumeration() {
        let net = p("2001:db8::/32");
        assert_eq!(net.subnet(48, 0), p("2001:db8::/48"));
        assert_eq!(net.subnet(48, 1), p("2001:db8:1::/48"));
        assert_eq!(net.subnet(48, 0xffff), p("2001:db8:ffff::/48"));
        assert_eq!(net.subnet_count(48), 1 << 16);
    }

    #[test]
    #[should_panic]
    fn subnet_index_out_of_range() {
        p("2001:db8::/32").subnet(48, 1 << 16);
    }

    #[test]
    fn host_construction_masks() {
        let net = p("2001:db8::/64");
        assert_eq!(
            net.host(0x1234),
            "2001:db8::1234".parse::<Ipv6Addr>().unwrap()
        );
        // Bits above the host part are masked away.
        assert_eq!(net.host(u128::MAX), net.last());
    }

    #[test]
    fn last_address() {
        assert_eq!(
            p("2001:db8::/64").last(),
            "2001:db8::ffff:ffff:ffff:ffff".parse::<Ipv6Addr>().unwrap()
        );
        assert_eq!(p("::/0").last(), Ipv6Addr::from(u128::MAX));
    }

    #[test]
    fn netmask_extremes() {
        assert_eq!(Prefix::netmask(0), 0);
        assert_eq!(Prefix::netmask(128), u128::MAX);
        assert_eq!(Prefix::netmask(1), 1u128 << 127);
    }

    #[test]
    fn parse_errors() {
        assert_eq!(
            "2001:db8::".parse::<Prefix>(),
            Err(ParsePrefixError::MissingSlash)
        );
        assert_eq!("zz/48".parse::<Prefix>(), Err(ParsePrefixError::BadAddress));
        assert_eq!("::/129".parse::<Prefix>(), Err(ParsePrefixError::BadLength));
    }

    #[test]
    fn display_roundtrip() {
        for s in ["2001:db8::/32", "::/0", "fe80::/10", "2001:db8:1:2::/64"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn ordering_groups_by_network() {
        let mut v = vec![p("2001:db9::/48"), p("2001:db8::/48"), p("2001:db8::/32")];
        v.sort();
        assert_eq!(
            v,
            vec![p("2001:db8::/32"), p("2001:db8::/48"), p("2001:db9::/48")]
        );
    }
}
