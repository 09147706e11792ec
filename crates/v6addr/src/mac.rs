//! MAC (EUI-48) addresses and OUIs.
//!
//! SLAAC hosts that derive their interface identifier from the hardware
//! address embed the MAC — and with it the vendor-identifying OUI — into
//! their IPv6 address (see [`crate::eui64`]). Appendix B of the paper uses
//! this to rank device manufacturers behind NTP-collected addresses.

use std::fmt;
use std::str::FromStr;

/// A 48-bit IEEE MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mac(pub [u8; 6]);

impl Mac {
    /// The locally-administered bit (second-least-significant bit of the
    /// first octet). When set, the address is not a globally unique
    /// IEEE-assigned identifier.
    #[inline]
    pub fn is_local(&self) -> bool {
        self.0[0] & 0x02 != 0
    }

    /// Globally unique ("universally administered") addresses have the
    /// local bit clear.
    #[inline]
    pub fn is_universal(&self) -> bool {
        !self.is_local()
    }

    /// The multicast (group) bit.
    #[inline]
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// The 24-bit organisationally unique identifier.
    #[inline]
    pub fn oui(&self) -> Oui {
        Oui([self.0[0], self.0[1], self.0[2]])
    }

    /// The 24-bit NIC-specific tail.
    #[inline]
    pub fn nic(&self) -> u32 {
        u32::from(self.0[3]) << 16 | u32::from(self.0[4]) << 8 | u32::from(self.0[5])
    }

    /// Builds a MAC from an OUI and a 24-bit NIC value (upper bits of `nic`
    /// are ignored).
    pub fn from_parts(oui: Oui, nic: u32) -> Mac {
        Mac([
            oui.0[0],
            oui.0[1],
            oui.0[2],
            (nic >> 16) as u8,
            (nic >> 8) as u8,
            nic as u8,
        ])
    }

    /// The raw 48 bits as a `u64` (upper 16 bits zero).
    pub fn to_u64(&self) -> u64 {
        self.0.iter().fold(0u64, |acc, &b| acc << 8 | u64::from(b))
    }

    /// Inverse of [`Mac::to_u64`]; upper 16 bits of the input are ignored.
    pub fn from_u64(v: u64) -> Mac {
        Mac([
            (v >> 40) as u8,
            (v >> 32) as u8,
            (v >> 24) as u8,
            (v >> 16) as u8,
            (v >> 8) as u8,
            v as u8,
        ])
    }
}

impl fmt::Display for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl fmt::Debug for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mac({self})")
    }
}

/// Error from parsing a [`Mac`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseMacError;

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address")
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for Mac {
    type Err = ParseMacError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = [0u8; 6];
        let mut n = 0;
        for part in s.split([':', '-']) {
            if n == 6 || part.len() != 2 {
                return Err(ParseMacError);
            }
            out[n] = u8::from_str_radix(part, 16).map_err(|_| ParseMacError)?;
            n += 1;
        }
        if n != 6 {
            return Err(ParseMacError);
        }
        Ok(Mac(out))
    }
}

/// A 24-bit organisationally unique identifier (the vendor part of a MAC).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oui(pub [u8; 3]);

impl Oui {
    /// Builds an OUI from its 24-bit numeric value (upper bits ignored).
    pub fn from_u32(v: u32) -> Oui {
        Oui([(v >> 16) as u8, (v >> 8) as u8, v as u8])
    }

    /// The 24-bit numeric value.
    pub fn to_u32(&self) -> u32 {
        u32::from(self.0[0]) << 16 | u32::from(self.0[1]) << 8 | u32::from(self.0[2])
    }
}

impl fmt::Display for Oui {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02X}-{:02X}-{:02X}", self.0[0], self.0[1], self.0[2])
    }
}

impl fmt::Debug for Oui {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Oui({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let m: Mac = "00:1f:3f:ab:cd:ef".parse().unwrap();
        assert_eq!(m.to_string(), "00:1f:3f:ab:cd:ef");
        let d: Mac = "00-1F-3F-AB-CD-EF".parse().unwrap();
        assert_eq!(m, d);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("00:1f:3f:ab:cd".parse::<Mac>().is_err()); // too short
        assert!("00:1f:3f:ab:cd:ef:00".parse::<Mac>().is_err()); // too long
        assert!("00:1f:3f:ab:cd:zz".parse::<Mac>().is_err()); // non-hex
        assert!("001f3fabcdef".parse::<Mac>().is_err()); // no separators
    }

    #[test]
    fn universal_vs_local_bit() {
        let universal: Mac = "00:1f:3f:00:00:01".parse().unwrap();
        assert!(universal.is_universal());
        assert!(!universal.is_local());
        let local: Mac = "02:00:00:00:00:01".parse().unwrap();
        assert!(local.is_local());
    }

    #[test]
    fn multicast_bit() {
        assert!("01:00:5e:00:00:01".parse::<Mac>().unwrap().is_multicast());
        assert!(!"00:00:5e:00:00:01".parse::<Mac>().unwrap().is_multicast());
    }

    #[test]
    fn oui_and_nic_split() {
        let m: Mac = "3c:a6:2f:12:34:56".parse().unwrap();
        assert_eq!(m.oui(), Oui([0x3c, 0xa6, 0x2f]));
        assert_eq!(m.nic(), 0x123456);
        assert_eq!(Mac::from_parts(m.oui(), m.nic()), m);
    }

    #[test]
    fn u64_roundtrip() {
        let m: Mac = "fe:dc:ba:98:76:54".parse().unwrap();
        assert_eq!(Mac::from_u64(m.to_u64()), m);
        assert_eq!(m.to_u64(), 0xfedc_ba98_7654);
    }

    #[test]
    fn oui_u32_roundtrip() {
        let o = Oui::from_u32(0x3ca62f);
        assert_eq!(o.to_u32(), 0x3ca62f);
        assert_eq!(o.to_string(), "3C-A6-2F");
    }
}
