//! # v6addr — IPv6 address foundation
//!
//! Address-level building blocks shared by every other crate in the
//! `timetoscan` workspace:
//!
//! * [`Prefix`] — an IPv6 CIDR prefix with containment, truncation and
//!   iteration helpers; the unit of network aggregation (/32, /48, /56, /64).
//! * [`iid`] — interface-identifier extraction and classification into the
//!   structural classes the paper's Figure 1 reports (zero IIDs, low-byte
//!   "structured" IIDs, EUI-64 IIDs, and entropy buckets).
//! * [`mac`] / [`eui64`] — MAC addresses, OUIs, and the EUI-64 embedding
//!   used by SLAAC hosts (Appendix B of the paper).
//! * [`ouidb`] — an IEEE-style OUI → manufacturer registry.
//! * [`set`] — the deduplicating address hash set collection inserts
//!   into.
//! * [`hash`] — the address fold every address table hashes with.
//! * [`entropy`] — nybble-entropy measures used for IID classification and
//!   the entropy-based target-generation baseline.
//!
//! All types are plain data with no I/O; everything is deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entropy;
pub mod eui64;
pub mod hash;
pub mod iid;
pub mod mac;
pub mod ouidb;
pub mod prefix;
pub mod set;

pub use eui64::Eui64;
pub use iid::{classify_iid, classify_raw, Iid, IidClass, IidDistribution};
pub use mac::{Mac, Oui};
pub use ouidb::OuiDb;
pub use prefix::Prefix;
pub use set::AddrSet;

use std::net::Ipv6Addr;

/// Convenience constructor: an [`Ipv6Addr`] from a `u128`.
#[inline]
pub fn addr(bits: u128) -> Ipv6Addr {
    Ipv6Addr::from(bits)
}

/// The `u128` value of an address (big-endian interpretation, as in RFC 4291).
#[inline]
pub fn bits(a: Ipv6Addr) -> u128 {
    u128::from(a)
}
