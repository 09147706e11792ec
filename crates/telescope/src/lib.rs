//! # telescope — detecting NTP-sourcing scanners (paper §5)
//!
//! The study's final experiment flips perspective: instead of sourcing
//! addresses, it *baits* NTP-sourcing scanners. Every server in the pool
//! is queried from a **distinct source IPv6 address**; traffic arriving at
//! such an address afterwards can only come from an actor that recorded
//! it at the queried NTP server. Monitoring the surrounding address space
//! rules out coincidental scans.
//!
//! * [`vantage`] — unique-source query generation, the address ↔
//!   server ledger and the scatter monitor;
//! * [`capture`] — one captured packet at the vantage prefix;
//! * [`metrics`] — the sweep's metric keys.
//!
//! This crate is the instrument only: who scans it, and what the
//! capture says about them, is the `actors` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod metrics;
pub mod vantage;

pub use capture::CapturedPacket;
pub use vantage::Vantage;
