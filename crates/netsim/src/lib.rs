//! # netsim — a deterministic simulated IPv6 Internet
//!
//! The study's substrate. The real measurement ran against the live
//! Internet; this crate provides the closest laptop-scale equivalent: a
//! seeded synthetic world of autonomous systems, prefixes, countries and
//! devices whose observable behaviour — NTP polling, dynamic prefixes,
//! SLAAC addressing, application-layer services answering probe bytes —
//! exercises the same pipeline code the live study would.
//!
//! Components:
//!
//! * [`time`] — simulation clock ([`time::SimTime`], seconds since the
//!   study epoch) and an event queue ([`engine::EventQueue`]).
//! * [`country`] — the country/zone registry with client-population
//!   weights (India dwarfs the rest, as the paper's Table 7 shows).
//! * [`topology`] — ASes with types, countries and /32 allocations;
//!   address → AS lookup.
//! * [`peeringdb`] — the synthetic PeeringDB: AS → type
//!   ("Cable/DSL/ISP" vs NSP/Content/…), used for Figure 1's AS labels.
//! * [`geodb`] — the synthetic GeoLite2: address → country.
//! * [`services`] — per-device service profiles (HTTP title + TLS cert,
//!   SSH software/patch level + host key, MQTT/AMQP auth, CoAP resources).
//! * [`archetype`] — the device archetypes the paper finds (FRITZ!Box,
//!   Raspbian Pis, D-LINK infra, 3CX, cast devices, qlink Wi-Fi, CDN
//!   front-ends, …) with their addressing and exposure behaviour.
//! * [`device`] — device state: addressing mode, prefix churn, NTP client
//!   configuration, time-dependent address computation.
//! * [`bgp`] — a deterministic synthetic route feed (announce/withdraw
//!   events over the topology's allocations) that BGP-signal-adaptive
//!   scanners consume.
//! * [`procgen`] — pure per-coordinate derivation of households, devices
//!   and prefixes from `(seed, AS, index, member)`.
//! * [`world`] — the assembled world: the O(#ASes) layout plus a bounded
//!   cache of derived devices, reverse address lookup at a point in
//!   time, and the probe dispatcher that parses scanner bytes and
//!   produces response bytes.
//! * [`engine`] — a calendar-queue discrete-event scheduler used to drive NTP
//!   polling chronologically.
//! * [`transport`] — the byte-exchange layer between any client and the
//!   world: an [`transport::Ideal`] pass-through and a
//!   [`transport::Faulty`] implementation with stateless-hash loss,
//!   latency, and truncation.
//! * [`instrument`] — [`instrument::TransportTotals`], the plain tally
//!   each stage counts its exchanges into (sends, losses, truncations,
//!   injected RTTs) and exports into a `telemetry::Registry`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archetype;
pub mod bgp;
pub mod country;
pub mod device;
pub mod engine;
pub mod geodb;
pub mod instrument;
pub mod peeringdb;
pub mod procgen;
pub mod services;
pub mod stats;
pub mod time;
pub mod topology;
pub mod transport;
pub mod world;

pub use archetype::DeviceKind;
pub use bgp::{BgpEvent, BgpFeed};
pub use country::Country;
pub use device::{Device, DeviceId, DeviceMeta, PollCard};
pub use instrument::TransportTotals;
pub use peeringdb::OrgId;
pub use time::{Duration, SimTime};
pub use topology::{AsInfo, Asn, Topology};
pub use transport::{Delivery, FaultConfig, FaultProfile, Faulty, Ideal, Link, Transport};
pub use world::{Resolution, World, WorldConfig};

/// Deterministic 64-bit mix used everywhere the simulation needs a
/// pseudo-random but reproducible value derived from identifiers
/// (splitmix64 finaliser).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Combines two values into one deterministic hash.
#[inline]
pub fn mix2(a: u64, b: u64) -> u64 {
    mix64(a ^ mix64(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_deterministic_and_spreading() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(1), mix64(2));
        assert_ne!(mix2(1, 2), mix2(2, 1));
    }
}
