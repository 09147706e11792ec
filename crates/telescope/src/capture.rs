//! Packet capture at the vantage prefix.

use netsim::time::SimTime;
use std::net::Ipv6Addr;

/// One captured inbound packet (a scan probe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapturedPacket {
    /// Destination (a vantage or monitored address).
    pub dst: Ipv6Addr,
    /// Source address of the scanner host.
    pub src: Ipv6Addr,
    /// Destination port.
    pub port: u16,
    /// Arrival time.
    pub time: SimTime,
}
