//! NTP packet format (RFC 5905 §7.3).
//!
//! This is the packet the whole study hinges on: every simulated client
//! builds a mode-3 (client) packet with these encoders, the collecting pool
//! servers parse it with this view — exactly the path a modified `ntpd`
//! takes when it records client addresses — and answer with a mode-4
//! (server) packet.
//!
//! The full 48-byte header is implemented, including the fields the study
//! itself never reads, so the packets on the simulated wire are
//! indistinguishable from real ones.

use crate::{WireError, WireResult};
use std::fmt;

/// Length of the NTP header (no extensions / MAC).
pub const HEADER_LEN: usize = 48;

/// The NTP era offset between the Unix epoch (1970) and the NTP epoch
/// (1900), in seconds.
pub const UNIX_TO_NTP_OFFSET: u64 = 2_208_988_800;

/// A 64-bit NTP timestamp: 32 bits of seconds since 1900 plus 32 bits of
/// binary fraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct NtpTimestamp(pub u64);

impl NtpTimestamp {
    /// Zero timestamp (meaning "unknown" on the wire).
    pub const ZERO: NtpTimestamp = NtpTimestamp(0);

    /// Builds from whole seconds + fraction.
    pub fn new(seconds: u32, fraction: u32) -> Self {
        NtpTimestamp((u64::from(seconds) << 32) | u64::from(fraction))
    }

    /// Builds from Unix seconds (sub-second part zero).
    pub fn from_unix_secs(secs: u64) -> Self {
        NtpTimestamp::new((secs + UNIX_TO_NTP_OFFSET) as u32, 0)
    }

    /// The seconds field.
    pub fn seconds(&self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Leap indicator (RFC 5905 Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeapIndicator {
    /// No warning.
    NoWarning,
    /// Last minute of the day has 61 seconds.
    LastMinute61,
    /// Last minute of the day has 59 seconds.
    LastMinute59,
    /// Clock unsynchronised.
    Unknown,
}

impl LeapIndicator {
    fn from_bits(v: u8) -> Self {
        match v & 0b11 {
            0 => LeapIndicator::NoWarning,
            1 => LeapIndicator::LastMinute61,
            2 => LeapIndicator::LastMinute59,
            _ => LeapIndicator::Unknown,
        }
    }

    fn bits(self) -> u8 {
        match self {
            LeapIndicator::NoWarning => 0,
            LeapIndicator::LastMinute61 => 1,
            LeapIndicator::LastMinute59 => 2,
            LeapIndicator::Unknown => 3,
        }
    }
}

/// Protocol association mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Reserved (0).
    Reserved,
    /// Symmetric active (1).
    SymmetricActive,
    /// Symmetric passive (2).
    SymmetricPassive,
    /// Client request (3) — what pool clients send.
    Client,
    /// Server response (4) — what pool servers answer.
    Server,
    /// Broadcast (5).
    Broadcast,
    /// NTP control message (6).
    Control,
    /// Private use (7).
    Private,
}

impl Mode {
    fn from_bits(v: u8) -> Self {
        match v & 0b111 {
            0 => Mode::Reserved,
            1 => Mode::SymmetricActive,
            2 => Mode::SymmetricPassive,
            3 => Mode::Client,
            4 => Mode::Server,
            5 => Mode::Broadcast,
            6 => Mode::Control,
            _ => Mode::Private,
        }
    }

    fn bits(self) -> u8 {
        match self {
            Mode::Reserved => 0,
            Mode::SymmetricActive => 1,
            Mode::SymmetricPassive => 2,
            Mode::Client => 3,
            Mode::Server => 4,
            Mode::Broadcast => 5,
            Mode::Control => 6,
            Mode::Private => 7,
        }
    }
}

/// A decoded NTP packet header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Leap indicator.
    pub leap: LeapIndicator,
    /// Protocol version (this implementation accepts 1..=4).
    pub version: u8,
    /// Association mode.
    pub mode: Mode,
    /// Stratum (0 = unspecified/KoD, 1 = primary, 2..15 secondary).
    pub stratum: u8,
    /// Log2 poll interval in seconds.
    pub poll: i8,
    /// Log2 clock precision in seconds.
    pub precision: i8,
    /// Root delay, NTP short format (16.16 fixed point).
    pub root_delay: u32,
    /// Root dispersion, NTP short format.
    pub root_dispersion: u32,
    /// Reference ID — stratum-1 source (`b"GPS\0"`), upstream address hash,
    /// or KoD code (`b"RATE"`).
    pub reference_id: [u8; 4],
    /// Time the system clock was last set.
    pub reference_ts: NtpTimestamp,
    /// Client transmit time, echoed by the server (origin).
    pub origin_ts: NtpTimestamp,
    /// Time the request arrived at the server.
    pub receive_ts: NtpTimestamp,
    /// Time this packet left the sender.
    pub transmit_ts: NtpTimestamp,
}

impl Packet {
    /// A fresh mode-3 client request carrying `transmit` as transmit time
    /// (the only field a minimal SNTP client sets).
    pub fn client_request(transmit: NtpTimestamp) -> Packet {
        Packet {
            leap: LeapIndicator::Unknown,
            version: 4,
            mode: Mode::Client,
            stratum: 0,
            poll: 6,
            precision: -20,
            root_delay: 0,
            root_dispersion: 0,
            reference_id: [0; 4],
            reference_ts: NtpTimestamp::ZERO,
            origin_ts: NtpTimestamp::ZERO,
            receive_ts: NtpTimestamp::ZERO,
            transmit_ts: transmit,
        }
    }

    /// A mode-4 server response to `request`, per RFC 5905 §8: echoes the
    /// client transmit time into origin, stamps receive/transmit.
    pub fn server_response(
        request: &Packet,
        stratum: u8,
        reference_id: [u8; 4],
        receive: NtpTimestamp,
        transmit: NtpTimestamp,
    ) -> Packet {
        Packet {
            leap: LeapIndicator::NoWarning,
            version: request.version,
            mode: Mode::Server,
            stratum,
            poll: request.poll,
            precision: -23,
            root_delay: 0x0000_0800,      // ~31 ms in 16.16
            root_dispersion: 0x0000_0400, // ~16 ms
            reference_id,
            reference_ts: receive,
            origin_ts: request.transmit_ts,
            receive_ts: receive,
            transmit_ts: transmit,
        }
    }

    /// A Kiss-o'-Death packet (stratum 0) with the given kiss code, e.g.
    /// `b"RATE"` for rate limiting.
    pub fn kiss_of_death(request: &Packet, code: [u8; 4]) -> Packet {
        let mut p =
            Packet::server_response(request, 0, code, NtpTimestamp::ZERO, NtpTimestamp::ZERO);
        p.leap = LeapIndicator::Unknown;
        p
    }

    /// Is this a KoD packet?
    pub fn is_kiss_of_death(&self) -> bool {
        self.mode == Mode::Server && self.stratum == 0
    }

    /// The kiss code as ASCII, if this is a KoD packet.
    pub fn kiss_code(&self) -> Option<&str> {
        if self.is_kiss_of_death() {
            std::str::from_utf8(&self.reference_id).ok()
        } else {
            None
        }
    }

    /// Serialises the 48-byte header, each field big-endian at its
    /// RFC 5905 offset. The header lives on the stack; a caller that
    /// needs an owned buffer takes one `.to_vec()`.
    pub fn emit(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[0] = (self.leap.bits() << 6) | ((self.version & 0b111) << 3) | self.mode.bits();
        buf[1] = self.stratum;
        buf[2] = self.poll as u8;
        buf[3] = self.precision as u8;
        buf[4..8].copy_from_slice(&self.root_delay.to_be_bytes());
        buf[8..12].copy_from_slice(&self.root_dispersion.to_be_bytes());
        buf[12..16].copy_from_slice(&self.reference_id);
        buf[16..24].copy_from_slice(&self.reference_ts.0.to_be_bytes());
        buf[24..32].copy_from_slice(&self.origin_ts.0.to_be_bytes());
        buf[32..40].copy_from_slice(&self.receive_ts.0.to_be_bytes());
        buf[40..48].copy_from_slice(&self.transmit_ts.0.to_be_bytes());
        buf
    }

    /// Parses a header from the front of `buf`. Trailing bytes (extension
    /// fields, MAC) are ignored, as RFC 5905 allows.
    pub fn parse(buf: &[u8]) -> WireResult<Packet> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let b0 = buf[0];
        let version = (b0 >> 3) & 0b111;
        if version == 0 || version > 4 {
            return Err(WireError::UnsupportedVersion);
        }
        let rd = |i: usize| u32::from_be_bytes(buf[i..i + 4].try_into().unwrap());
        let rq = |i: usize| u64::from_be_bytes(buf[i..i + 8].try_into().unwrap());
        Ok(Packet {
            leap: LeapIndicator::from_bits(b0 >> 6),
            version,
            mode: Mode::from_bits(b0),
            stratum: buf[1],
            poll: buf[2] as i8,
            precision: buf[3] as i8,
            root_delay: rd(4),
            root_dispersion: rd(8),
            reference_id: buf[12..16].try_into().unwrap(),
            reference_ts: NtpTimestamp(rq(16)),
            origin_ts: NtpTimestamp(rq(24)),
            receive_ts: NtpTimestamp(rq(32)),
            transmit_ts: NtpTimestamp(rq(40)),
        })
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NTPv{} {:?} stratum {} poll 2^{}s",
            self.version, self.mode, self.stratum, self.poll
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_request_roundtrip() {
        let t = NtpTimestamp::from_unix_secs(1_721_500_000);
        let req = Packet::client_request(t);
        let bytes = req.emit();
        assert_eq!(bytes.len(), HEADER_LEN);
        let parsed = Packet::parse(&bytes).unwrap();
        assert_eq!(parsed, req);
        assert_eq!(parsed.mode, Mode::Client);
        assert_eq!(parsed.version, 4);
        assert_eq!(parsed.transmit_ts, t);
    }

    #[test]
    fn first_byte_packing() {
        let req = Packet::client_request(NtpTimestamp::ZERO);
        let bytes = req.emit();
        // LI=3 (unknown), VN=4, Mode=3 → 0b11_100_011 = 0xe3,
        // the canonical first byte of an SNTP client request.
        assert_eq!(bytes[0], 0xe3);
    }

    #[test]
    fn server_response_echoes_origin() {
        let t_client = NtpTimestamp::new(3_930_488_800, 1 << 30);
        let req = Packet::client_request(t_client);
        let rx = NtpTimestamp::new(3_930_488_800, 1 << 31);
        let tx = NtpTimestamp::new(3_930_488_801, 0);
        let resp = Packet::server_response(&req, 2, *b"\xc0\x00\x02\x01", rx, tx);
        assert_eq!(resp.mode, Mode::Server);
        assert_eq!(resp.origin_ts, t_client);
        assert_eq!(resp.receive_ts, rx);
        assert_eq!(resp.transmit_ts, tx);
        assert!(!resp.is_kiss_of_death());
        let parsed = Packet::parse(&resp.emit()).unwrap();
        assert_eq!(parsed, resp);
    }

    /// The roundtrip tests pass for any field order `emit` and `parse`
    /// share; this pins the RFC 5905 Figure 8 layout itself, with every
    /// timestamp, both short-format words and the refid distinct.
    #[test]
    fn server_response_bytes_follow_rfc5905() {
        let req = Packet::client_request(NtpTimestamp::new(0xeaaa_0002, 0x20));
        let mut resp = Packet::server_response(
            &req,
            2,
            *b"GPS\0",
            NtpTimestamp::new(0xeaaa_0003, 0x30),
            NtpTimestamp::new(0xeaaa_0004, 0x40),
        );
        resp.reference_ts = NtpTimestamp::new(0xeaaa_0001, 0x10);
        let expected: [u8; HEADER_LEN] = [
            0x24, 0x02, 0x06, 0xe9, // LI 0 VN 4 mode 4, stratum, poll, precision
            0x00, 0x00, 0x08, 0x00, // root delay
            0x00, 0x00, 0x04, 0x00, // root dispersion
            b'G', b'P', b'S', 0x00, // reference id
            0xea, 0xaa, 0x00, 0x01, 0x00, 0x00, 0x00, 0x10, // reference
            0xea, 0xaa, 0x00, 0x02, 0x00, 0x00, 0x00, 0x20, // origin
            0xea, 0xaa, 0x00, 0x03, 0x00, 0x00, 0x00, 0x30, // receive
            0xea, 0xaa, 0x00, 0x04, 0x00, 0x00, 0x00, 0x40, // transmit
        ];
        assert_eq!(resp.emit(), expected);
        assert_eq!(Packet::parse(&expected).unwrap(), resp);
    }

    #[test]
    fn kiss_of_death_rate() {
        let req = Packet::client_request(NtpTimestamp::ZERO);
        let kod = Packet::kiss_of_death(&req, *b"RATE");
        assert!(kod.is_kiss_of_death());
        assert_eq!(kod.kiss_code(), Some("RATE"));
        assert_eq!(kod.stratum, 0);
        let normal =
            Packet::server_response(&req, 2, [0; 4], NtpTimestamp::ZERO, NtpTimestamp::ZERO);
        assert_eq!(normal.kiss_code(), None);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(Packet::parse(&[0u8; 47]), Err(WireError::Truncated));
        assert_eq!(Packet::parse(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_ignored() {
        let req = Packet::client_request(NtpTimestamp::ZERO);
        let mut bytes = req.emit().to_vec();
        bytes.extend_from_slice(&[0xaa; 20]); // fake extension field
        assert_eq!(Packet::parse(&bytes).unwrap(), req);
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = Packet::client_request(NtpTimestamp::ZERO).emit();
        bytes[0] = (bytes[0] & !0b0011_1000) | (5 << 3); // VN=5
        assert_eq!(Packet::parse(&bytes), Err(WireError::UnsupportedVersion));
        bytes[0] &= !0b0011_1000; // VN=0
        assert_eq!(Packet::parse(&bytes), Err(WireError::UnsupportedVersion));
    }

    #[test]
    fn unix_secs_start_at_the_ntp_era_offset() {
        assert_eq!(
            NtpTimestamp::from_unix_secs(0).seconds() as u64,
            UNIX_TO_NTP_OFFSET
        );
    }

    #[test]
    fn timestamp_parts() {
        let t = NtpTimestamp::new(0x1234_5678, 0x9abc_def0);
        assert_eq!(t.seconds(), 0x1234_5678);
        assert_eq!(t.0 as u32, 0x9abc_def0);
    }

    #[test]
    fn all_modes_roundtrip() {
        for m in 0u8..8 {
            let mode = Mode::from_bits(m);
            assert_eq!(mode.bits(), m);
        }
        for l in 0u8..4 {
            let leap = LeapIndicator::from_bits(l);
            assert_eq!(leap.bits(), l);
        }
    }
}
