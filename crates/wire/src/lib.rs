//! # wire — protocol wire formats
//!
//! Byte-exact encoders and parsers for every protocol the study touches,
//! written in the smoltcp idiom: typed packet views over byte buffers,
//! explicit `Error` enums instead of panics, and emit/parse round-trip
//! guarantees (property-tested).
//!
//! | Module | Protocol | Coverage |
//! |---|---|---|
//! | [`ntp`] | NTP (RFC 5905) | full 48-byte header, client/server modes, KoD |
//! | [`http`] | HTTP/1.1 | request serialisation, response parsing, title extraction |
//! | [`ssh`] | SSH 2.0 transport | identification exchange, host-key fingerprint handshake (simplified KEX) |
//! | [`tls`] | TLS (structural) | ClientHello/ServerHello/Certificate records — no cryptography (see DESIGN.md) |
//! | [`mqtt`] | MQTT 3.1.1 | CONNECT/CONNACK incl. return codes used for access-control probing |
//! | [`amqp`] | AMQP 0-9-1 | protocol header, Connection.Start frame, SASL mechanisms |
//! | [`coap`] | CoAP (RFC 7252) | full message codec, options, `/.well-known/core` link format (RFC 6690) |
//!
//! What is deliberately **not** implemented: TCP/IP segmentation (the
//! simulator delivers whole application-layer messages), TLS cryptography
//! (the paper analyses certificate metadata only), SSH encryption (only the
//! plaintext pre-encryption phase is scanned), HTTP chunked encoding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amqp;
pub mod coap;
pub mod http;
pub mod mqtt;
pub mod ntp;
pub mod ssh;
pub mod tls;

use std::fmt;

/// Appends `v` big-endian, as every encoder here writes its integers.
#[inline]
pub(crate) fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Appends `v` big-endian.
#[inline]
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Appends `v` big-endian.
#[inline]
pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// A common parse error for all wire modules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the fixed header requires.
    Truncated,
    /// A field held a value the format forbids.
    Malformed(&'static str),
    /// A version this implementation does not speak.
    UnsupportedVersion,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated"),
            WireError::Malformed(what) => write!(f, "malformed field: {what}"),
            WireError::UnsupportedVersion => write!(f, "unsupported protocol version"),
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for wire operations.
pub type WireResult<T> = Result<T, WireError>;
