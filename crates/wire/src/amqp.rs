//! AMQP 0-9-1 connection opening (subset).
//!
//! A scanner probing an AMQP broker sends the 8-byte protocol header
//! `AMQP\x00\x00\x09\x01`; a live broker answers with a
//! `Connection.Start` method frame advertising its SASL mechanisms, which
//! reveals whether anonymous access is possible — the access-control
//! signal of the paper's Figure 3. Brokers that require TLS or reject the
//! version answer with their own protocol header instead.
//!
//! Implemented: the protocol header, the general frame format
//! (type/channel/size/payload/frame-end 0xCE), and `Connection.Start`
//! with the field subset the probe reads.

use crate::{put_u16, put_u32, WireError, WireResult};

/// The AMQP 0-9-1 protocol header.
pub const PROTOCOL_HEADER: [u8; 8] = *b"AMQP\x00\x00\x09\x01";

/// Frame-end octet.
pub const FRAME_END: u8 = 0xCE;

/// Frame types.
pub mod frame_type {
    /// Method frame.
    pub const METHOD: u8 = 1;
}

/// Class / method ids used here.
pub mod class {
    /// Connection class (10).
    pub const CONNECTION: u16 = 10;
    /// Connection.Start method id.
    pub const METHOD_START: u16 = 10;
}

/// `Connection.Start`: the broker's greeting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionStart {
    /// Protocol major version (0).
    pub version_major: u8,
    /// Protocol minor version (9).
    pub version_minor: u8,
    /// Space-separated SASL mechanisms, e.g. `"PLAIN AMQPLAIN"` or
    /// `"ANONYMOUS PLAIN"`.
    pub mechanisms: String,
    /// Space-separated locales.
    pub locales: String,
    /// Broker product name (from server-properties; flattened to one
    /// string here — the probe only logs it).
    pub product: String,
}

impl ConnectionStart {
    /// A typical RabbitMQ-style greeting.
    pub fn new(mechanisms: &str, product: &str) -> ConnectionStart {
        ConnectionStart {
            version_major: 0,
            version_minor: 9,
            mechanisms: mechanisms.into(),
            locales: "en_US".into(),
            product: product.into(),
        }
    }

    /// Serialises as a full method frame on channel 0.
    pub fn emit(&self) -> Vec<u8> {
        emit_method_frame(class::CONNECTION, class::METHOD_START, |args| {
            args.push(self.version_major);
            args.push(self.version_minor);
            put_longstr(args, self.product.as_bytes()); // stand-in for the server-properties table
            put_longstr(args, self.mechanisms.as_bytes());
            put_longstr(args, self.locales.as_bytes());
        })
    }

    /// Parses from a full frame.
    pub fn parse(buf: &[u8]) -> WireResult<ConnectionStart> {
        let (class_id, method_id, args) = open_method_frame(buf)?;
        if class_id != class::CONNECTION || method_id != class::METHOD_START {
            return Err(WireError::Malformed("not Connection.Start"));
        }
        if args.len() < 2 {
            return Err(WireError::Truncated);
        }
        let mut off = 2;
        let product = get_longstr(args, &mut off)?;
        let mechanisms = get_longstr(args, &mut off)?;
        let locales = get_longstr(args, &mut off)?;
        Ok(ConnectionStart {
            version_major: args[0],
            version_minor: args[1],
            product: String::from_utf8(product).map_err(|_| WireError::Malformed("utf-8"))?,
            mechanisms: String::from_utf8(mechanisms).map_err(|_| WireError::Malformed("utf-8"))?,
            locales: String::from_utf8(locales).map_err(|_| WireError::Malformed("utf-8"))?,
        })
    }
}

/// A method frame on channel 0: the frame header, class and method
/// ids, the arguments `write_args` appends in place, the payload length
/// patched into the header, then the frame end.
fn emit_method_frame(
    class_id: u16,
    method_id: u16,
    write_args: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = vec![frame_type::METHOD];
    put_u16(&mut out, 0); // channel 0
    put_u32(&mut out, 0); // payload length, patched below
    put_u16(&mut out, class_id);
    put_u16(&mut out, method_id);
    write_args(&mut out);
    let len = (out.len() - 7) as u32;
    out[3..7].copy_from_slice(&len.to_be_bytes());
    out.push(FRAME_END);
    out
}

fn open_method_frame(buf: &[u8]) -> WireResult<(u16, u16, &[u8])> {
    if buf.len() < 8 {
        return Err(WireError::Truncated);
    }
    if buf[0] != frame_type::METHOD {
        return Err(WireError::Malformed("frame type"));
    }
    let size = u32::from_be_bytes(buf[3..7].try_into().unwrap()) as usize;
    if buf.len() < 7 + size + 1 {
        return Err(WireError::Truncated);
    }
    if buf[7 + size] != FRAME_END {
        return Err(WireError::Malformed("frame end"));
    }
    let payload = &buf[7..7 + size];
    if payload.len() < 4 {
        return Err(WireError::Truncated);
    }
    Ok((
        u16::from_be_bytes(payload[..2].try_into().unwrap()),
        u16::from_be_bytes(payload[2..4].try_into().unwrap()),
        &payload[4..],
    ))
}

fn put_longstr(buf: &mut Vec<u8>, s: &[u8]) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s);
}

fn get_longstr(buf: &[u8], off: &mut usize) -> WireResult<Vec<u8>> {
    if buf.len() < *off + 4 {
        return Err(WireError::Truncated);
    }
    let len = u32::from_be_bytes(buf[*off..*off + 4].try_into().unwrap()) as usize;
    *off += 4;
    if buf.len() < *off + len {
        return Err(WireError::Truncated);
    }
    let out = buf[*off..*off + len].to_vec();
    *off += len;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_header_bytes() {
        assert_eq!(&PROTOCOL_HEADER, b"AMQP\x00\x00\x09\x01");
    }

    #[test]
    fn connection_start_roundtrip() {
        let s = ConnectionStart::new("PLAIN AMQPLAIN", "RabbitMQ 3.12");
        let parsed = ConnectionStart::parse(&s.emit()).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.version_major, 0);
        assert_eq!(parsed.version_minor, 9);
    }

    #[test]
    fn frame_end_enforced() {
        let mut bytes = ConnectionStart::new("PLAIN", "x").emit();
        let last = bytes.len() - 1;
        bytes[last] = 0x00;
        assert_eq!(
            ConnectionStart::parse(&bytes),
            Err(WireError::Malformed("frame end"))
        );
    }

    #[test]
    fn truncation_rejected() {
        let full = ConnectionStart::new("PLAIN AMQPLAIN", "RabbitMQ").emit();
        for cut in [0, 4, 7, full.len() - 1] {
            assert!(ConnectionStart::parse(&full[..cut]).is_err());
        }
    }

    /// What a broker may answer besides its greeting — another method
    /// (here `Connection.Close`, method 50), its own protocol header, or
    /// garbage — is not a `Connection.Start`.
    #[test]
    fn wrong_method_rejected() {
        let close = emit_method_frame(class::CONNECTION, 50, |args| put_u16(args, 403));
        for answer in [&close[..], &PROTOCOL_HEADER, b"\x02junk"] {
            assert!(ConnectionStart::parse(answer).is_err(), "{answer:?}");
        }
    }
}
