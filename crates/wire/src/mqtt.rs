//! MQTT 3.1.1 CONNECT / CONNACK (OASIS spec §3.1, §3.2).
//!
//! The access-control probe of the paper (§4.4.2, Figure 3) is exactly
//! this exchange: connect **without credentials** and observe whether the
//! broker answers `Accepted` (open broker) or `NotAuthorized`/
//! `BadUserNameOrPassword` (access-controlled). The fixed header with its
//! variable-length "remaining length" encoding is implemented per spec.

use crate::{put_u16, WireError, WireResult};

/// MQTT control packet types (high nybble of the fixed header).
pub mod packet_type {
    /// Client connection request.
    pub const CONNECT: u8 = 1;
    /// Server connection acknowledgement.
    pub const CONNACK: u8 = 2;
}

/// CONNACK return codes (MQTT 3.1.1 table 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnectReturnCode {
    /// 0x00 — connection accepted.
    Accepted,
    /// 0x01 — unacceptable protocol version.
    UnacceptableProtocolVersion,
    /// 0x02 — identifier rejected.
    IdentifierRejected,
    /// 0x03 — server unavailable.
    ServerUnavailable,
    /// 0x04 — bad user name or password.
    BadUserNameOrPassword,
    /// 0x05 — not authorized.
    NotAuthorized,
}

impl ConnectReturnCode {
    /// Wire value.
    pub fn code(self) -> u8 {
        match self {
            ConnectReturnCode::Accepted => 0,
            ConnectReturnCode::UnacceptableProtocolVersion => 1,
            ConnectReturnCode::IdentifierRejected => 2,
            ConnectReturnCode::ServerUnavailable => 3,
            ConnectReturnCode::BadUserNameOrPassword => 4,
            ConnectReturnCode::NotAuthorized => 5,
        }
    }

    /// Decode.
    pub fn from_code(c: u8) -> WireResult<Self> {
        Ok(match c {
            0 => ConnectReturnCode::Accepted,
            1 => ConnectReturnCode::UnacceptableProtocolVersion,
            2 => ConnectReturnCode::IdentifierRejected,
            3 => ConnectReturnCode::ServerUnavailable,
            4 => ConnectReturnCode::BadUserNameOrPassword,
            5 => ConnectReturnCode::NotAuthorized,
            _ => return Err(WireError::Malformed("connack return code")),
        })
    }

    /// Does this code indicate the broker enforces access control against
    /// an anonymous client?
    pub fn indicates_access_control(self) -> bool {
        matches!(
            self,
            ConnectReturnCode::BadUserNameOrPassword | ConnectReturnCode::NotAuthorized
        )
    }
}

/// An MQTT CONNECT packet (subset: no will, QoS 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connect {
    /// Client identifier.
    pub client_id: String,
    /// Keep-alive seconds.
    pub keep_alive: u16,
    /// Optional user name.
    pub username: Option<String>,
    /// Optional password.
    pub password: Option<Vec<u8>>,
    /// Clean-session flag.
    pub clean_session: bool,
}

impl Connect {
    /// The anonymous probe the scanner sends: no credentials, clean
    /// session, research-identifying client id.
    pub fn anonymous_probe(client_id: &str) -> Connect {
        Connect {
            client_id: client_id.into(),
            keep_alive: 30,
            username: None,
            password: None,
            clean_session: true,
        }
    }

    /// Serialises fixed header + variable header + payload.
    pub fn emit(&self) -> Vec<u8> {
        // The remaining length is a varint, so the packet is sized
        // before it is written: the protocol name, 4 bytes of level,
        // flags and keep-alive, then each length-prefixed field.
        let field = |s: &[u8]| 2 + s.len();
        let remaining = field(b"MQTT")
            + 4
            + field(self.client_id.as_bytes())
            + self.username.as_ref().map_or(0, |u| field(u.as_bytes()))
            + self.password.as_ref().map_or(0, |p| field(p));
        let mut out = Vec::with_capacity(5 + remaining);
        out.push(packet_type::CONNECT << 4);
        put_remaining_length(&mut out, remaining);
        let header = out.len();
        put_utf8(&mut out, "MQTT");
        out.push(4); // protocol level 4 = MQTT 3.1.1
        let mut flags = 0u8;
        if self.clean_session {
            flags |= 0x02;
        }
        if self.username.is_some() {
            flags |= 0x80;
        }
        if self.password.is_some() {
            flags |= 0x40;
        }
        out.push(flags);
        put_u16(&mut out, self.keep_alive);
        put_utf8(&mut out, &self.client_id);
        if let Some(u) = &self.username {
            put_utf8(&mut out, u);
        }
        if let Some(p) = &self.password {
            put_u16(&mut out, p.len() as u16);
            out.extend_from_slice(p);
        }
        debug_assert_eq!(out.len() - header, remaining);
        out
    }

    /// Parses a CONNECT packet.
    pub fn parse(buf: &[u8]) -> WireResult<Connect> {
        let (ptype, body) = open_packet(buf)?;
        if ptype != packet_type::CONNECT {
            return Err(WireError::Malformed("not CONNECT"));
        }
        let mut off = 0;
        let proto = get_utf8(body, &mut off)?;
        if proto != "MQTT" {
            return Err(WireError::Malformed("protocol name"));
        }
        let level = *body.get(off).ok_or(WireError::Truncated)?;
        off += 1;
        if level != 4 {
            return Err(WireError::UnsupportedVersion);
        }
        let flags = *body.get(off).ok_or(WireError::Truncated)?;
        off += 1;
        let keep_alive = get_u16(body, &mut off)?;
        let client_id = get_utf8(body, &mut off)?;
        let username = if flags & 0x80 != 0 {
            Some(get_utf8(body, &mut off)?)
        } else {
            None
        };
        let password = if flags & 0x40 != 0 {
            let len = get_u16(body, &mut off)? as usize;
            if body.len() < off + len {
                return Err(WireError::Truncated);
            }
            Some(body[off..off + len].to_vec())
        } else {
            None
        };
        Ok(Connect {
            client_id,
            keep_alive,
            username,
            password,
            clean_session: flags & 0x02 != 0,
        })
    }
}

/// An MQTT CONNACK packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnAck {
    /// Session-present flag.
    pub session_present: bool,
    /// Return code.
    pub return_code: ConnectReturnCode,
}

impl ConnAck {
    /// Serialises.
    pub fn emit(&self) -> Vec<u8> {
        vec![
            packet_type::CONNACK << 4,
            2,
            u8::from(self.session_present),
            self.return_code.code(),
        ]
    }

    /// Parses.
    pub fn parse(buf: &[u8]) -> WireResult<ConnAck> {
        let (ptype, body) = open_packet(buf)?;
        if ptype != packet_type::CONNACK {
            return Err(WireError::Malformed("not CONNACK"));
        }
        if body.len() < 2 {
            return Err(WireError::Truncated);
        }
        Ok(ConnAck {
            session_present: body[0] & 1 != 0,
            return_code: ConnectReturnCode::from_code(body[1])?,
        })
    }
}

/// Encodes the MQTT variable-length "remaining length" (up to 4 bytes).
pub fn put_remaining_length(buf: &mut Vec<u8>, mut len: usize) {
    assert!(len <= 268_435_455, "remaining length overflow");
    loop {
        let mut byte = (len % 128) as u8;
        len /= 128;
        if len > 0 {
            byte |= 0x80;
        }
        buf.push(byte);
        if len == 0 {
            break;
        }
    }
}

/// Decodes a remaining length; returns (value, bytes used).
pub fn get_remaining_length(buf: &[u8]) -> WireResult<(usize, usize)> {
    let mut value = 0usize;
    let mut mult = 1usize;
    for (i, &b) in buf.iter().enumerate() {
        value += (b & 0x7f) as usize * mult;
        if b & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        mult *= 128;
        if i >= 3 {
            return Err(WireError::Malformed("remaining length"));
        }
    }
    Err(WireError::Truncated)
}

fn open_packet(buf: &[u8]) -> WireResult<(u8, &[u8])> {
    if buf.is_empty() {
        return Err(WireError::Truncated);
    }
    let ptype = buf[0] >> 4;
    let (len, used) = get_remaining_length(&buf[1..])?;
    let start = 1 + used;
    if buf.len() < start + len {
        return Err(WireError::Truncated);
    }
    Ok((ptype, &buf[start..start + len]))
}

fn put_utf8(buf: &mut Vec<u8>, s: &str) {
    put_u16(buf, s.len() as u16);
    buf.extend_from_slice(s.as_bytes());
}

fn get_u16(buf: &[u8], off: &mut usize) -> WireResult<u16> {
    if buf.len() < *off + 2 {
        return Err(WireError::Truncated);
    }
    let v = u16::from_be_bytes(buf[*off..*off + 2].try_into().unwrap());
    *off += 2;
    Ok(v)
}

fn get_utf8(buf: &[u8], off: &mut usize) -> WireResult<String> {
    let len = get_u16(buf, off)? as usize;
    if buf.len() < *off + len {
        return Err(WireError::Truncated);
    }
    let s = std::str::from_utf8(&buf[*off..*off + len])
        .map_err(|_| WireError::Malformed("utf-8"))?
        .to_string();
    *off += len;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anonymous_connect_roundtrip() {
        let c = Connect::anonymous_probe("ttscan-probe");
        let parsed = Connect::parse(&c.emit()).unwrap();
        assert_eq!(parsed, c);
        assert!(parsed.username.is_none());
        assert!(parsed.password.is_none());
        assert!(parsed.clean_session);
    }

    #[test]
    fn authenticated_connect_roundtrip() {
        let c = Connect {
            client_id: "dev-1".into(),
            keep_alive: 60,
            username: Some("user".into()),
            password: Some(b"secret".to_vec()),
            clean_session: false,
        };
        assert_eq!(Connect::parse(&c.emit()).unwrap(), c);
    }

    #[test]
    fn connack_codes_roundtrip() {
        for code in [
            ConnectReturnCode::Accepted,
            ConnectReturnCode::UnacceptableProtocolVersion,
            ConnectReturnCode::IdentifierRejected,
            ConnectReturnCode::ServerUnavailable,
            ConnectReturnCode::BadUserNameOrPassword,
            ConnectReturnCode::NotAuthorized,
        ] {
            let ack = ConnAck {
                session_present: false,
                return_code: code,
            };
            assert_eq!(ConnAck::parse(&ack.emit()).unwrap(), ack);
        }
        assert!(ConnectReturnCode::from_code(6).is_err());
    }

    #[test]
    fn access_control_semantics() {
        assert!(!ConnectReturnCode::Accepted.indicates_access_control());
        assert!(ConnectReturnCode::NotAuthorized.indicates_access_control());
        assert!(ConnectReturnCode::BadUserNameOrPassword.indicates_access_control());
        assert!(!ConnectReturnCode::ServerUnavailable.indicates_access_control());
    }

    #[test]
    fn remaining_length_spec_vectors() {
        // Spec examples: 0 → [0x00], 127 → [0x7f], 128 → [0x80, 0x01],
        // 16383 → [0xff, 0x7f], 268435455 → [0xff,0xff,0xff,0x7f].
        let cases: &[(usize, &[u8])] = &[
            (0, &[0x00]),
            (127, &[0x7f]),
            (128, &[0x80, 0x01]),
            (16_383, &[0xff, 0x7f]),
            (268_435_455, &[0xff, 0xff, 0xff, 0x7f]),
        ];
        for &(v, bytes) in cases {
            let mut buf = Vec::new();
            put_remaining_length(&mut buf, v);
            assert_eq!(&buf[..], bytes, "encode {v}");
            assert_eq!(get_remaining_length(bytes).unwrap(), (v, bytes.len()));
        }
    }

    #[test]
    fn remaining_length_rejects_overlong() {
        assert_eq!(
            get_remaining_length(&[0xff, 0xff, 0xff, 0xff, 0x7f]),
            Err(WireError::Malformed("remaining length"))
        );
        assert_eq!(get_remaining_length(&[0x80]), Err(WireError::Truncated));
    }

    #[test]
    fn wrong_packet_types_rejected() {
        let connect = Connect::anonymous_probe("x").emit();
        assert!(ConnAck::parse(&connect).is_err());
        let ack = ConnAck {
            session_present: false,
            return_code: ConnectReturnCode::Accepted,
        }
        .emit();
        assert!(Connect::parse(&ack).is_err());
    }

    #[test]
    fn protocol_level_5_rejected() {
        let mut bytes = Connect::anonymous_probe("x").emit();
        // protocol level is at offset: 1 (fixed) + 1 (remlen) + 2+4 ("MQTT") = 8
        bytes[8] = 5;
        assert_eq!(Connect::parse(&bytes), Err(WireError::UnsupportedVersion));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let full = Connect::anonymous_probe("scan").emit();
        for cut in 0..full.len() {
            assert!(Connect::parse(&full[..cut]).is_err(), "cut at {cut}");
        }
    }
}
