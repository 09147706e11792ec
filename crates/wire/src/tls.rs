//! Structural TLS handshake (no cryptography).
//!
//! The study uses TLS for exactly three things: (i) did the handshake
//! succeed, (ii) the server certificate's fingerprint (host dedup), and
//! (iii) certificate metadata (subject, issuer, validity, self-signed).
//! Accordingly this module implements a TLS-shaped record layer and the
//! ClientHello → ServerHello + Certificate exchange with real framing, but
//! certificates are structural records rather than X.509 DER and no key
//! exchange happens. See DESIGN.md's substitution table.
//!
//! The hyperscaler behaviour the paper highlights — 356 M Cloudfront
//! addresses failing the handshake because the scanner sends no hostname —
//! is reproduced via the SNI extension: simulated CDN front-ends answer a
//! ClientHello without SNI with an `unrecognized_name` alert.

use crate::ssh::fingerprint_bytes;
use crate::{put_u16, put_u64, WireError, WireResult};

/// TLS record content types.
pub mod content {
    /// Alert record.
    pub const ALERT: u8 = 21;
    /// Handshake record.
    pub const HANDSHAKE: u8 = 22;
}

/// TLS protocol versions (wire encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Version {
    /// TLS 1.0 (0x0301)
    Tls10,
    /// TLS 1.1 (0x0302)
    Tls11,
    /// TLS 1.2 (0x0303)
    Tls12,
    /// TLS 1.3 (0x0304)
    Tls13,
}

impl Version {
    /// Wire encoding.
    pub fn to_u16(self) -> u16 {
        match self {
            Version::Tls10 => 0x0301,
            Version::Tls11 => 0x0302,
            Version::Tls12 => 0x0303,
            Version::Tls13 => 0x0304,
        }
    }

    /// Decodes a wire version.
    pub fn from_u16(v: u16) -> WireResult<Version> {
        match v {
            0x0301 => Ok(Version::Tls10),
            0x0302 => Ok(Version::Tls11),
            0x0303 => Ok(Version::Tls12),
            0x0304 => Ok(Version::Tls13),
            _ => Err(WireError::UnsupportedVersion),
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Version::Tls10 => "TLS 1.0",
            Version::Tls11 => "TLS 1.1",
            Version::Tls12 => "TLS 1.2",
            Version::Tls13 => "TLS 1.3",
        }
    }
}

/// Alert descriptions the simulation produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Alert {
    /// 40 — generic handshake failure.
    HandshakeFailure,
    /// 112 — server requires a hostname it did not get (CDN front-ends).
    UnrecognizedName,
    /// 70 — client offered only versions the server rejects.
    ProtocolVersion,
}

impl Alert {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            Alert::HandshakeFailure => 40,
            Alert::UnrecognizedName => 112,
            Alert::ProtocolVersion => 70,
        }
    }

    /// Decode.
    pub fn from_code(c: u8) -> WireResult<Alert> {
        match c {
            40 => Ok(Alert::HandshakeFailure),
            112 => Ok(Alert::UnrecognizedName),
            70 => Ok(Alert::ProtocolVersion),
            _ => Err(WireError::Malformed("alert code")),
        }
    }
}

/// A structural certificate: the metadata the paper's analyses consume.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Certificate {
    /// Subject common name.
    pub subject: String,
    /// Issuer common name (equal to subject for self-signed).
    pub issuer: String,
    /// Serial number.
    pub serial: u64,
    /// Validity start, Unix seconds.
    pub not_before: u64,
    /// Validity end, Unix seconds.
    pub not_after: u64,
    /// Opaque public-key bytes; the fingerprint input.
    pub key_blob: Vec<u8>,
}

impl Certificate {
    /// Is the certificate self-signed (subject == issuer)?
    pub fn is_self_signed(&self) -> bool {
        self.subject == self.issuer
    }

    /// The certificate fingerprint used as the host-dedup key.
    pub fn fingerprint(&self) -> [u8; 32] {
        let mut data = self.key_blob.clone();
        data.extend_from_slice(self.subject.as_bytes());
        data.extend_from_slice(&self.serial.to_be_bytes());
        fingerprint_bytes(&data)
    }

    fn emit_into(&self, buf: &mut Vec<u8>) {
        put_str16(buf, &self.subject);
        put_str16(buf, &self.issuer);
        put_u64(buf, self.serial);
        put_u64(buf, self.not_before);
        put_u64(buf, self.not_after);
        put_bytes16(buf, &self.key_blob);
    }

    fn parse_from(buf: &[u8], off: &mut usize) -> WireResult<Certificate> {
        let subject = get_str16(buf, off)?;
        let issuer = get_str16(buf, off)?;
        let serial = get_u64(buf, off)?;
        let not_before = get_u64(buf, off)?;
        let not_after = get_u64(buf, off)?;
        let key_blob = get_bytes16(buf, off)?;
        Ok(Certificate {
            subject,
            issuer,
            serial,
            not_before,
            not_after,
            key_blob,
        })
    }
}

/// ClientHello: offered version and optional SNI hostname.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// Highest version the client offers.
    pub version: Version,
    /// Server-name indication; `None` models a raw IP-literal scan.
    pub server_name: Option<String>,
}

impl ClientHello {
    /// Serialises as a handshake record.
    pub fn emit(&self) -> Vec<u8> {
        record(content::HANDSHAKE, self.version, |body| {
            body.push(1); // handshake type: client_hello
            put_u16(body, self.version.to_u16());
            match &self.server_name {
                Some(name) => {
                    body.push(1);
                    put_str16(body, name);
                }
                None => body.push(0),
            }
        })
    }

    /// Parses from a full record.
    pub fn parse(buf: &[u8]) -> WireResult<ClientHello> {
        let (ctype, _ver, body) = open_record(buf)?;
        if ctype != content::HANDSHAKE || body.first() != Some(&1) {
            return Err(WireError::Malformed("not a ClientHello"));
        }
        let mut off = 1;
        let version = Version::from_u16(get_u16(body, &mut off)?)?;
        let has_sni = *body.get(off).ok_or(WireError::Truncated)?;
        off += 1;
        let server_name = if has_sni == 1 {
            Some(get_str16(body, &mut off)?)
        } else {
            None
        };
        Ok(ClientHello {
            version,
            server_name,
        })
    }
}

/// The server's answer to a ClientHello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerResponse {
    /// Handshake proceeds: negotiated version + server certificate.
    Hello {
        /// Version the server selected.
        version: Version,
        /// The server certificate.
        certificate: Certificate,
    },
    /// Handshake aborted with an alert.
    Alert(Alert),
}

impl ServerResponse {
    /// Serialises as one record.
    pub fn emit(&self) -> Vec<u8> {
        match self {
            ServerResponse::Hello {
                version,
                certificate,
            } => record(content::HANDSHAKE, *version, |body| {
                body.push(2); // handshake type: server_hello
                put_u16(body, version.to_u16());
                certificate.emit_into(body);
            }),
            ServerResponse::Alert(a) => record(content::ALERT, Version::Tls12, |body| {
                body.extend_from_slice(&[2, a.code()]); // level: fatal
            }),
        }
    }

    /// Parses one record.
    pub fn parse(buf: &[u8]) -> WireResult<ServerResponse> {
        let (ctype, _ver, body) = open_record(buf)?;
        match ctype {
            content::ALERT => {
                if body.len() < 2 {
                    return Err(WireError::Truncated);
                }
                Ok(ServerResponse::Alert(Alert::from_code(body[1])?))
            }
            content::HANDSHAKE => {
                if body.first() != Some(&2) {
                    return Err(WireError::Malformed("not a ServerHello"));
                }
                let mut off = 1;
                let version = Version::from_u16(get_u16(body, &mut off)?)?;
                let certificate = Certificate::parse_from(body, &mut off)?;
                Ok(ServerResponse::Hello {
                    version,
                    certificate,
                })
            }
            _ => Err(WireError::Malformed("content type")),
        }
    }
}

/// One record: the 5-byte header, the body `write_body` appends in
/// place, then the body's length patched into the header.
fn record(ctype: u8, version: Version, write_body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = vec![ctype];
    put_u16(&mut buf, version.to_u16());
    put_u16(&mut buf, 0); // body length, patched below
    write_body(&mut buf);
    let len = (buf.len() - 5) as u16;
    buf[3..5].copy_from_slice(&len.to_be_bytes());
    buf
}

fn open_record(buf: &[u8]) -> WireResult<(u8, u16, &[u8])> {
    if buf.len() < 5 {
        return Err(WireError::Truncated);
    }
    let len = u16::from_be_bytes(buf[3..5].try_into().unwrap()) as usize;
    if buf.len() < 5 + len {
        return Err(WireError::Truncated);
    }
    Ok((
        buf[0],
        u16::from_be_bytes(buf[1..3].try_into().unwrap()),
        &buf[5..5 + len],
    ))
}

fn put_str16(buf: &mut Vec<u8>, s: &str) {
    put_bytes16(buf, s.as_bytes());
}

fn put_bytes16(buf: &mut Vec<u8>, b: &[u8]) {
    put_u16(buf, b.len() as u16);
    buf.extend_from_slice(b);
}

fn get_u16(buf: &[u8], off: &mut usize) -> WireResult<u16> {
    if buf.len() < *off + 2 {
        return Err(WireError::Truncated);
    }
    let v = u16::from_be_bytes(buf[*off..*off + 2].try_into().unwrap());
    *off += 2;
    Ok(v)
}

fn get_u64(buf: &[u8], off: &mut usize) -> WireResult<u64> {
    if buf.len() < *off + 8 {
        return Err(WireError::Truncated);
    }
    let v = u64::from_be_bytes(buf[*off..*off + 8].try_into().unwrap());
    *off += 8;
    Ok(v)
}

fn get_bytes16(buf: &[u8], off: &mut usize) -> WireResult<Vec<u8>> {
    let len = get_u16(buf, off)? as usize;
    if buf.len() < *off + len {
        return Err(WireError::Truncated);
    }
    let out = buf[*off..*off + len].to_vec();
    *off += len;
    Ok(out)
}

fn get_str16(buf: &[u8], off: &mut usize) -> WireResult<String> {
    String::from_utf8(get_bytes16(buf, off)?).map_err(|_| WireError::Malformed("utf-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cert() -> Certificate {
        Certificate {
            subject: "fritz.box".into(),
            issuer: "fritz.box".into(),
            serial: 42,
            not_before: 1_700_000_000,
            not_after: 1_760_000_000,
            key_blob: vec![9, 8, 7],
        }
    }

    #[test]
    fn client_hello_roundtrip_with_sni() {
        let ch = ClientHello {
            version: Version::Tls13,
            server_name: Some("example.org".into()),
        };
        assert_eq!(ClientHello::parse(&ch.emit()).unwrap(), ch);
    }

    #[test]
    fn client_hello_roundtrip_without_sni() {
        let ch = ClientHello {
            version: Version::Tls12,
            server_name: None,
        };
        assert_eq!(ClientHello::parse(&ch.emit()).unwrap(), ch);
    }

    #[test]
    fn server_hello_roundtrip() {
        let resp = ServerResponse::Hello {
            version: Version::Tls12,
            certificate: cert(),
        };
        assert_eq!(ServerResponse::parse(&resp.emit()).unwrap(), resp);
    }

    #[test]
    fn alert_roundtrip() {
        for a in [
            Alert::HandshakeFailure,
            Alert::UnrecognizedName,
            Alert::ProtocolVersion,
        ] {
            let resp = ServerResponse::Alert(a);
            assert_eq!(ServerResponse::parse(&resp.emit()).unwrap(), resp);
        }
    }

    #[test]
    fn certificate_properties() {
        let c = cert();
        assert!(c.is_self_signed());
        let mut ca_signed = c.clone();
        ca_signed.issuer = "R3".into();
        assert!(!ca_signed.is_self_signed());
    }

    #[test]
    fn fingerprints_differ_by_key_and_subject() {
        let c = cert();
        let mut other_key = c.clone();
        other_key.key_blob = vec![1];
        assert_ne!(c.fingerprint(), other_key.fingerprint());
        let mut other_subj = c.clone();
        other_subj.subject = "other.box".into();
        assert_ne!(c.fingerprint(), other_subj.fingerprint());
        assert_eq!(c.fingerprint(), cert().fingerprint());
    }

    #[test]
    fn truncated_records_rejected() {
        let full = ClientHello {
            version: Version::Tls12,
            server_name: Some("x".into()),
        }
        .emit();
        for cut in [0, 3, full.len() - 1] {
            assert!(ClientHello::parse(&full[..cut]).is_err());
        }
    }

    #[test]
    fn version_codes() {
        for v in [
            Version::Tls10,
            Version::Tls11,
            Version::Tls12,
            Version::Tls13,
        ] {
            assert_eq!(Version::from_u16(v.to_u16()).unwrap(), v);
        }
        assert_eq!(
            Version::from_u16(0x0300),
            Err(WireError::UnsupportedVersion)
        );
        assert_eq!(Version::Tls13.name(), "TLS 1.3");
    }

    #[test]
    fn wrong_content_type_rejected() {
        let mut bytes = ServerResponse::Alert(Alert::HandshakeFailure).emit();
        bytes[0] = 23; // application data
        assert!(ServerResponse::parse(&bytes).is_err());
    }
}
