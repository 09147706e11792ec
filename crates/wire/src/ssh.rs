//! SSH 2.0 transport-layer pre-encryption phase (RFC 4253 subset).
//!
//! A zgrab2-style SSH scan needs only the plaintext opening of the
//! connection:
//!
//! 1. the **identification string** exchange
//!    (`SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u3\r\n`) — the study parses the
//!    software version and the distribution patch level from it
//!    (Figure 2 / Table 9), and
//! 2. enough of the **key exchange** to obtain the server's **host key**,
//!    whose fingerprint deduplicates hosts (Tables 2/3).
//!
//! The binary packet framing (RFC 4253 §6, without encryption or MAC — the
//! state before keys are negotiated) and the KEXINIT message are
//! implemented byte-exactly; the host key is delivered in a simplified
//! KEXDH_REPLY that carries only the key blob, since no cryptography is
//! analysed (DESIGN.md, substitutions table).

use crate::{put_u32, WireError, WireResult};

/// Maximum identification-string length RFC 4253 allows (255 incl. CRLF).
pub const MAX_ID_LEN: usize = 255;

/// SSH message numbers used here.
pub mod msg {
    /// SSH_MSG_KEXINIT
    pub const KEXINIT: u8 = 20;
    /// SSH_MSG_KEXDH_REPLY (carries the host key)
    pub const KEXDH_REPLY: u8 = 31;
}

/// The protocol version a server built here announces.
pub const PROTO_VERSION: &str = "2.0";

/// A parsed SSH identification string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Identification {
    /// Protocol version, must be `2.0` (or the `1.99` compatibility form).
    pub proto_version: String,
    /// Software version, e.g. `OpenSSH_9.2p1`.
    pub software: String,
    /// Optional comment, e.g. `Debian-2+deb12u3` — this is where
    /// Debian-derived distributions expose their patch level.
    pub comment: Option<String>,
}

impl Identification {
    /// Builds an identification line for a server.
    pub fn new(software: &str, comment: Option<&str>) -> Identification {
        Identification {
            proto_version: PROTO_VERSION.into(),
            software: software.into(),
            comment: comment.map(str::to_string),
        }
    }

    /// Serialises including trailing CRLF.
    pub fn emit(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let comment = self.comment.as_deref();
        Identification::emit_parts_into(&self.proto_version, &self.software, comment, &mut buf);
        buf
    }

    /// The line with these fields, trailing CRLF included, appended to
    /// `buf` from borrowed parts: a server answers with its own software
    /// string without copying it into an `Identification`.
    pub fn emit_parts_into(
        proto_version: &str,
        software: &str,
        comment: Option<&str>,
        buf: &mut Vec<u8>,
    ) {
        for part in ["SSH-", proto_version, "-", software] {
            buf.extend_from_slice(part.as_bytes());
        }
        if let Some(c) = comment {
            buf.push(b' ');
            buf.extend_from_slice(c.as_bytes());
        }
        buf.extend_from_slice(b"\r\n");
    }

    /// Parses an identification line (with or without trailing CR/LF).
    pub fn parse(buf: &[u8]) -> WireResult<Identification> {
        if buf.len() > MAX_ID_LEN {
            return Err(WireError::Malformed("id string too long"));
        }
        let text = std::str::from_utf8(buf)
            .map_err(|_| WireError::Malformed("utf-8"))?
            .trim_end_matches(['\r', '\n']);
        let rest = text
            .strip_prefix("SSH-")
            .ok_or(WireError::Malformed("missing SSH- prefix"))?;
        let (proto, swc) = rest
            .split_once('-')
            .ok_or(WireError::Malformed("missing version separator"))?;
        if proto != PROTO_VERSION && proto != "1.99" {
            return Err(WireError::UnsupportedVersion);
        }
        let (software, comment) = match swc.split_once(' ') {
            Some((s, c)) => (s.to_string(), Some(c.to_string())),
            None => (swc.to_string(), None),
        };
        if software.is_empty() {
            return Err(WireError::Malformed("empty software version"));
        }
        Ok(Identification {
            proto_version: proto.to_string(),
            software,
            comment,
        })
    }
}

/// Unencrypted binary packet framing (RFC 4253 §6, pre-key state):
/// `uint32 packet_length || byte padding_length || payload || padding`.
pub fn frame_packet(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    frame_packet_into(&mut buf, |b| b.extend_from_slice(payload));
    buf
}

/// [`frame_packet`] appended to `out`, the payload written in place by
/// `write_payload` and the two length fields patched after it.
pub fn frame_packet_into(out: &mut Vec<u8>, write_payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 5]); // packet and padding length, patched below
    write_payload(out);
    let payload = out.len() - start - 5;
    // Total length (excluding the length field itself) must be a multiple
    // of 8 with at least 4 bytes of padding.
    let padded = (payload + 1 + 4).div_ceil(8) * 8;
    let padding = padded - payload - 1;
    out.resize(out.len() + padding, 0);
    out[start..start + 4].copy_from_slice(&(padded as u32).to_be_bytes());
    out[start + 4] = padding as u8;
}

/// Unframes one binary packet; returns (payload, bytes consumed).
pub fn unframe_packet(buf: &[u8]) -> WireResult<(&[u8], usize)> {
    if buf.len() < 5 {
        return Err(WireError::Truncated);
    }
    let len = u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize;
    if !(2..=35_000).contains(&len) {
        return Err(WireError::Malformed("packet length"));
    }
    if buf.len() < 4 + len {
        return Err(WireError::Truncated);
    }
    let padding = buf[4] as usize;
    if padding + 1 > len {
        return Err(WireError::Malformed("padding length"));
    }
    let payload = &buf[5..4 + len - padding];
    Ok((payload, 4 + len))
}

/// The subset of KEXINIT the scanner reads: algorithm name-lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KexInit {
    /// 16 random cookie bytes.
    pub cookie: [u8; 16],
    /// Key-exchange algorithm names.
    pub kex_algorithms: Vec<String>,
    /// Server host-key algorithm names (e.g. `ssh-ed25519`).
    pub host_key_algorithms: Vec<String>,
    /// Cipher names client→server (the paper's "surfeit of cipher suites"
    /// angle would read these).
    pub ciphers: Vec<String>,
}

/// The name-lists of [`KexInit::emit_modern_into`]: key exchange, host
/// key and cipher algorithms.
const MODERN_KEX: [&str; 2] = ["curve25519-sha256", "diffie-hellman-group14-sha256"];
const MODERN_HOST_KEY: [&str; 2] = ["ssh-ed25519", "rsa-sha2-256"];
const MODERN_CIPHERS: [&str; 2] = ["chacha20-poly1305@openssh.com", "aes128-ctr"];

impl KexInit {
    /// The KEXINIT [`KexInit::emit_modern_into`] writes, as a message.
    #[cfg(test)]
    fn modern(cookie: [u8; 16]) -> KexInit {
        let owned = |names: [&str; 2]| names.map(str::to_string).to_vec();
        KexInit {
            cookie,
            kex_algorithms: owned(MODERN_KEX),
            host_key_algorithms: owned(MODERN_HOST_KEY),
            ciphers: owned(MODERN_CIPHERS),
        }
    }

    /// Appends the KEXINIT payload (message type + cookie + name-lists;
    /// the remaining RFC 4253 name-lists are emitted empty) to `buf`.
    #[cfg(test)]
    fn emit_into(&self, buf: &mut Vec<u8>) {
        emit_kexinit(
            buf,
            &self.cookie,
            &self.kex_algorithms,
            &self.host_key_algorithms,
            &self.ciphers,
        );
    }

    /// Appends a typical modern server's KEXINIT payload to `buf`,
    /// written from static name-lists without building the message.
    pub fn emit_modern_into(cookie: &[u8; 16], buf: &mut Vec<u8>) {
        emit_kexinit(buf, cookie, &MODERN_KEX, &MODERN_HOST_KEY, &MODERN_CIPHERS);
    }

    /// Parses a KEXINIT payload.
    pub fn parse(payload: &[u8]) -> WireResult<KexInit> {
        if payload.first() != Some(&msg::KEXINIT) {
            return Err(WireError::Malformed("not KEXINIT"));
        }
        if payload.len() < 17 {
            return Err(WireError::Truncated);
        }
        let cookie: [u8; 16] = payload[1..17].try_into().unwrap();
        let mut off = 17;
        let kex = get_name_list(payload, &mut off)?;
        let hostkey = get_name_list(payload, &mut off)?;
        let ciphers = get_name_list(payload, &mut off)?;
        Ok(KexInit {
            cookie,
            kex_algorithms: kex,
            host_key_algorithms: hostkey,
            ciphers,
        })
    }
}

fn emit_kexinit(
    buf: &mut Vec<u8>,
    cookie: &[u8; 16],
    kex: &[impl AsRef<str>],
    host_key: &[impl AsRef<str>],
    ciphers: &[impl AsRef<str>],
) {
    buf.push(msg::KEXINIT);
    buf.extend_from_slice(cookie);
    put_name_list(buf, kex);
    put_name_list(buf, host_key);
    put_name_list(buf, ciphers);
    // ciphers s->c, macs x2, compression x2, languages x2: mirror/empty
    put_name_list(buf, ciphers);
    for _ in 0..6 {
        put_name_list(buf, &[] as &[&str]);
    }
    buf.push(0); // first_kex_packet_follows
    put_u32(buf, 0); // reserved
}

/// The simplified KEXDH_REPLY carrying the server host key:
/// `byte 31 || string key_type || string key_blob`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostKeyReply {
    /// Key algorithm name, e.g. `ssh-ed25519`.
    pub key_type: String,
    /// Opaque public-key blob; its 32-byte truncated hash is the host-key
    /// fingerprint used for dedup.
    pub key_blob: Vec<u8>,
}

impl HostKeyReply {
    /// Serialises the payload.
    pub fn emit(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.emit_into(&mut buf);
        buf
    }

    /// Appends the payload to `buf`.
    pub fn emit_into(&self, buf: &mut Vec<u8>) {
        HostKeyReply::emit_parts_into(&self.key_type, &self.key_blob, buf);
    }

    /// The payload of a reply with these fields appended to `buf`, from
    /// borrowed parts: a server answers from its own key blob without
    /// copying it into a `HostKeyReply`.
    pub fn emit_parts_into(key_type: &str, key_blob: &[u8], buf: &mut Vec<u8>) {
        buf.push(msg::KEXDH_REPLY);
        put_string(buf, key_type.as_bytes());
        put_string(buf, key_blob);
    }

    /// Parses the payload.
    pub fn parse(payload: &[u8]) -> WireResult<HostKeyReply> {
        if payload.first() != Some(&msg::KEXDH_REPLY) {
            return Err(WireError::Malformed("not KEXDH_REPLY"));
        }
        let mut off = 1;
        let key_type = get_string(payload, &mut off)?;
        let key_blob = get_string(payload, &mut off)?;
        Ok(HostKeyReply {
            key_type: String::from_utf8(key_type).map_err(|_| WireError::Malformed("key type"))?,
            key_blob,
        })
    }

    /// The host-key fingerprint: a stable 32-byte digest of the blob
    /// (FNV-1a-based wide hash — a stand-in for SHA-256, which the study
    /// only uses as an opaque dedup key).
    pub fn fingerprint(&self) -> [u8; 32] {
        fingerprint_bytes(&self.key_blob)
    }
}

/// Stable 32-byte digest used wherever the paper uses SHA-256 fingerprints
/// as opaque identity keys (host keys, certificates).
pub fn fingerprint_bytes(data: &[u8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        for &b in data {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^= (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h = h.wrapping_mul(0x1000_0000_01b3);
        chunk.copy_from_slice(&h.to_be_bytes());
    }
    out
}

fn put_string(buf: &mut Vec<u8>, s: &[u8]) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s);
}

fn get_string(buf: &[u8], off: &mut usize) -> WireResult<Vec<u8>> {
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

/// A name-list: the names joined by commas, as one string, written in
/// place.
fn put_name_list(buf: &mut Vec<u8>, names: &[impl AsRef<str>]) {
    let len = names.iter().map(|n| n.as_ref().len() + 1).sum::<usize>();
    put_u32(buf, len.saturating_sub(1) as u32);
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        buf.extend_from_slice(name.as_ref().as_bytes());
    }
}

fn get_name_list(buf: &[u8], off: &mut usize) -> WireResult<Vec<String>> {
    let raw = get_string(buf, off)?;
    let s = String::from_utf8(raw).map_err(|_| WireError::Malformed("name-list"))?;
    if s.is_empty() {
        Ok(Vec::new())
    } else {
        Ok(s.split(',').map(str::to_string).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identification_roundtrip_with_comment() {
        let id = Identification::new("OpenSSH_9.2p1", Some("Debian-2+deb12u3"));
        let bytes = id.emit();
        assert_eq!(
            std::str::from_utf8(&bytes).unwrap(),
            "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u3\r\n"
        );
        assert_eq!(Identification::parse(&bytes).unwrap(), id);
    }

    #[test]
    fn identification_without_comment() {
        let id = Identification::new("dropbear_2022.83", None);
        let parsed = Identification::parse(&id.emit()).unwrap();
        assert_eq!(parsed.software, "dropbear_2022.83");
        assert_eq!(parsed.comment, None);
    }

    #[test]
    fn identification_rejects_v1_and_garbage() {
        assert_eq!(
            Identification::parse(b"SSH-1.5-OldServer\r\n"),
            Err(WireError::UnsupportedVersion)
        );
        assert!(Identification::parse(b"HTTP/1.1 200 OK").is_err());
        assert!(Identification::parse(b"SSH-2.0-").is_err());
        let long = vec![b'a'; 300];
        assert!(Identification::parse(&long).is_err());
    }

    #[test]
    fn v199_compat_accepted() {
        let parsed = Identification::parse(b"SSH-1.99-OpenSSH_4.3").unwrap();
        assert_eq!(parsed.proto_version, "1.99");
    }

    #[test]
    fn framing_roundtrip_and_alignment() {
        for payload_len in [1usize, 7, 8, 9, 100, 255] {
            let payload: Vec<u8> = (0..payload_len).map(|i| i as u8).collect();
            let framed = frame_packet(&payload);
            // RFC 4253: total length a multiple of 8, padding >= 4.
            assert_eq!(framed.len() % 8, 4, "len {}", framed.len());
            assert!((framed.len() - 4).is_multiple_of(8));
            let (got, used) = unframe_packet(&framed).unwrap();
            assert_eq!(got, &payload[..]);
            assert_eq!(used, framed.len());
        }
    }

    #[test]
    fn unframe_rejects_bad_lengths() {
        assert_eq!(unframe_packet(&[0, 0]), Err(WireError::Truncated));
        // Length field bigger than buffer.
        let mut buf = frame_packet(b"hello");
        buf.truncate(buf.len() - 1);
        assert_eq!(unframe_packet(&buf), Err(WireError::Truncated));
        // Absurd length.
        let bad = [0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0];
        assert_eq!(
            unframe_packet(&bad),
            Err(WireError::Malformed("packet length"))
        );
        // padding >= len
        let bad = [0, 0, 0, 4, 10, 0, 0, 0];
        assert_eq!(
            unframe_packet(&bad),
            Err(WireError::Malformed("padding length"))
        );
    }

    fn kexinit_bytes(kex: &KexInit) -> Vec<u8> {
        let mut buf = Vec::new();
        kex.emit_into(&mut buf);
        buf
    }

    #[test]
    fn kexinit_roundtrip() {
        let kex = KexInit::modern([7u8; 16]);
        let parsed = KexInit::parse(&kexinit_bytes(&kex)).unwrap();
        assert_eq!(parsed, kex);
        assert!(parsed
            .host_key_algorithms
            .contains(&"ssh-ed25519".to_string()));
    }

    /// The server's borrowed-parts encoders write what the owned
    /// messages write.
    #[test]
    fn static_and_borrowed_emitters_match_the_messages() {
        for cookie in [[0u8; 16], [7u8; 16], *b"0123456789abcdef"] {
            let mut from_static = Vec::new();
            KexInit::emit_modern_into(&cookie, &mut from_static);
            assert_eq!(from_static, kexinit_bytes(&KexInit::modern(cookie)));
        }
        for blob in [&b""[..], b"blob", &[0xff; 300]] {
            let reply = HostKeyReply {
                key_type: "ssh-ed25519".into(),
                key_blob: blob.to_vec(),
            };
            let mut borrowed = Vec::new();
            HostKeyReply::emit_parts_into("ssh-ed25519", blob, &mut borrowed);
            assert_eq!(borrowed, reply.emit());
        }
    }

    #[test]
    fn name_lists_join_with_commas() {
        for names in [&[][..], &["one"], &["a", "bc", "def"]] {
            let mut buf = Vec::new();
            put_name_list(&mut buf, names);
            let joined = names.join(",");
            assert_eq!(&buf[..4], (joined.len() as u32).to_be_bytes());
            assert_eq!(&buf[4..], joined.as_bytes());
        }
    }

    #[test]
    fn kexinit_rejects_wrong_type() {
        let mut bytes = kexinit_bytes(&KexInit::modern([0u8; 16]));
        bytes[0] = 99;
        assert!(KexInit::parse(&bytes).is_err());
    }

    #[test]
    fn hostkey_reply_roundtrip_and_fingerprint() {
        let reply = HostKeyReply {
            key_type: "ssh-ed25519".into(),
            key_blob: vec![1, 2, 3, 4, 5],
        };
        let parsed = HostKeyReply::parse(&reply.emit()).unwrap();
        assert_eq!(parsed, reply);
        assert_eq!(parsed.fingerprint(), reply.fingerprint());
        let other = HostKeyReply {
            key_type: "ssh-ed25519".into(),
            key_blob: vec![1, 2, 3, 4, 6],
        };
        assert_ne!(other.fingerprint(), reply.fingerprint());
    }

    #[test]
    fn fingerprint_is_deterministic_and_spreads() {
        let a = fingerprint_bytes(b"key-a");
        let b = fingerprint_bytes(b"key-b");
        assert_eq!(a, fingerprint_bytes(b"key-a"));
        assert_ne!(a, b);
        assert_ne!(a[..8], a[8..16]); // per-chunk salting
    }

    #[test]
    fn full_exchange_over_framing() {
        // Server side: ID + framed KEXINIT + framed host key, each
        // written in place, as the simulated hosts emit it.
        let id = Identification::new("OpenSSH_8.4p1", Some("Raspbian-5+deb11u3"));
        let kex = KexInit::modern([3u8; 16]);
        let key = HostKeyReply {
            key_type: "ssh-ed25519".into(),
            key_blob: b"blob".to_vec(),
        };
        let mut stream = id.emit();
        frame_packet_into(&mut stream, |b| kex.emit_into(b));
        frame_packet_into(&mut stream, |b| key.emit_into(b));
        let mut copied = id.emit();
        copied.extend(frame_packet(&kexinit_bytes(&kex)));
        copied.extend(frame_packet(&key.emit()));
        assert_eq!(stream, copied);

        // Client side: split ID line, then unframe packets.
        let nl = stream.iter().position(|&b| b == b'\n').unwrap();
        let got_id = Identification::parse(&stream[..=nl]).unwrap();
        assert_eq!(got_id.comment.as_deref(), Some("Raspbian-5+deb11u3"));
        let (p1, used1) = unframe_packet(&stream[nl + 1..]).unwrap();
        assert_eq!(KexInit::parse(p1).unwrap(), kex);
        let (p2, _) = unframe_packet(&stream[nl + 1 + used1..]).unwrap();
        assert_eq!(HostKeyReply::parse(p2).unwrap(), key);
    }
}
