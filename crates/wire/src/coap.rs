//! CoAP message codec (RFC 7252) and CoRE link format (RFC 6690).
//!
//! The study's CoAP scan is a confirmable `GET /.well-known/core` over
//! UDP; responding devices answer `2.05 Content` with an
//! `application/link-format` payload listing their resources
//! (`</castDeviceSearch>,</qlink/upstream>;rt="x"`), which the paper groups
//! into device families (Table 3 bottom-right).
//!
//! The codec implements the full RFC 7252 message format: version/type/TKL
//! byte, code, message id, token, delta-encoded options (incl. extended
//! deltas/lengths), and the 0xFF payload marker.

use crate::{put_u16, WireError, WireResult};

/// CoAP message types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgType {
    /// Confirmable (0).
    Confirmable,
    /// Non-confirmable (1).
    NonConfirmable,
    /// Acknowledgement (2).
    Acknowledgement,
    /// Reset (3).
    Reset,
}

impl MsgType {
    fn bits(self) -> u8 {
        match self {
            MsgType::Confirmable => 0,
            MsgType::NonConfirmable => 1,
            MsgType::Acknowledgement => 2,
            MsgType::Reset => 3,
        }
    }

    fn from_bits(v: u8) -> MsgType {
        match v & 0b11 {
            0 => MsgType::Confirmable,
            1 => MsgType::NonConfirmable,
            2 => MsgType::Acknowledgement,
            _ => MsgType::Reset,
        }
    }
}

/// A CoAP code `c.dd` packed as `(class << 5) | detail`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Code(pub u8);

impl Code {
    /// 0.01 GET
    pub const GET: Code = Code(1);
    /// 2.05 Content
    pub const CONTENT: Code = Code((2 << 5) | 5);
    /// 4.04 Not Found
    pub const NOT_FOUND: Code = Code((4 << 5) | 4);

    /// The class part (0 request, 2 success, 4 client error, 5 server error).
    pub fn class(self) -> u8 {
        self.0 >> 5
    }

    /// The detail part.
    pub fn detail(self) -> u8 {
        self.0 & 0x1f
    }

    /// Is this a request code?
    pub fn is_request(self) -> bool {
        self.class() == 0 && self.0 != 0
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{:02}", self.class(), self.detail())
    }
}

/// CoAP option numbers used by the probe.
pub mod option {
    /// Uri-Path (11), repeatable.
    pub const URI_PATH: u16 = 11;
    /// Content-Format (12).
    pub const CONTENT_FORMAT: u16 = 12;
}

/// Content-Format 40: `application/link-format`.
pub const LINK_FORMAT: u16 = 40;

/// A decoded CoAP option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opt {
    /// Option number.
    pub number: u16,
    /// Option value.
    pub value: Vec<u8>,
}

/// A CoAP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Message type.
    pub mtype: MsgType,
    /// Code.
    pub code: Code,
    /// Message id.
    pub message_id: u16,
    /// Token (0..=8 bytes).
    pub token: Vec<u8>,
    /// Options, sorted by number (enforced at emit).
    pub options: Vec<Opt>,
    /// Payload (without the 0xFF marker).
    pub payload: Vec<u8>,
}

impl Message {
    /// The scanner's probe: confirmable `GET /.well-known/core`.
    pub fn get_well_known_core(message_id: u16, token: &[u8]) -> Message {
        Message {
            mtype: MsgType::Confirmable,
            code: Code::GET,
            message_id,
            token: token.to_vec(),
            options: vec![
                Opt {
                    number: option::URI_PATH,
                    value: b".well-known".to_vec(),
                },
                Opt {
                    number: option::URI_PATH,
                    value: b"core".to_vec(),
                },
            ],
            payload: Vec::new(),
        }
    }

    /// A `2.05 Content` piggy-backed ACK with a link-format payload.
    pub fn content_response(request: &Message, links: &str) -> Message {
        Message {
            mtype: MsgType::Acknowledgement,
            code: Code::CONTENT,
            message_id: request.message_id,
            token: request.token.clone(),
            options: vec![Opt {
                number: option::CONTENT_FORMAT,
                value: LINK_FORMAT.to_be_bytes().to_vec(),
            }],
            payload: links.as_bytes().to_vec(),
        }
    }

    /// The Uri-Path segments joined with `/` (request routing).
    pub fn uri_path(&self) -> String {
        self.options
            .iter()
            .filter(|o| o.number == option::URI_PATH)
            .map(|o| String::from_utf8_lossy(&o.value).into_owned())
            .collect::<Vec<_>>()
            .join("/")
    }

    /// Serialises per RFC 7252 §3.
    pub fn emit(&self) -> Vec<u8> {
        assert!(self.token.len() <= 8, "token too long");
        let mut opts: Vec<_> = self.options.iter().collect();
        opts.sort_by_key(|o| o.number);
        // Sized before writing: a response is one allocation of exactly
        // its length, not a buffer that grew by doubling.
        let mut len = 4 + self.token.len();
        let mut last = 0u16;
        for opt in &opts {
            len += option_header_len(opt.number - last, opt.value.len()) + opt.value.len();
            last = opt.number;
        }
        if !self.payload.is_empty() {
            len += 1 + self.payload.len();
        }
        let mut buf = Vec::with_capacity(len);
        buf.push((1 << 6) | (self.mtype.bits() << 4) | self.token.len() as u8);
        buf.push(self.code.0);
        put_u16(&mut buf, self.message_id);
        buf.extend_from_slice(&self.token);
        let mut last = 0u16;
        for opt in &opts {
            let delta = opt.number - last;
            last = opt.number;
            put_option_header(&mut buf, delta, opt.value.len());
            buf.extend_from_slice(&opt.value);
        }
        if !self.payload.is_empty() {
            buf.push(0xff);
            buf.extend_from_slice(&self.payload);
        }
        debug_assert_eq!(buf.len(), len);
        buf
    }

    /// Parses per RFC 7252 §3.
    pub fn parse(buf: &[u8]) -> WireResult<Message> {
        if buf.len() < 4 {
            return Err(WireError::Truncated);
        }
        let b0 = buf[0];
        if b0 >> 6 != 1 {
            return Err(WireError::UnsupportedVersion);
        }
        let tkl = (b0 & 0x0f) as usize;
        if tkl > 8 {
            return Err(WireError::Malformed("token length"));
        }
        if buf.len() < 4 + tkl {
            return Err(WireError::Truncated);
        }
        let mtype = MsgType::from_bits(b0 >> 4);
        let code = Code(buf[1]);
        let message_id = u16::from_be_bytes(buf[2..4].try_into().unwrap());
        let token = buf[4..4 + tkl].to_vec();
        let mut off = 4 + tkl;
        let mut options = Vec::new();
        let mut number = 0u16;
        let mut payload = Vec::new();
        while off < buf.len() {
            if buf[off] == 0xff {
                off += 1;
                if off == buf.len() {
                    return Err(WireError::Malformed("empty payload after marker"));
                }
                payload = buf[off..].to_vec();
                break;
            }
            let (delta, len, used) = get_option_header(&buf[off..])?;
            off += used;
            if buf.len() < off + len {
                return Err(WireError::Truncated);
            }
            number = number
                .checked_add(delta)
                .ok_or(WireError::Malformed("option delta overflow"))?;
            options.push(Opt {
                number,
                value: buf[off..off + len].to_vec(),
            });
            off += len;
        }
        Ok(Message {
            mtype,
            code,
            message_id,
            token,
            options,
            payload,
        })
    }
}

fn option_nibble(v: usize) -> u8 {
    match v {
        0..=12 => v as u8,
        13..=268 => 13,
        _ => 14,
    }
}

fn put_option_header(buf: &mut Vec<u8>, delta: u16, len: usize) {
    let dn = option_nibble(delta as usize);
    let ln = option_nibble(len);
    buf.push((dn << 4) | ln);
    emit_extended(buf, dn, delta as usize);
    emit_extended(buf, ln, len);
}

/// Bytes [`put_option_header`] writes for `delta` and `len`.
fn option_header_len(delta: u16, len: usize) -> usize {
    let extended = |v: usize| match option_nibble(v) {
        13 => 1,
        14 => 2,
        _ => 0,
    };
    1 + extended(delta as usize) + extended(len)
}

fn emit_extended(buf: &mut Vec<u8>, nibble: u8, v: usize) {
    match nibble {
        13 => buf.push((v - 13) as u8),
        14 => put_u16(buf, (v - 269) as u16),
        _ => {}
    }
}

fn get_option_header(buf: &[u8]) -> WireResult<(u16, usize, usize)> {
    let b = *buf.first().ok_or(WireError::Truncated)?;
    let mut off = 1;
    let delta = decode_nibble(buf, &mut off, b >> 4)?;
    let len = decode_nibble(buf, &mut off, b & 0x0f)?;
    Ok((delta as u16, len, off))
}

fn decode_nibble(buf: &[u8], off: &mut usize, nibble: u8) -> WireResult<usize> {
    match nibble {
        0..=12 => Ok(nibble as usize),
        13 => {
            let v = *buf.get(*off).ok_or(WireError::Truncated)? as usize + 13;
            *off += 1;
            Ok(v)
        }
        14 => {
            if buf.len() < *off + 2 {
                return Err(WireError::Truncated);
            }
            let v = u16::from_be_bytes(buf[*off..*off + 2].try_into().unwrap()) as usize + 269;
            *off += 2;
            Ok(v)
        }
        _ => Err(WireError::Malformed("option nibble 15")),
    }
}

/// One entry of a CoRE link-format document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    /// The target path, e.g. `/castDeviceSearch`.
    pub target: String,
    /// Attributes as raw `key=value` / flag strings.
    pub attributes: Vec<String>,
}

/// Parses an `application/link-format` payload into links.
///
/// Accepts the subset of RFC 6690 produced by real devices:
/// `</path>;attr;attr,</path2>`. Quoted attribute values may contain
/// commas.
pub fn parse_link_format(payload: &str) -> Vec<Link> {
    let mut out = Vec::new();
    for entry in split_top_level(payload) {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let Some(close) = entry.find('>') else {
            continue;
        };
        if !entry.starts_with('<') {
            continue;
        }
        let target = entry[1..close].to_string();
        let attributes = entry[close + 1..]
            .split(';')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        out.push(Link { target, attributes });
    }
    out
}

/// Splits on top-level commas, respecting double-quoted attribute values.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// Serialises links back to link format.
pub fn emit_link_format(links: &[Link]) -> String {
    links
        .iter()
        .map(|l| {
            let mut s = format!("<{}>", l.target);
            for a in &l.attributes {
                s.push(';');
                s.push_str(a);
            }
            s
        })
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_known_core_roundtrip() {
        let m = Message::get_well_known_core(0x1234, &[0xde, 0xad]);
        let bytes = m.emit();
        let parsed = Message::parse(&bytes).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.uri_path(), ".well-known/core");
        assert!(parsed.code.is_request());
        assert_eq!(parsed.mtype, MsgType::Confirmable);
    }

    #[test]
    fn content_response_roundtrip() {
        let req = Message::get_well_known_core(7, &[1]);
        let resp = Message::content_response(&req, "</castDeviceSearch>,</setup>");
        let parsed = Message::parse(&resp.emit()).unwrap();
        assert_eq!(parsed.code, Code::CONTENT);
        assert_eq!(parsed.message_id, 7);
        assert_eq!(parsed.token, vec![1]);
        assert_eq!(parsed.payload, b"</castDeviceSearch>,</setup>");
        // Content-Format option says link-format.
        let cf = parsed
            .options
            .iter()
            .find(|o| o.number == option::CONTENT_FORMAT)
            .unwrap();
        assert_eq!(cf.value, LINK_FORMAT.to_be_bytes());
    }

    #[test]
    fn code_display() {
        assert_eq!(Code::GET.to_string(), "0.01");
        assert_eq!(Code::CONTENT.to_string(), "2.05");
        assert_eq!(Code::NOT_FOUND.to_string(), "4.04");
    }

    #[test]
    fn extended_option_deltas() {
        // Option numbers that need 13-extended and 14-extended deltas.
        let m = Message {
            mtype: MsgType::NonConfirmable,
            code: Code::GET,
            message_id: 1,
            token: vec![],
            options: vec![
                Opt {
                    number: 11,
                    value: b"a".to_vec(),
                },
                Opt {
                    number: 60, // delta 49 → 13-extended
                    value: b"b".to_vec(),
                },
                Opt {
                    number: 2048,        // delta 1988 → 14-extended
                    value: vec![0; 300], // length 300 → 14-extended
                },
            ],
            payload: b"x".to_vec(),
        };
        let parsed = Message::parse(&m.emit()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn version_and_token_validation() {
        let mut bytes = Message::get_well_known_core(1, &[]).emit();
        bytes[0] = (2 << 6) | (bytes[0] & 0x3f); // version 2
        assert_eq!(Message::parse(&bytes), Err(WireError::UnsupportedVersion));

        let mut bytes = Message::get_well_known_core(1, &[]).emit();
        bytes[0] = (bytes[0] & 0xf0) | 9; // TKL 9
        assert_eq!(
            Message::parse(&bytes),
            Err(WireError::Malformed("token length"))
        );
    }

    #[test]
    fn empty_payload_after_marker_rejected() {
        let mut bytes = Message::get_well_known_core(1, &[]).emit();
        bytes.push(0xff);
        assert!(Message::parse(&bytes).is_err());
    }

    #[test]
    fn truncated_rejected() {
        let full = Message::get_well_known_core(9, &[1, 2, 3]).emit();
        for cut in [0, 3, 5, full.len() - 1] {
            assert!(Message::parse(&full[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn link_format_parse_simple() {
        let links = parse_link_format("</castDeviceSearch>,</qlink/upstream>;rt=\"qlink\"");
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].target, "/castDeviceSearch");
        assert!(links[0].attributes.is_empty());
        assert_eq!(links[1].target, "/qlink/upstream");
        assert_eq!(links[1].attributes, vec!["rt=\"qlink\""]);
    }

    #[test]
    fn link_format_quoted_commas() {
        let links = parse_link_format("</a>;title=\"x, y\",</b>");
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].attributes, vec!["title=\"x, y\""]);
        assert_eq!(links[1].target, "/b");
    }

    #[test]
    fn link_format_roundtrip() {
        let src = "</.well-known/core>,</sensors/temp>;rt=\"temperature\";if=\"sensor\"";
        let links = parse_link_format(src);
        assert_eq!(emit_link_format(&links), src);
    }

    #[test]
    fn link_format_tolerates_garbage() {
        assert!(parse_link_format("").is_empty());
        assert!(parse_link_format("no-angle-brackets").is_empty());
        let links = parse_link_format("</ok>,garbage,</also-ok>");
        assert_eq!(links.len(), 2);
    }
}
