//! Canonical JSON writing and a minimal reader.
//!
//! The workspace builds offline with no serialization framework, so the
//! one text format it emits — run reports — is written by hand here. The
//! writer is *canonical*: object keys come pre-sorted (snapshots are
//! `BTreeMap`-backed), there is no whitespace, and all numbers are
//! unsigned integers — equal snapshots therefore serialize to
//! byte-identical strings. The reader accepts
//! exactly that dialect (plus insignificant whitespace) and is only as
//! general as the round-trip needs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::Histogram;
use crate::key::OwnedKey;
use crate::snapshot::{Snapshot, Value};

/// A parsed JSON value, restricted to the dialect reports use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// An unsigned integer (the only number form reports emit).
    Num(u128),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with string keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The integer inside, if this is a number.
    pub fn as_num(&self) -> Option<u128> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The map inside, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The elements inside, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Appends a JSON string literal (with escaping) to `out`.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes a parsed [`Json`] value back to canonical text.
pub fn write_value(j: &Json, out: &mut String) {
    match j {
        Json::Num(n) => {
            let _ = write!(out, "{n}");
        }
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

/// Parses a complete JSON document. Returns `None` on any malformed
/// input or trailing garbage.
pub fn parse(s: &str) -> Option<Json> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Some(v)
    } else {
        None
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Option<()> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Json::Str),
            b't' => self.eat_lit("true").map(|_| Json::Bool(true)),
            b'f' => self.eat_lit("false").map(|_| Json::Bool(false)),
            b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(Json::Obj(map));
                }
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(Json::Arr(items));
                }
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).ok()?;
                    let c = rest.chars().next()?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        text.parse::<u128>().ok().map(Json::Num)
    }
}

// --- Snapshot <-> JSON -------------------------------------------------

fn entry_json(value: &Value) -> Json {
    let mut map = BTreeMap::new();
    match value {
        Value::Counter(v) => {
            map.insert("type".to_string(), Json::Str("counter".to_string()));
            map.insert("value".to_string(), Json::Num(u128::from(*v)));
        }
        Value::Hist(h) => {
            map.insert("type".to_string(), Json::Str("hist".to_string()));
            map.insert(
                "buckets".to_string(),
                Json::Arr(
                    h.nonzero_buckets()
                        .map(|(i, c)| {
                            Json::Arr(vec![Json::Num(i as u128), Json::Num(u128::from(c))])
                        })
                        .collect(),
                ),
            );
            map.insert("count".to_string(), Json::Num(u128::from(h.count())));
            map.insert("max".to_string(), Json::Num(u128::from(h.max())));
            map.insert("min".to_string(), Json::Num(u128::from(h.min())));
            map.insert("sum".to_string(), Json::Num(h.sum()));
        }
    }
    Json::Obj(map)
}

fn entry_from_json(j: &Json) -> Option<Value> {
    let obj = j.as_obj()?;
    // Formats up to ISSUE 23 could mark an entry scheduling-dependent;
    // nothing here can hold such a value, so the input is refused.
    if obj.contains_key("volatile") {
        return None;
    }
    let value = match obj.get("type")?.as_str()? {
        "counter" => Value::Counter(u64::try_from(obj.get("value")?.as_num()?).ok()?),
        "hist" => {
            let buckets = obj
                .get("buckets")?
                .as_arr()?
                .iter()
                .map(|pair| {
                    let pair = pair.as_arr()?;
                    if pair.len() != 2 {
                        return None;
                    }
                    let i = usize::try_from(pair[0].as_num()?).ok()?;
                    let c = u64::try_from(pair[1].as_num()?).ok()?;
                    Some((i, c))
                })
                .collect::<Option<Vec<_>>>()?;
            Value::Hist(Box::new(Histogram::from_parts(
                buckets,
                u64::try_from(obj.get("count")?.as_num()?).ok()?,
                obj.get("sum")?.as_num()?,
                u64::try_from(obj.get("min")?.as_num()?).ok()?,
                u64::try_from(obj.get("max")?.as_num()?).ok()?,
            )))
        }
        _ => return None,
    };
    Some(value)
}

/// Serializes a snapshot as one canonical JSON object keyed by rendered
/// metric keys.
pub fn snapshot_to_json(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push('{');
    for (i, (key, value)) in snap.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(&key.render(), &mut out);
        out.push(':');
        write_value(&entry_json(value), &mut out);
    }
    out.push('}');
    out
}

/// Parses the object form produced by [`snapshot_to_json`].
pub fn snapshot_from_json(s: &str) -> Option<Snapshot> {
    let parsed = parse(s)?;
    snapshot_from_value(&parsed)
}

/// Converts an already-parsed JSON object into a snapshot. Every member
/// name must be the canonical rendering of the key it parses to:
/// otherwise two spellings (`a{x=1,y=2}`, `a{y=2,x=1}`) could name one
/// key and be folded together.
pub fn snapshot_from_value(j: &Json) -> Option<Snapshot> {
    let obj = j.as_obj()?;
    let mut snap = Snapshot::new();
    for (rendered, entry) in obj {
        let key = OwnedKey::parse(rendered)?;
        if key.render() != *rendered {
            return None;
        }
        snap.record(key, entry_from_json(entry)?);
    }
    Some(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_the_report_dialect() {
        let doc = r#"{"a":1,"b":"x","c":[true,false,[2,3]],"d":{}}"#;
        let j = parse(doc).unwrap();
        let mut out = String::new();
        write_value(&j, &mut out);
        assert_eq!(out, doc);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "1 2",
            "\"unterminated",
            "-5",
        ] {
            assert_eq!(parse(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line\nwith \"quotes\" and \\slashes\\ and \u{1}";
        let mut out = String::new();
        write_str(s, &mut out);
        let parsed = parse(&out).unwrap();
        assert_eq!(parsed.as_str(), Some(s));
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = Snapshot::new();
        let json = snapshot_to_json(&snap);
        assert_eq!(json, "{}");
        assert_eq!(snapshot_from_json(&json), Some(snap));
    }

    #[test]
    fn full_snapshot_roundtrips() {
        use crate::hist::Histogram;
        use crate::key::OwnedKey;

        let mut snap = Snapshot::new();
        snap.record(
            OwnedKey::with_labels("scan_attempts", &[("protocol", "NTP")]),
            Value::Counter(42),
        );
        snap.record(OwnedKey::with_labels("depth", &[]), Value::Counter(17));
        let mut h = Histogram::new();
        for v in [0, 1, 5, u64::MAX] {
            h.observe(v);
        }
        snap.record(
            OwnedKey::with_labels("rtt", &[("stage", "ntp_scan")]),
            Value::Hist(Box::new(h)),
        );
        let json = snapshot_to_json(&snap);
        let back = snapshot_from_json(&json).unwrap();
        assert_eq!(back, snap);
        // Canonical: re-serializing the parsed form is byte-identical.
        assert_eq!(snapshot_to_json(&back), json);
    }

    #[test]
    fn an_entry_with_a_volatile_member_is_refused() {
        let plain = r#"{"depth":{"type":"counter","value":4}}"#;
        assert!(snapshot_from_json(plain).is_some());
        for flag in ["true", "false"] {
            let marked = format!(r#"{{"depth":{{"type":"counter","value":4,"volatile":{flag}}}}}"#);
            assert_eq!(snapshot_from_json(&marked), None);
            let report = format!(r#"{{"meta":{{}},"metrics":{marked}}}"#);
            assert_eq!(crate::RunReport::from_json(&report), None);
        }
    }
}
