//! Metric identity: static keys and owned snapshot keys.

use std::collections::BTreeMap;
use std::fmt;

/// A fully-static metric key: a name plus a label set whose names *and*
/// values live in the binary, so a stage declares its keys as `const`s.
/// A [`Registry`](crate::Registry) stores it as the [`OwnedKey`] it
/// converts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    /// Metric name, e.g. `"scan_attempts"`.
    pub name: &'static str,
    /// `(label, value)` pairs, e.g. `[("protocol", "HTTP")]`.
    pub labels: &'static [(&'static str, &'static str)],
}

impl Key {
    /// A key with the given name and label set.
    pub const fn new(name: &'static str, labels: &'static [(&'static str, &'static str)]) -> Key {
        Key { name, labels }
    }

    /// A label-free key.
    pub const fn bare(name: &'static str) -> Key {
        Key::new(name, &[])
    }
}

impl From<Key> for OwnedKey {
    fn from(k: Key) -> OwnedKey {
        OwnedKey::with_labels(k.name, k.labels)
    }
}

/// An owned metric key, as stored in a [`crate::Snapshot`]. Orders by
/// name, then by the (sorted) label pairs — the canonical report order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OwnedKey {
    /// Metric name.
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: BTreeMap<String, String>,
}

impl OwnedKey {
    /// An owned key from runtime strings (per-actor counts and other
    /// dynamic labels).
    pub fn with_labels<S: Into<String>>(name: S, labels: &[(&str, &str)]) -> OwnedKey {
        OwnedKey {
            name: name.into(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// Renders the canonical text form: `name` or `name{k=v,k2=v2}`.
    /// Label names and values must not contain `{`, `}`, `,` or `=`
    /// (the parser in [`crate::json`] splits on them).
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// Parses the canonical text form back into a key.
    pub fn parse(s: &str) -> Option<OwnedKey> {
        let Some(brace) = s.find('{') else {
            return Some(OwnedKey {
                name: s.to_string(),
                labels: BTreeMap::new(),
            });
        };
        let name = &s[..brace];
        let rest = s[brace + 1..].strip_suffix('}')?;
        let mut labels = BTreeMap::new();
        if !rest.is_empty() {
            for pair in rest.split(',') {
                let (k, v) = pair.split_once('=')?;
                labels.insert(k.to_string(), v.to_string());
            }
        }
        Some(OwnedKey {
            name: name.to_string(),
            labels,
        })
    }
}

impl fmt::Display for OwnedKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        if !self.labels.is_empty() {
            f.write_str("{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{k}={v}")?;
            }
            f.write_str("}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_roundtrip() {
        let bare = OwnedKey::with_labels("ntp_polls", &[]);
        assert_eq!(bare.render(), "ntp_polls");
        assert_eq!(OwnedKey::parse("ntp_polls"), Some(bare));

        let labeled = OwnedKey::with_labels(
            "scan_attempts",
            &[("protocol", "HTTP"), ("stage", "ntp_scan")],
        );
        assert_eq!(
            labeled.render(),
            "scan_attempts{protocol=HTTP,stage=ntp_scan}"
        );
        assert_eq!(OwnedKey::parse(&labeled.render()), Some(labeled));

        assert_eq!(OwnedKey::parse("broken{"), None);
        assert_eq!(OwnedKey::parse("broken{novalue}"), None);
    }

    #[test]
    fn keys_order_by_name_then_labels() {
        let a = OwnedKey::with_labels("a", &[("x", "1")]);
        let b = OwnedKey::with_labels("b", &[]);
        let a2 = OwnedKey::with_labels("a", &[("x", "2")]);
        assert!(a < b);
        assert!(a < a2);
    }
}
