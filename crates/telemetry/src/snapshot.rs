//! Owned, ordered, commutatively-mergeable snapshots of metric state.

use std::collections::BTreeMap;

use crate::hist::Histogram;
use crate::json;
use crate::key::OwnedKey;

/// A single metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Monotone counter; merges by addition.
    Counter(u64),
    /// High-watermark gauge; merges by maximum.
    Gauge(u64),
    /// Log2 histogram; merges bucket-wise. Boxed so the common
    /// counter/gauge entries stay a couple of words each.
    Hist(Box<Histogram>),
}

impl Value {
    /// Folds another value into this one. All three folds are
    /// commutative and associative, which is what makes shard-order
    /// independence hold. Panics on mismatched kinds — that is a
    /// programming error (one key used as two metric types).
    pub fn fold(&mut self, other: &Value) {
        match (self, other) {
            (Value::Counter(a), Value::Counter(b)) => *a += b,
            (Value::Gauge(a), Value::Gauge(b)) => *a = (*a).max(*b),
            (Value::Hist(a), Value::Hist(b)) => a.merge(b),
            (a, b) => panic!("metric kind mismatch: {a:?} vs {b:?}"),
        }
    }
}

/// One snapshot entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The metric value.
    pub value: Value,
}

/// An ordered map from [`OwnedKey`] to [`Entry`]. Snapshots are the
/// cold, owned form of metric state: registries export into them, shard
/// snapshots merge commutatively, and reports serialize them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    entries: BTreeMap<OwnedKey, Entry>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Records a value under a key, folding into any existing entry.
    pub fn record(&mut self, key: OwnedKey, value: Value) {
        match self.entries.get_mut(&key) {
            Some(e) => e.value.fold(&value),
            None => {
                self.entries.insert(key, Entry { value });
            }
        }
    }

    /// Folds every entry of `other` into `self`. Commutative:
    /// `a.merge(b)` and `b.merge(a)` produce equal snapshots.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, e) in &other.entries {
            self.record(k.clone(), e.value.clone());
        }
    }

    /// A copy with `extra` labels stamped onto every key (used to tag a
    /// stage-agnostic registry snapshot with its pipeline stage).
    pub fn relabeled(&self, extra: &[(&str, &str)]) -> Snapshot {
        let mut out = Snapshot::new();
        for (k, e) in &self.entries {
            let mut key = k.clone();
            for (name, value) in extra {
                key.labels.insert((*name).to_string(), (*value).to_string());
            }
            out.record(key, e.value.clone());
        }
        out
    }

    /// Counter value under `key` (0 when absent or not a counter).
    pub fn counter(&self, key: &OwnedKey) -> u64 {
        match self.entries.get(key) {
            Some(Entry {
                value: Value::Counter(v),
                ..
            }) => *v,
            _ => 0,
        }
    }

    /// Sum of all counters with the given metric name, across label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(k, _)| k.name == name)
            .filter_map(|(_, e)| match &e.value {
                Value::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Gauge value under `key` (0 when absent or not a gauge).
    pub fn gauge(&self, key: &OwnedKey) -> u64 {
        match self.entries.get(key) {
            Some(Entry {
                value: Value::Gauge(v),
                ..
            }) => *v,
            _ => 0,
        }
    }

    /// Histogram under `key`, if present.
    pub fn hist(&self, key: &OwnedKey) -> Option<&Histogram> {
        match self.entries.get(key) {
            Some(Entry {
                value: Value::Hist(h),
                ..
            }) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Iterates entries in canonical key order.
    pub fn iter(&self) -> impl Iterator<Item = (&OwnedKey, &Entry)> {
        self.entries.iter()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Has no entries?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Canonical JSON form (sorted keys, integers only). Byte-identical
    /// for equal snapshots by construction.
    pub fn to_json(&self) -> String {
        json::snapshot_to_json(self)
    }

    /// Parses the canonical JSON form back. Returns `None` on any
    /// malformed input.
    pub fn from_json(s: &str) -> Option<Snapshot> {
        json::snapshot_from_json(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(name: &str, labels: &[(&str, &str)]) -> OwnedKey {
        OwnedKey::with_labels(name, labels)
    }

    #[test]
    fn record_folds_per_kind() {
        let mut s = Snapshot::new();
        s.record(k("c", &[]), Value::Counter(2));
        s.record(k("c", &[]), Value::Counter(3));
        s.record(k("g", &[]), Value::Gauge(7));
        s.record(k("g", &[]), Value::Gauge(4));
        let mut h = Histogram::new();
        h.observe(9);
        s.record(k("h", &[]), Value::Hist(Box::new(h.clone())));
        s.record(k("h", &[]), Value::Hist(Box::new(h)));
        assert_eq!(s.counter(&k("c", &[])), 5);
        assert_eq!(s.gauge(&k("g", &[])), 7);
        assert_eq!(s.hist(&k("h", &[])).unwrap().count(), 2);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = Snapshot::new();
        a.record(k("x", &[("p", "1")]), Value::Counter(10));
        a.record(k("d", &[]), Value::Gauge(3));
        let mut b = Snapshot::new();
        b.record(k("x", &[("p", "1")]), Value::Counter(5));
        b.record(k("x", &[("p", "2")]), Value::Counter(1));
        b.record(k("d", &[]), Value::Gauge(8));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter_total("x"), 16);
        assert_eq!(ab.gauge(&k("d", &[])), 8);
    }

    #[test]
    fn relabel_stamps_every_key() {
        let mut s = Snapshot::new();
        s.record(k("x", &[("p", "1")]), Value::Counter(2));
        s.record(k("y", &[]), Value::Counter(3));
        let tagged = s.relabeled(&[("stage", "ntp_scan")]);
        assert_eq!(
            tagged.counter(&k("x", &[("p", "1"), ("stage", "ntp_scan")])),
            2
        );
        assert_eq!(tagged.counter(&k("y", &[("stage", "ntp_scan")])), 3);
    }
}
