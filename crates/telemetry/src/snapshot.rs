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
    /// Log2 histogram; merges bucket-wise. Boxed so the common counter
    /// entries stay a couple of words each.
    Hist(Box<Histogram>),
}

impl Value {
    /// Folds another value into this one. Both folds are commutative and
    /// associative, which is what makes merge-order independence hold.
    /// Panics on mismatched kinds — that is a programming error (one key
    /// used as two metric types).
    pub fn fold(&mut self, other: &Value) {
        match (self, other) {
            (Value::Counter(a), Value::Counter(b)) => *a += b,
            (Value::Hist(a), Value::Hist(b)) => a.merge(b),
            (a, b) => panic!("metric kind mismatch: {a:?} vs {b:?}"),
        }
    }
}

/// An ordered map from [`OwnedKey`] to [`Value`]. Snapshots are the
/// cold, owned form of metric state: registries export into them,
/// snapshots merge commutatively, and reports serialize them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    entries: BTreeMap<OwnedKey, Value>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Records a value under a key, folding into any existing entry.
    pub fn record(&mut self, key: OwnedKey, value: Value) {
        match self.entries.get_mut(&key) {
            Some(v) => v.fold(&value),
            None => {
                self.entries.insert(key, value);
            }
        }
    }

    /// Folds every entry of `other` into `self`. Commutative:
    /// `a.merge(b)` and `b.merge(a)` produce equal snapshots.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.entries {
            self.record(k.clone(), v.clone());
        }
    }

    /// Counter value under `key` (0 when absent or not a counter).
    pub fn counter(&self, key: &OwnedKey) -> u64 {
        match self.entries.get(key) {
            Some(Value::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Sum of all counters with the given metric name, across label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(k, _)| k.name == name)
            .filter_map(|(_, v)| match v {
                Value::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Histogram under `key`, if present.
    pub fn hist(&self, key: &OwnedKey) -> Option<&Histogram> {
        match self.entries.get(key) {
            Some(Value::Hist(h)) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Iterates entries in canonical key order.
    pub fn iter(&self) -> impl Iterator<Item = (&OwnedKey, &Value)> {
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
        let mut h = Histogram::new();
        h.observe(9);
        s.record(k("h", &[]), Value::Hist(Box::new(h.clone())));
        s.record(k("h", &[]), Value::Hist(Box::new(h)));
        assert_eq!(s.counter(&k("c", &[])), 5);
        assert_eq!(s.hist(&k("h", &[])).unwrap().count(), 2);
    }

    #[test]
    fn merge_is_commutative() {
        let hist = |v| {
            let mut h = Histogram::new();
            h.observe(v);
            Value::Hist(Box::new(h))
        };
        let mut a = Snapshot::new();
        a.record(k("x", &[("p", "1")]), Value::Counter(10));
        a.record(k("d", &[]), hist(3));
        let mut b = Snapshot::new();
        b.record(k("x", &[("p", "1")]), Value::Counter(5));
        b.record(k("x", &[("p", "2")]), Value::Counter(1));
        b.record(k("d", &[]), hist(8));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter_total("x"), 16);
        assert_eq!(ab.hist(&k("d", &[])).unwrap().max(), 8);
    }
}
