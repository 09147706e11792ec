//! The per-stage metrics registry.
//!
//! Every stage counts into plain fields of its own and exports them once,
//! at the stage's end, so a [`Registry`] sees O(1) writes per stage and
//! is nothing more than one ordered [`Snapshot`]. Stage registries merge
//! commutatively into the study's report.

use crate::hist::Histogram;
use crate::key::{Key, OwnedKey};
use crate::snapshot::{Snapshot, Value};

/// A per-stage metrics registry: counters and histograms under static
/// [`Key`]s or dynamically-labelled [`OwnedKey`]s (e.g. per-actor
/// telescope hits). See the crate docs for the determinism rules.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    entries: Snapshot,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `n` to the counter under `key`.
    pub fn add(&mut self, key: Key, n: u64) {
        self.add_dyn(key.into(), n);
    }

    /// Records a histogram sample under `key`. Durations must come from
    /// simulation time, never the wall clock.
    pub fn observe(&mut self, key: Key, v: u64) {
        let mut h = Histogram::new();
        h.observe(v);
        self.merge_hist(key, &h);
    }

    /// Merges a whole histogram under `key` — how a value kept outside
    /// the registry (the transport's RTT totals, the collection loop's
    /// KoD back-offs, the scanner's back-off waits) is exported in one
    /// call.
    pub fn merge_hist(&mut self, key: impl Into<OwnedKey>, h: &Histogram) {
        self.entries
            .record(key.into(), Value::Hist(Box::new(h.clone())));
    }

    /// Adds `n` to a dynamically-labelled counter.
    pub fn add_dyn(&mut self, key: OwnedKey, n: u64) {
        self.entries.record(key, Value::Counter(n));
    }

    /// Current counter value under `key` (0 when absent).
    pub fn counter(&self, key: Key) -> u64 {
        self.entries.counter(&key.into())
    }

    /// Histogram under `key`, if any sample was recorded.
    pub fn hist(&self, key: Key) -> Option<&Histogram> {
        self.entries.hist(&key.into())
    }

    /// Folds every metric of `other` into `self`. Commutative — shard
    /// registries merge to the same totals in any order.
    pub fn merge(&mut self, other: &Registry) {
        self.entries.merge(&other.entries);
    }

    /// Exports every metric into an owned [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        self.entries.clone()
    }

    /// [`Registry::snapshot`] with `extra` labels stamped onto every key
    /// (overriding same-named labels) — how stage-agnostic registries
    /// get their `stage` label when the study merges them.
    pub fn snapshot_with(&self, extra: &[(&str, &str)]) -> Snapshot {
        let mut out = Snapshot::new();
        for (k, v) in self.entries.iter() {
            let mut key = k.clone();
            for (name, value) in extra {
                key.labels.insert((*name).to_string(), (*value).to_string());
            }
            out.record(key, v.clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Key = Key::new("reqs", &[("protocol", "NTP")]);
    const B: Key = Key::new("reqs", &[("protocol", "SSH")]);
    const H: Key = Key::bare("rtt");

    #[test]
    fn registry_merge_matches_single_registry() {
        // Split the same event stream across two registries; merging in
        // either order equals recording everything in one.
        let mut one = Registry::new();
        let mut left = Registry::new();
        let mut right = Registry::new();
        for (i, r) in [&mut left, &mut right].into_iter().enumerate() {
            for j in 0..5u64 {
                r.add(A, 1);
                r.add(B, j);
                r.observe(H, i as u64 * 1000 + j * 100);
            }
        }
        for i in 0..2u64 {
            for j in 0..5u64 {
                one.add(A, 1);
                one.add(B, j);
                one.observe(H, i * 1000 + j * 100);
            }
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        assert_eq!(lr.snapshot(), rl.snapshot());
        assert_eq!(lr.snapshot(), one.snapshot());
        assert_eq!(lr.counter(A), 10);
        assert_eq!(lr.counter(B), 20);
        assert_eq!(lr.hist(H).unwrap().count(), 10);
    }

    #[test]
    fn snapshot_with_stamps_stage_label() {
        let mut r = Registry::new();
        r.add(A, 1);
        let snap = r.snapshot_with(&[("stage", "hitlist_scan")]);
        let key = OwnedKey::with_labels("reqs", &[("protocol", "NTP"), ("stage", "hitlist_scan")]);
        assert_eq!(snap.counter(&key), 1);
        // Extra labels override static ones with the same name.
        let overridden = r.snapshot_with(&[("protocol", "SSH")]);
        assert_eq!(overridden.counter(&B.into()), 1);
    }

    #[test]
    fn dynamic_counters_merge_commutatively() {
        let actor = OwnedKey::with_labels("telescope_actor_hits", &[("actor", "campaign-7")]);
        let mut a = Registry::new();
        a.add_dyn(actor.clone(), 2);
        let mut b = Registry::new();
        b.add_dyn(actor.clone(), 5);
        a.merge(&b);
        assert_eq!(a.snapshot().counter(&actor), 7);
    }
}
