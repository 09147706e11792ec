//! The hot-path metrics registry.
//!
//! A [`Registry`] is plain `HashMap` state keyed by fully-`'static`
//! [`Key`]s whose content hash was folded at const time
//! ([`crate::key::KeyHasher`]), so a bump is one `u64` move, a table
//! probe, and an integer add: no locks, no allocation, no string
//! hashing. Every stage owns its registry and merging happens once, at
//! the end, commutatively.

use std::collections::BTreeMap;

use crate::hist::Histogram;
use crate::key::{Key, KeyHashMap, OwnedKey};
use crate::snapshot::{Snapshot, Value};

/// A per-stage metrics registry: counters and histograms keyed by
/// static [`Key`]s, plus a cold-path map for
/// dynamically-labelled counters (e.g. per-actor telescope hits). See
/// the crate docs for the determinism rules.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: KeyHashMap<u64>,
    hists: KeyHashMap<Histogram>,
    dyn_counters: BTreeMap<OwnedKey, u64>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Increments the counter under `key`.
    #[inline]
    pub fn inc(&mut self, key: Key) {
        self.add(key, 1);
    }

    /// Adds `n` to the counter under `key`.
    #[inline]
    pub fn add(&mut self, key: Key, n: u64) {
        *self.counters.entry(key).or_insert(0) += n;
    }

    /// Records a histogram sample under `key`. Durations must come from
    /// simulation time, never the wall clock.
    #[inline]
    pub fn observe(&mut self, key: Key, v: u64) {
        self.hists.entry(key).or_default().observe(v);
    }

    /// Merges a whole histogram under `key` — how a value kept outside
    /// the registry (the transport's RTT totals, the collection loop's
    /// KoD back-offs) is exported in one call.
    pub fn merge_hist(&mut self, key: Key, h: &Histogram) {
        self.hists.entry(key).or_default().merge(h);
    }

    /// Adds `n` to a dynamically-labelled counter (cold path: allocates).
    pub fn add_dyn(&mut self, key: OwnedKey, n: u64) {
        *self.dyn_counters.entry(key).or_insert(0) += n;
    }

    /// Current counter value under `key` (0 when absent).
    pub fn counter(&self, key: Key) -> u64 {
        self.counters.get(&key).copied().unwrap_or(0)
    }

    /// Histogram under `key`, if any sample was recorded.
    pub fn hist(&self, key: Key) -> Option<&Histogram> {
        self.hists.get(&key)
    }

    /// Folds every metric of `other` into `self`. Commutative — shard
    /// registries merge to the same totals in any order.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            self.add(*k, *v);
        }
        for (k, h) in &other.hists {
            self.merge_hist(*k, h);
        }
        for (k, v) in &other.dyn_counters {
            self.add_dyn(k.clone(), *v);
        }
    }

    /// Exports every metric into an owned [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        self.snapshot_with(&[])
    }

    /// [`Registry::snapshot`] with `extra` labels stamped onto every key
    /// — how stage-agnostic registries get their `stage` label at merge
    /// time without paying for it on the hot path.
    pub fn snapshot_with(&self, extra: &[(&str, &str)]) -> Snapshot {
        let mut out = Snapshot::new();
        for (k, v) in &self.counters {
            out.record(k.to_owned_with(extra), Value::Counter(*v));
        }
        for (k, h) in &self.hists {
            out.record(k.to_owned_with(extra), Value::Hist(Box::new(h.clone())));
        }
        for (k, v) in &self.dyn_counters {
            let mut key = k.clone();
            for (name, value) in extra {
                key.labels.insert((*name).to_string(), (*value).to_string());
            }
            out.record(key, Value::Counter(*v));
        }
        out
    }
}

/// Times a span of *simulation* time against a histogram key. The
/// caller supplies both instants explicitly — the timer never reads a
/// clock, which is what keeps span metrics deterministic.
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer {
    key: Key,
    start: u64,
}

impl SpanTimer {
    /// Starts a span at instant `now` (any monotone u64 time unit; the
    /// study pipeline passes simulation seconds).
    pub const fn start(key: Key, now: u64) -> SpanTimer {
        SpanTimer { key, start: now }
    }

    /// Ends the span at instant `now`, recording the elapsed time as a
    /// histogram sample.
    pub fn finish(self, registry: &mut Registry, now: u64) {
        registry.observe(self.key, now.saturating_sub(self.start));
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
                r.inc(A);
                r.add(B, j);
                r.observe(H, i as u64 * 1000 + j * 100);
            }
        }
        for i in 0..2u64 {
            for j in 0..5u64 {
                one.inc(A);
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
        r.inc(A);
        let snap = r.snapshot_with(&[("stage", "hitlist_scan")]);
        let key = OwnedKey::with_labels("reqs", &[("protocol", "NTP"), ("stage", "hitlist_scan")]);
        assert_eq!(snap.counter(&key), 1);
    }

    #[test]
    fn span_timer_uses_explicit_instants() {
        let mut r = Registry::new();
        let t = SpanTimer::start(H, 100);
        t.finish(&mut r, 175);
        assert_eq!(r.hist(H).unwrap().sum(), 75);
        // Clock going backwards (merged shard timelines) saturates to 0.
        let t = SpanTimer::start(H, 50);
        t.finish(&mut r, 20);
        assert_eq!(r.hist(H).unwrap().count(), 2);
        assert_eq!(r.hist(H).unwrap().min(), 0);
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
