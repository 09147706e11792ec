//! Address collection: what the modified NTP servers log.
//!
//! The collector keeps, per collecting server, the set of distinct client
//! addresses (Table 7 / Figure 4) plus a global set (Table 1), and emits a
//! **first-sight feed**: every address is handed to the real-time scanner
//! exactly once, when first observed — re-observations only bump counters,
//! mirroring how the study's zgrab2 pipeline deduplicates its input.
//!
//! The global set is a [`store::Archive`] — the memtable + compact-segment
//! store built for the paper's 3 B-address scale. The per-server
//! `AddrSet`s grow from empty: a server sees a location's slice of the
//! clients that poll inside the window, far fewer than the device
//! population.

use crate::pool::ServerId;
use netsim::time::SimTime;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::sync::Arc;
use store::Archive;
use v6addr::AddrSet;

/// One first-sight observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// The client address.
    pub addr: Ipv6Addr,
    /// When it was first seen.
    pub seen: SimTime,
    /// Which collecting server saw it first.
    pub server: ServerId,
}

/// Sink for first-sight observations.
pub trait FeedSink: Send + Sync {
    /// Called once per distinct address.
    fn on_first_sight(&mut self, obs: Observation);
}

/// A sink that simply buffers the feed.
#[derive(Debug, Default, Clone)]
pub struct VecSink(pub Arc<Mutex<Vec<Observation>>>);

impl VecSink {
    /// A sink that appends behind `prefix` — the feed a resumed run has
    /// already emitted — so prefix and remainder share one buffer.
    pub fn with_prefix(prefix: Vec<Observation>) -> VecSink {
        VecSink(Arc::new(Mutex::new(prefix)))
    }

    /// Moves the buffered feed out, leaving the sink empty.
    pub fn take(&self) -> Vec<Observation> {
        std::mem::take(&mut *self.0.lock())
    }
}

impl FeedSink for VecSink {
    fn on_first_sight(&mut self, obs: Observation) {
        self.0.lock().push(obs);
    }
}

/// The collector's dedup state, detached from its sink — what
/// [`CollectionRun::advance`](crate::CollectionRun::advance) records
/// into, a study checkpoint persists and a resume restores. `Clone` so
/// a suspended study session can snapshot its state without tearing it
/// down.
#[derive(Clone, Default)]
pub struct CollectorParts {
    /// The global distinct-address archive.
    pub global: Archive,
    /// Distinct addresses per server, sorted by server id.
    pub per_server: Vec<(ServerId, AddrSet)>,
    /// Raw request counts per server, sorted by server id.
    pub requests: Vec<(ServerId, u64)>,
    /// Shard-local first-sight archives of the sharded engine, in shard
    /// order. Their number *is* the engine's shard count; a flat
    /// collector has none.
    pub shards: Vec<Archive>,
}

impl CollectorParts {
    /// The state before any observation, for a collection engine of
    /// `shards` shards (one shard is the flat collector).
    pub fn new(shards: usize) -> CollectorParts {
        let locals = if shards > 1 { shards } else { 0 };
        CollectorParts {
            shards: (0..locals).map(|_| Archive::new()).collect(),
            ..CollectorParts::default()
        }
    }
}

/// The address collector.
pub struct AddressCollector {
    global: Archive,
    per_server: HashMap<ServerId, AddrSet>,
    requests: HashMap<ServerId, u64>,
    sink: Option<Box<dyn FeedSink>>,
}

impl std::fmt::Debug for AddressCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AddressCollector")
            .field("distinct", &self.global.len())
            .field("servers", &self.per_server.len())
            .finish()
    }
}

impl Default for AddressCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressCollector {
    /// Collector without a feed sink.
    pub fn new() -> AddressCollector {
        AddressCollector {
            global: Archive::new(),
            per_server: HashMap::new(),
            requests: HashMap::new(),
            sink: None,
        }
    }

    /// Collector forwarding first sights into `sink`.
    pub fn with_sink(sink: Box<dyn FeedSink>) -> AddressCollector {
        AddressCollector {
            sink: Some(sink),
            ..AddressCollector::new()
        }
    }

    /// Collector with an optional sink. The population argument no
    /// longer reserves anything: a quarter of it per collecting server
    /// was 25× what a 45-minute window of the 1:100 world puts there.
    pub fn sized_for(
        sink: Option<Box<dyn FeedSink>>,
        _expected_devices: usize,
    ) -> AddressCollector {
        AddressCollector {
            sink,
            ..AddressCollector::new()
        }
    }

    /// Rebuilds a flat collector from [`CollectorParts`], reattaching a
    /// (fresh) sink for the remainder of the run. Shard-local archives
    /// are an engine detail with no flat counterpart and are dropped.
    pub fn from_parts(parts: CollectorParts, sink: Option<Box<dyn FeedSink>>) -> AddressCollector {
        AddressCollector {
            global: parts.global,
            per_server: parts.per_server.into_iter().collect(),
            requests: parts.requests.into_iter().collect(),
            sink,
        }
    }

    /// Extracts the dedup state for checkpointing (drops the sink).
    pub fn into_parts(self) -> CollectorParts {
        let mut per_server: Vec<(ServerId, AddrSet)> = self.per_server.into_iter().collect();
        per_server.sort_by_key(|(s, _)| *s);
        let mut requests: Vec<(ServerId, u64)> = self.requests.into_iter().collect();
        requests.sort_by_key(|(s, _)| *s);
        CollectorParts {
            global: self.global,
            per_server,
            requests,
            shards: Vec::new(),
        }
    }

    /// Records one observed request.
    pub fn record(&mut self, server: ServerId, addr: Ipv6Addr, at: SimTime) {
        *self.requests.entry(server).or_insert(0) += 1;
        self.per_server.entry(server).or_default().insert(addr);
        if self.global.insert(addr) {
            if let Some(sink) = &mut self.sink {
                sink.on_first_sight(Observation {
                    addr,
                    seen: at,
                    server,
                });
            }
        }
    }

    /// The global distinct-address archive.
    pub fn global(&self) -> &Archive {
        &self.global
    }

    /// Distinct addresses per server.
    pub fn per_server(&self, server: ServerId) -> Option<&AddrSet> {
        self.per_server.get(&server)
    }

    /// Total raw requests a server received.
    pub fn requests(&self, server: ServerId) -> u64 {
        self.requests.get(&server).copied().unwrap_or(0)
    }

    /// Servers with any recorded data.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        let mut v: Vec<ServerId> = self.per_server.keys().copied().collect();
        v.sort();
        v.into_iter()
    }

    /// Exports the collector's totals into `registry`: the global
    /// distinct-address count plus per-server request and distinct
    /// counters (dynamic `server` labels — the cold path). Collection
    /// event order is deterministic, so these are deterministic metrics.
    pub fn export_into(&self, registry: &mut telemetry::Registry) {
        registry.add(
            crate::metrics::NTP_DISTINCT_ADDRESSES,
            self.global.len() as u64,
        );
        for (server, n) in &self.requests {
            registry.add_dyn(crate::metrics::server_requests(server.0), *n);
        }
        for (server, set) in &self.per_server {
            registry.add_dyn(crate::metrics::server_distinct(server.0), set.len() as u64);
        }
    }

    /// Consumes the collector, returning the global archive.
    pub fn into_global(self) -> Archive {
        self.global
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn dedup_and_counters() {
        let mut c = AddressCollector::new();
        let s0 = ServerId(0);
        let s1 = ServerId(1);
        c.record(s0, a("2001:db8::1"), SimTime(1));
        c.record(s0, a("2001:db8::1"), SimTime(2));
        c.record(s1, a("2001:db8::1"), SimTime(3));
        c.record(s1, a("2001:db8::2"), SimTime(4));
        assert_eq!(c.global().len(), 2);
        assert_eq!(c.per_server(s0).unwrap().len(), 1);
        assert_eq!(c.per_server(s1).unwrap().len(), 2);
        assert_eq!(c.requests(s0), 2);
        assert_eq!(c.requests(s1), 2);
        assert_eq!(c.servers().collect::<Vec<_>>(), vec![s0, s1]);
    }

    #[test]
    fn feed_fires_once_per_address() {
        let sink = VecSink::default();
        let buf = sink.0.clone();
        let mut c = AddressCollector::with_sink(Box::new(sink));
        c.record(ServerId(0), a("2001:db8::1"), SimTime(5));
        c.record(ServerId(1), a("2001:db8::1"), SimTime(9)); // re-sight
        c.record(ServerId(0), a("2001:db8::2"), SimTime(12));
        let feed = buf.lock().clone();
        assert_eq!(feed.len(), 2);
        assert_eq!(feed[0].addr, a("2001:db8::1"));
        assert_eq!(feed[0].seen, SimTime(5));
        assert_eq!(feed[0].server, ServerId(0));
        assert_eq!(feed[1].addr, a("2001:db8::2"));
    }

    #[test]
    fn empty_lookups() {
        let c = AddressCollector::new();
        assert_eq!(c.requests(ServerId(9)), 0);
        assert!(c.per_server(ServerId(9)).is_none());
        assert_eq!(c.global().len(), 0);
    }

    /// Round-tripping through `into_parts`/`from_parts` preserves the
    /// dedup state exactly: replaying the tail of a run against the
    /// restored collector fires the same first sights.
    #[test]
    fn parts_roundtrip_preserves_dedup() {
        let mut c = AddressCollector::sized_for(None, 100);
        for i in 0..50u32 {
            c.record(
                ServerId(i % 3),
                a(&format!("2001:db8::{:x}", i + 1)),
                SimTime(u64::from(i)),
            );
        }
        let parts = c.into_parts();
        let sink = VecSink::default();
        let buf = sink.0.clone();
        let mut c = AddressCollector::from_parts(parts, Some(Box::new(sink)));
        // Re-sighting anything already collected stays silent.
        c.record(ServerId(0), a("2001:db8::5"), SimTime(99));
        assert!(buf.lock().is_empty());
        // A genuinely new address fires.
        c.record(ServerId(1), a("2001:db8::ffff"), SimTime(100));
        assert_eq!(buf.lock().len(), 1);
        assert_eq!(c.global().len(), 51);
        assert_eq!(c.requests(ServerId(0)), 18);
    }
}
