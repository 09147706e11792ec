//! Address collection: what the modified NTP servers log.
//!
//! The collector keeps, per collecting server, the set of distinct client
//! addresses (Table 7 / Figure 4) plus a global set (Table 1), and reports
//! **first sights**: [`AddressCollector::record`] returns an
//! [`Observation`] exactly once per address, when it is first observed —
//! re-observations only bump counters, mirroring how the study's zgrab2
//! pipeline deduplicates its input. The caller appends those to the feed,
//! a plain `Vec<Observation>` it owns.
//!
//! There is one collector type, and it is plain data: the value
//! [`CollectionRun::advance`](crate::CollectionRun::advance) records
//! into is the value a study checkpoint stores and a finished study
//! exposes. A study runs eleven collecting servers, so the per-server
//! tables are vectors sorted by server id and looked up by binary search.
//!
//! The global set is a [`store::Archive`] — the memtable + compact-segment
//! store built for the paper's 3 B-address scale. The per-server
//! `AddrSet`s grow from empty: a server sees a location's slice of the
//! clients that poll inside the window, far fewer than the device
//! population.

use crate::pool::ServerId;
use netsim::time::SimTime;
use std::net::Ipv6Addr;
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

/// The address collector: the dedup state of a collection run. `Clone`
/// so a suspended study session can snapshot it without tearing it down.
#[derive(Clone, Default)]
pub struct AddressCollector {
    /// The global distinct-address archive.
    pub global: Archive,
    /// Distinct addresses per server, strictly ascending by server id.
    pub per_server: Vec<(ServerId, AddrSet)>,
    /// Raw request counts per server, strictly ascending by server id.
    pub requests: Vec<(ServerId, u64)>,
}

impl std::fmt::Debug for AddressCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AddressCollector")
            .field("distinct", &self.global.len())
            .field("servers", &self.per_server.len())
            .finish()
    }
}

/// `server`'s entry in a table sorted by server id, inserted at its
/// place on first use.
fn slot<T: Default>(table: &mut Vec<(ServerId, T)>, server: ServerId) -> &mut T {
    let at = match table.binary_search_by_key(&server, |(s, _)| *s) {
        Ok(at) => at,
        Err(at) => {
            table.insert(at, (server, T::default()));
            at
        }
    };
    &mut table[at].1
}

fn lookup<T>(table: &[(ServerId, T)], server: ServerId) -> Option<&T> {
    let at = table.binary_search_by_key(&server, |(s, _)| *s).ok()?;
    Some(&table[at].1)
}

impl AddressCollector {
    /// The collector before any observation.
    pub fn new() -> AddressCollector {
        AddressCollector::default()
    }

    /// [`AddressCollector::new`] under the signature the frozen
    /// benchmark calls. Both arguments are ignored: there is no sink to
    /// attach since the feed became `record`'s return value, and the
    /// population stopped reserving anything when a quarter of it per
    /// collecting server proved 25× what a 45-minute window of the
    /// 1:100 world puts there.
    pub fn sized_for(_sink: Option<()>, _expected_devices: usize) -> AddressCollector {
        AddressCollector::new()
    }

    /// Records one observed request; returns the observation when it is
    /// the global first sight of `addr`.
    pub fn record(&mut self, server: ServerId, addr: Ipv6Addr, at: SimTime) -> Option<Observation> {
        *slot(&mut self.requests, server) += 1;
        slot(&mut self.per_server, server).insert(addr);
        self.global.insert(addr).then_some(Observation {
            addr,
            seen: at,
            server,
        })
    }

    /// The global distinct-address archive.
    pub fn global(&self) -> &Archive {
        &self.global
    }

    /// Distinct addresses per server.
    pub fn per_server(&self, server: ServerId) -> Option<&AddrSet> {
        lookup(&self.per_server, server)
    }

    /// Total raw requests a server received.
    pub fn requests(&self, server: ServerId) -> u64 {
        lookup(&self.requests, server).copied().unwrap_or(0)
    }

    /// Servers with any recorded data, ascending.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.per_server.iter().map(|(server, _)| *server)
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
        let mut c = AddressCollector::new();
        let mut feed = Vec::new();
        feed.extend(c.record(ServerId(0), a("2001:db8::1"), SimTime(5)));
        feed.extend(c.record(ServerId(1), a("2001:db8::1"), SimTime(9))); // re-sight
        feed.extend(c.record(ServerId(0), a("2001:db8::2"), SimTime(12)));
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

    /// The collector is its own checkpoint parts: a clone taken mid-run
    /// carries the dedup state exactly, so continuing on it re-feeds
    /// nothing already collected and fires for what is new.
    #[test]
    fn parts_roundtrip_preserves_dedup() {
        let mut c = AddressCollector::sized_for(None, 100);
        for i in 0..50u32 {
            // Servers arrive out of id order; the tables stay sorted.
            let first = c.record(
                ServerId(2 - i % 3),
                a(&format!("2001:db8::{:x}", i + 1)),
                SimTime(u64::from(i)),
            );
            assert!(first.is_some());
        }
        assert_eq!(c.servers().map(|s| s.0).collect::<Vec<_>>(), [0, 1, 2]);
        let mut c = c.clone();
        // Re-sighting anything already collected stays silent.
        assert_eq!(c.record(ServerId(0), a("2001:db8::5"), SimTime(99)), None);
        // A genuinely new address fires.
        let fresh = c.record(ServerId(1), a("2001:db8::ffff"), SimTime(100));
        assert_eq!(fresh.map(|obs| obs.seen), Some(SimTime(100)));
        assert_eq!(c.global().len(), 51);
        assert_eq!(c.requests(ServerId(0)), 17);
    }
}
