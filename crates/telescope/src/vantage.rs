//! Vantage addresses: one distinct source address per queried server.

use netsim::time::{Duration, SimTime};
use netsim::transport::{Delivery, Ideal, Link, Transport};
use netsim::TransportTotals;
use ntppool::{Pool, ServerId};
use std::collections::{HashMap, HashSet};
use std::net::Ipv6Addr;
use v6addr::Prefix;
use wire::ntp::{NtpTimestamp, Packet};

/// The telescope: a dedicated prefix, a ledger of which source address
/// queried which pool server, and the surrounding addresses monitored for
/// scatter.
///
/// There is no address→server map: vantage addresses are arithmetic
/// ([`addr_for`](Vantage::addr_for) embeds the server index in the /64
/// subnet bits), so [`server_of`](Vantage::server_of) inverts the
/// construction and verifies against the server→address ledger.
#[derive(Debug, Clone)]
pub struct Vantage {
    /// The announced vantage prefix.
    pub prefix: Prefix,
    by_server: HashMap<ServerId, Ipv6Addr>,
    /// When each server was queried.
    query_times: HashMap<ServerId, SimTime>,
    /// Servers whose query actually *arrived* (ground truth): only these
    /// can have learned the vantage address. Under the ideal transport
    /// this is every queried server.
    sourced: HashSet<ServerId>,
    /// Every query's transport exchange.
    transport: TransportTotals,
}

impl Vantage {
    /// A telescope over `prefix` (a /48 gives plenty of room).
    pub fn new(prefix: Prefix) -> Vantage {
        Vantage {
            prefix,
            by_server: HashMap::new(),
            query_times: HashMap::new(),
            sourced: HashSet::new(),
            transport: TransportTotals::default(),
        }
    }

    /// The (deterministic) vantage address for the `i`-th server: its own
    /// /64 with a low IID, so neighbouring monitored addresses exist.
    pub fn addr_for(&self, server: ServerId) -> Ipv6Addr {
        self.prefix.subnet(64, u128::from(server.0) + 1).host(1)
    }

    /// Queries every pool server once, spreading queries `gap` apart
    /// starting at `start`. Each query is a full wire-level exchange; the
    /// ledger records the source address used.
    pub fn query_all(&mut self, pool: &Pool, start: SimTime, gap: Duration) -> u64 {
        self.query_all_via(pool, &Ideal, start, gap)
    }

    /// [`query_all`](Vantage::query_all) through an explicit transport.
    /// The ledger records every source address regardless of delivery —
    /// the telescope knows what it sent — but only servers whose query
    /// arrived are marked [`was_sourced`](Vantage::was_sourced): a lost
    /// query leaves nothing in the server's log for an actor to scan.
    pub fn query_all_via(
        &mut self,
        pool: &Pool,
        transport: &dyn Transport,
        start: SimTime,
        gap: Duration,
    ) -> u64 {
        let mut answered = 0;
        let mut t = start;
        for (id, server) in pool.servers() {
            let src = self.addr_for(id);
            let req = Packet::client_request(NtpTimestamp::from_unix_secs(t.to_unix())).emit();
            let mut saw = false;
            let link = Link {
                src,
                dst: ntppool::run::server_addr(id),
                port: ntppool::run::NTP_PORT,
                attempt: 0,
            };
            let delivery = self
                .transport
                .exchange(transport, link, &req, &mut |bytes| {
                    let r = server.handle(bytes, t);
                    saw = r.is_some();
                    r
                });
            if matches!(delivery, Delivery::Answered { .. }) {
                answered += 1;
            }
            if saw {
                self.sourced.insert(id);
            }
            self.by_server.insert(id, src);
            self.query_times.insert(id, t);
            t += gap;
        }
        answered
    }

    /// Exports the vantage's sweeps into `registry`: queries issued,
    /// replies that came back and servers actually sourced
    /// (`telescope_*`), and their exchanges (`transport_*`). All are
    /// deterministic — the query schedule and the fault transport are.
    pub fn export_into(&self, registry: &mut telemetry::Registry) {
        registry.add(crate::metrics::TELESCOPE_QUERIES, self.queried() as u64);
        registry.add(crate::metrics::TELESCOPE_ANSWERED, self.transport.answered);
        registry.add(crate::metrics::TELESCOPE_SOURCED, self.sourced.len() as u64);
        self.transport.export_into(registry);
    }

    /// The transport exchanges of every sweep so far.
    pub fn transport(&self) -> &TransportTotals {
        &self.transport
    }

    /// Did `server` actually receive this telescope's query? Only sourced
    /// servers can leak the vantage address to a scanning actor.
    pub fn was_sourced(&self, server: ServerId) -> bool {
        self.sourced.contains(&server)
    }

    /// Which server was queried from `addr`, if any. Inverts
    /// [`addr_for`](Vantage::addr_for) arithmetically (subnet index →
    /// server id), then confirms against the ledger so addresses of
    /// never-queried servers stay `None`.
    pub fn server_of(&self, addr: Ipv6Addr) -> Option<ServerId> {
        if !self.prefix.contains(addr) {
            return None;
        }
        let x = u128::from(addr) ^ self.prefix.bits();
        if x & u128::from(u64::MAX) != 1 {
            return None; // every vantage address has IID ::1
        }
        let id = ServerId(u32::try_from((x >> 64).checked_sub(1)?).ok()?);
        (self.by_server.get(&id) == Some(&addr)).then_some(id)
    }

    /// The address used to query `server`.
    pub fn addr_of(&self, server: ServerId) -> Option<Ipv6Addr> {
        self.by_server.get(&server).copied()
    }

    /// When `server` was queried.
    pub fn query_time(&self, server: ServerId) -> Option<SimTime> {
        self.query_times.get(&server).copied()
    }

    /// Number of queried servers.
    pub fn queried(&self) -> usize {
        self.by_server.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::country;
    use ntppool::PoolServer;

    /// Inside the monitored prefix but *not* a vantage address: a
    /// packet there indicates scattering.
    fn is_scatter(v: &Vantage, addr: Ipv6Addr) -> bool {
        v.prefix.contains(addr) && v.server_of(addr).is_none()
    }

    fn pool(n: u32) -> Pool {
        let mut p = Pool::new();
        for _ in 0..n {
            p.add(PoolServer::background(country::DE));
        }
        p
    }

    #[test]
    fn addresses_are_unique_per_server() {
        let v = Vantage::new("2001:db8:aa::/48".parse().unwrap());
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            assert!(seen.insert(v.addr_for(ServerId(i))));
        }
    }

    #[test]
    fn query_ledger_roundtrip() {
        let p = pool(10);
        let mut v = Vantage::new("2001:db8:aa::/48".parse().unwrap());
        let answered = v.query_all(&p, SimTime(100), Duration::secs(5));
        assert_eq!(answered, 10);
        assert_eq!(v.queried(), 10);
        for i in 0..10 {
            let id = ServerId(i);
            let addr = v.addr_of(id).unwrap();
            assert_eq!(v.server_of(addr), Some(id));
            assert_eq!(v.query_time(id), Some(SimTime(100 + u64::from(i) * 5)));
        }
    }

    #[test]
    fn ideal_queries_source_every_server() {
        let p = pool(10);
        let mut v = Vantage::new("2001:db8:aa::/48".parse().unwrap());
        v.query_all(&p, SimTime(100), Duration::secs(5));
        for i in 0..10 {
            assert!(v.was_sourced(ServerId(i)));
        }
    }

    #[test]
    fn lost_queries_leave_servers_unsourced() {
        use netsim::transport::{FaultConfig, Faulty};
        let p = pool(200);
        let transport = Faulty::new(FaultConfig::loss_only(13, 0.3));
        let mut v = Vantage::new("2001:db8:aa::/48".parse().unwrap());
        let answered = v.query_all_via(&p, &transport, SimTime(0), Duration::secs(1));
        let sourced = (0..200).filter(|i| v.was_sourced(ServerId(*i))).count();
        // The ledger still knows every address it used...
        assert_eq!(v.queried(), 200);
        // ...but a 30% lossy path leaves a visible gap, and strictly more
        // servers saw the query than answered it (reverse loss).
        assert!(sourced < 200, "no query lost at 30% loss");
        assert!(sourced > 100);
        assert!(answered as usize <= sourced);
        // Stateless faults: a rerun sources the identical server set.
        let mut v2 = Vantage::new("2001:db8:aa::/48".parse().unwrap());
        v2.query_all_via(&p, &transport, SimTime(0), Duration::secs(1));
        for i in 0..200 {
            assert_eq!(v.was_sourced(ServerId(i)), v2.was_sourced(ServerId(i)));
        }
    }

    #[test]
    fn export_accounts_the_sweep() {
        use netsim::transport::{FaultConfig, Faulty};
        let p = pool(100);
        let transport = Faulty::new(FaultConfig::loss_only(13, 0.3));
        let mut v = Vantage::new("2001:db8:aa::/48".parse().unwrap());
        let answered = v.query_all_via(&p, &transport, SimTime(0), Duration::secs(1));
        let mut reg = telemetry::Registry::new();
        v.export_into(&mut reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("telescope_queries"), v.queried() as u64);
        assert_eq!(snap.counter_total("telescope_answered"), answered);
        let sourced = (0..100).filter(|i| v.was_sourced(ServerId(*i))).count();
        assert_eq!(snap.counter_total("telescope_sourced"), sourced as u64);
        assert_eq!(snap.counter_total("transport_exchanges"), 100);
        assert_eq!(snap.counter_total("transport_answered"), answered);
        assert_eq!(v.transport().delivered, sourced as u64);
    }

    /// The arithmetic `server_of` must agree with what a literal
    /// address→server map would say: exact round-trips decode, everything
    /// else — near-miss IIDs, unqueried subnet indexes, out-of-prefix
    /// addresses — stays `None`.
    #[test]
    fn server_of_inverts_addr_for_exactly() {
        let p = pool(10);
        let mut v = Vantage::new("2001:db8:aa::/48".parse().unwrap());
        v.query_all(&p, SimTime(0), Duration::secs(1));
        for i in 0..10 {
            assert_eq!(v.server_of(v.addr_for(ServerId(i))), Some(ServerId(i)));
        }
        // Queried space ends at server 9: index 11 onwards never decodes.
        assert_eq!(v.server_of(v.addr_for(ServerId(10))), None);
        // IID 2 in a queried subnet is not a vantage address.
        let near: Ipv6Addr = "2001:db8:aa:1::2".parse().unwrap();
        assert_eq!(v.server_of(near), None);
        assert!(is_scatter(&v, near));
        // Subnet 0 (no server maps there — indexes start at 1).
        assert_eq!(v.server_of("2001:db8:aa::1".parse().unwrap()), None);
        assert_eq!(v.server_of("2600::1".parse().unwrap()), None);
    }

    #[test]
    fn scatter_detection() {
        let p = pool(3);
        let mut v = Vantage::new("2001:db8:aa::/48".parse().unwrap());
        v.query_all(&p, SimTime(0), Duration::secs(1));
        let vantage = v.addr_for(ServerId(1));
        assert!(!is_scatter(&v, vantage));
        let neighbour = v.prefix.subnet(64, 2).host(0x2222);
        assert!(is_scatter(&v, neighbour));
        assert!(!is_scatter(&v, "2600::1".parse().unwrap())); // outside prefix
    }
}
