//! The pool registry and client → server mapping.
//!
//! Selection follows the NTP Pool's documented behaviour (Moura et al.,
//! ref \[38\]): a client is served from its **country zone** when that
//! zone has servers, otherwise from its **continent zone**, otherwise from
//! the **global zone**; within a zone, the DNS rotation hands out servers
//! with probability proportional to their operator-configured netspeed.
//!
//! Selection is deterministic: the "random" draw is a hash of
//! `(client id, poll sequence)`, so simulation runs are reproducible.
//! Each zone keeps the running sum of its servers' netspeeds next to
//! their ids, so a pick is one binary search, not a walk of the zone.

use crate::server::PoolServer;
use netsim::country::{self, Continent, Country};
use netsim::mix2;

/// Index of a server in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

/// The servers of one zone, in the order they joined, with the
/// inclusive running sum of their netspeeds: `sums[i]` is the netspeed
/// of `ids[..=i]`.
#[derive(Debug, Clone, Default)]
struct Zone {
    ids: Vec<ServerId>,
    sums: Vec<u64>,
}

impl Zone {
    fn push(&mut self, id: ServerId, netspeed: u64) {
        let total = self.total();
        self.ids.push(id);
        self.sums.push(total + netspeed);
    }

    fn total(&self) -> u64 {
        self.sums.last().copied().unwrap_or(0)
    }

    /// Re-sums the zone after a member's netspeed changed.
    fn resum(&mut self, servers: &[PoolServer]) {
        let mut total = 0;
        for (sum, id) in self.sums.iter_mut().zip(&self.ids) {
            total += servers[id.0 as usize].netspeed;
            *sum = total;
        }
    }

    /// The netspeed-weighted pick for `draw`: the first server whose
    /// running sum is above `draw % total` — the server a walk
    /// subtracting each netspeed in turn stops at — and the first
    /// server when the zone's netspeed is zero.
    fn pick(&self, draw: u64) -> Option<ServerId> {
        let total = *self.sums.last()?;
        if total == 0 {
            return Some(self.ids[0]);
        }
        let target = draw % total;
        Some(self.ids[self.sums.partition_point(|&sum| sum <= target)])
    }
}

/// The zone of `key` in a list sorted by key, created empty if missing.
fn zone_entry<K: Ord + Copy>(zones: &mut Vec<(K, Zone)>, key: K) -> &mut Zone {
    let i = match zones.binary_search_by_key(&key, |(k, _)| *k) {
        Ok(i) => i,
        Err(i) => {
            zones.insert(i, (key, Zone::default()));
            i
        }
    };
    &mut zones[i].1
}

/// The zone of `key` in a list sorted by key. Only [`Pool::add`]
/// creates a zone, so one that exists is not empty.
fn zone_get<K: Ord + Copy>(zones: &[(K, Zone)], key: K) -> Option<&Zone> {
    let i = zones.binary_search_by_key(&key, |(k, _)| *k).ok()?;
    Some(&zones[i].1)
}

/// The pool.
#[derive(Debug, Clone, Default)]
pub struct Pool {
    servers: Vec<PoolServer>,
    by_country: Vec<(Country, Zone)>,
    by_continent: Vec<(Continent, Zone)>,
    global: Zone,
}

impl Pool {
    /// Empty pool.
    pub fn new() -> Pool {
        Pool::default()
    }

    /// A pool pre-populated with every country's background servers (per
    /// [`netsim::country::COUNTRY_TABLE`]).
    pub fn with_background() -> Pool {
        let mut pool = Pool::new();
        for (c, _, _, _, n) in country::COUNTRY_TABLE {
            for _ in 0..*n {
                pool.add(PoolServer::background(*c));
            }
        }
        pool
    }

    /// Adds a server, returning its id.
    pub fn add(&mut self, server: PoolServer) -> ServerId {
        let id = ServerId(self.servers.len() as u32);
        let speed = server.netspeed;
        zone_entry(&mut self.by_country, server.country).push(id, speed);
        if let Some(k) = country::continent(server.country) {
            zone_entry(&mut self.by_continent, k).push(id, speed);
        }
        self.global.push(id, speed);
        self.servers.push(server);
        id
    }

    /// Number of servers in the pool. Ids are dense (`0..len()`), which
    /// is what lets the collection run index its per-server RPS windows
    /// with a plain `Vec`.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Immutable server access.
    pub fn server(&self, id: ServerId) -> &PoolServer {
        &self.servers[id.0 as usize]
    }

    /// Sets a server's netspeed, and re-sums the three zones it is in.
    pub fn set_netspeed(&mut self, id: ServerId, netspeed: u64) {
        let server = &mut self.servers[id.0 as usize];
        server.netspeed = netspeed;
        let c = server.country;
        zone_entry(&mut self.by_country, c).resum(&self.servers);
        if let Some(k) = country::continent(c) {
            zone_entry(&mut self.by_continent, k).resum(&self.servers);
        }
        self.global.resum(&self.servers);
    }

    /// All servers.
    pub fn servers(&self) -> impl Iterator<Item = (ServerId, &PoolServer)> + '_ {
        self.servers
            .iter()
            .enumerate()
            .map(|(i, s)| (ServerId(i as u32), s))
    }

    /// Ids of collecting servers with a given operator filter.
    pub fn collecting_servers(&self) -> impl Iterator<Item = (ServerId, &PoolServer)> + '_ {
        self.servers().filter(|(_, s)| s.operator.collects())
    }

    /// The zone a client in `c` is served from: its country's, else its
    /// continent's, else the global one.
    fn zone(&self, c: Country) -> &Zone {
        zone_get(&self.by_country, c)
            .or_else(|| zone_get(&self.by_continent, country::continent(c)?))
            .unwrap_or(&self.global)
    }

    /// Total netspeed of a zone.
    pub fn zone_netspeed(&self, c: Country) -> u64 {
        self.zone(c).total()
    }

    /// A collecting server's share of its zone's queries.
    pub fn zone_share(&self, id: ServerId) -> f64 {
        let c = self.server(id).country;
        let total = self.zone_netspeed(c);
        if total == 0 {
            0.0
        } else {
            self.server(id).netspeed as f64 / total as f64
        }
    }

    /// Deterministic weighted pick for one query: `client` and `seq`
    /// replace the DNS rotation's randomness.
    pub fn select(&self, client_country: Country, client: u64, seq: u64) -> Option<ServerId> {
        self.zone(client_country).pick(mix2(client, seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::country;

    /// The zone (server list) a client in `c` is served from.
    fn zone_of(pool: &Pool, c: Country) -> &[ServerId] {
        &pool.zone(c).ids
    }

    #[test]
    fn background_pool_matches_country_table() {
        let pool = Pool::with_background();
        assert_eq!(
            zone_of(&pool, country::DE).len(),
            country::info(country::DE).unwrap().4 as usize
        );
        assert_eq!(
            zone_of(&pool, country::IN).len(),
            country::info(country::IN).unwrap().4 as usize
        );
    }

    #[test]
    fn empty_country_falls_back_to_continent_then_global() {
        let mut pool = Pool::new();
        let de = pool.add(PoolServer::background(country::DE));
        // Spain has no servers in this pool, but DE shares the continent.
        assert_eq!(zone_of(&pool, country::ES), &[de]);
        // India: no Asian servers at all → global.
        assert_eq!(zone_of(&pool, country::IN), &[de]);
        let jp = pool.add(PoolServer::background(country::JP));
        assert_eq!(zone_of(&pool, country::IN), &[jp]);
    }

    #[test]
    fn selection_is_deterministic_and_weighted() {
        let mut pool = Pool::new();
        let small = pool.add(PoolServer::background(country::DE));
        let big = pool.add(PoolServer {
            netspeed: 9_000,
            ..PoolServer::background(country::DE)
        });
        assert_eq!(
            pool.select(country::DE, 1, 1),
            pool.select(country::DE, 1, 1)
        );
        let mut hits = [0u32; 2];
        for client in 0..500u64 {
            for seq in 0..10u64 {
                match pool.select(country::DE, client, seq).unwrap() {
                    s if s == small => hits[0] += 1,
                    s if s == big => hits[1] += 1,
                    _ => unreachable!(),
                }
            }
        }
        let share = hits[1] as f64 / (hits[0] + hits[1]) as f64;
        assert!((0.85..0.95).contains(&share), "big server share {share}");
        assert!((pool.zone_share(big) - 0.9).abs() < 1e-9);
    }

    /// The pick as a walk of the zone that subtracts each netspeed in
    /// turn.
    fn linear_select(pool: &Pool, c: Country, client: u64, seq: u64) -> Option<ServerId> {
        let zone = zone_of(pool, c);
        let total: u64 = zone.iter().map(|id| pool.server(*id).netspeed).sum();
        if total == 0 {
            return zone.first().copied();
        }
        let mut target = mix2(client, seq) % total;
        for id in zone {
            let w = pool.server(*id).netspeed;
            if target < w {
                return Some(*id);
            }
            target -= w;
        }
        unreachable!("the draw is below the zone's total")
    }

    /// After netspeeds change, the running sums still pick what the
    /// walk picks: zero-netspeed servers, an all-zero zone, zones a
    /// client falls back to, and an empty pool included.
    #[test]
    fn select_after_set_netspeed_equals_the_linear_walk() {
        let clients = [
            country::DE,
            country::ES,
            country::GB,
            country::JP,
            country::IN,
            country::BR,
        ];
        let agree = |pool: &Pool, ctx: &str| {
            for draw in 0..10_000u64 {
                let c = clients[(draw % clients.len() as u64) as usize];
                let (client, seq) = (mix2(draw, 7), draw / 3);
                assert_eq!(
                    pool.select(c, client, seq),
                    linear_select(pool, c, client, seq),
                    "{ctx}: {c} client {client} seq {seq}"
                );
            }
        };
        agree(&Pool::new(), "empty pool");

        let mut pool = Pool::new();
        let at = |c, netspeed| PoolServer {
            netspeed,
            ..PoolServer::background(c)
        };
        let de = [
            pool.add(at(country::DE, 1_000)),
            pool.add(at(country::DE, 0)),
            pool.add(at(country::DE, 5_000)),
        ];
        let es = [pool.add(at(country::ES, 0)), pool.add(at(country::ES, 0))];
        let jp = pool.add(at(country::JP, 0));
        agree(&pool, "as added");
        for (id, netspeed, ctx) in [
            (de[0], 0, "a DE server to zero"),
            (de[1], 20_000, "a zero DE server up"),
            (jp, 3, "the only JP server up"),
            (es[1], 700, "one ES server up"),
            (es[1], 0, "the ES zone back to zero"),
            (de[2], 1, "a DE server down"),
        ] {
            pool.set_netspeed(id, netspeed);
            assert_eq!(pool.server(id).netspeed, netspeed);
            agree(&pool, ctx);
        }
        assert_eq!(pool.select(country::ES, 1, 1), Some(es[0]));
    }

    #[test]
    fn select_on_empty_pool_is_none() {
        let pool = Pool::new();
        assert_eq!(pool.select(country::DE, 1, 1), None);
    }

    #[test]
    fn collecting_servers_filter() {
        let mut pool = Pool::with_background();
        let n_bg = pool.servers().count();
        pool.add(PoolServer {
            operator: crate::server::Operator::Study { location_index: 0 },
            ..PoolServer::background(country::AU)
        });
        assert_eq!(pool.collecting_servers().count(), 1);
        assert_eq!(pool.servers().count(), n_bg + 1);
    }
}
