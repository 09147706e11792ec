//! The paper's two NTP-sourcing actors (§5.2): who they are, which pool
//! servers they run and where their scans come from. What they *emit*
//! is [`SourcingMachine`](crate::SourcingMachine)'s schedule.

use netsim::time::Duration;
use netsim::OrgId;
use ntppool::{Operator, Pool, PoolServer, ServerId};
use std::net::Ipv6Addr;
use v6addr::Prefix;

/// Actor identifier (matches [`ntppool::Operator::Actor`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub u8);

/// Behavioural profile of an NTP-sourcing scanner.
#[derive(Debug, Clone)]
pub struct ActorProfile {
    /// Reverse-DNS / web identification (`None` = anonymous).
    pub identification: Option<String>,
    /// Pool servers the actor operates.
    pub pool_servers: u32,
    /// Countries its pool servers register in.
    pub server_countries: Vec<netsim::country::Country>,
    /// Ports it scans per sourced address.
    pub ports: Vec<u16>,
    /// Reaction delay after sourcing an address (min, max).
    pub reaction_delay: (Duration, Duration),
    /// How long one address's scan campaign runs.
    pub campaign_duration: Duration,
    /// Probability each port is actually probed per address (covert
    /// actors skip ports to stay under the radar).
    pub port_coverage: f64,
    /// Source prefixes the scan traffic originates from, with the
    /// operating organisation's interned id (cloud providers for the
    /// covert actor) — shared with [`netsim::peeringdb`] so attribution
    /// joins compare ids, not strings.
    pub scan_sources: Vec<(Prefix, OrgId)>,
}

/// An actor instance with its assigned pool server ids.
#[derive(Debug, Clone)]
pub struct Actor {
    /// Identifier.
    pub id: ActorId,
    /// Profile.
    pub profile: ActorProfile,
    /// The actor's servers, filled in by [`Actor::register`].
    pub servers: Vec<ServerId>,
}

impl Actor {
    /// Creates an actor (servers registered separately).
    pub fn new(id: ActorId, profile: ActorProfile) -> Actor {
        Actor {
            id,
            profile,
            servers: Vec::new(),
        }
    }

    /// Registers the actor's NTP servers in the pool.
    pub fn register(&mut self, pool: &mut Pool) {
        for i in 0..self.profile.pool_servers {
            let country =
                self.profile.server_countries[i as usize % self.profile.server_countries.len()];
            let id = pool.add(PoolServer {
                netspeed: 3_000,
                operator: Operator::Actor {
                    actor_id: self.id.0,
                },
                ..PoolServer::background(country)
            });
            self.servers.push(id);
        }
    }

    /// The organisation behind a scan-source address, if it is one of
    /// this actor's.
    pub fn source_org(&self, src: Ipv6Addr) -> Option<OrgId> {
        self.profile
            .scan_sources
            .iter()
            .find(|(p, _)| p.contains(src))
            .map(|(_, org)| *org)
    }
}

/// The Georgia-Tech-like research actor: 15 pool servers, 1011 ports
/// (FTP, BGP, Postgres, …), reacts in under an hour, scans for about ten
/// minutes, identifies itself — "no attempt to disguise".
pub fn gt_actor() -> Actor {
    use netsim::country;
    let mut ports: Vec<u16> = vec![21, 22, 23, 25, 53, 80, 110, 143, 179, 443, 5432];
    let mut p = 1024u16;
    while ports.len() < 1011 {
        ports.push(p);
        p += 13;
    }
    Actor::new(
        ActorId(1),
        ActorProfile {
            identification: Some("research-scanner.example.gatech.edu".into()),
            pool_servers: 15,
            server_countries: vec![country::US],
            ports,
            reaction_delay: (Duration::mins(5), Duration::mins(55)),
            campaign_duration: Duration::mins(10),
            port_coverage: 1.0,
            scan_sources: vec![("2610:148::/32".parse().unwrap(), OrgId::GEORGIA_TECH)],
        },
    )
}

/// The covert actor: anonymous, servers and scanners in two cloud
/// providers' ASes, remote-access + database ports, multi-day spread,
/// not every address gets every port.
pub fn covert_actor() -> Actor {
    use netsim::country;
    Actor::new(
        ActorId(2),
        ActorProfile {
            identification: None,
            pool_servers: 6,
            server_countries: vec![country::US, country::DE],
            ports: vec![443, 8443, 3388, 3389, 5900, 5901, 6000, 6001, 9200, 27017],
            reaction_delay: (Duration::hours(8), Duration::days(2)),
            campaign_duration: Duration::days(4),
            port_coverage: 0.6,
            scan_sources: vec![
                ("2600:1f00::/32".parse().unwrap(), OrgId::AMAZON),
                ("2600:3c00::/32".parse().unwrap(), OrgId::LINODE),
            ],
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, SourcingMachine, TickCtx, ECO_TICK};
    use netsim::bgp::BgpFeed;
    use netsim::time::SimTime;
    use telescope::{CapturedPacket, Vantage};

    #[test]
    fn gt_profile_matches_paper() {
        let gt = gt_actor();
        assert_eq!(gt.profile.pool_servers, 15);
        assert_eq!(gt.profile.ports.len(), 1011);
        assert!(gt.profile.identification.is_some());
        assert_eq!(gt.profile.port_coverage, 1.0);
        assert!(gt.profile.reaction_delay.1 <= Duration::hours(1));
        assert_eq!(gt.profile.campaign_duration, Duration::mins(10));
    }

    #[test]
    fn covert_profile_matches_paper() {
        let c = covert_actor();
        assert!(c.profile.identification.is_none());
        assert_eq!(
            c.profile.ports,
            vec![443, 8443, 3388, 3389, 5900, 5901, 6000, 6001, 9200, 27017]
        );
        assert!(c.profile.port_coverage < 1.0);
        assert!(c.profile.campaign_duration >= Duration::days(2));
        let orgs: std::collections::HashSet<_> =
            c.profile.scan_sources.iter().map(|(_, o)| *o).collect();
        assert_eq!(orgs.len(), 2);
    }

    /// Registers `actor`, sweeps its servers from one vantage starting
    /// at `SimTime(0)` and drives its machine to the end.
    fn campaign(actor: &mut Actor, prefix: &str) -> Vec<CapturedPacket> {
        let mut pool = Pool::new();
        actor.register(&mut pool);
        let mut vantage = Vantage::new(prefix.parse().unwrap());
        vantage.query_all(&pool, SimTime(0), Duration::secs(1));
        let mut machine = SourcingMachine::new("test", actor, &[vantage]);
        let feed = BgpFeed::new();
        let mut probes = Vec::new();
        let mut now = SimTime(0);
        while !machine.finished() {
            let ctx = TickCtx {
                now,
                tick: ECO_TICK,
                feed: &feed,
            };
            machine.tick(&ctx, &mut probes);
            now += ECO_TICK;
        }
        probes
    }

    #[test]
    fn registration_and_scanning() {
        let mut gt = gt_actor();
        let probes = campaign(&mut gt, "2001:db8:bb::/48");
        assert_eq!(gt.servers.len(), 15);
        // 15 servers × 1011 ports, full coverage.
        assert_eq!(probes.len(), 15 * 1011);
        // All probes arrive within reaction window + campaign duration.
        for p in &probes {
            assert!(p.time <= SimTime(15 + 3600 + 600));
            assert_eq!(gt.source_org(p.src), Some(OrgId::GEORGIA_TECH));
        }
        assert_eq!(
            OrgId::GEORGIA_TECH.name(),
            "Georgia Institute of Technology"
        );
    }

    #[test]
    fn covert_coverage_is_partial() {
        let mut c = covert_actor();
        let probes = campaign(&mut c, "2001:db8:cc::/48");
        let full = c.servers.len() * c.profile.ports.len();
        assert!(probes.len() < full, "covert actor probed every port");
        assert!(probes.len() > full / 3);
    }
}
