//! Scan → query matching and actor characterisation (paper §5.2).

use crate::actor::Actor;
use netsim::time::{Duration, SimTime};
use netsim::OrgId;
use ntppool::{Operator, Pool, ServerId};
use std::collections::{BTreeSet, HashMap};
use telescope::{CaptureLog, Vantage};

/// Classification of a detected actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActorCharacter {
    /// Identifies itself, reacts quickly, short campaign — measurement
    /// research.
    Research,
    /// Anonymous, cloud-hosted, sensitive ports, slow partial scanning —
    /// likely trying to avoid detection.
    Covert,
}

/// Per-actor findings.
#[derive(Debug, Clone, PartialEq)]
pub struct ActorReport {
    /// Actor id (from the matched servers' operator records).
    pub actor_id: u8,
    /// NTP servers the scans were traced to.
    pub matched_servers: Vec<ServerId>,
    /// Distinct ports observed.
    pub ports: BTreeSet<u16>,
    /// Fastest observed reaction (query → first probe).
    pub min_reaction: Duration,
    /// Slowest observed reaction.
    pub max_reaction: Duration,
    /// Longest per-address campaign span.
    pub campaign_span: Duration,
    /// Did any probe's source identify the operator?
    pub identification: Option<String>,
    /// Interned ids of the organisations behind the probe sources (see
    /// [`netsim::OrgId`]).
    pub source_orgs: BTreeSet<OrgId>,
    /// Share of (address, port) pairs actually probed.
    pub port_coverage: f64,
}

impl ActorReport {
    /// Heuristic characterisation following §5.2's reasoning.
    pub fn character(&self) -> ActorCharacter {
        let quick = self.max_reaction <= Duration::hours(1);
        let short = self.campaign_span <= Duration::hours(1);
        if self.identification.is_some() && quick && short {
            ActorCharacter::Research
        } else {
            ActorCharacter::Covert
        }
    }
}

/// The full telescope result.
#[derive(Debug, Clone, PartialEq)]
pub struct TelescopeReport {
    /// Captured packets matched to an NTP query.
    pub matched_packets: u64,
    /// Captured packets *not* attributable (must stay 0 — the paper
    /// matched every packet).
    pub unmatched_packets: u64,
    /// Scatter hits on monitored-but-unqueried addresses.
    pub scatter_packets: u64,
    /// Per-actor findings, ordered by actor id.
    pub actors: Vec<ActorReport>,
}

/// Matches the capture log against the vantage ledger and characterises
/// every actor whose pool servers triggered scans.
pub fn match_captures(
    vantage: &Vantage,
    pool: &Pool,
    log: &CaptureLog,
    actors: &[Actor],
) -> TelescopeReport {
    struct Acc {
        servers: BTreeSet<ServerId>,
        ports: BTreeSet<u16>,
        min_reaction: Duration,
        max_reaction: Duration,
        first_last: HashMap<ServerId, (SimTime, SimTime)>,
        orgs: BTreeSet<OrgId>,
        probes: u64,
    }
    let mut per_actor: HashMap<u8, Acc> = HashMap::new();
    let mut matched = 0u64;
    let mut unmatched = 0u64;
    let mut scatter = 0u64;

    // Nearly every captured packet targets a sourced vantage address, so
    // one probe of this sorted compact set answers the common case; only
    // misses fall through to the full scatter/ledger classification.
    let sourced_addrs = vantage.sourced_compact();

    for pkt in log.sorted() {
        let server = if sourced_addrs.contains(pkt.dst) {
            vantage
                .server_of(pkt.dst)
                .expect("sourced vantage addresses decode")
        } else if vantage.is_scatter(pkt.dst) {
            scatter += 1;
            continue;
        } else if let Some(server) = vantage.server_of(pkt.dst) {
            server // queried but never sourced: classify by operator below
        } else {
            unmatched += 1;
            continue;
        };
        let Operator::Actor { actor_id } = pool.server(server).operator else {
            // A packet to an address that queried a non-collecting server
            // cannot be NTP-sourced.
            unmatched += 1;
            continue;
        };
        matched += 1;
        let acc = per_actor.entry(actor_id).or_insert_with(|| Acc {
            servers: BTreeSet::new(),
            ports: BTreeSet::new(),
            min_reaction: Duration::secs(u64::MAX),
            max_reaction: Duration::ZERO,
            first_last: HashMap::new(),
            orgs: BTreeSet::new(),
            probes: 0,
        });
        acc.servers.insert(server);
        acc.ports.insert(pkt.port);
        acc.probes += 1;
        let fl = acc.first_last.entry(server).or_insert((pkt.time, pkt.time));
        fl.0 = fl.0.min(pkt.time);
        fl.1 = fl.1.max(pkt.time);
        if let Some(actor) = actors.iter().find(|a| a.id.0 == actor_id) {
            if let Some(org) = actor.source_org(pkt.src) {
                acc.orgs.insert(org);
            }
        }
    }

    let mut reports: Vec<ActorReport> = per_actor
        .into_iter()
        .map(|(actor_id, mut acc)| {
            let campaign_span = acc
                .first_last
                .values()
                .map(|(f, l)| l.since(*f))
                .max()
                .unwrap_or(Duration::ZERO);
            // Reaction time is query → *first* probe per server — the
            // "scans started less than an hour after receiving the NTP
            // response" measure of §5.2.
            for (server, (first, _)) in &acc.first_last {
                let queried = vantage.query_time(*server).expect("ledger complete");
                let reaction = first.since(queried);
                acc.min_reaction = acc.min_reaction.min(reaction);
                acc.max_reaction = acc.max_reaction.max(reaction);
            }
            let identification = actors
                .iter()
                .find(|a| a.id.0 == actor_id)
                .and_then(|a| a.profile.identification.clone());
            let possible = (acc.servers.len() * acc.ports.len().max(1)) as f64;
            ActorReport {
                actor_id,
                matched_servers: acc.servers.iter().copied().collect(),
                port_coverage: if possible == 0.0 {
                    0.0
                } else {
                    acc.probes as f64 / possible
                },
                ports: acc.ports,
                min_reaction: acc.min_reaction,
                max_reaction: acc.max_reaction,
                campaign_span,
                identification,
                source_orgs: acc.orgs,
            }
        })
        .collect();
    reports.sort_by_key(|r| r.actor_id);

    TelescopeReport {
        matched_packets: matched,
        unmatched_packets: unmatched,
        scatter_packets: scatter,
        actors: reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{covert_actor, gt_actor, ActorRoster, Ecosystem};
    use netsim::bgp::BgpFeed;
    use telescope::CapturedPacket;

    fn full_run() -> (Vantage, Pool, CaptureLog, Vec<Actor>) {
        let mut pool = Pool::with_background();
        let mut gt = gt_actor();
        gt.register(&mut pool);
        let mut covert = covert_actor();
        covert.register(&mut pool);
        let actors = vec![gt, covert];
        let mut vantage = Vantage::new("2001:db8:aa::/48".parse().unwrap());
        vantage.query_all(&pool, SimTime(0), Duration::secs(3));
        let vantages = [vantage];
        let feed = BgpFeed::new();
        let log = Ecosystem::assemble(
            ActorRoster::BASELINE,
            &actors,
            &vantages,
            &pool,
            &[],
            &feed,
            SimTime(0),
        )
        .run(SimTime(0), &feed, &[vantages[0].prefix])
        .capture_within(vantages[0].prefix);
        let [vantage] = vantages;
        (vantage, pool, log, actors)
    }

    #[test]
    fn all_packets_match_and_two_actors_found() {
        let (vantage, pool, log, actors) = full_run();
        let report = match_captures(&vantage, &pool, &log, &actors);
        assert_eq!(report.unmatched_packets, 0, "paper: every packet matched");
        assert_eq!(report.scatter_packets, 0);
        assert_eq!(report.matched_packets as usize, log.len());
        assert_eq!(report.actors.len(), 2);
    }

    #[test]
    fn gt_characterised_as_research() {
        let (vantage, pool, log, actors) = full_run();
        let report = match_captures(&vantage, &pool, &log, &actors);
        let gt = &report.actors[0];
        assert_eq!(gt.actor_id, 1);
        assert_eq!(gt.matched_servers.len(), 15);
        assert_eq!(gt.ports.len(), 1011);
        assert!(gt.max_reaction <= Duration::hours(1));
        assert!(gt.campaign_span <= Duration::mins(10));
        assert_eq!(gt.character(), ActorCharacter::Research);
        assert!((gt.port_coverage - 1.0).abs() < 1e-9);
    }

    #[test]
    fn covert_characterised_as_covert() {
        let (vantage, pool, log, actors) = full_run();
        let report = match_captures(&vantage, &pool, &log, &actors);
        let covert = &report.actors[1];
        assert_eq!(covert.actor_id, 2);
        assert!(covert.identification.is_none());
        // Partial coverage means not every port shows at every address,
        // but the observed set must be a sizeable subset of the profile.
        let sensitive: BTreeSet<u16> =
            [443, 8443, 3388, 3389, 5900, 5901, 6000, 6001, 9200, 27017].into();
        assert!(covert.ports.is_subset(&sensitive));
        assert!(covert.ports.len() >= 6, "only {:?}", covert.ports);
        assert!(covert.campaign_span > Duration::days(1));
        assert!(covert.port_coverage < 0.95);
        assert_eq!(covert.character(), ActorCharacter::Covert);
        assert_eq!(
            covert.source_orgs.iter().copied().collect::<Vec<_>>(),
            vec![OrgId::AMAZON, OrgId::LINODE]
        );
    }

    #[test]
    fn scatter_and_unmatched_accounting() {
        let (vantage, pool, mut log, actors) = full_run();
        // A random scan that happens to hit the monitored space.
        log.record(CapturedPacket {
            dst: vantage.scatter_neighbor(ServerId(0)),
            src: "2600:dead::1".parse().unwrap(),
            port: 23,
            time: SimTime(50),
        });
        // A packet to a vantage address of a *background* server: not
        // NTP-sourced (background servers don't record addresses).
        log.record(CapturedPacket {
            dst: vantage.addr_for(ServerId(0)),
            src: "2600:dead::2".parse().unwrap(),
            port: 23,
            time: SimTime(60),
        });
        let report = match_captures(&vantage, &pool, &log, &actors);
        assert_eq!(report.scatter_packets, 1);
        assert_eq!(report.unmatched_packets, 1);
    }
}
