//! The ecosystem run: every rostered archetype's campaign, and the
//! part of it that lands inside the telescope's vantage prefixes.

use crate::actor::{Actor, ActorId};
use crate::archetypes::{bgp_adaptive, hitlist_reuse, prefix_walk, sourced_campaign};
use crate::roster::ActorRoster;
use netsim::bgp::BgpFeed;
use netsim::time::SimTime;
use ntppool::{Operator, Pool};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use telescope::{CapturedPacket, Vantage};
use v6addr::Prefix;

/// NTP-sourced intel for the data-buying archetypes: every vantage
/// address sourced by an *actor-operated* pool server, with the time the
/// server saw it. Sorted by `(seen, address)`.
pub fn sourced_intel(pool: &Pool, vantages: &[Vantage]) -> Vec<(Ipv6Addr, SimTime)> {
    let mut intel = Vec::new();
    for (id, server) in pool.servers() {
        if !matches!(server.operator, Operator::Actor { .. }) {
            continue;
        }
        for v in vantages {
            if !v.was_sourced(id) {
                continue;
            }
            if let (Some(addr), Some(seen)) = (v.addr_of(id), v.query_time(id)) {
                intel.push((addr, seen));
            }
        }
    }
    intel.sort_by_key(|&(addr, seen)| (seen, addr));
    intel
}

/// Everything one ecosystem run produces.
#[derive(Debug, Clone, Default)]
pub struct EcosystemOutcome {
    /// Probes that landed inside a vantage prefix — the telescope's
    /// capture — each paired with the emitting archetype's label
    /// (ground truth, unknown to the attribution layer), one archetype
    /// after another.
    pub records: Vec<(CapturedPacket, &'static str)>,
    /// Probes emitted per archetype that ran (captured or not; 0 for an
    /// empty campaign).
    pub emitted: BTreeMap<&'static str, u64>,
    /// Probes captured per archetype.
    pub captured: BTreeMap<&'static str, u64>,
}

impl EcosystemOutcome {
    /// The capture restricted to one vantage prefix — what a
    /// single-telescope observer (the paper's §5 matcher) sees.
    pub fn capture_within(&self, prefix: Prefix) -> Vec<CapturedPacket> {
        self.records
            .iter()
            .map(|(pkt, _)| *pkt)
            .filter(|pkt| prefix.contains(pkt.dst))
            .collect()
    }
}

/// Runs every rostered archetype's campaign from `start` and captures
/// the probes that land inside any vantage's prefix.
///
/// * `actors` — the pool-registered sourcing actors (research is
///   [`ActorId`]\(1\), covert `ActorId(2)`); they run the paper's §5.2
///   campaigns, and a rostered one missing here does not run.
/// * `vantages` — every telescope vantage that swept the pool.
/// * `stale_hitlist` — the snapshot the hitlist-reuse actor bought.
/// * `feed` — the sealed route-event feed.
///
/// Every archetype that runs has an `emitted` entry, 0 for an empty
/// campaign.
pub fn run(
    roster: ActorRoster,
    actors: &[Actor],
    vantages: &[Vantage],
    pool: &Pool,
    stale_hitlist: &[Ipv6Addr],
    feed: &BgpFeed,
    start: SimTime,
) -> EcosystemOutcome {
    let sourced = |id: u8| {
        let actor = actors.iter().find(|a| a.id == ActorId(id))?;
        Some(sourced_campaign(actor, vantages))
    };
    let mut outcome = EcosystemOutcome::default();
    for (flag, label) in roster.flags() {
        let campaign = match flag {
            ActorRoster::RESEARCH => sourced(1),
            ActorRoster::COVERT => sourced(2),
            ActorRoster::PREFIX_WALK => Some(prefix_walk(&sourced_intel(pool, vantages), start)),
            ActorRoster::HITLIST_REUSE => Some(hitlist_reuse(stale_hitlist, start)),
            ActorRoster::BGP_ADAPTIVE => Some(bgp_adaptive(feed, start)),
            _ => None,
        };
        let Some(probes) = campaign else {
            continue;
        };
        outcome.emitted.insert(label, probes.len() as u64);
        for pkt in probes {
            if vantages.iter().any(|v| v.prefix.contains(pkt.dst)) {
                *outcome.captured.entry(label).or_insert(0) += 1;
                outcome.records.push((pkt, label));
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{covert_actor, gt_actor};
    use netsim::time::Duration;

    fn scenario() -> (Pool, Vec<Actor>, Vec<Vantage>) {
        let mut pool = Pool::with_background();
        let mut gt = gt_actor();
        gt.register(&mut pool);
        let mut covert = covert_actor();
        covert.register(&mut pool);
        let mut primary = Vantage::new("3fff:909::/48".parse().unwrap());
        primary.query_all(&pool, SimTime(1_000), Duration::secs(7));
        let mut secondary = Vantage::new("3fff:90a::/48".parse().unwrap());
        secondary.query_all(&pool, SimTime(50_000), Duration::secs(7));
        (pool, vec![gt, covert], vec![primary, secondary])
    }

    #[test]
    fn full_roster_runs_every_archetype() {
        let (pool, actors, vantages) = scenario();
        let mut feed = BgpFeed::new();
        for v in &vantages {
            feed.push(netsim::BgpEvent {
                time: SimTime(1_000),
                prefix: v.prefix,
                asn: netsim::topology::Asn(0),
                announce: true,
            });
        }
        feed.seal();
        let stale: Vec<Ipv6Addr> = vec!["2001:db8:77::1".parse().unwrap()];
        let outcome = run(
            ActorRoster::ALL,
            &actors,
            &vantages,
            &pool,
            &stale,
            &feed,
            SimTime(1_000),
        );
        assert_eq!(outcome.emitted.len(), 5, "{:?}", outcome.emitted);
        // The stale-list entry is outside the vantages: emitted > captured.
        assert!(
            outcome.emitted["hitlist-reuse"]
                > outcome.captured.get("hitlist-reuse").copied().unwrap_or(0)
        );
        // The BGP watcher probed the announced vantage prefixes.
        assert!(outcome.captured.get("bgp-adaptive").copied().unwrap_or(0) > 0);
        // The walker fanned out into sourced /64s.
        assert!(outcome.captured.get("prefix-walk").copied().unwrap_or(0) > 0);
    }

    #[test]
    fn every_archetype_that_runs_has_an_emitted_entry() {
        let (pool, actors, vantages) = scenario();
        let empty = BgpFeed::new();
        // An empty feed and an empty stale list run empty campaigns;
        // without the research actor, its archetype does not run.
        let outcome = run(
            ActorRoster::ALL,
            &actors[1..],
            &vantages,
            &pool,
            &[],
            &empty,
            SimTime(1_000),
        );
        let emitted: Vec<(&str, bool)> =
            outcome.emitted.iter().map(|(l, n)| (*l, *n > 0)).collect();
        assert_eq!(
            emitted,
            [
                ("bgp-adaptive", false),
                ("covert", true),
                ("hitlist-reuse", false),
                ("prefix-walk", true),
            ]
        );
        // `captured` lists only archetypes that landed a probe.
        let captured: Vec<&str> = outcome.captured.keys().copied().collect();
        assert_eq!(captured, ["covert", "prefix-walk"]);
        // With no vantage nothing was sourced: both campaigns are
        // empty, and both are listed.
        let none = run(
            ActorRoster::BASELINE,
            &actors,
            &[],
            &pool,
            &[],
            &empty,
            SimTime(1_000),
        );
        assert_eq!(
            none.emitted,
            BTreeMap::from([("covert", 0), ("research", 0)])
        );
        assert!(none.records.is_empty());
    }

    #[test]
    fn outcome_is_deterministic() {
        let (pool, actors, vantages) = scenario();
        let feed = BgpFeed::new();
        let go = || {
            run(
                ActorRoster::BASELINE.with(ActorRoster::PREFIX_WALK),
                &actors,
                &vantages,
                &pool,
                &[],
                &feed,
                SimTime(1_000),
            )
        };
        let a = go();
        let b = go();
        assert_eq!(a.records, b.records);
        assert_eq!(a.emitted, b.emitted);
        // The paper's pair probes nothing but addresses it sourced, and
        // every one of those lies inside a vantage prefix.
        for label in ["research", "covert"] {
            assert!(a.emitted[label] > 0);
            assert_eq!(a.emitted[label], a.captured[label]);
        }
    }
}
