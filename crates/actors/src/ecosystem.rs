//! The ecosystem driver: runs every machine on a shared tick clock and
//! captures what lands inside the telescope's vantage prefixes.

use crate::actor::{Actor, ActorId};
use crate::archetypes::{
    BgpAdaptiveMachine, HitlistReuseMachine, PrefixWalkMachine, SourcingMachine,
};
use crate::machine::{Machine, TickCtx};
use crate::roster::ActorRoster;
use netsim::bgp::BgpFeed;
use netsim::time::{Duration, SimTime};
use ntppool::{Operator, Pool};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use telescope::{CaptureLog, CapturedPacket, Vantage};
use v6addr::Prefix;

/// Tick length of the ecosystem clock.
pub const ECO_TICK: Duration = Duration::secs(60);

/// Safety cap on driver ticks (~70 simulated days) — a machine that
/// never finishes cannot hang a study.
const MAX_TICKS: u64 = 100_000;

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
    /// (ground truth, unknown to the attribution layer).
    pub records: Vec<(CapturedPacket, &'static str)>,
    /// Probes emitted per archetype (captured or not).
    pub emitted: BTreeMap<&'static str, u64>,
    /// Probes captured per archetype.
    pub captured: BTreeMap<&'static str, u64>,
    /// Ticks the driver ran.
    pub ticks: u64,
}

impl EcosystemOutcome {
    /// The capture restricted to one vantage prefix — what a
    /// single-telescope observer (the paper's §5 matcher) sees.
    pub fn capture_within(&self, prefix: Prefix) -> CaptureLog {
        let mut log = CaptureLog::new();
        for (pkt, _) in &self.records {
            if prefix.contains(pkt.dst) {
                log.record(*pkt);
            }
        }
        log
    }
}

/// The adversarial-scanner ecosystem: a roster of machines sharing one
/// tick clock.
pub struct Ecosystem {
    machines: Vec<Box<dyn Machine>>,
}

impl Ecosystem {
    /// Assembles the roster's machines.
    ///
    /// * `actors` — the pool-registered sourcing actors (research is
    ///   [`ActorId`]\(1\), covert `ActorId(2)`); their machines run
    ///   the paper's §5.2 campaigns.
    /// * `vantages` — every telescope vantage that swept the pool.
    /// * `stale_hitlist` — the snapshot the hitlist-reuse actor bought.
    /// * `feed` — the sealed route-event feed.
    pub fn assemble(
        roster: ActorRoster,
        actors: &[Actor],
        vantages: &[Vantage],
        pool: &Pool,
        stale_hitlist: &[Ipv6Addr],
        feed: &BgpFeed,
        campaign_start: SimTime,
    ) -> Ecosystem {
        let mut machines: Vec<Box<dyn Machine>> = Vec::new();
        let by_id = |id: u8| actors.iter().find(|a| a.id == ActorId(id));
        if roster.contains(ActorRoster::RESEARCH) {
            if let Some(gt) = by_id(1) {
                machines.push(Box::new(SourcingMachine::new("research", gt, vantages)));
            }
        }
        if roster.contains(ActorRoster::COVERT) {
            if let Some(covert) = by_id(2) {
                machines.push(Box::new(SourcingMachine::new("covert", covert, vantages)));
            }
        }
        if roster.contains(ActorRoster::PREFIX_WALK) {
            let intel = sourced_intel(pool, vantages);
            machines.push(Box::new(PrefixWalkMachine::new(&intel)));
        }
        if roster.contains(ActorRoster::HITLIST_REUSE) {
            machines.push(Box::new(HitlistReuseMachine::new(
                stale_hitlist.to_vec(),
                campaign_start,
            )));
        }
        if roster.contains(ActorRoster::BGP_ADAPTIVE) {
            machines.push(Box::new(BgpAdaptiveMachine::new(feed)));
        }
        Ecosystem { machines }
    }

    /// Number of assembled machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Is the roster empty?
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Drives every machine tick by tick from `start` until all reach
    /// their terminal phase, recording probes that land inside any of
    /// `vantage_prefixes`. Machines run in fixed assembly order each
    /// tick, so the outcome is bit-deterministic.
    pub fn run(
        mut self,
        start: SimTime,
        feed: &BgpFeed,
        vantage_prefixes: &[Prefix],
    ) -> EcosystemOutcome {
        let mut outcome = EcosystemOutcome::default();
        let mut now = start;
        let mut buf = Vec::new();
        while outcome.ticks < MAX_TICKS && self.machines.iter().any(|m| !m.finished()) {
            let ctx = TickCtx {
                now,
                tick: ECO_TICK,
                feed,
            };
            for m in &mut self.machines {
                if m.finished() {
                    continue;
                }
                buf.clear();
                m.tick(&ctx, &mut buf);
                let label = m.label();
                *outcome.emitted.entry(label).or_insert(0) += buf.len() as u64;
                for pkt in &buf {
                    if vantage_prefixes.iter().any(|p| p.contains(pkt.dst)) {
                        *outcome.captured.entry(label).or_insert(0) += 1;
                        outcome.records.push((*pkt, label));
                    }
                }
            }
            now += ECO_TICK;
            outcome.ticks += 1;
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{covert_actor, gt_actor};

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
        let prefixes: Vec<Prefix> = vantages.iter().map(|v| v.prefix).collect();
        let outcome = Ecosystem::assemble(
            ActorRoster::ALL,
            &actors,
            &vantages,
            &pool,
            &stale,
            &feed,
            SimTime(1_000),
        )
        .run(SimTime(1_000), &feed, &prefixes);
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
        assert!(outcome.ticks < 100_000);
    }

    #[test]
    fn outcome_is_deterministic() {
        let (pool, actors, vantages) = scenario();
        let feed = BgpFeed::new();
        let prefixes: Vec<Prefix> = vantages.iter().map(|v| v.prefix).collect();
        let run = || {
            Ecosystem::assemble(
                ActorRoster::BASELINE.with(ActorRoster::PREFIX_WALK),
                &actors,
                &vantages,
                &pool,
                &[],
                &feed,
                SimTime(1_000),
            )
            .run(SimTime(1_000), &feed, &prefixes)
        };
        let a = run();
        let b = run();
        assert_eq!(a.records, b.records);
        assert_eq!(a.emitted, b.emitted);
        assert_eq!(a.ticks, b.ticks);
        // The paper's pair probes nothing but addresses it sourced, and
        // every one of those lies inside a vantage prefix.
        for label in ["research", "covert"] {
            assert!(a.emitted[label] > 0);
            assert_eq!(a.emitted[label], a.captured[label]);
        }
    }
}
