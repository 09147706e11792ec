//! The scanner archetypes: four campaigns, each a pure function of its
//! inputs that returns every probe it sends.
//!
//! One family replays the paper's §5.2 actors (identified research +
//! covert cloud); three are new behaviours from the related literature:
//! prefix walking, stale-hitlist replay, and BGP-signal-adaptive
//! targeting. The walker and the replayer pace themselves on a grid of
//! [`ECO_TICK`]s that starts at the campaign start.

use crate::actor::Actor;
use netsim::bgp::BgpFeed;
use netsim::time::{Duration, SimTime};
use netsim::{mix2, OrgId};
use std::net::Ipv6Addr;
use telescope::{CapturedPacket, Vantage};
use v6addr::Prefix;

/// The pacing unit of the walker and the replayer.
pub const ECO_TICK: Duration = Duration::secs(60);

/// Domain separator: prefix-walk scheduling.
const DOM_WALK: u64 = 0x7761_6c6b;
/// Domain separator: hitlist-reuse source addresses.
const DOM_HLRE: u64 = 0x686c_7265;
/// Domain separator: BGP-adaptive scheduling.
const DOM_BGPA: u64 = 0x6267_7061;

/// The prefix-walk actor's (Hetzner-hosted) source /32.
pub fn walk_source() -> Prefix {
    "2a01:4f8::/32".parse().expect("static prefix")
}

/// The hitlist-reuse actor's (DigitalOcean-hosted) source /32.
pub fn hitlist_source() -> Prefix {
    "2604:a880::/32".parse().expect("static prefix")
}

/// The BGP-adaptive actor's (OVH-hosted) source /32.
pub fn bgp_source() -> Prefix {
    "2001:41d0::/32".parse().expect("static prefix")
}

/// Source-prefix → organisation directory for attribution joins: the
/// sourcing actors' published sources plus the three other
/// archetypes' hosting ranges, keyed by interned [`OrgId`].
pub fn org_directory(actors: &[Actor]) -> Vec<(Prefix, OrgId)> {
    let mut dir: Vec<(Prefix, OrgId)> = actors
        .iter()
        .flat_map(|a| a.profile.scan_sources.iter().copied())
        .collect();
    dir.push((walk_source(), OrgId::HETZNER));
    dir.push((hitlist_source(), OrgId::DIGITAL_OCEAN));
    dir.push((bgp_source(), OrgId::OVH));
    dir.sort();
    dir.dedup();
    dir
}

/// Start of the tick, on the grid from `start`, whose window holds `t`
/// (`start` for any earlier `t`).
fn tick_holding(start: SimTime, t: SimTime) -> SimTime {
    let tick = ECO_TICK.as_secs();
    start + Duration::secs(t.since(start).as_secs() / tick * tick)
}

/// `n` ticks after `t`.
fn ticks(t: SimTime, n: usize) -> SimTime {
    t + Duration::secs(ECO_TICK.as_secs() * n as u64)
}

// --- NTP-sourcing pair (research + covert) ---

/// The paper's NTP-sourcing actors: every vantage address one of the
/// actor's pool servers sourced is probed on the actor's ports, with
/// reaction delay, port subset and source address drawn from hashes of
/// `(actor, address, port)`. Returns the whole campaign in
/// `(time, dst, src, port)` order.
pub fn sourced_campaign(actor: &Actor, vantages: &[Vantage]) -> Vec<CapturedPacket> {
    let profile = &actor.profile;
    let mut out = Vec::new();
    for vantage in vantages {
        for &server in &actor.servers {
            // A query that never reached the server leaves nothing in its
            // log: the actor cannot scan an address it never sourced.
            if !vantage.was_sourced(server) {
                continue;
            }
            let Some(dst) = vantage.addr_of(server) else {
                continue;
            };
            let Some(seen) = vantage.query_time(server) else {
                continue;
            };
            let (dmin, dmax) = profile.reaction_delay;
            let bits = u128::from(dst);
            // Mix the whole address: vantage IIDs are identical across
            // /64s, so the low half alone would correlate every target.
            let salt = mix2(
                u64::from(actor.id.0) << 32,
                (bits >> 64) as u64 ^ bits as u64,
            );
            let span = dmax.as_secs().saturating_sub(dmin.as_secs()).max(1);
            let start = seen + dmin + Duration::secs(mix2(salt, 1) % span);
            let n_ports = profile.ports.len().max(1) as u64;
            for (k, &port) in profile.ports.iter().enumerate() {
                let h = mix2(salt, 100 + k as u64);
                if (h as f64 / u64::MAX as f64) > profile.port_coverage {
                    continue;
                }
                let offset = profile.campaign_duration.as_secs() * k as u64 / n_ports;
                let src_net = &profile.scan_sources
                    [(mix2(salt, k as u64) % profile.scan_sources.len() as u64) as usize];
                let src = src_net.0.host(u128::from(mix2(salt, 7 + k as u64)));
                out.push(CapturedPacket {
                    dst,
                    src,
                    port,
                    time: start + Duration::secs(offset),
                });
            }
        }
    }
    out.sort_by_key(|p| (p.time, p.dst, p.src, p.port));
    out
}

// --- Prefix walker ---

/// Interface identifiers probed per walked /64.
pub const WALK_IIDS: u64 = 12;
/// Ports the walker probes per interface identifier.
pub const WALK_PORTS: [u16; 3] = [22, 80, 443];
/// Subnets a walker processes per tick.
const WALK_BUDGET: usize = 2;

/// Expands every NTP-sourced address into a sweep of its /64: probes
/// [`WALK_IIDS`] distinct interface identifiers on a small port set.
/// The tell-tale fingerprint is IID fan-out inside one destination /64
/// — no other archetype produces it.
///
/// `intel` is the bought `(sourced address, when the selling server
/// saw it)` pairs. Each target becomes ready one to four hours after it
/// was sourced. Targets go out in `(ready, address)` order, two per tick
/// at most, none before the tick that holds its ready time; a tick's
/// probes leave one a second from its start.
pub fn prefix_walk(intel: &[(Ipv6Addr, SimTime)], start: SimTime) -> Vec<CapturedPacket> {
    let mut targets: Vec<(SimTime, Ipv6Addr, u64)> = intel
        .iter()
        .map(|&(addr, seen)| {
            let bits = u128::from(addr);
            let salt = mix2(DOM_WALK, (bits >> 64) as u64 ^ bits as u64);
            let ready = seen + Duration::hours(1) + Duration::secs(mix2(salt, 2) % 10_800);
            (ready, addr, salt)
        })
        .collect();
    targets.sort_by_key(|&(ready, base, _)| (ready, base));
    let src_net = walk_source();
    let mut out = Vec::new();
    let (mut tick, mut taken, mut seq) = (start, 0, 0u64);
    for (ready, base, salt) in targets {
        if taken == WALK_BUDGET {
            (tick, taken, seq) = (ticks(tick, 1), 0, 0);
        }
        if ready >= ticks(tick, 1) {
            (tick, taken, seq) = (tick_holding(start, ready), 0, 0);
        }
        let p64 = Prefix::of(base, 64);
        for i in 0..WALK_IIDS {
            let dst = if i == 0 {
                base
            } else {
                p64.host(u128::from(mix2(salt, 40 + i)) & 0xffff_ffff)
            };
            for &port in &WALK_PORTS {
                out.push(CapturedPacket {
                    dst,
                    src: src_net.host(u128::from(mix2(salt, 5))),
                    port,
                    time: tick + Duration::secs(seq),
                });
                seq += 1;
            }
        }
        taken += 1;
    }
    out
}

// --- Hitlist replayer ---

/// Passes the replayer makes over its stale list.
pub const HITLIST_PASSES: u32 = 3;
/// Ports probed per listed address.
pub const HITLIST_PORTS: [u16; 2] = [80, 443];
/// Addresses processed per tick during a pass.
const HITLIST_BUDGET: usize = 4;
/// Cooldown between passes.
const HITLIST_PASS_GAP: Duration = Duration::hours(6);

/// Replays a stale snapshot of the public hitlist at a fixed cadence:
/// [`HITLIST_PASSES`] full passes over `list`, a long cooldown between
/// passes. The fingerprint is the revisit ratio — the same
/// `(address, port)` pairs probed again and again.
///
/// The first pass starts in the tick holding `start` + 1 h, and each
/// tick takes four addresses. A pass ends in the tick that finds the
/// list exhausted (the one after its last address when that tick took
/// four); the next starts in the tick holding that tick's end + 6 h.
pub fn hitlist_reuse(list: &[Ipv6Addr], start: SimTime) -> Vec<CapturedPacket> {
    let src_net = hitlist_source();
    let mut out = Vec::new();
    if list.is_empty() {
        return out;
    }
    let mut resume = start + Duration::hours(1);
    for pass in 0..HITLIST_PASSES {
        let first = tick_holding(start, resume);
        for (idx, &addr) in list.iter().enumerate() {
            let tick = ticks(first, idx / HITLIST_BUDGET);
            let src = src_net.host(u128::from(mix2(
                DOM_HLRE,
                mix2(u64::from(pass), idx as u64),
            )));
            for (k, &port) in HITLIST_PORTS.iter().enumerate() {
                let seq = idx % HITLIST_BUDGET * HITLIST_PORTS.len() + k;
                out.push(CapturedPacket {
                    dst: addr,
                    src,
                    port,
                    time: tick + Duration::secs(seq as u64),
                });
            }
        }
        let last = ticks(first, list.len() / HITLIST_BUDGET);
        resume = ticks(last, 1) + HITLIST_PASS_GAP;
    }
    out
}

// --- BGP-signal-adaptive scanner ---

/// Destinations probed per announce event.
pub const BGP_PROBES_PER_EVENT: u64 = 6;

/// Watches the route feed and probes every prefix announced at or after
/// `start` within two minutes of the announcement (Egloff et al.). The
/// fingerprint is temporal: every probe trails an announce event
/// covering its destination.
pub fn bgp_adaptive(feed: &BgpFeed, start: SimTime) -> Vec<CapturedPacket> {
    let src_net = bgp_source();
    let mut out = Vec::new();
    for e in feed.events().iter().filter(|e| e.time >= start) {
        if !e.announce || e.prefix.len() > 64 {
            continue;
        }
        let n64 = e.prefix.subnet_count(64);
        if n64 == 0 {
            continue;
        }
        let pb = e.prefix.bits();
        let salt = mix2(DOM_BGPA, (pb >> 64) as u64 ^ pb as u64 ^ e.time.as_secs());
        for i in 0..BGP_PROBES_PER_EVENT {
            let sub = (1 + u128::from(mix2(salt, i) % 64)) % n64;
            let dst = e.prefix.subnet(64, sub).host(1);
            out.push(CapturedPacket {
                dst,
                src: src_net.host(u128::from(mix2(salt, 3))),
                port: if i % 2 == 0 { 443 } else { 80 },
                time: e.time + Duration::secs(20 + mix2(salt, 10 + i) % 90),
            });
        }
    }
    out
}
