//! The scanner archetypes: four per-tick state machines.
//!
//! One family runs the paper's §5.2 actors (identified research +
//! covert cloud) on the tick clock; three are new behaviours from the
//! related literature: prefix walking, stale-hitlist replay, and
//! BGP-signal-adaptive targeting.

use crate::actor::Actor;
use crate::machine::{Machine, Phase, TickCtx};
use netsim::bgp::BgpFeed;
use netsim::time::{Duration, SimTime};
use netsim::{mix2, OrgId};
use std::collections::VecDeque;
use std::net::Ipv6Addr;
use telescope::{CapturedPacket, Vantage};
use v6addr::Prefix;

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

// --- NTP-sourcing pair (research + covert) ---

/// The paper's NTP-sourcing actors as tick machines: every vantage
/// address one of the actor's pool servers sourced is probed on the
/// actor's ports, with reaction delay, port subset and source address
/// drawn from hashes of `(actor, address, port)`. The schedule is fixed
/// at construction; emission is driven by the tick clock through the
/// four phases.
pub struct SourcingMachine {
    label: &'static str,
    /// Earliest moment any of the actor's servers sourced an address.
    first_seen: Option<SimTime>,
    /// Probes in `(time, dst, src, port)` order.
    schedule: Vec<CapturedPacket>,
    idx: usize,
    phase: Phase,
}

/// Appends the probes `actor` sends to the addresses its servers
/// sourced from `vantage`.
fn sourced_schedule(actor: &Actor, vantage: &Vantage, out: &mut Vec<CapturedPacket>) {
    let profile = &actor.profile;
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

impl SourcingMachine {
    /// Builds the machine from a registered actor and the vantages
    /// whose queries it may have sourced.
    pub fn new(label: &'static str, actor: &Actor, vantages: &[Vantage]) -> SourcingMachine {
        let mut schedule = Vec::new();
        for v in vantages {
            sourced_schedule(actor, v, &mut schedule);
        }
        schedule.sort_by_key(|p| (p.time, p.dst, p.src, p.port));
        let first_seen = vantages
            .iter()
            .flat_map(|v| {
                actor
                    .servers
                    .iter()
                    .filter(|s| v.was_sourced(**s))
                    .filter_map(|s| v.query_time(*s))
            })
            .min();
        SourcingMachine {
            label,
            first_seen,
            schedule,
            idx: 0,
            phase: Phase::Sourcing,
        }
    }
}

impl Machine for SourcingMachine {
    fn label(&self) -> &'static str {
        self.label
    }

    fn phase(&self) -> Phase {
        self.phase
    }

    fn tick(&mut self, ctx: &TickCtx<'_>, out: &mut Vec<CapturedPacket>) {
        let mut emitted = false;
        while self.idx < self.schedule.len() && self.schedule[self.idx].time < ctx.end() {
            out.push(self.schedule[self.idx]);
            self.idx += 1;
            emitted = true;
        }
        self.phase = if self.idx >= self.schedule.len() {
            Phase::Cooldown
        } else if emitted {
            Phase::Sweep
        } else if self.first_seen.is_none_or(|s| ctx.end() <= s) {
            Phase::Sourcing
        } else {
            Phase::Dwell
        };
    }

    fn finished(&self) -> bool {
        self.idx >= self.schedule.len()
    }
}

// --- Prefix walker ---

struct WalkTarget {
    ready: SimTime,
    base: Ipv6Addr,
    salt: u64,
}

/// Expands every NTP-sourced address into a sweep of its /64: probes
/// [`WALK_IIDS`] distinct interface identifiers on a small port set,
/// a couple of subnets per tick. The tell-tale fingerprint is IID
/// fan-out inside one destination /64 — no other archetype produces it.
pub struct PrefixWalkMachine {
    queue: VecDeque<WalkTarget>,
    first_seen: Option<SimTime>,
    src_net: Prefix,
    phase: Phase,
}

/// Interface identifiers probed per walked /64.
pub const WALK_IIDS: u64 = 12;
/// Ports the walker probes per interface identifier.
pub const WALK_PORTS: [u16; 3] = [22, 80, 443];
/// Subnets a walker processes per tick.
const WALK_BUDGET: usize = 2;

impl PrefixWalkMachine {
    /// Builds the walker from bought intel: `(sourced address, when the
    /// selling server saw it)` pairs. Each target becomes ready one to
    /// four hours after it was sourced.
    pub fn new(intel: &[(Ipv6Addr, SimTime)]) -> PrefixWalkMachine {
        let mut targets: Vec<WalkTarget> = intel
            .iter()
            .map(|&(addr, seen)| {
                let bits = u128::from(addr);
                let salt = mix2(DOM_WALK, (bits >> 64) as u64 ^ bits as u64);
                WalkTarget {
                    ready: seen + Duration::hours(1) + Duration::secs(mix2(salt, 2) % 10_800),
                    base: addr,
                    salt,
                }
            })
            .collect();
        targets.sort_by_key(|t| (t.ready, t.base));
        PrefixWalkMachine {
            queue: targets.into(),
            first_seen: intel.iter().map(|&(_, seen)| seen).min(),
            src_net: walk_source(),
            phase: Phase::Sourcing,
        }
    }
}

impl Machine for PrefixWalkMachine {
    fn label(&self) -> &'static str {
        "prefix-walk"
    }

    fn phase(&self) -> Phase {
        self.phase
    }

    fn tick(&mut self, ctx: &TickCtx<'_>, out: &mut Vec<CapturedPacket>) {
        let mut budget = WALK_BUDGET;
        let mut seq = 0u64;
        let mut emitted = false;
        while budget > 0 && self.queue.front().is_some_and(|t| t.ready < ctx.end()) {
            let t = self.queue.pop_front().expect("front probed above");
            let p64 = Prefix::of(t.base, 64);
            for i in 0..WALK_IIDS {
                let dst = if i == 0 {
                    t.base
                } else {
                    p64.host(u128::from(mix2(t.salt, 40 + i)) & 0xffff_ffff)
                };
                for &port in &WALK_PORTS {
                    out.push(CapturedPacket {
                        dst,
                        src: self.src_net.host(u128::from(mix2(t.salt, 5))),
                        port,
                        time: ctx.now + Duration::secs(seq),
                    });
                    seq += 1;
                }
            }
            budget -= 1;
            emitted = true;
        }
        self.phase = if self.queue.is_empty() {
            Phase::Cooldown
        } else if emitted {
            Phase::Sweep
        } else if self.first_seen.is_none_or(|s| ctx.end() <= s) {
            Phase::Sourcing
        } else {
            Phase::Dwell
        };
    }

    fn finished(&self) -> bool {
        self.queue.is_empty()
    }
}

// --- Hitlist replayer ---

/// Replays a stale snapshot of the public hitlist at a fixed cadence:
/// [`HITLIST_PASSES`] full passes over the list, a long cooldown
/// between passes. The fingerprint is the revisit ratio — the same
/// `(address, port)` pairs probed again and again.
pub struct HitlistReuseMachine {
    list: Vec<Ipv6Addr>,
    src_net: Prefix,
    pass: u32,
    idx: usize,
    resume_at: SimTime,
    phase: Phase,
}

/// Passes the replayer makes over its stale list.
pub const HITLIST_PASSES: u32 = 3;
/// Ports probed per listed address.
pub const HITLIST_PORTS: [u16; 2] = [80, 443];
/// Addresses processed per tick during a pass.
const HITLIST_BUDGET: usize = 4;
/// Cooldown between passes.
const HITLIST_PASS_GAP: Duration = Duration::hours(6);

impl HitlistReuseMachine {
    /// Builds the replayer over `list` (the stale snapshot, already
    /// deterministic). Probing starts an hour into the campaign.
    pub fn new(list: Vec<Ipv6Addr>, campaign_start: SimTime) -> HitlistReuseMachine {
        HitlistReuseMachine {
            list,
            src_net: hitlist_source(),
            pass: 0,
            idx: 0,
            resume_at: campaign_start + Duration::hours(1),
            phase: Phase::Sourcing,
        }
    }
}

impl Machine for HitlistReuseMachine {
    fn label(&self) -> &'static str {
        "hitlist-reuse"
    }

    fn phase(&self) -> Phase {
        self.phase
    }

    fn tick(&mut self, ctx: &TickCtx<'_>, out: &mut Vec<CapturedPacket>) {
        if self.list.is_empty() {
            self.pass = HITLIST_PASSES;
        }
        if self.finished() {
            self.phase = Phase::Cooldown;
            return;
        }
        if ctx.end() <= self.resume_at {
            self.phase = if self.pass == 0 {
                Phase::Dwell
            } else {
                Phase::Cooldown
            };
            return;
        }
        let mut seq = 0u64;
        for _ in 0..HITLIST_BUDGET {
            if self.idx >= self.list.len() {
                self.pass += 1;
                self.idx = 0;
                self.resume_at = ctx.end() + HITLIST_PASS_GAP;
                break;
            }
            let addr = self.list[self.idx];
            for &port in &HITLIST_PORTS {
                out.push(CapturedPacket {
                    dst: addr,
                    src: self.src_net.host(u128::from(mix2(
                        DOM_HLRE,
                        mix2(u64::from(self.pass), self.idx as u64),
                    ))),
                    port,
                    time: ctx.now + Duration::secs(seq),
                });
                seq += 1;
            }
            self.idx += 1;
        }
        self.phase = if self.finished() {
            Phase::Cooldown
        } else if seq > 0 {
            Phase::Sweep
        } else {
            Phase::Cooldown
        };
    }

    fn finished(&self) -> bool {
        self.pass >= HITLIST_PASSES
    }
}

// --- BGP-signal-adaptive scanner ---

/// Watches the route feed and probes freshly announced prefixes within
/// two minutes of the announcement (Egloff et al.). The fingerprint is
/// temporal: every probe trails an announce event covering its
/// destination.
pub struct BgpAdaptiveMachine {
    last_event: Option<SimTime>,
    src_net: Prefix,
    over: bool,
    phase: Phase,
}

/// Destinations probed per announce event.
pub const BGP_PROBES_PER_EVENT: u64 = 6;

impl BgpAdaptiveMachine {
    /// Builds the watcher over a sealed feed (only the horizon — the
    /// last event's time — is captured; events stream in per tick).
    pub fn new(feed: &BgpFeed) -> BgpAdaptiveMachine {
        BgpAdaptiveMachine {
            last_event: feed.events().last().map(|e| e.time),
            src_net: bgp_source(),
            over: feed.events().is_empty(),
            phase: Phase::Sourcing,
        }
    }
}

impl Machine for BgpAdaptiveMachine {
    fn label(&self) -> &'static str {
        "bgp-adaptive"
    }

    fn phase(&self) -> Phase {
        self.phase
    }

    fn tick(&mut self, ctx: &TickCtx<'_>, out: &mut Vec<CapturedPacket>) {
        let mut emitted = false;
        for e in ctx.feed.between(ctx.now, ctx.end()) {
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
                    src: self.src_net.host(u128::from(mix2(salt, 3))),
                    port: if i % 2 == 0 { 443 } else { 80 },
                    time: e.time + Duration::secs(20 + mix2(salt, 10 + i) % 90),
                });
                emitted = true;
            }
        }
        if self.last_event.is_none_or(|t| t < ctx.end()) {
            self.over = true;
        }
        self.phase = if emitted {
            Phase::Sweep
        } else if self.over {
            Phase::Cooldown
        } else {
            Phase::Sourcing
        };
    }

    fn finished(&self) -> bool {
        self.over
    }
}
