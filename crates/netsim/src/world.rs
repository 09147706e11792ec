//! The assembled world: topology + device populations + address plan.
//!
//! [`World::generate`] builds, from a seed and size preset, a synthetic
//! Internet whose *observable* statistics follow the paper's ground truth:
//!
//! * eyeball ISPs per country (client weight per [`crate::country`]),
//!   delegating **dynamic /48 prefixes** to households that rotate daily;
//! * households of a CPE router plus LAN devices (phones, TVs, speakers,
//!   IoT, hobby servers) — mostly silent to scans but chatty NTP clients;
//! * hosting ASes full of statically numbered, DNS-named servers — the
//!   population hitlists are built from;
//! * NSP ASes with traceroute-visible core routers;
//! * one CDN AS with an **aliased** prefix answering HTTP on every address
//!   but failing TLS without SNI (the Cloudfront effect of §4.2).
//!
//! The world resolves an address *at a time* to a device and dispatches
//! probe bytes to its service stack. A [`Resolution`] also says how long
//! that answer holds, so a scanner probing one address many times
//! resolves it once per span, not once per probe.
//!
//! ## One representation
//!
//! A world stores nothing per device. Every household, device and
//! prefix is a pure function of its coordinates ([`crate::procgen`]);
//! the world holds only the O(#ASes) [`Layout`], topology and aliased
//! regions: plain data, shared between threads without a lock.
//!
//! Resolving an address is **locate → verify → derive**:
//! [`Layout::locate`] inverts the address plan arithmetically to a
//! candidate device id, the candidate's [`DeviceMeta`] is derived (a
//! member slot its household does not fill derives to nothing) and its
//! interface identifier checked against the address, and only a device
//! that still holds the address gets its service stack derived. A stale
//! address costs one meta, not a device. [`World::resolve`] keeps the
//! span each step holds over: the rotation epoch in eyeball space, cut
//! to the regeneration window when the candidate uses privacy IIDs.
//!
//! A poll of a client runs the plan forward instead: a [`PollCard`]
//! ([`World::poll_card`]) keeps the part of the client's meta only a
//! derivation produces, and [`World::poll_view`] rebuilds country,
//! address and poll interval from the id, the card and the instant, on
//! the address plan's own code path.

use crate::country::Country;
use crate::device::{Addressing, Device, DeviceId, DeviceMeta, NtpClientCfg, PollCard};
use crate::procgen::{
    Layout, HOUSEHOLD_STRIDE, MAX_ASES_PER_TYPE, MAX_HOUSEHOLDS_PER_AS, MAX_STATIC_PER_AS,
};
use crate::services::ServiceSet;
use crate::time::{Duration, SimTime, Span};
use crate::topology::Topology;
use std::net::Ipv6Addr;
use v6addr::{Iid, Prefix};

/// Size/behaviour preset for world generation.
///
/// `WorldConfig` is `Eq + Hash` so immutable world snapshots can be pooled
/// and shared keyed by their config (every field, including the seed, is
/// integral — equal configs generate bit-identical worlds).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorldConfig {
    /// RNG seed; equal configs generate bit-identical worlds.
    pub seed: u64,
    /// Number of eyeball households (each ≈ 3–7 devices).
    pub households: u32,
    /// Number of hosting/infrastructure servers.
    pub servers: u32,
    /// Number of traceroute-visible core routers.
    pub routers: u32,
    /// Eyeball ASes to spread households over.
    pub eyeball_ases: u32,
    /// Hosting ASes.
    pub hosting_ases: u32,
    /// NSP (transit) ASes.
    pub nsp_ases: u32,
    /// Dynamic-prefix rotation period for eyeball ISPs.
    pub rotation: Duration,
    /// SLAAC privacy-extension IID regeneration interval.
    pub privacy_regen: Duration,
    /// Model the aliased CDN prefix.
    pub cdn: bool,
    /// Percentage (0–100) of eligible IoT devices
    /// ([`crate::DeviceKind::is_sntp_iot`]) that run a bare SNTP client
    /// polling the pool on a short *fixed* interval
    /// ([`crate::procgen::SNTP_POLL_INTERVAL`]) instead of the default
    /// daemon behaviour. `0` (the default) reproduces the pre-knob
    /// world bit-for-bit: the overlay consumes no RNG state, so every
    /// other device's derivation is untouched.
    pub sntp_iot_pct: u8,
}

impl WorldConfig {
    /// Checks the sizes [`World::generate`] relies on, for a config
    /// that did not come from a preset (a checkpoint file, say): a
    /// config that passes generates without panicking and in memory
    /// bounded by its AS counts.
    pub fn validate(&self) -> Result<(), &'static str> {
        for (population, ases, per_as) in [
            (self.households, self.eyeball_ases, MAX_HOUSEHOLDS_PER_AS),
            (self.servers, self.hosting_ases, MAX_STATIC_PER_AS),
            (self.routers, self.nsp_ases, MAX_STATIC_PER_AS),
        ] {
            if ases > MAX_ASES_PER_TYPE {
                return Err("world declares more than 65 536 ASes of one type");
            }
            // Also refuses a population with no AS to live in.
            if u64::from(population) > u64::from(ases) * u64::from(per_as) {
                return Err("world population exceeds what its ASes can hold");
            }
        }
        let ids = u64::from(self.households) * u64::from(HOUSEHOLD_STRIDE)
            + u64::from(self.servers)
            + u64::from(self.routers);
        if ids > u64::from(u32::MAX) {
            return Err("world device ids do not fit 32 bits");
        }
        if self.sntp_iot_pct > 100 {
            return Err("sntp_iot_pct above 100");
        }
        Ok(())
    }

    /// Minimal world for unit tests (hundreds of devices).
    pub fn tiny(seed: u64) -> WorldConfig {
        WorldConfig {
            seed,
            households: 220,
            servers: 160,
            routers: 25,
            eyeball_ases: 24,
            hosting_ases: 14,
            nsp_ases: 6,
            rotation: Duration::days(1),
            privacy_regen: Duration::days(1),
            cdn: true,
            sntp_iot_pct: 0,
        }
    }

    /// Small world for integration tests (thousands of devices).
    pub fn small(seed: u64) -> WorldConfig {
        WorldConfig {
            households: 2_200,
            servers: 1_400,
            routers: 120,
            eyeball_ases: 60,
            hosting_ases: 40,
            nsp_ases: 12,
            ..WorldConfig::tiny(seed)
        }
    }

    /// Medium world for benches (≈ 1:10 000 of the paper's population).
    pub fn medium(seed: u64) -> WorldConfig {
        WorldConfig {
            households: 26_000,
            servers: 15_000,
            routers: 900,
            eyeball_ases: 170,
            hosting_ases: 110,
            nsp_ases: 30,
            ..WorldConfig::tiny(seed)
        }
    }

    /// Large world (≈ 1:1 000 of the paper) for the EXPERIMENTS.md run.
    pub fn paper_milli(seed: u64) -> WorldConfig {
        WorldConfig {
            households: 230_000,
            servers: 120_000,
            routers: 6_000,
            eyeball_ases: 600,
            hosting_ases: 420,
            nsp_ases: 90,
            ..WorldConfig::tiny(seed)
        }
    }

    /// The bench/CI scale world (≈ 1:100 of the paper, ~13 M devices).
    pub fn paper_centi(seed: u64) -> WorldConfig {
        WorldConfig {
            households: 2_300_000,
            servers: 1_200_000,
            routers: 60_000,
            eyeball_ases: 1_200,
            hosting_ases: 800,
            nsp_ases: 150,
            ..WorldConfig::tiny(seed)
        }
    }
}

/// An aliased region: a whole prefix that answers on every address
/// (CDN/hyperscaler front-end).
#[derive(Debug, Clone)]
pub struct AliasedRegion {
    /// The responding prefix.
    pub prefix: Prefix,
    /// Shared service surface of every address inside.
    pub services: ServiceSet,
}

/// What answers an address, and the span of time over which it does:
/// [`World::resolve`]'s result. Inside [`span`](Resolution::span) the
/// answer is the one a fresh resolution would give, so a caller may keep
/// it while [`holds_at`](Resolution::holds_at) says so.
#[derive(Debug, Clone)]
pub struct Resolution<'w> {
    answer: Answer<'w>,
    span: Span,
}

/// A `Device` is some 640 bytes against the other variants' 8: boxed, so a
/// kept `Resolution` moves as one pointer.
#[derive(Debug, Clone)]
enum Answer<'w> {
    Aliased(&'w ServiceSet),
    Device(Box<Device>),
    Silent,
}

impl Resolution<'_> {
    /// Whether the answer still holds at `t` — on either side of the
    /// instant it was resolved at.
    pub fn holds_at(&self, t: SimTime) -> bool {
        self.span.contains(t)
    }

    /// The span the answer holds over.
    pub fn span(&self) -> Span {
        self.span
    }

    /// The device holding the address (`None` for an aliased region, or
    /// where nothing answers).
    pub fn device(&self) -> Option<&Device> {
        match &self.answer {
            Answer::Device(dev) => Some(dev),
            Answer::Aliased(_) | Answer::Silent => None,
        }
    }

    /// Dispatches probe bytes to whatever answers. `None` models silence:
    /// unrouted space, firewalled device, closed port, stale address, or
    /// a host that rejected the bytes.
    pub fn respond(&self, port: u16, probe: &[u8]) -> Option<Vec<u8>> {
        match &self.answer {
            Answer::Aliased(services) => services.respond(port, probe),
            Answer::Device(dev) => dev.services.respond(port, probe),
            Answer::Silent => None,
        }
    }
}

/// The simulated Internet.
pub struct World {
    /// Generation config.
    pub config: WorldConfig,
    /// AS-level topology.
    pub topology: Topology,
    layout: Layout,
    aliased: Vec<AliasedRegion>,
}

impl World {
    /// Generates a world from a config. Deterministic in `config`, and
    /// O(#ASes): no device is derived until something asks for it.
    pub fn generate(config: WorldConfig) -> World {
        let (layout, topology, aliased) = Layout::build(&config);
        World {
            config,
            topology,
            layout,
            aliased,
        }
    }

    /// The meta of every device in ascending-id order (households, then
    /// servers, then routers), derived lazily: enumeration never holds
    /// more than one household profile.
    pub fn metas(&self) -> impl Iterator<Item = DeviceMeta> + '_ {
        let layout = &self.layout;
        let members = (0..layout.households()).flat_map(move |h| {
            let profile = layout.household_profile(h);
            (0..profile.len).map(move |m| layout.member_meta(&profile, m))
        });
        let statics = (0..layout.servers() + layout.routers()).map(move |i| layout.static_meta(i));
        members.chain(statics)
    }

    /// Visits every device, service stack included, in ascending-id
    /// order. Each device is derived transiently, so memory stays O(1)
    /// regardless of world size; callers that never read
    /// [`Device::services`] should walk [`metas`](World::metas) instead.
    pub fn for_each_device(&self, mut f: impl FnMut(&Device)) {
        for meta in self.metas() {
            f(&self.layout.device_from_meta(meta));
        }
    }

    /// Total device count. O(households): member counts must be derived,
    /// member metas need not be.
    pub fn device_count(&self) -> u64 {
        let layout = &self.layout;
        u64::from(layout.servers() + layout.routers())
            + (0..layout.households())
                .map(|h| u64::from(layout.household_profile(h).len))
                .sum::<u64>()
    }

    /// Number of households.
    pub fn household_count(&self) -> u32 {
        self.layout.households()
    }

    /// Member device ids of household `h`; element 0 is the CPE.
    pub fn household_members(&self, h: u32) -> Vec<DeviceId> {
        self.layout.household_profile(h).member_ids().collect()
    }

    /// A device by id, with its full service stack, derived afresh on
    /// every call.
    ///
    /// # Panics
    /// On an id outside the world.
    pub fn device(&self, id: DeviceId) -> Device {
        let meta = self
            .try_meta(id)
            .unwrap_or_else(|| panic!("device id {} outside the world", id.0));
        self.layout.device_from_meta(meta)
    }

    /// A device's cheap summary (no service stack); allocates nothing.
    ///
    /// # Panics
    /// On an id outside the world.
    pub fn meta(&self, id: DeviceId) -> DeviceMeta {
        self.try_meta(id)
            .unwrap_or_else(|| panic!("device id {} outside the world", id.0))
    }

    /// [`World::meta`] for an id that did not come from this world (a
    /// checkpoint file, say): `None` where `meta` would panic.
    pub fn try_meta(&self, id: DeviceId) -> Option<DeviceMeta> {
        self.layout.try_device_meta(id)
    }

    /// Aliased (CDN) regions.
    pub fn aliased_regions(&self) -> &[AliasedRegion] {
        &self.aliased
    }

    /// Prefix-rotation epoch at `t`.
    pub fn epoch(&self, t: SimTime) -> u64 {
        self.layout.epoch(t)
    }

    /// The device's global address at time `t`.
    pub fn address_of(&self, id: DeviceId, t: SimTime) -> Ipv6Addr {
        self.layout.address_of(&self.meta(id), t)
    }

    /// Like [`address_of`](World::address_of) for a meta already in hand
    /// (skips the id lookup).
    pub fn address_of_meta(&self, meta: &DeviceMeta, t: SimTime) -> Ipv6Addr {
        self.layout.address_of(meta, t)
    }

    /// The [`PollCard`] of pool client `meta`: what a poll of it needs
    /// beyond its id and the instant.
    pub fn poll_card(&self, meta: &DeviceMeta) -> PollCard {
        PollCard::of(meta, self.config.privacy_regen)
    }

    /// What a poll of client `id` at `t` reads — its country, its
    /// address at `t` and its poll interval — from the id and the
    /// client's [`poll_card`](World::poll_card), with no RNG draw: equal
    /// to `(meta.country, address_of_meta(&meta, t), poll_interval)`.
    /// A household member's address comes from the same address plan as
    /// [`address_of_meta`](World::address_of_meta); a card that cannot
    /// hold its client (a static host) derives the meta as
    /// [`meta`](World::meta) does.
    ///
    /// The card must be `id`'s own; nothing checks that here.
    ///
    /// # Panics
    /// On an id outside the world when the card derives the meta.
    pub fn poll_view(
        &self,
        id: DeviceId,
        card: PollCard,
        t: SimTime,
    ) -> (Country, Ipv6Addr, Duration) {
        let (country, addr) = match card.addressing(self.config.privacy_regen) {
            Some(addressing) => self.layout.member_view(id, addressing, t),
            None => {
                let meta = self.meta(id);
                (meta.country, self.layout.address_of(&meta, t))
            }
        };
        (country, addr, card.poll_interval())
    }

    /// The /64 the device lives in at `t`.
    pub fn net64_of(&self, meta: &DeviceMeta, t: SimTime) -> Prefix {
        self.layout.net64_of(meta, t)
    }

    /// The device holding `addr` at `t`: the address plan inverted to a
    /// candidate id, the interface identifier verified on its meta, and
    /// only then the device derived (a stale address resolves to
    /// nothing — exactly the staleness the paper's §6 warns about).
    pub fn device_at(&self, addr: Ipv6Addr, t: SimTime) -> Option<Device> {
        self.holder(addr, t).0
    }

    /// What answers `addr` at `t` — an aliased region, the device
    /// [`device_at`](World::device_at) names, or nothing — and the span
    /// over which that answer holds.
    ///
    /// The span is exact, not a guess. [`Layout::locate`] reads `t` only
    /// through the rotation epoch, so the candidate is fixed over the
    /// epoch (over all time outside eyeball space). The candidate's
    /// interface identifier reads `t` only as `t / regen` for privacy
    /// addressing — the span is cut to that window, static privacy hosts
    /// included — and not at all otherwise. A service stack's answer to
    /// probe bytes does not read `t`, and an aliased region answers
    /// always. So every instant inside the span resolves the same way.
    pub fn resolve(&self, addr: Ipv6Addr, t: SimTime) -> Resolution<'_> {
        if let Some(region) = self.aliased.iter().find(|r| r.prefix.contains(addr)) {
            return Resolution {
                answer: Answer::Aliased(&region.services),
                span: Span::ALL,
            };
        }
        let (dev, span) = self.holder(addr, t);
        Resolution {
            answer: dev.map_or(Answer::Silent, |dev| Answer::Device(Box::new(dev))),
            span,
        }
    }

    /// [`device_at`](World::device_at) with the span its answer holds
    /// over (see [`resolve`](World::resolve)).
    fn holder(&self, addr: Ipv6Addr, t: SimTime) -> (Option<Device>, Span) {
        let (id, span) = self.layout.locate(addr, t);
        let Some(meta) = id.and_then(|id| self.try_meta(id)) else {
            return (None, span);
        };
        let span = match meta.addressing {
            Addressing::Privacy { regen } => span.intersect(Span::window(t, regen)),
            Addressing::Eui64(_) | Addressing::Structured(_) | Addressing::Zero => span,
        };
        let held = meta.iid_at(t) == Iid(u128::from(addr) as u64);
        (held.then(|| self.layout.device_from_meta(meta)), span)
    }

    /// Dispatches probe bytes to whatever answers `addr:port` at `t`.
    /// `None` models silence: unrouted space, firewalled device, closed
    /// port, stale address, or a host that rejected the bytes.
    pub fn respond(&self, addr: Ipv6Addr, port: u16, probe: &[u8], t: SimTime) -> Option<Vec<u8>> {
        self.resolve(addr, t).respond(port, probe)
    }

    /// Devices that run an NTP pool client, with their configs, in
    /// ascending-id order (the order is part of feed determinism): the
    /// unbounded [`ntp_clients_within`](World::ntp_clients_within).
    pub fn ntp_clients(&self) -> impl Iterator<Item = (DeviceMeta, NtpClientCfg)> + '_ {
        self.ntp_clients_within(Duration(u64::MAX))
    }

    /// The pool clients whose first poll falls less than `window` after
    /// the start (`cfg.phase < window`), in ascending-id order: exactly
    /// [`ntp_clients`](World::ntp_clients) filtered on the phase, but
    /// walked phase first. A phase is a hash of the id
    /// (`Layout::may_poll_within`), so a household is profiled only
    /// when one of its eight slots could fire, and a member or static
    /// host is derived only when its own slot could.
    pub fn ntp_clients_within(
        &self,
        window: Duration,
    ) -> impl Iterator<Item = (DeviceMeta, NtpClientCfg)> + '_ {
        let layout = &self.layout;
        let members = self.households_within(window).flat_map(move |(h, slots)| {
            let profile = layout.household_profile(h);
            (0..profile.len)
                .filter(move |m| slots & (1 << m) != 0)
                .map(move |m| layout.member_meta(&profile, m))
        });
        let base = layout.static_base();
        let statics = (0..layout.servers() + layout.routers())
            .filter(move |&i| layout.may_poll_within(DeviceId(base + i), window))
            .map(move |i| layout.static_meta(i));
        members.chain(statics).filter_map(move |meta| {
            meta.ntp
                .filter(|cfg| cfg.phase < window)
                .map(|cfg| (meta, cfg))
        })
    }

    /// The households, ascending, of which some member slot could poll
    /// within `window`, each with the mask of those slots: the only
    /// households [`ntp_clients_within`](World::ntp_clients_within)
    /// derives a profile for, one each.
    fn households_within(&self, window: Duration) -> impl Iterator<Item = (u32, u8)> + '_ {
        let layout = &self.layout;
        (0..layout.households()).filter_map(move |h| {
            let slots = (0..HOUSEHOLD_STRIDE)
                .filter(|&m| layout.may_poll_within(DeviceId(h * HOUSEHOLD_STRIDE + m), window))
                .fold(0u8, |slots, m| slots | (1 << m));
            (slots != 0).then_some((h, slots))
        })
    }

    /// Deterministic O(1) estimate of the pool-client population. An
    /// **order of magnitude only** (for a caller sizing something ahead
    /// of an enumeration) — never an observable quantity, so it may
    /// differ from the exact count.
    pub fn client_count_estimate(&self) -> usize {
        self.layout.client_count_estimate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archetype::DeviceKind;
    use crate::device::Attachment;

    fn tiny() -> World {
        World::generate(WorldConfig::tiny(11))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(WorldConfig::tiny(5));
        let b = World::generate(WorldConfig::tiny(5));
        assert!(a.metas().eq(b.metas()));
        let c = World::generate(WorldConfig::tiny(6));
        // Different seed ⇒ (almost surely) different population layout.
        let same = a
            .metas()
            .zip(c.metas())
            .filter(|(x, y)| x.kind == y.kind)
            .count();
        assert!((same as u64) < a.device_count());
    }

    #[test]
    fn every_preset_validates() {
        // The bounds themselves are exercised through re-sealed
        // checkpoint files in `tests/checkpoint_robustness.rs`.
        for cfg in [
            WorldConfig::tiny(1),
            WorldConfig::small(1),
            WorldConfig::medium(1),
            WorldConfig::paper_milli(1),
            WorldConfig::paper_centi(1),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    #[test]
    fn try_meta_is_meta_inside_the_world_and_none_outside() {
        let w = tiny();
        let ids: std::collections::HashSet<DeviceId> = w.metas().map(|m| m.id).collect();
        for &id in &ids {
            assert_eq!(w.try_meta(id), Some(w.meta(id)));
        }
        // Everything else in (and just past) the id space: the gaps
        // behind short households and the end of the static range.
        let end = ids.iter().map(|id| id.0).max().unwrap() + HOUSEHOLD_STRIDE;
        let outside = (0..end).map(DeviceId).filter(|id| !ids.contains(id));
        assert!(outside.clone().count() > 0);
        for id in outside {
            assert_eq!(w.try_meta(id), None, "{id:?}");
        }
        assert_eq!(w.try_meta(DeviceId(u32::MAX)), None);
    }

    #[test]
    fn addresses_resolve_back_to_device() {
        let w = tiny();
        for t in [SimTime(0), SimTime(100_000), SimTime(2_000_000)] {
            for dev in w.metas().take(300) {
                let addr = w.address_of(dev.id, t);
                let found = w
                    .device_at(addr, t)
                    .unwrap_or_else(|| panic!("{addr} at {t} unresolvable ({:?})", dev.kind));
                assert_eq!(found.id, dev.id);
            }
        }
    }

    #[test]
    fn rotated_prefixes_go_stale() {
        let w = tiny();
        // A household device's address at t=0 no longer resolves after the
        // prefix rotates away (unless the pool cycled back, impossible in
        // one epoch with step != 0 mod space).
        let dev = w
            .metas()
            .find(|d| matches!(d.attachment, Attachment::Household { .. }))
            .unwrap();
        let addr0 = w.address_of(dev.id, SimTime(0));
        let later = SimTime(Duration::days(1).as_secs() + 10);
        assert_ne!(w.address_of(dev.id, later), addr0, "prefix did not rotate");
        assert!(
            w.device_at(addr0, later).is_none(),
            "stale address resolved"
        );
    }

    #[test]
    fn static_servers_are_stable() {
        let w = tiny();
        let dev = w
            .metas()
            .find(|d| matches!(d.attachment, Attachment::Static { .. }))
            .unwrap();
        let a = w.address_of(dev.id, SimTime(0));
        let b = w.address_of(dev.id, SimTime(2_000_000));
        // Static attachment keeps the /64; Privacy IID servers use an
        // effectively-infinite regen interval.
        assert_eq!(a, b);
    }

    #[test]
    fn cdn_answers_everywhere_without_device() {
        let w = tiny();
        let region = &w.aliased_regions()[0];
        let probe = wire::http::Request::scanner_get("t").emit();
        for host in [1u128, 0xdead_beef, 1 << 60] {
            let addr = region.prefix.host(host);
            let resp = w.respond(addr, 80, &probe, SimTime(0)).expect("CDN silent");
            let parsed = wire::http::Response::parse(&resp).unwrap();
            assert_eq!(parsed.status, 403);
        }
        // TLS without SNI fails.
        let mut probe = wire::tls::ClientHello {
            version: wire::tls::Version::Tls13,
            server_name: None,
        }
        .emit();
        probe.extend(wire::http::Request::scanner_get("t").emit());
        let resp = w
            .respond(region.prefix.host(7), 443, &probe, SimTime(0))
            .unwrap();
        assert!(matches!(
            wire::tls::ServerResponse::parse(&resp).unwrap(),
            wire::tls::ServerResponse::Alert(_)
        ));
    }

    #[test]
    fn unrouted_space_is_silent() {
        let w = tiny();
        let probe = wire::http::Request::scanner_get("t").emit();
        assert!(w
            .respond("9999::1".parse().unwrap(), 80, &probe, SimTime(0))
            .is_none());
    }

    #[test]
    fn population_composition_sane() {
        let w = tiny();
        let total = w.metas().count();
        assert!(total > 500, "only {total} devices");
        let eyeball = w.metas().filter(|d| d.kind.is_eyeball()).count();
        let servers = total - eyeball;
        assert!(eyeball > servers, "eyeball {eyeball} vs static {servers}");
        // Germany-heavy AVM: at least some FritzBoxes exist.
        // Europe is ~10 % of the client-weighted household mass, so a
        // tiny world still carries a handful of FritzBoxes.
        let fritz = w.metas().filter(|d| d.kind == DeviceKind::FritzBox).count();
        assert!(fritz >= 4, "only {fritz} FritzBoxes");
        // Consumer devices overwhelmingly run pool clients; servers
        // mostly do not (provider/distro time sources).
        let eyeball_ntp = w.ntp_clients().filter(|(d, _)| d.kind.is_eyeball()).count();
        let server_ntp = w.ntp_clients().count() - eyeball_ntp;
        assert!(eyeball_ntp as f64 / eyeball as f64 > 0.85);
        assert!((server_ntp as f64) < 0.25 * servers as f64);
    }

    /// The phase-first walk against its definition, at every SNTP share
    /// and on both sides of each poll interval: the same clients, the
    /// same configs, the same order — and a 45-minute window leaves
    /// households unprofiled.
    #[test]
    fn ntp_clients_within_is_ntp_clients_filtered_on_phase() {
        let windows = [
            Duration::ZERO,
            Duration::secs(1),
            Duration::mins(45),
            Duration::secs(Duration::hours(1).as_secs() - 1),
            Duration::hours(1),
            Duration::secs(Duration::hours(6).as_secs() - 1),
            Duration::hours(6),
            Duration::days(2),
        ];
        for sntp_iot_pct in [0u8, 30, 100] {
            for seed in [9, 23] {
                let w = World::generate(WorldConfig {
                    sntp_iot_pct,
                    ..WorldConfig::tiny(seed)
                });
                let sntp = w
                    .ntp_clients()
                    .filter(|(_, cfg)| cfg.poll_interval == crate::procgen::SNTP_POLL_INTERVAL)
                    .count();
                assert_eq!(sntp > 0, sntp_iot_pct > 0, "{sntp} SNTP clients");
                for window in windows {
                    let ctx = format!("pct {sntp_iot_pct}, seed {seed}, window {window}");
                    let want: Vec<_> = w
                        .ntp_clients()
                        .filter(|(_, cfg)| cfg.phase < window)
                        .collect();
                    let got: Vec<_> = w.ntp_clients_within(window).collect();
                    assert_eq!(got, want, "{ctx}");
                }
                // At 100 % every slot's SNTP phase counts, three in four
                // of which fall inside 45 minutes: every household is
                // profiled there.
                let profiled = w.households_within(Duration::mins(45)).count();
                assert!(
                    sntp_iot_pct == 100 || (profiled as u32) < w.household_count(),
                    "pct {sntp_iot_pct}, seed {seed}: {profiled} households profiled"
                );
            }
        }
    }

    #[test]
    fn household_members_share_48_at_same_time() {
        let w = tiny();
        let t = SimTime(50_000);
        let nets: Vec<Prefix> = w
            .household_members(0)
            .into_iter()
            .map(|m| Prefix::of(w.address_of(m, t), 48))
            .collect();
        assert!(
            nets.windows(2).all(|w| w[0] == w[1]),
            "members scattered: {nets:?}"
        );
    }

    /// Eyeball /64s past the household's member count — and past the
    /// eight slots a household can have — hold nobody.
    #[test]
    fn unfilled_member_slots_resolve_to_nothing_and_stay_uncached() {
        let w = tiny();
        let t = SimTime(50_000);
        let members = (0..w.household_count())
            .map(|h| w.household_members(h))
            .find(|m| m.len() < HOUSEHOLD_STRIDE as usize)
            .expect("a household with a free slot");
        let cpe = u128::from(w.address_of(members[0], t));
        assert!(w.device_at(Ipv6Addr::from(cpe), t).is_some());
        let probe = wire::http::Request::scanner_get("t").emit();
        for sub64 in [members.len() as u128, 7, 8, 9, 0xffff] {
            let addr = Ipv6Addr::from((cpe & !(0xffff << 64)) | (sub64 << 64));
            assert!(w.device_at(addr, t).is_none(), "{addr} resolved");
            assert!(w.respond(addr, 80, &probe, t).is_none());
        }
    }
}
