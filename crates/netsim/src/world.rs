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
//! probe bytes to its service stack.
//!
//! ## One representation
//!
//! A world stores nothing per device. Every household, device and
//! prefix is a pure function of its coordinates ([`crate::procgen`]);
//! the world holds the O(#ASes) [`Layout`] plus a small bounded cache of
//! derived devices, so its memory is bounded by what a study *observes*,
//! not by what the config *declares*.
//!
//! Resolving an address is **locate → cache → verify**:
//! [`Layout::locate`] inverts the address plan arithmetically to a
//! candidate device id, the cache returns that device (deriving it on a
//! miss; a member slot its household does not fill derives to nothing
//! and is not cached), and the interface identifier is checked against
//! the device's addressing. A scan sends all of a target's probes back
//! to back, so every attempt after the first is a cache hit.

use crate::device::{Attachment, Device, DeviceId, DeviceMeta, NtpClientCfg};
use crate::procgen::{
    Layout, HOUSEHOLD_STRIDE, MAX_ASES_PER_TYPE, MAX_HOUSEHOLDS_PER_AS, MAX_STATIC_PER_AS,
};
use crate::services::ServiceSet;
use crate::time::{Duration, SimTime};
use crate::topology::Topology;
use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::sync::{Arc, Mutex};
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

/// Bounded memoization for derived devices: two generational banks; when
/// the current bank fills, it becomes the previous one and the oldest
/// entries drop. O(1) amortized, at most [`DeviceCache::CAP`] entries.
struct DeviceCache {
    cur: HashMap<DeviceId, Arc<Device>>,
    prev: HashMap<DeviceId, Arc<Device>>,
}

impl DeviceCache {
    /// Total bound: at most this many devices resident (~a few MB).
    const CAP: usize = 4096;

    fn new() -> DeviceCache {
        DeviceCache {
            cur: HashMap::new(),
            prev: HashMap::new(),
        }
    }

    fn get(&mut self, id: DeviceId) -> Option<Arc<Device>> {
        if let Some(d) = self.cur.get(&id) {
            return Some(Arc::clone(d));
        }
        if let Some(d) = self.prev.remove(&id) {
            // Promote: recently used entries survive the next rotation.
            self.insert(id, Arc::clone(&d));
            return Some(d);
        }
        None
    }

    fn insert(&mut self, id: DeviceId, dev: Arc<Device>) {
        if self.cur.len() >= Self::CAP / 2 {
            self.prev = std::mem::take(&mut self.cur);
        }
        self.cur.insert(id, dev);
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
    /// Shared by every reader of the world (service workers included):
    /// derive outside the lock, insert under it.
    cache: Mutex<DeviceCache>,
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
            cache: Mutex::new(DeviceCache::new()),
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

    /// The cached device `id`, derived (and cached) on a miss; `None`,
    /// with the cache untouched, for an id outside the world.
    fn lookup(&self, id: DeviceId) -> Option<Arc<Device>> {
        if let Some(d) = self.cache.lock().expect("device cache poisoned").get(id) {
            return Some(d);
        }
        // Derive outside the lock; a concurrent double-derive is benign
        // (both derive the identical device).
        let dev = Arc::new(self.layout.device_from_meta(self.try_meta(id)?));
        self.cache
            .lock()
            .expect("device cache poisoned")
            .insert(id, Arc::clone(&dev));
        Some(dev)
    }

    /// A device by id, with its full service stack, derived on demand
    /// (memoized, bounded).
    ///
    /// # Panics
    /// On an id outside the world.
    pub fn device(&self, id: DeviceId) -> Arc<Device> {
        self.lookup(id)
            .unwrap_or_else(|| panic!("device id {} outside the world", id.0))
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

    /// The /64 the device lives in at `t`.
    pub fn net64_of(&self, meta: &DeviceMeta, t: SimTime) -> Prefix {
        self.layout.net64_of(meta, t)
    }

    /// The device holding `addr` at `t`: the address plan inverted to a
    /// candidate id, that device fetched through the cache, and the
    /// interface identifier verified (a stale address resolves to
    /// nothing — exactly the staleness the paper's §6 warns about).
    pub fn device_at(&self, addr: Ipv6Addr, t: SimTime) -> Option<Arc<Device>> {
        let dev = self.lookup(self.layout.locate(&self.topology, addr, t)?)?;
        (dev.iid_at(t) == Iid(u128::from(addr) as u64)).then_some(dev)
    }

    /// Dispatches probe bytes to whatever answers `addr:port` at `t`.
    /// `None` models silence: unrouted space, firewalled device, closed
    /// port, stale address, or a host that rejected the bytes.
    pub fn respond(&self, addr: Ipv6Addr, port: u16, probe: &[u8], t: SimTime) -> Option<Vec<u8>> {
        for region in &self.aliased {
            if region.prefix.contains(addr) {
                return region.services.respond(port, probe);
            }
        }
        self.device_at(addr, t)?.services.respond(port, probe)
    }

    /// Devices that run an NTP pool client, with their configs, in
    /// ascending-id order (the order is part of feed determinism).
    pub fn ntp_clients(&self) -> impl Iterator<Item = (DeviceMeta, NtpClientCfg)> + '_ {
        self.metas()
            .filter_map(|meta| meta.ntp.map(|cfg| (meta, cfg)))
    }

    /// Deterministic O(1) estimate of the pool-client population. An
    /// **order of magnitude only** (for a caller sizing something ahead
    /// of an enumeration) — never an observable quantity, so it may
    /// differ from the exact count.
    pub fn client_count_estimate(&self) -> usize {
        self.layout.client_count_estimate()
    }

    /// A fresh [`AddrResolver`] over this world.
    pub fn addr_resolver(&self) -> AddrResolver<'_> {
        AddrResolver {
            world: self,
            epoch: None,
            shifts: Vec::new(),
        }
    }
}

/// A read-through cache for [`World::address_of`] on the collection hot
/// path.
///
/// Resolving a household address redoes the rotation-slot arithmetic on
/// every call, even though the per-AS rotation shift only changes once
/// per rotation *epoch*. The resolver caches all per-AS shifts for the
/// current epoch (O(#ASes), recomputed on epoch change), so a run of
/// same-epoch polls pays one multiply-mod per AS instead of one per
/// poll. Addresses are **bit-identical** to [`World::address_of`] for
/// every device and time (enforced by tests).
pub struct AddrResolver<'w> {
    world: &'w World,
    /// Rotation epoch the cached shifts were computed for.
    epoch: Option<u64>,
    /// Per-eyeball-plan rotation shift `(epoch*step) % space` at `epoch`,
    /// indexed like [`Layout::eyeball_plans`].
    shifts: Vec<u32>,
}

impl AddrResolver<'_> {
    /// The device's global address at `t`; same value as
    /// [`World::address_of`], amortizing the per-(AS, epoch) work.
    pub fn address_of(&mut self, id: DeviceId, t: SimTime) -> Ipv6Addr {
        self.address_of_meta(&self.world.meta(id), t)
    }

    /// Like [`address_of`](AddrResolver::address_of) for a meta already
    /// in hand — the collection engine derives the meta once per event
    /// and addresses it here without a second lookup.
    pub fn address_of_meta(&mut self, meta: &DeviceMeta, t: SimTime) -> Ipv6Addr {
        let layout = &self.world.layout;
        let net64 = match meta.attachment {
            Attachment::Static { net64 } => net64,
            Attachment::Household { household, member } => {
                let epoch = layout.epoch(t);
                if self.epoch != Some(epoch) {
                    self.shifts.clear();
                    self.shifts.extend(
                        layout
                            .eyeball_plans()
                            .iter()
                            .map(|p| (epoch * u64::from(p.step) % u64::from(p.space)) as u32),
                    );
                    self.epoch = Some(epoch);
                }
                let (plan, plan_idx) = layout.eyeball_of_house(household);
                // Same arithmetic as `EyeballPlan::slot_at`, with the
                // epoch-dependent term folded into the cached shift:
                // (idx + epoch*step) mod m == ((idx mod m) + shift) mod m
                // (idx ≤ count ≤ space, so idx mod m = idx).
                let slot = (household - plan.base + self.shifts[plan_idx as usize]) % plan.space;
                plan.alloc
                    .subnet(48, u128::from(crate::procgen::POOL_BASE + slot))
                    .subnet(64, u128::from(member))
            }
        };
        net64.host(u128::from(meta.iid_at(t).0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archetype::DeviceKind;

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

    #[test]
    fn addr_resolver_matches_address_of_across_epochs() {
        let w = tiny();
        let mut resolver = w.addr_resolver();
        // Sweep times within an epoch, across epoch boundaries, and far
        // out — including going *backwards*, which must invalidate the
        // cached epoch view just like going forwards.
        let day = Duration::days(1).as_secs();
        let times = [
            SimTime(0),
            SimTime(day / 2),
            SimTime(day - 1),
            SimTime(day),
            SimTime(3 * day + 17),
            SimTime(day + 1),
            SimTime(40 * day),
        ];
        for t in times {
            for dev in w.metas() {
                assert_eq!(
                    resolver.address_of(dev.id, t),
                    w.address_of(dev.id, t),
                    "device {:?} at {t}",
                    dev.id
                );
            }
        }
    }

    /// Eyeball /64s past the household's member count — and past the
    /// eight slots a household can have — hold nobody, and asking does
    /// not spend a cache entry on them.
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
        let cached = |w: &World| {
            let cache = w.cache.lock().unwrap();
            cache.cur.len() + cache.prev.len()
        };
        let before = cached(&w);
        let probe = wire::http::Request::scanner_get("t").emit();
        for sub64 in [members.len() as u128, 7, 8, 9, 0xffff] {
            let addr = Ipv6Addr::from((cpe & !(0xffff << 64)) | (sub64 << 64));
            assert!(w.device_at(addr, t).is_none(), "{addr} resolved");
            assert!(w.respond(addr, 80, &probe, t).is_none());
        }
        assert_eq!(cached(&w), before);
    }

    #[test]
    fn device_cache_is_bounded() {
        let w = World::generate(WorldConfig::tiny(7));
        let mut seen = 0;
        for meta in w.metas() {
            w.device(meta.id);
            seen += 1;
        }
        assert!(seen > 500);
        let cache = w.cache.lock().unwrap();
        assert!(cache.cur.len() + cache.prev.len() <= DeviceCache::CAP);
    }

    /// A device revisited after more than [`DeviceCache::CAP`] other
    /// lookups has left the cache, and what is derived for it the second
    /// time equals both the first and an uncached derivation.
    #[test]
    fn an_evicted_device_derives_identically() {
        let w = World::generate(WorldConfig::small(5));
        let mut ids = w.metas().map(|m| m.id);
        let id = ids.next().unwrap();
        let first = w.device(id);
        let others = ids.take(DeviceCache::CAP + 1).map(|o| w.device(o));
        assert!(others.count() > DeviceCache::CAP, "world too small");
        let again = w.device(id);
        assert!(!Arc::ptr_eq(&first, &again), "never left the cache");
        let fresh = w.layout.device_from_meta(w.meta(id));
        for dev in [&first, &again] {
            assert_eq!(dev.meta(), fresh.meta());
            assert_eq!(dev.services, fresh.services);
        }
    }
}
