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
//! ## Backends
//!
//! Worlds come in two shapes behind the same API
//! ([`WorldConfig::backend`]):
//!
//! * [`WorldBackend::Materialized`] — every [`Device`] is built up front
//!   into a dense table. O(devices) memory; the equivalence oracle.
//! * [`WorldBackend::Procedural`] — devices are derived on demand from
//!   their coordinates via [`crate::procgen`], memoized in a small
//!   bounded cache. O(#ASes + cache) memory, so world size is bounded by
//!   what the study *observes*, not what the config *declares*.
//!
//! Both backends run the identical per-coordinate derivation, so for any
//! config the materialized backend can hold, all observable behaviour —
//! addresses, responses, NTP client schedules — is bit-identical between
//! them (enforced by tests).

use crate::device::{Attachment, Device, DeviceId, DeviceMeta, NtpClientCfg};
use crate::procgen::{Layout, HOUSEHOLD_STRIDE, POLL_INTERVAL, SNTP_POLL_INTERVAL};
use crate::services::ServiceSet;
use crate::time::{Duration, SimTime};
use crate::topology::{Asn, Topology};
use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::sync::{Arc, Mutex};
use v6addr::{Iid, Prefix};

/// Which world representation backs the [`World`] API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorldBackend {
    /// Materialize every device up front (O(devices) memory). The
    /// equivalence oracle for small configs.
    Materialized,
    /// Derive devices on demand from coordinates (O(#ASes) memory plus a
    /// bounded cache). Required for paper-scale worlds.
    Procedural,
}

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
    /// World representation (derivation is identical either way).
    pub backend: WorldBackend,
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
            backend: WorldBackend::Materialized,
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

    /// Procedural-only world (≈ 1:100 of the paper, ~13 M devices):
    /// too large to materialize, cheap to derive.
    pub fn paper_centi(seed: u64) -> WorldConfig {
        WorldConfig {
            households: 2_300_000,
            servers: 1_200_000,
            routers: 60_000,
            eyeball_ases: 1_200,
            hosting_ases: 800,
            nsp_ases: 150,
            backend: WorldBackend::Procedural,
            ..WorldConfig::tiny(seed)
        }
    }

    /// The same world with a different representation.
    pub fn with_backend(mut self, backend: WorldBackend) -> WorldConfig {
        self.backend = backend;
        self
    }

    /// The same world with `pct`% (clamped to 100) of eligible IoT
    /// devices running fixed-interval SNTP clients.
    pub fn with_sntp_iot_pct(mut self, pct: u8) -> WorldConfig {
        self.sntp_iot_pct = pct.min(100);
        self
    }
}

/// One eyeball household: a CPE plus LAN members sharing a delegated /48.
#[derive(Debug, Clone)]
pub struct Household {
    /// Owning eyeball AS.
    pub asn: Asn,
    /// Index within the AS's delegation pool.
    pub index_in_as: u32,
    /// Member devices; element 0 is the CPE.
    pub members: Vec<DeviceId>,
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

/// Dense device table plus household index (the classic representation).
struct MaterializedModel {
    /// Devices in ascending-id order.
    devices: Vec<Device>,
    households: Vec<Household>,
    /// Dense index of household `h`'s first member is `offsets[h]`; the
    /// static range starts at `offsets[households.len()]`.
    offsets: Vec<u32>,
}

impl MaterializedModel {
    fn build(layout: &Layout) -> MaterializedModel {
        let hh_count = layout.households();
        let mut devices = Vec::new();
        let mut households = Vec::with_capacity(hh_count as usize);
        let mut offsets = Vec::with_capacity(hh_count as usize + 1);
        for h in 0..hh_count {
            offsets.push(devices.len() as u32);
            let profile = layout.household_profile(h);
            let (plan, _) = layout.eyeball_of_house(h);
            let mut members = Vec::with_capacity(usize::from(profile.len));
            for m in 0..profile.len {
                let meta = layout.member_meta(&profile, m);
                devices.push(device_from_meta(layout, meta));
                members.push(meta.id);
            }
            households.push(Household {
                asn: profile.asn,
                index_in_as: h - plan.base,
                members,
            });
        }
        offsets.push(devices.len() as u32);
        for i in 0..layout.servers() + layout.routers() {
            devices.push(device_from_meta(layout, layout.static_meta(i)));
        }
        MaterializedModel {
            devices,
            households,
            offsets,
        }
    }

    /// Dense index of an encoded device id.
    fn dense(&self, layout: &Layout, id: DeviceId) -> usize {
        let v = id.0;
        let s0 = layout.static_base();
        if v < s0 {
            let (h, m) = (v / HOUSEHOLD_STRIDE, v % HOUSEHOLD_STRIDE);
            (self.offsets[h as usize] + m) as usize
        } else {
            (self.offsets[self.households.len()] + (v - s0)) as usize
        }
    }
}

fn device_from_meta(layout: &Layout, meta: DeviceMeta) -> Device {
    Device {
        id: meta.id,
        kind: meta.kind,
        asn: meta.asn,
        country: meta.country,
        attachment: meta.attachment,
        addressing: meta.addressing,
        services: layout.derive_services(meta.id, meta.kind),
        ntp: meta.ntp,
    }
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

/// Derive-on-demand representation: nothing per-device is stored beyond
/// the bounded cache.
struct ProceduralModel {
    cache: Mutex<DeviceCache>,
}

enum WorldModel {
    Materialized(MaterializedModel),
    Procedural(ProceduralModel),
}

/// The simulated Internet.
pub struct World {
    /// Generation config.
    pub config: WorldConfig,
    /// AS-level topology.
    pub topology: Topology,
    layout: Layout,
    aliased: Vec<AliasedRegion>,
    model: WorldModel,
}

impl World {
    /// Generates a world from a config. Deterministic in `config`:
    /// both backends derive devices through the same per-coordinate
    /// functions ([`crate::procgen`]), so all observable behaviour is
    /// bit-identical between them.
    pub fn generate(config: WorldConfig) -> World {
        let (layout, topology, aliased) = Layout::build(&config);
        let model = match config.backend {
            WorldBackend::Materialized => {
                WorldModel::Materialized(MaterializedModel::build(&layout))
            }
            WorldBackend::Procedural => WorldModel::Procedural(ProceduralModel {
                cache: Mutex::new(DeviceCache::new()),
            }),
        };
        World {
            config,
            topology,
            layout,
            aliased,
            model,
        }
    }

    /// All devices, as a slice. Only the materialized backend holds a
    /// device table; use [`for_each_device`](World::for_each_device) or
    /// [`meta`](World::meta) for backend-agnostic access.
    ///
    /// # Panics
    /// On a procedural world.
    pub fn devices(&self) -> &[Device] {
        match &self.model {
            WorldModel::Materialized(m) => &m.devices,
            WorldModel::Procedural(_) => {
                panic!("devices(): procedural worlds have no device table; use for_each_device")
            }
        }
    }

    /// All households, as a slice.
    ///
    /// # Panics
    /// On a procedural world (use [`household_count`](World::household_count)
    /// and [`household_members`](World::household_members)).
    pub fn households(&self) -> &[Household] {
        match &self.model {
            WorldModel::Materialized(m) => &m.households,
            WorldModel::Procedural(_) => {
                panic!("households(): procedural worlds have no household table")
            }
        }
    }

    /// Visits every device in ascending-id order. Works on both
    /// backends; the procedural one derives each device transiently, so
    /// memory stays O(1) regardless of world size.
    pub fn for_each_device(&self, mut f: impl FnMut(&Device)) {
        match &self.model {
            WorldModel::Materialized(m) => m.devices.iter().for_each(f),
            WorldModel::Procedural(_) => {
                for h in 0..self.layout.households() {
                    let profile = self.layout.household_profile(h);
                    for m in 0..profile.len {
                        let meta = self.layout.member_meta(&profile, m);
                        f(&device_from_meta(&self.layout, meta));
                    }
                }
                for i in 0..self.layout.servers() + self.layout.routers() {
                    f(&device_from_meta(&self.layout, self.layout.static_meta(i)));
                }
            }
        }
    }

    /// Total device count. O(1) on a materialized world, O(households)
    /// on a procedural one (member counts must be derived).
    pub fn device_count(&self) -> u64 {
        match &self.model {
            WorldModel::Materialized(m) => m.devices.len() as u64,
            WorldModel::Procedural(_) => {
                let mut n = u64::from(self.layout.servers() + self.layout.routers());
                for h in 0..self.layout.households() {
                    n += u64::from(self.layout.household_profile(h).len);
                }
                n
            }
        }
    }

    /// Number of households.
    pub fn household_count(&self) -> u32 {
        self.layout.households()
    }

    /// Member device ids of household `h`; element 0 is the CPE.
    pub fn household_members(&self, h: u32) -> Vec<DeviceId> {
        match &self.model {
            WorldModel::Materialized(m) => m.households[h as usize].members.clone(),
            WorldModel::Procedural(_) => self.layout.household_profile(h).member_ids().collect(),
        }
    }

    /// A device by id, with its full service stack. The procedural
    /// backend derives it on demand (memoized, bounded).
    ///
    /// # Panics
    /// On an id outside the world.
    pub fn device(&self, id: DeviceId) -> Arc<Device> {
        match &self.model {
            WorldModel::Materialized(m) => Arc::new(m.devices[m.dense(&self.layout, id)].clone()),
            WorldModel::Procedural(p) => {
                if let Some(d) = p.cache.lock().expect("device cache poisoned").get(id) {
                    return d;
                }
                // Derive outside the lock; a concurrent double-derive is
                // benign (both derive the identical device).
                let dev = Arc::new(self.layout.derive_device(id));
                p.cache
                    .lock()
                    .expect("device cache poisoned")
                    .insert(id, Arc::clone(&dev));
                dev
            }
        }
    }

    /// A device's cheap summary (no service stack). This is the hot-path
    /// accessor: on both backends it allocates nothing.
    ///
    /// # Panics
    /// On an id outside the world.
    pub fn meta(&self, id: DeviceId) -> DeviceMeta {
        match &self.model {
            WorldModel::Materialized(m) => m.devices[m.dense(&self.layout, id)].meta(),
            WorldModel::Procedural(_) => self.layout.device_meta(id),
        }
    }

    /// [`World::meta`] for an id that did not come from this world (a
    /// checkpoint file, say): `None` where `meta` would panic or, on the
    /// materialized table, silently land on a neighbouring device.
    pub fn try_meta(&self, id: DeviceId) -> Option<DeviceMeta> {
        let statics = self.layout.static_base();
        let exists = if id.0 < statics {
            let (h, m) = (id.0 / HOUSEHOLD_STRIDE, id.0 % HOUSEHOLD_STRIDE);
            m < match &self.model {
                WorldModel::Materialized(t) => t.offsets[h as usize + 1] - t.offsets[h as usize],
                WorldModel::Procedural(_) => u32::from(self.layout.household_profile(h).len),
            }
        } else {
            id.0 - statics < self.layout.servers() + self.layout.routers()
        };
        exists.then(|| self.meta(id))
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

    /// The id of the device holding `addr` at `t`, with the interface
    /// identifier verified (a stale address resolves to nothing —
    /// exactly the staleness the paper's §6 warns about).
    fn resolve(&self, addr: Ipv6Addr, t: SimTime) -> Option<DeviceId> {
        let id = self.layout.locate(&self.topology, addr, t)?;
        let meta = self.meta(id);
        (meta.iid_at(t) == Iid(u128::from(addr) as u64)).then_some(id)
    }

    /// Resolves an address at time `t` to the device holding it,
    /// verifying the interface identifier.
    pub fn device_at(&self, addr: Ipv6Addr, t: SimTime) -> Option<Arc<Device>> {
        self.resolve(addr, t).map(|id| self.device(id))
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
        let id = self.resolve(addr, t)?;
        match &self.model {
            // Avoid the Arc round-trip on the materialized fast path.
            WorldModel::Materialized(m) => m.devices[m.dense(&self.layout, id)]
                .services
                .respond(port, probe),
            WorldModel::Procedural(_) => self.device(id).services.respond(port, probe),
        }
    }

    /// Devices that run an NTP pool client, with their configs, in
    /// ascending-id order (the order is part of feed determinism). The
    /// procedural backend derives lazily: enumeration never materializes
    /// the population.
    pub fn ntp_clients(&self) -> Box<dyn Iterator<Item = (DeviceMeta, NtpClientCfg)> + '_> {
        match &self.model {
            WorldModel::Materialized(m) => Box::new(
                m.devices
                    .iter()
                    .filter_map(|d| d.ntp.map(|c| (d.meta(), c))),
            ),
            WorldModel::Procedural(_) => {
                let layout = &self.layout;
                let households = (0..layout.households()).flat_map(move |h| {
                    let profile = layout.household_profile(h);
                    (0..profile.len).filter_map(move |m| {
                        let meta = layout.member_meta(&profile, m);
                        meta.ntp.map(|c| (meta, c))
                    })
                });
                let statics = (0..layout.servers() + layout.routers()).filter_map(move |i| {
                    let meta = layout.static_meta(i);
                    meta.ntp.map(|c| (meta, c))
                });
                Box::new(households.chain(statics))
            }
        }
    }

    /// Deterministic O(1) estimate of the pool-client population. An
    /// **order of magnitude only** (for a caller sizing something ahead
    /// of an enumeration) — never an observable quantity, so it may
    /// differ from the exact count but is identical across backends by
    /// construction.
    pub fn client_count_estimate(&self) -> usize {
        self.layout.client_count_estimate()
    }

    /// The minimum poll interval over every pool client — the collection
    /// engine's bucket horizon, O(1) by construction: clients use the
    /// uniform daemon interval, except fixed-interval SNTP IoT clients
    /// when the [`WorldConfig::sntp_iot_pct`] knob is enabled.
    pub fn poll_floor(&self) -> Duration {
        if self.config.sntp_iot_pct > 0 {
            SNTP_POLL_INTERVAL.min(POLL_INTERVAL)
        } else {
            POLL_INTERVAL
        }
    }

    /// A deterministic order-of-magnitude estimate of this world's heap
    /// footprint, for admission budgeting when snapshots are pooled. A
    /// materialized world is dominated by its device table; a procedural
    /// world by its bounded device cache. An accounting quantity only —
    /// never observable in reports.
    pub fn approx_heap_bytes(&self) -> usize {
        let per_device = std::mem::size_of::<Device>();
        match &self.model {
            WorldModel::Materialized(m) => {
                m.devices.len() * per_device
                    + m.households.len() * std::mem::size_of::<Household>()
                    + m.offsets.len() * std::mem::size_of::<u32>()
            }
            WorldModel::Procedural(_) => DeviceCache::CAP * per_device,
        }
    }

    /// A fresh [`AddrResolver`] over this world.
    pub fn addr_resolver(&self) -> AddrResolver<'_> {
        AddrResolver {
            world: self,
            epoch: None,
            shifts: Vec::new(),
        }
    }

    /// An [`AddrResolver`] view for one worker of a sharded collection
    /// engine. Resolution is bit-identical to
    /// [`addr_resolver`](World::addr_resolver); each worker owns its own
    /// view so the per-epoch cache needs no locking.
    pub fn shard_resolver(&self) -> AddrResolver<'_> {
        self.addr_resolver()
    }
}

/// A read-through cache for [`World::address_of`] on the collection hot
/// path.
///
/// Resolving a household address redoes the rotation-slot arithmetic on
/// every call, even though the per-AS rotation shift only changes once
/// per rotation *epoch*. The resolver caches all per-AS shifts for the
/// current epoch (O(#ASes), recomputed on epoch change), so a bucket of
/// same-epoch polls pays one multiply-mod per AS instead of one per
/// poll. Addresses are **bit-identical** to [`World::address_of`] for
/// every device and time (enforced by tests); each worker of the
/// parallel collection engine owns its own resolver, so the cache needs
/// no locking.
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
        let layout = self.world.layout();
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

impl World {
    /// The procedural layout shared by both backends.
    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
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
        assert_eq!(a.devices().len(), b.devices().len());
        for (x, y) in a.devices().iter().zip(b.devices()) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.asn, y.asn);
        }
        let c = World::generate(WorldConfig::tiny(6));
        // Different seed ⇒ (almost surely) different population layout.
        let same = a
            .devices()
            .iter()
            .zip(c.devices())
            .filter(|(x, y)| x.kind == y.kind)
            .count();
        assert!(same < a.devices().len());
    }

    #[test]
    fn try_meta_is_meta_inside_the_world_and_none_outside() {
        for backend in [WorldBackend::Materialized, WorldBackend::Procedural] {
            let w = World::generate(WorldConfig::tiny(11).with_backend(backend));
            let mut ids = std::collections::HashSet::new();
            w.for_each_device(|d| {
                assert_eq!(w.try_meta(d.id), Some(w.meta(d.id)), "{backend:?}");
                ids.insert(d.id);
            });
            // Everything else in (and just past) the id space: the gaps
            // behind short households and the end of the static range.
            let end = ids.iter().map(|id| id.0).max().unwrap() + HOUSEHOLD_STRIDE;
            let outside = (0..end).map(DeviceId).filter(|id| !ids.contains(id));
            assert!(outside.clone().count() > 0);
            for id in outside {
                assert_eq!(w.try_meta(id), None, "{backend:?} {id:?}");
            }
            assert_eq!(w.try_meta(DeviceId(u32::MAX)), None, "{backend:?}");
        }
    }

    #[test]
    fn addresses_resolve_back_to_device() {
        let w = tiny();
        for t in [SimTime(0), SimTime(100_000), SimTime(2_000_000)] {
            for dev in w.devices().iter().take(300) {
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
            .devices()
            .iter()
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
            .devices()
            .iter()
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
        let total = w.devices().len();
        assert!(total > 500, "only {total} devices");
        let eyeball = w.devices().iter().filter(|d| d.kind.is_eyeball()).count();
        let servers = total - eyeball;
        assert!(eyeball > servers, "eyeball {eyeball} vs static {servers}");
        // Germany-heavy AVM: at least some FritzBoxes exist.
        // Europe is ~10 % of the client-weighted household mass, so a
        // tiny world still carries a handful of FritzBoxes.
        let fritz = w
            .devices()
            .iter()
            .filter(|d| d.kind == DeviceKind::FritzBox)
            .count();
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
        let hh = &w.households()[0];
        let t = SimTime(50_000);
        let nets: Vec<Prefix> = hh
            .members
            .iter()
            .map(|&m| Prefix::of(w.address_of(m, t), 48))
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
            for dev in w.devices() {
                assert_eq!(
                    resolver.address_of(dev.id, t),
                    w.address_of(dev.id, t),
                    "device {:?} at {t}",
                    dev.id
                );
            }
        }
    }

    #[test]
    fn shard_resolver_matches_plain_resolver() {
        let w = tiny();
        let mut plain = w.addr_resolver();
        let mut sharded = w.shard_resolver();
        let day = Duration::days(1).as_secs();
        for t in [SimTime(7), SimTime(day + 3), SimTime(5 * day)] {
            for dev in w.devices() {
                assert_eq!(
                    sharded.address_of(dev.id, t),
                    plain.address_of(dev.id, t),
                    "device {:?} at {t}",
                    dev.id
                );
            }
        }
    }

    #[test]
    fn procedural_backend_matches_materialized() {
        let mat = World::generate(WorldConfig::tiny(11));
        let proc_ = World::generate(WorldConfig::tiny(11).with_backend(WorldBackend::Procedural));
        assert_eq!(mat.device_count(), proc_.device_count());
        let day = Duration::days(1).as_secs();
        for t in [SimTime(0), SimTime(day + 3), SimTime(40 * day)] {
            for dev in mat.devices() {
                let meta = proc_.meta(dev.id);
                assert_eq!(dev.meta(), meta, "meta of {:?}", dev.id);
                assert_eq!(
                    mat.address_of(dev.id, t),
                    proc_.address_of(dev.id, t),
                    "address of {:?} at {t}",
                    dev.id
                );
                let full = proc_.device(dev.id);
                assert_eq!(dev.services, full.services, "services of {:?}", dev.id);
            }
        }
        // Client enumeration yields the same sequence.
        let a: Vec<_> = mat.ntp_clients().map(|(d, c)| (d.id, c)).collect();
        let b: Vec<_> = proc_.ntp_clients().map(|(d, c)| (d.id, c)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn procedural_enumeration_matches_device_table() {
        let mat = World::generate(WorldConfig::tiny(3));
        let proc_ = World::generate(WorldConfig::tiny(3).with_backend(WorldBackend::Procedural));
        let mut ids = Vec::new();
        proc_.for_each_device(|d| ids.push(d.id));
        let expected: Vec<_> = mat.devices().iter().map(|d| d.id).collect();
        assert_eq!(ids, expected);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids not ascending");
    }

    #[test]
    fn device_cache_is_bounded() {
        let w = World::generate(WorldConfig::tiny(7).with_backend(WorldBackend::Procedural));
        let mut seen = 0usize;
        w.for_each_device(|d| {
            let _ = w.device(d.id);
            seen += 1;
        });
        assert!(seen > 500);
        if let WorldModel::Procedural(p) = &w.model {
            let cache = p.cache.lock().unwrap();
            assert!(cache.cur.len() + cache.prev.len() <= DeviceCache::CAP);
        } else {
            panic!("expected procedural model");
        }
    }
}
