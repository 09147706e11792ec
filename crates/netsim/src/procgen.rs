//! Procedural world derivation: every device, household, and prefix is a
//! **pure function of its coordinates** `(seed, AS, index, member)`.
//!
//! This is the same stateless trick [`crate::transport`] uses for
//! per-link fault hashes, applied to world generation. The [`Layout`]
//! holds only O(#ASes) state — the AS plans, delegation-pool parameters,
//! and shared key pools. Everything per-household and per-device is
//! derived on demand:
//!
//! * [`Layout::household_profile`] — CPE archetype + member archetypes of
//!   household `h`, from the household RNG domain;
//! * [`Layout::try_device_meta`] — the cheap, `Copy` summary of a
//!   device (kind, AS, attachment, addressing, NTP config) without
//!   building its service stack;
//! * [`Layout::device_from_meta`] — the full [`Device`]: the meta plus
//!   services, TLS keys and banners from the service RNG domain.
//!
//! [`crate::world::World`] is a thin shell over these functions: it
//! calls them per lookup (behind a bounded cache) or per enumeration
//! step, and stores no device.
//!
//! ## Coordinate scheme
//!
//! [`DeviceId`] encodes coordinates with a stride of 8 (a household holds
//! a CPE plus at most 7 LAN members):
//!
//! ```text
//! household h, member m (m=0 is the CPE)  ->  id = h*8 + m
//! hosting server s                        ->  id = households*8 + s
//! core router r                           ->  id = households*8 + servers + r
//! ```
//!
//! Households, servers, and routers are assigned to ASes in **contiguous
//! global ranges** via largest-remainder quotas over the country client
//! weights, so `id -> AS` is a binary search over O(#ASes) plan bases and
//! `address -> id` is pure arithmetic (no per-device maps).

use crate::archetype::{build_services, BuildCtx, DeviceKind, KeyPools};
use crate::country::{self, Continent, Country};
use crate::device::{Addressing, Attachment, Device, DeviceId, DeviceMeta, NtpClientCfg};
use crate::mix2;
use crate::peeringdb::AsType;
use crate::services::{HttpService, ServiceSet, TlsEndpoint};
use crate::time::{Duration, SimTime};
use crate::topology::{AsInfo, Asn, Topology};
use crate::world::{AliasedRegion, WorldConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::Ipv6Addr;
use v6addr::{Mac, Oui, Prefix};

/// First /48 subnet index used for household delegation inside an eyeball
/// /32 (lower indices are reserved for ISP infrastructure).
pub const POOL_BASE: u32 = 0x100;

/// Member slots reserved per household in the id space (CPE + 7 LAN
/// members — `sample_household` never exceeds this).
pub const HOUSEHOLD_STRIDE: u32 = 8;

/// Poll interval every pool client uses. Real clients poll every
/// 64–1024 s; the simulation uses a longer shared interval (same
/// observable address set, far fewer events). Because it is uniform,
/// the collection engine's bucket horizon is O(1).
pub const POLL_INTERVAL: Duration = Duration::hours(6);

/// Fixed poll interval of bare SNTP IoT firmware (the esp32-clock
/// pattern): much shorter than the daemon interval and perfectly
/// periodic, which is what makes the cohort's collection yield — and
/// its telescope signature — distinctive. Only devices selected by
/// [`crate::world::WorldConfig::sntp_iot_pct`] use it.
pub const SNTP_POLL_INTERVAL: Duration = Duration::hours(1);

/// Most ASes of one type a world may declare. [`Layout::build`] numbers
/// each type's /32 allocations upward from its own base, and the ranges
/// must stay apart: the hosting range would reach the CDN's /32 at
/// index 378 624.
pub(crate) const MAX_ASES_PER_TYPE: u32 = 1 << 16;

/// Households per eyeball AS cap: keeps the delegation-pool slot space
/// `(count*4).clamp(8, 0xffff - POOL_BASE)` collision-free.
pub(crate) const MAX_HOUSEHOLDS_PER_AS: u32 = 12_000;

/// Static hosts per AS cap: the /48 index `idx/4` must fit in 16 bits.
pub(crate) const MAX_STATIC_PER_AS: u32 = 4 * 0x1_0000;

// Per-aspect RNG domains. Separating streams is what makes
// `device_meta` derivable without touching the (much more expensive)
// service stack: addressing and NTP coins never share a stream with
// `build_services`.
const DOM_HOUSE: u64 = 0x686f_7573; // household profile (CPE kind, member kinds)
const DOM_DEV: u64 = 0x6465_7669; // per-device meta (addressing, NTP coin)
const DOM_SVC: u64 = 0x7376_6373; // per-device service stack
const DOM_SALT: u64 = 0x7361_6c74; // per-device salt handed to BuildCtx
const DOM_PHASE: u64 = 0x9019; // poll phase offset
const DOM_SNTP: u64 = 0x736e_7470; // SNTP IoT overlay selection + phase

/// One eyeball AS's slice of the world: the contiguous household range
/// `[base, base+count)` and its dynamic-delegation pool parameters.
#[derive(Debug, Clone)]
pub struct EyeballPlan {
    /// The AS.
    pub asn: Asn,
    /// Registered country.
    pub country: Country,
    /// The AS's /32 allocation.
    pub alloc: Prefix,
    /// First global household index owned by this AS.
    pub base: u32,
    /// Households owned by this AS.
    pub count: u32,
    /// Delegation-pool slot space (≥ count, leaving head-room so
    /// rotating prefixes land on fresh /48s for a while).
    pub space: u32,
    /// Rotation stride, odd so it walks the whole space.
    pub step: u32,
}

impl EyeballPlan {
    /// Pool slot of local household `idx` at `epoch`.
    pub fn slot_at(&self, idx: u32, epoch: u64) -> u32 {
        ((u64::from(idx) + epoch * u64::from(self.step)) % u64::from(self.space)) as u32
    }

    /// Inverse of [`slot_at`](EyeballPlan::slot_at): the local household
    /// index occupying `slot` at `epoch`, if any.
    pub fn house_at(&self, slot: u32, epoch: u64) -> Option<u32> {
        if slot >= self.space {
            return None;
        }
        let shift = (epoch * u64::from(self.step) % u64::from(self.space)) as u32;
        let idx = (slot + self.space - shift) % self.space;
        (idx < self.count).then_some(idx)
    }
}

/// One hosting or NSP AS's slice: the contiguous static-host range
/// `[base, base+count)` (server indices or router indices).
#[derive(Debug, Clone)]
pub struct StaticPlan {
    /// The AS.
    pub asn: Asn,
    /// Registered country.
    pub country: Country,
    /// The AS's /32 allocation.
    pub alloc: Prefix,
    /// First global index owned by this AS.
    pub base: u32,
    /// Hosts owned by this AS.
    pub count: u32,
}

impl StaticPlan {
    /// The /64 of local host `idx`: four hosts per /48, structured
    /// subnets — keeps the hitlist's per-/48 density low.
    pub fn net64(&self, idx: u32) -> Prefix {
        self.alloc
            .subnet(48, u128::from(idx / 4))
            .subnet(64, u128::from(idx % 4))
    }
}

/// The archetype plan of one household, derived from the household RNG
/// domain. Element 0 of `kinds` is the CPE.
#[derive(Debug, Clone, Copy)]
pub struct HouseholdProfile {
    /// Owning eyeball AS.
    pub asn: Asn,
    /// Country of the AS.
    pub country: Country,
    /// Global household index.
    pub house: u32,
    /// Index of the owning plan in [`Layout::eyeball_plans`].
    pub plan: u32,
    /// Member archetypes; only the first `len` entries are meaningful.
    pub kinds: [DeviceKind; HOUSEHOLD_STRIDE as usize],
    /// Member count (2..=8: the CPE plus 1..=7 LAN devices).
    pub len: u8,
}

impl HouseholdProfile {
    /// Member device ids, in member order.
    pub fn member_ids(&self) -> impl Iterator<Item = DeviceId> + '_ {
        let base = self.house * HOUSEHOLD_STRIDE;
        (0..u32::from(self.len)).map(move |m| DeviceId(base + m))
    }
}

/// The O(#ASes) world plan all per-coordinate derivation runs against.
pub struct Layout {
    seed: u64,
    rotation_secs: u64,
    privacy_regen: Duration,
    keys: KeyPools,
    eyeball: Vec<EyeballPlan>,
    hosting: Vec<StaticPlan>,
    nsp: Vec<StaticPlan>,
    eyeball_index: HashMap<Asn, u32>,
    hosting_index: HashMap<Asn, u32>,
    nsp_index: HashMap<Asn, u32>,
    households: u32,
    servers: u32,
    routers: u32,
    sntp_iot_pct: u8,
}

impl Layout {
    /// Builds the layout, the AS topology, and the aliased (CDN)
    /// regions from a config. Deterministic in the config.
    pub fn build(config: &WorldConfig) -> (Layout, Topology, Vec<AliasedRegion>) {
        let mut topology = Topology::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut next_asn = 64_500u32;
        let mut register = |topology: &mut Topology,
                            name: String,
                            kind: AsType,
                            country: Country,
                            alloc: Prefix| {
            let asn = Asn(next_asn);
            next_asn += 1;
            topology.register(AsInfo {
                asn,
                name,
                kind,
                country,
                allocations: vec![alloc],
            });
            asn
        };
        let alloc_prefix =
            |base: u32, idx: u32| Prefix::new(Ipv6Addr::from(u128::from(base + idx) << 96), 32);

        // Eyeball ASes proportional to country client weight.
        let weights: Vec<(Country, u64)> = country::COUNTRY_TABLE
            .iter()
            .map(|(c, _, _, w, _)| (*c, *w))
            .collect();
        let mut eyeball_as = Vec::new();
        for i in 0..config.eyeball_ases {
            let c = weighted_pick(&mut rng, &weights);
            let alloc = alloc_prefix(0x2a00_0000, i);
            let asn = register(
                &mut topology,
                format!("{} Broadband {}", country::name(c), i),
                AsType::CableDslIsp,
                c,
                alloc,
            );
            eyeball_as.push((asn, c, alloc));
        }
        // Hosting ASes, concentrated in DE/US/NL/FR/GB.
        let hosting_weights: Vec<(Country, u64)> = [
            (country::DE, 30u64),
            (country::US, 30),
            (country::NL, 15),
            (country::FR, 10),
            (country::GB, 10),
            (country::JP, 5),
            (country::AU, 3),
            (country::BR, 3),
        ]
        .into();
        let mut hosting_as = Vec::new();
        for i in 0..config.hosting_ases {
            let c = weighted_pick(&mut rng, &hosting_weights);
            let alloc = alloc_prefix(0x2600_8000, i);
            let asn = register(
                &mut topology,
                format!("Hosting {} {}", c.code(), i),
                AsType::Hosting,
                c,
                alloc,
            );
            hosting_as.push((asn, c, alloc));
        }
        // NSPs.
        let nsp_weights: Vec<(Country, u64)> = [
            (country::US, 30u64),
            (country::DE, 15),
            (country::GB, 12),
            (country::JP, 10),
            (country::BR, 8),
            (country::IN, 8),
            (country::ZA, 5),
        ]
        .into();
        let mut nsp_as = Vec::new();
        for i in 0..config.nsp_ases {
            let c = weighted_pick(&mut rng, &nsp_weights);
            let alloc = alloc_prefix(0x2001_4000, i);
            let asn = register(
                &mut topology,
                format!("Transit {} {}", c.code(), i),
                AsType::Nsp,
                c,
                alloc,
            );
            nsp_as.push((asn, c, alloc));
        }

        // Aliased CDN front-end: the whole /36 answers HTTP on every
        // address; TLS demands SNI (the Cloudfront effect of §4.2).
        let mut aliased = Vec::new();
        if config.cdn {
            let alloc = alloc_prefix(0x2606_4700, 0);
            register(
                &mut topology,
                "EdgeCloud CDN".into(),
                AsType::Content,
                country::US,
                alloc,
            );
            let prefix = Prefix::new(alloc.network(), 36);
            let services = ServiceSet {
                http: Some(HttpService {
                    title: None, // CDN error page without a title
                    status: 403,
                    server_header: Some("EdgeCloud".into()),
                    plain: true,
                    tls: Some(TlsEndpoint {
                        cert: wire::tls::Certificate {
                            subject: "edgecloud.example".into(),
                            issuer: "R3".into(),
                            serial: 0xcd41,
                            not_before: 0,
                            not_after: u64::MAX,
                            key_blob: b"edgecloud-frontend".to_vec(),
                        },
                        version: wire::tls::Version::Tls13,
                        require_sni: true,
                    }),
                }),
                ..ServiceSet::default()
            };
            aliased.push(AliasedRegion { prefix, services });
        }

        // Deterministic largest-remainder quotas: each AS owns a
        // contiguous range, weighted by its country's client weight.
        let weight_of = |list: &[(Asn, Country, Prefix)]| -> Vec<u64> {
            list.iter()
                .map(|(_, c, _)| country::client_weight(*c).max(1))
                .collect()
        };
        let house_quota = quotas(
            config.households,
            &weight_of(&eyeball_as),
            MAX_HOUSEHOLDS_PER_AS,
        );
        let server_quota = quotas(config.servers, &weight_of(&hosting_as), MAX_STATIC_PER_AS);
        let router_quota = quotas(config.routers, &weight_of(&nsp_as), MAX_STATIC_PER_AS);

        let seed = config.seed;
        let mut base = 0u32;
        let eyeball: Vec<EyeballPlan> = eyeball_as
            .iter()
            .zip(&house_quota)
            .map(|(&(asn, country, alloc), &count)| {
                let space = (count * 4).clamp(8, 0xffff - POOL_BASE);
                // Stride: odd and ≠ 0 mod space ⇒ walks all slots for
                // power-of-two-free spaces; good rotation behaviour.
                let step = (mix2(seed, u64::from(asn.0)) as u32 % space) | 1;
                let plan = EyeballPlan {
                    asn,
                    country,
                    alloc,
                    base,
                    count,
                    space,
                    step,
                };
                base += count;
                plan
            })
            .collect();
        let static_plans = |list: &[(Asn, Country, Prefix)], quota: &[u32]| -> Vec<StaticPlan> {
            let mut base = 0u32;
            list.iter()
                .zip(quota)
                .map(|(&(asn, country, alloc), &count)| {
                    let plan = StaticPlan {
                        asn,
                        country,
                        alloc,
                        base,
                        count,
                    };
                    base += count;
                    plan
                })
                .collect()
        };
        let hosting = static_plans(&hosting_as, &server_quota);
        let nsp = static_plans(&nsp_as, &router_quota);

        let index_of = |plans: &[(Asn, Country, Prefix)]| -> HashMap<Asn, u32> {
            plans
                .iter()
                .enumerate()
                .map(|(i, &(asn, ..))| (asn, i as u32))
                .collect()
        };
        let layout = Layout {
            seed,
            rotation_secs: config.rotation.as_secs().max(1),
            privacy_regen: config.privacy_regen,
            keys: KeyPools::new(seed ^ 0x6b65_7970_6f6f_6c73),
            eyeball_index: index_of(&eyeball_as),
            hosting_index: index_of(&hosting_as),
            nsp_index: index_of(&nsp_as),
            eyeball,
            hosting,
            nsp,
            households: config.households,
            servers: config.servers,
            routers: config.routers,
            sntp_iot_pct: config.sntp_iot_pct,
        };
        (layout, topology, aliased)
    }

    /// Generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Household count.
    pub fn households(&self) -> u32 {
        self.households
    }

    /// Static server count.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Core-router count.
    pub fn routers(&self) -> u32 {
        self.routers
    }

    /// First id of the static (server/router) range.
    pub fn static_base(&self) -> u32 {
        self.households * HOUSEHOLD_STRIDE
    }

    /// Eyeball AS plans, in household-range order.
    pub fn eyeball_plans(&self) -> &[EyeballPlan] {
        &self.eyeball
    }

    /// Prefix-rotation epoch at `t`.
    pub fn epoch(&self, t: SimTime) -> u64 {
        t.as_secs() / self.rotation_secs
    }

    /// The plan owning global household `h`.
    pub fn eyeball_of_house(&self, h: u32) -> (&EyeballPlan, u32) {
        debug_assert!(h < self.households);
        let i = self.eyeball.partition_point(|p| p.base <= h) - 1;
        (&self.eyeball[i], i as u32)
    }

    fn static_of(plans: &[StaticPlan], idx: u32) -> &StaticPlan {
        let i = plans.partition_point(|p| p.base <= idx) - 1;
        &plans[i]
    }

    // -- per-coordinate derivation ------------------------------------

    /// The archetype plan of household `h` (pure in `(seed, h)` given
    /// the layout).
    pub fn household_profile(&self, h: u32) -> HouseholdProfile {
        let (plan, plan_idx) = self.eyeball_of_house(h);
        let mut rng = StdRng::seed_from_u64(mix2(self.seed ^ DOM_HOUSE, u64::from(h)));
        let continent = country::continent(plan.country);
        // CPE choice by region: AVM's European market share is what
        // makes AVM the top EUI-64 vendor (Appendix B).
        let cpe_kind = {
            let r: f64 = rng.random();
            match continent {
                Some(Continent::Europe) => {
                    let avm = if plan.country == country::DE {
                        0.75
                    } else {
                        0.52
                    };
                    if r < avm {
                        DeviceKind::FritzBox
                    } else if r < avm + 0.05 {
                        DeviceKind::MyModemCpe
                    } else {
                        DeviceKind::GenericCpe
                    }
                }
                Some(Continent::Asia) => {
                    if r < 0.25 {
                        DeviceKind::GponGateway
                    } else if r < 0.40 {
                        DeviceKind::UfiRouter
                    } else if r < 0.43 {
                        DeviceKind::FritzBox
                    } else {
                        DeviceKind::GenericCpe
                    }
                }
                _ => {
                    if r < 0.06 {
                        DeviceKind::FritzBox
                    } else if r < 0.16 {
                        DeviceKind::MyModemCpe
                    } else {
                        DeviceKind::GenericCpe
                    }
                }
            }
        };
        let mut kinds = [cpe_kind; HOUSEHOLD_STRIDE as usize];
        let is_fritz = cpe_kind == DeviceKind::FritzBox;
        let n_members = 1 + rng.random_range(0..7u8);
        for slot in kinds.iter_mut().take(usize::from(n_members) + 1).skip(1) {
            *slot = sample_member_kind(&mut rng, is_fritz, continent);
        }
        HouseholdProfile {
            asn: plan.asn,
            country: plan.country,
            house: h,
            plan: plan_idx,
            kinds,
            len: n_members + 1,
        }
    }

    /// Meta of member `m` of a household whose profile is already in
    /// hand (skips the repeated profile derivation on enumeration-heavy
    /// paths).
    pub fn member_meta(&self, profile: &HouseholdProfile, m: u8) -> DeviceMeta {
        debug_assert!(m < profile.len);
        let id = DeviceId(profile.house * HOUSEHOLD_STRIDE + u32::from(m));
        let kind = profile.kinds[usize::from(m)];
        let mut rng = StdRng::seed_from_u64(mix2(self.seed ^ DOM_DEV, u64::from(id.0)));
        let addressing = self.sample_member_addressing(kind, id, &mut rng);
        DeviceMeta {
            id,
            kind,
            asn: profile.asn,
            country: profile.country,
            attachment: Attachment::Household {
                household: profile.house,
                member: m,
            },
            addressing,
            ntp: self.sample_ntp(kind, id, &mut rng),
        }
    }

    /// Meta of static host `idx` (`0..servers` are hosting servers,
    /// `servers..servers+routers` core routers).
    pub fn static_meta(&self, idx: u32) -> DeviceMeta {
        let id = DeviceId(self.static_base() + idx);
        let mut rng = StdRng::seed_from_u64(mix2(self.seed ^ DOM_DEV, u64::from(id.0)));
        let (plan, kind, local) = if idx < self.servers {
            let plan = Self::static_of(&self.hosting, idx);
            (plan, sample_server_kind(&mut rng), idx - plan.base)
        } else {
            let r = idx - self.servers;
            let plan = Self::static_of(&self.nsp, r);
            (plan, DeviceKind::CoreRouter, r - plan.base)
        };
        let addressing = sample_static_addressing(kind, &mut rng);
        DeviceMeta {
            id,
            kind,
            asn: plan.asn,
            country: plan.country,
            attachment: Attachment::Static {
                net64: plan.net64(local),
            },
            addressing,
            ntp: self.sample_ntp(kind, id, &mut rng),
        }
    }

    /// Meta of any device by id, `None` for an id outside the world (a
    /// member slot its household does not fill, or past the static
    /// range). Derives the household profile once.
    pub fn try_device_meta(&self, id: DeviceId) -> Option<DeviceMeta> {
        let v = id.0;
        let s0 = self.static_base();
        if v < s0 {
            let (h, m) = (v / HOUSEHOLD_STRIDE, (v % HOUSEHOLD_STRIDE) as u8);
            let profile = self.household_profile(h);
            (m < profile.len).then(|| self.member_meta(&profile, m))
        } else {
            let idx = v - s0;
            (idx < self.servers + self.routers).then(|| self.static_meta(idx))
        }
    }

    /// The full device — `meta` plus its derived service stack.
    pub fn device_from_meta(&self, meta: DeviceMeta) -> Device {
        Device {
            id: meta.id,
            kind: meta.kind,
            asn: meta.asn,
            country: meta.country,
            attachment: meta.attachment,
            addressing: meta.addressing,
            services: self.derive_services(meta.id, meta.kind),
            ntp: meta.ntp,
        }
    }

    /// The service stack of device `id` of archetype `kind`, from the
    /// dedicated service RNG domain.
    pub fn derive_services(&self, id: DeviceId, kind: DeviceKind) -> ServiceSet {
        let mut rng = StdRng::seed_from_u64(mix2(self.seed ^ DOM_SVC, u64::from(id.0)));
        let mut ctx = BuildCtx {
            rng: &mut rng,
            pools: &self.keys,
            salt: mix2(self.seed ^ DOM_SALT, u64::from(id.0)),
            now_unix: SimTime::EPOCH.to_unix(),
        };
        build_services(kind, &mut ctx)
    }

    fn sample_ntp(&self, kind: DeviceKind, id: DeviceId, rng: &mut StdRng) -> Option<NtpClientCfg> {
        // The base coin is always drawn so the RNG stream position —
        // and therefore every later draw for this device — is identical
        // whether or not the SNTP overlay below applies.
        let base = rng
            .random_bool(kind.pool_client_probability())
            .then(|| NtpClientCfg {
                poll_interval: POLL_INTERVAL,
                phase: Duration::secs(
                    mix2(self.seed ^ DOM_PHASE, u64::from(id.0)) % POLL_INTERVAL.as_secs(),
                ),
            });
        // SNTP IoT overlay: a hash-selected share of eligible IoT
        // devices runs fixed-interval firmware SNTP instead. Pure mix2,
        // no RNG state — with the knob at 0 the world is bit-identical
        // to the pre-knob derivation.
        if self.sntp_iot_pct > 0 && kind.is_sntp_iot() {
            let h = mix2(self.seed ^ DOM_SNTP, u64::from(id.0));
            if h % 100 < u64::from(self.sntp_iot_pct.min(100)) {
                return Some(NtpClientCfg {
                    poll_interval: SNTP_POLL_INTERVAL,
                    phase: Duration::secs(mix2(h, 1) % SNTP_POLL_INTERVAL.as_secs()),
                });
            }
        }
        base
    }

    fn sample_member_addressing(
        &self,
        kind: DeviceKind,
        id: DeviceId,
        rng: &mut StdRng,
    ) -> Addressing {
        let salt = mix2(self.seed ^ DOM_SALT, u64::from(id.0));
        if rng.random_bool(kind.eui64_probability()) {
            let mac = if rng.random_bool(kind.local_mac_probability()) {
                // Locally administered (randomised) MAC.
                let mut m = Mac::from_u64(mix2(salt, 0x10ca1) & 0xffff_ffff_ffff);
                m.0[0] = (m.0[0] | 0x02) & !0x01;
                m
            } else {
                let ouis = kind.vendor_ouis();
                // A small share of hardware carries OUIs absent from the
                // registry (paper Table 4's "(Unlisted)" row): model it
                // with 0xD4:xx:xx, a range no registry entry uses.
                let unlisted = rng.random_bool(0.04);
                let oui = if ouis.is_empty() || unlisted {
                    let v = (mix2(salt, 0x0517) as u32) & 0xffff;
                    Oui::from_u32(0xD4_0000 | v)
                } else {
                    Oui::from_u32(ouis[rng.random_range(0..ouis.len())])
                };
                let mut m = Mac::from_parts(oui, (mix2(salt, 0x71c) & 0xff_ffff) as u32);
                m.0[0] &= !0x03; // universal, unicast
                m
            };
            Addressing::Eui64(mac)
        } else {
            Addressing::Privacy {
                regen: self.privacy_regen,
            }
        }
    }

    // -- address plan -------------------------------------------------

    /// The /64 a device with `meta`'s attachment lives in at `t`.
    pub fn net64_of(&self, meta: &DeviceMeta, t: SimTime) -> Prefix {
        match meta.attachment {
            Attachment::Static { net64 } => net64,
            Attachment::Household { household, member } => {
                let (plan, _) = self.eyeball_of_house(household);
                let slot = plan.slot_at(household - plan.base, self.epoch(t));
                plan.alloc
                    .subnet(48, u128::from(POOL_BASE + slot))
                    .subnet(64, u128::from(member))
            }
        }
    }

    /// The device's global address at `t`.
    pub fn address_of(&self, meta: &DeviceMeta, t: SimTime) -> Ipv6Addr {
        self.net64_of(meta, t).host(u128::from(meta.iid_at(t).0))
    }

    /// Structural inverse of the address plan, pure arithmetic: the
    /// *candidate* device id whose /64 contains `addr` at `t`. In
    /// eyeball space the candidate may name a member slot its household
    /// does not fill ([`try_device_meta`](Layout::try_device_meta) says
    /// so), and the caller still has to verify the interface identifier
    /// — a stale or never-assigned IID resolves to nothing.
    pub fn locate(&self, topology: &Topology, addr: Ipv6Addr, t: SimTime) -> Option<DeviceId> {
        let bits = u128::from(addr);
        let asn = topology.origin(addr)?;
        let slot48 = ((bits >> 80) & 0xffff) as u32;
        let sub64 = ((bits >> 64) & 0xffff) as u32;
        if let Some(&i) = self.hosting_index.get(&asn) {
            let plan = &self.hosting[i as usize];
            let idx = slot48.checked_mul(4)?.checked_add(sub64)?;
            return (sub64 < 4 && idx < plan.count)
                .then(|| DeviceId(self.static_base() + plan.base + idx));
        }
        if let Some(&i) = self.nsp_index.get(&asn) {
            let plan = &self.nsp[i as usize];
            let idx = slot48.checked_mul(4)?.checked_add(sub64)?;
            return (sub64 < 4 && idx < plan.count)
                .then(|| DeviceId(self.static_base() + self.servers + plan.base + idx));
        }
        if let Some(&i) = self.eyeball_index.get(&asn) {
            let plan = &self.eyeball[i as usize];
            if slot48 < POOL_BASE {
                return None;
            }
            let idx = plan.house_at(slot48 - POOL_BASE, self.epoch(t))?;
            return (sub64 < HOUSEHOLD_STRIDE)
                .then(|| DeviceId((plan.base + idx) * HOUSEHOLD_STRIDE + sub64));
        }
        None
    }

    /// Deterministic O(1) estimate of the pool-client population —
    /// an order of magnitude only, never an observable quantity: it
    /// reads nothing but the configured counts.
    pub fn client_count_estimate(&self) -> usize {
        // Households average 4.5 devices, nearly all pool clients;
        // servers/routers almost never are.
        (self.households as usize) * 9 / 2 + (self.servers as usize) / 32 + 1
    }
}

/// Largest-remainder quotas of `total` over `weights`, capped at `cap`
/// per entry. Deterministic: remainder ties break on the lower index,
/// and overflow past the cap redistributes in index order.
fn quotas(total: u32, weights: &[u64], cap: u32) -> Vec<u32> {
    assert!(!weights.is_empty() || total == 0, "no ASes to assign to");
    if weights.is_empty() {
        return Vec::new();
    }
    assert!(
        u64::from(cap) * weights.len() as u64 >= u64::from(total),
        "population {total} exceeds capacity of {} ASes",
        weights.len()
    );
    let wsum: u128 = weights.iter().map(|&w| u128::from(w)).sum::<u128>().max(1);
    let mut out = vec![0u32; weights.len()];
    let mut rem: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut assigned = 0u32;
    for (i, &w) in weights.iter().enumerate() {
        let share = u128::from(total) * u128::from(w);
        out[i] = (share / wsum) as u32;
        assigned += out[i];
        rem.push((share % wsum, i));
    }
    rem.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut left = total - assigned;
    for &(_, i) in &rem {
        if left == 0 {
            break;
        }
        out[i] += 1;
        left -= 1;
    }
    // Enforce the per-AS cap, pushing overflow onto uncapped ASes in
    // index order.
    let mut extra = 0u32;
    for q in out.iter_mut() {
        if *q > cap {
            extra += *q - cap;
            *q = cap;
        }
    }
    while extra > 0 {
        let before = extra;
        for q in out.iter_mut() {
            if extra == 0 {
                break;
            }
            if *q < cap {
                *q += 1;
                extra -= 1;
            }
        }
        assert!(extra < before, "quota overflow cannot be redistributed");
    }
    out
}

fn sample_member_kind(
    rng: &mut StdRng,
    fritz_household: bool,
    continent: Option<Continent>,
) -> DeviceKind {
    use DeviceKind::*;
    let r: f64 = rng.random();
    // Fritz households may add AVM accessories.
    if fritz_household {
        if r < 0.10 {
            return FritzRepeater;
        }
        if r < 0.12 {
            return FritzPowerline;
        }
    } else if r < 0.001 {
        return CiscoWap150;
    }
    let r: f64 = rng.random();
    let asia = matches!(continent, Some(Continent::Asia));
    if asia {
        // Phone-heavy markets: the bulk of Asian NTP clients are
        // mobile devices with randomised MACs / privacy IIDs, which
        // is why the paper's listed-OUI MACs concentrate on the
        // European collectors (Appendix B, Figure 4).
        return match r {
            x if x < 0.50 => AndroidPhone,
            x if x < 0.64 => IPhone,
            x if x < 0.79 => LaptopPc,
            x if x < 0.82 => SmartTv,
            x if x < 0.83 => EchoSpeaker,
            x if x < 0.86 => QlinkWifi,
            x if x < 0.89 => CastDevice,
            x if x < 0.90 => RaspberryPi,
            x if x < 0.906 => HomeServerDebian,
            x if x < 0.915 => HomeServerUbuntu,
            x if x < 0.928 => HomeMqttBroker,
            x if x < 0.931 => HomeAmqpBroker,
            x if x < 0.933 => EfentoSensor,
            _ => AndroidPhone,
        };
    }
    match r {
        x if x < 0.30 => AndroidPhone,
        x if x < 0.46 => IPhone,
        x if x < 0.64 => LaptopPc,
        x if x < 0.72 => SmartTv,
        x if x < 0.732 => SonosSpeaker,
        x if x < 0.757 => EchoSpeaker,
        x if x < 0.787 => CastDevice,
        x if x < 0.812 => RaspberryPi,
        x if x < 0.824 => HomeServerDebian,
        x if x < 0.842 => HomeServerUbuntu,
        x if x < 0.862 => HomeMqttBroker,
        x if x < 0.867 => HomeAmqpBroker,
        x if x < 0.870 => EfentoSensor,
        x if x < 0.871 => NanoleafLight,
        _ => LaptopPc, // silent filler
    }
}

fn sample_server_kind(rng: &mut StdRng) -> DeviceKind {
    use DeviceKind::*;
    let r: f64 = rng.random();
    match r {
        x if x < 0.20 => NginxServer,
        x if x < 0.34 => ApacheUbuntuServer,
        x if x < 0.48 => DebianServer,
        x if x < 0.51 => FreeBsdServer,
        x if x < 0.56 => PleskServer,
        x if x < 0.66 => HostEuropeVhost,
        x if x < 0.70 => ThreeCxServer,
        x if x < 0.745 => ThreeCxWebclient,
        x if x < 0.79 => DlinkInfra,
        x if x < 0.855 => GponGateway,
        x if x < 0.88 => QlinkWifi, // statically-wired Wi-Fi service nodes
        x if x < 0.905 => SynologyNas,
        x if x < 0.935 => ManagedMqttBroker,
        x if x < 0.952 => ManagedAmqpBroker,
        x if x < 0.97 => ManagedCoapBackend,
        x if x < 0.985 => EfentoCloudSensor,
        _ => NanoleafShowroom,
    }
}

fn sample_static_addressing(kind: DeviceKind, rng: &mut StdRng) -> Addressing {
    if kind == DeviceKind::CoreRouter {
        if rng.random_bool(0.6) {
            Addressing::Zero
        } else {
            Addressing::Structured(rng.random_range(1..=2u64))
        }
    } else {
        let r: f64 = rng.random();
        if r < 0.45 {
            // Operators overwhelmingly number hosts ::1, ::2, ... —
            // the clustering that makes target-generation algorithms
            // productive on server space.
            let iid = if rng.random_bool(0.6) {
                rng.random_range(1..=8u64)
            } else {
                rng.random_range(9..=255u64)
            };
            Addressing::Structured(iid)
        } else if r < 0.62 {
            Addressing::Structured(rng.random_range(0x100..=0xffffu64))
        } else if r < 0.72 {
            Addressing::Zero
        } else {
            Addressing::Privacy {
                regen: Duration::days(3650), // effectively stable
            }
        }
    }
}

/// Weighted pick over `(value, weight)` pairs.
fn weighted_pick<T: Copy>(rng: &mut StdRng, items: &[(T, u64)]) -> T {
    let total: u64 = items.iter().map(|(_, w)| w).sum();
    let mut target = rng.random_range(0..total.max(1));
    for (v, w) in items {
        if target < *w {
            return *v;
        }
        target -= w;
    }
    items.last().expect("non-empty").0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotas_are_exact_and_deterministic() {
        let q = quotas(100, &[1, 1, 1], u32::MAX);
        assert_eq!(q.iter().sum::<u32>(), 100);
        assert_eq!(q, quotas(100, &[1, 1, 1], u32::MAX));
        // Largest remainder favours the heavier entry.
        let q = quotas(10, &[7, 2, 1], u32::MAX);
        assert_eq!(q.iter().sum::<u32>(), 10);
        assert!(q[0] >= 7);
        // Caps redistribute deterministically.
        let q = quotas(10, &[100, 1, 1], 4);
        assert_eq!(q.iter().sum::<u32>(), 10);
        assert!(q.iter().all(|&v| v <= 4));
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn quotas_panic_when_caps_cannot_hold_total() {
        quotas(10, &[1, 1], 4);
    }

    #[test]
    fn pool_inverse_is_correct() {
        let plan = EyeballPlan {
            asn: Asn(64500),
            country: country::DE,
            alloc: "2a00::/32".parse().unwrap(),
            base: 0,
            count: 97,
            space: 391,
            step: 17,
        };
        for epoch in [0u64, 1, 5, 27, 1000] {
            for h in 0..97u32 {
                let slot = plan.slot_at(h, epoch);
                assert_eq!(plan.house_at(slot, epoch), Some(h));
            }
            // Slots outside the space never resolve.
            assert_eq!(plan.house_at(391, epoch), None);
        }
    }

    #[test]
    fn contiguous_ranges_cover_all_households() {
        let cfg = WorldConfig::tiny(3);
        let (layout, _, _) = Layout::build(&cfg);
        let mut covered = 0u32;
        for p in layout.eyeball_plans() {
            assert_eq!(p.base, covered);
            covered += p.count;
        }
        assert_eq!(covered, cfg.households);
        // Every household binary-searches back to its owning plan.
        for h in 0..cfg.households {
            let (p, _) = layout.eyeball_of_house(h);
            assert!(p.base <= h && h < p.base + p.count);
        }
    }

    #[test]
    fn derivation_is_pure() {
        let (layout, _, _) = Layout::build(&WorldConfig::tiny(9));
        for h in [0u32, 7, 100] {
            let a = layout.household_profile(h);
            let b = layout.household_profile(h);
            assert_eq!(a.kinds, b.kinds);
            assert_eq!(a.len, b.len);
        }
        // Member 1 always exists (every household has the CPE plus at
        // least one LAN device).
        let id = DeviceId(1);
        let meta = layout.try_device_meta(id).unwrap();
        assert_eq!(layout.try_device_meta(id), Some(meta));
        let d1 = layout.device_from_meta(meta);
        let d2 = layout.device_from_meta(meta);
        assert_eq!(d1.services, d2.services);
    }
}
