//! Hitlist address sources.
//!
//! Each source mirrors one of the acquisition channels the TUM hitlist
//! combines (paper §2.1.1). The artefact channels — DNS names and
//! certificates, reverse-DNS zones, router interfaces — are predicates
//! on a device ([`in_dns`], [`in_rdns`], [`on_traceroute`]), modelled as
//! per-archetype inclusion probabilities that [`crate::Hitlist::build`]
//! evaluates in one walk over the world. The archive and aliased-region
//! samples and the target generator ([`TgaSource`]) see no device.

use netsim::device::{Attachment, DeviceId, DeviceMeta};
use netsim::time::{Duration, SimTime};
use netsim::world::World;
use netsim::{mix2, DeviceKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv6Addr;
use v6addr::entropy::NybbleModel;
use v6addr::{AddrSet, Iid, Prefix};

/// Probability that a device of this kind has a forward-DNS-visible name
/// (A/AAAA record, CT-logged certificate hostname, …).
fn dns_probability(kind: DeviceKind) -> f64 {
    use DeviceKind::*;
    match kind {
        NginxServer | ApacheUbuntuServer | DebianServer | PleskServer | HostEuropeVhost
        | ThreeCxServer | ThreeCxWebclient | SynologyNas => 0.95,
        FreeBsdServer | ManagedMqttBroker | ManagedAmqpBroker | ManagedCoapBackend
        | EfentoCloudSensor | NanoleafShowroom => 0.85,
        // MyFRITZ! dynamic-DNS names land in CT logs / zone files, pulling
        // a small fraction of FRITZ!Boxes into hitlists (Table 3 shows
        // 35 k FRITZ!Box certificates on the hitlist side).
        FritzBox => 0.08,
        HomeServerDebian | HomeServerUbuntu => 0.10,
        RaspberryPi => 0.03,
        _ => 0.0,
    }
}

/// Probability that a device appears in walkable reverse-DNS zones.
fn rdns_probability(kind: DeviceKind) -> f64 {
    use DeviceKind::*;
    match kind {
        GponGateway => 0.7, // ISP-generated rDNS for access gear
        DlinkInfra => 0.75,
        // Statically-wired qlink service nodes appear in provider zones;
        // household qlink devices never do (the Static-attachment filter
        // excludes them) — matching Table 3, where the hitlist finds
        // qlink but no castdevice nodes.
        QlinkWifi => 0.6,
        NginxServer | ApacheUbuntuServer | DebianServer | FreeBsdServer => 0.4,
        CoreRouter => 0.3,
        _ => 0.0,
    }
}

fn stable_coin(world: &World, dev: &DeviceMeta, salt: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    let h = mix2(mix2(world.config.seed ^ salt, u64::from(dev.id.0)), 0x415);
    (h as f64 / u64::MAX as f64) < p
}

/// Forward DNS / certificate transparency: the device has a name that
/// resolves to it. Dynamic-DNS names resolve to the *current* address,
/// which the daily build snapshots.
pub fn in_dns(world: &World, dev: &DeviceMeta) -> bool {
    stable_coin(world, dev, 0xD45, dns_probability(dev.kind))
}

/// Reverse-DNS zone walking (NSEC/NSEC3-style enumeration). It only
/// covers statically numbered space; a household device's PTR (if any)
/// churns with its prefix.
pub fn in_rdns(world: &World, dev: &DeviceMeta) -> bool {
    matches!(dev.attachment, Attachment::Static { .. })
        && stable_coin(world, dev, 0x12d5, rdns_probability(dev.kind))
}

/// Traceroute (CAIDA-style topology probing): core-router interfaces.
pub fn on_traceroute(world: &World, dev: &DeviceMeta) -> bool {
    dev.kind == DeviceKind::CoreRouter && stable_coin(world, dev, 0x7124, 0.9)
}

/// Entropy/IP-style target generation: learn the nybble distribution of
/// seed interface identifiers, then emit candidates into the seeds' /48s —
/// new IIDs in seen /64s and model-sampled IIDs in neighbouring subnets.
///
/// Like its real counterparts, the output is biased toward the seeds'
/// address structure and mostly unresponsive (paper §2.1.1: "the
/// algorithms still tend to remain biased toward their input addresses").
pub struct TgaSource {
    /// Seed addresses to extrapolate from.
    pub seeds: Vec<Ipv6Addr>,
    /// Candidates to generate.
    pub budget: usize,
    /// RNG seed.
    pub seed: u64,
}

impl TgaSource {
    /// Generates candidate addresses (independent of the world — a TGA
    /// only sees its seed list).
    pub fn generate(&self) -> AddrSet {
        let mut out = AddrSet::new();
        if self.seeds.is_empty() || self.budget == 0 {
            return out;
        }
        // Train on seed IIDs.
        let mut model = NybbleModel::new(8);
        for a in &self.seeds {
            model.observe(&Iid::of(*a).bytes());
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut emitted = 0;
        'outer: loop {
            for seed_addr in &self.seeds {
                if emitted >= self.budget {
                    break 'outer;
                }
                let net64 = Prefix::of(*seed_addr, 64);
                let net48 = Prefix::of(*seed_addr, 48);
                match rng.random_range(0..4u8) {
                    // Sequential neighbours in the seed's own /64.
                    0 => {
                        let base = Iid::of(*seed_addr).0;
                        out.insert(
                            net64.host(u128::from(base.wrapping_add(rng.random_range(1..16)))),
                        );
                    }
                    // Model-sampled IID in the seed's /64.
                    1 => {
                        let iid = self.sample_iid(&model, &mut rng);
                        out.insert(net64.host(u128::from(iid)));
                    }
                    // Model-sampled IID in a neighbouring /64 of the /48.
                    2 => {
                        let sub = rng.random_range(0..32u128);
                        let iid = self.sample_iid(&model, &mut rng);
                        out.insert(net48.subnet(64, sub).host(u128::from(iid)));
                    }
                    // Low sequential IIDs in low neighbouring /64s — the
                    // "dense corner" heuristic that makes TGAs productive
                    // on operator-numbered server space.
                    _ => {
                        let sub = rng.random_range(0..8u128);
                        let iid = rng.random_range(1..=8u128);
                        out.insert(net48.subnet(64, sub).host(iid));
                    }
                }
                emitted += 1;
            }
        }
        out
    }

    fn sample_iid(&self, model: &NybbleModel, rng: &mut StdRng) -> u64 {
        let mut v = 0u64;
        for pos in 0..16 {
            let nyb = model.sample(pos, rng.random());
            v = (v << 4) | u64::from(nyb);
        }
        v
    }
}

/// How far back the archive sample reaches.
const ARCHIVE_MAX_AGE: Duration = Duration::days(90);

/// Archive sample: addresses from older DNS snapshots, historical scans
/// and zone files, `per_as` per eyeball AS, up to 90 days old. Eyeball
/// addresses gathered this way are usually *stale* by list-build time
/// `t` (the delegated prefix rotated away), which is why the full
/// hitlist spans nearly every AS (Table 1) while its responsive core
/// stays server-heavy — and why the paper's §6 warns that static lists
/// of end-user addresses "would be outdated almost immediately".
pub fn archive_sample(world: &World, t: SimTime, per_as: usize, out: &mut AddrSet) {
    let households = world.household_count();
    if households == 0 {
        return;
    }
    for (i, _) in world
        .topology
        .ases()
        .iter()
        .enumerate()
        .filter(|(_, a)| a.kind.is_eyeball())
    {
        for k in 0..per_as {
            let h = mix2(world.config.seed ^ 0xa5c1, (i as u64) << 24 | k as u64);
            let member = archive_member(world, households, h);
            // Archive entries are at least a few days stale — fresher
            // data would still be in the live DNS sources, not the
            // archive.
            let min_age = Duration::days(3).as_secs();
            let span = ARCHIVE_MAX_AGE.as_secs().saturating_sub(min_age).max(1);
            let age = min_age + mix2(h, 3) % span;
            let past = SimTime(t.as_secs().saturating_sub(age));
            out.insert(world.address_of(member, past));
        }
    }
}

/// The household member archive draw `h` records. Archives keep what
/// DNS snapshots, scans and zone files once named, so a drawn member of
/// a kind that never has a DNS name (a phone, a cast device) is
/// recorded as its household's CPE, member 0, instead.
fn archive_member(world: &World, households: u32, h: u64) -> DeviceId {
    let members = world.household_members((h % u64::from(households)) as u32);
    let member = members[(mix2(h, 2) % members.len() as u64) as usize];
    let kind = world.meta(member).kind;
    if dns_probability(kind) == 0.0 && !kind.is_cpe() {
        members[0]
    } else {
        member
    }
}

/// Aliased-region sample, `per_region` addresses each: the TUM *full*
/// list retains addresses inside prefixes later flagged as aliased; the
/// study's hitlist scan therefore hits the CDN front-end hundreds of
/// millions of times (§4.2).
pub fn aliased_sample(world: &World, per_region: usize, out: &mut AddrSet) {
    for (i, region) in world.aliased_regions().iter().enumerate() {
        for k in 0..per_region {
            let h = mix2(world.config.seed ^ 0xa11a5, (i as u64) << 32 | k as u64);
            // Spread over /64s with low IIDs, as CDN mappings do.
            let host = (u128::from(h) << 64) | u128::from(h % 7 + 1);
            out.insert(region.prefix.host(host));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::world::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig::tiny(44))
    }

    /// The addresses at time 0 of the devices `channel` names — what the
    /// build's one walk inserts for that channel alone.
    fn named(w: &World, channel: fn(&World, &DeviceMeta) -> bool) -> AddrSet {
        w.metas()
            .filter(|d| channel(w, d))
            .map(|d| w.address_of_meta(&d, SimTime(0)))
            .collect()
    }

    #[test]
    fn dns_source_prefers_servers() {
        let w = world();
        let out = named(&w, in_dns);
        assert!(!out.is_empty());
        let mut servers = 0;
        let mut eyeball = 0;
        for a in out.iter() {
            if let Some(d) = w.device_at(a, SimTime(0)) {
                if d.kind.is_eyeball() {
                    eyeball += 1;
                } else {
                    servers += 1;
                }
            }
        }
        assert!(servers > eyeball, "servers {servers} vs eyeball {eyeball}");
    }

    #[test]
    fn sources_are_deterministic() {
        let w = world();
        for channel in [in_dns, in_rdns, on_traceroute] {
            let a = named(&w, channel);
            let b = named(&w, channel);
            assert!(!a.is_empty());
            assert_eq!(a.sorted(), b.sorted());
        }
        let archive = || {
            let mut out = AddrSet::new();
            archive_sample(&w, SimTime(0), 16, &mut out);
            out.sorted()
        };
        assert_eq!(archive(), archive());
    }

    /// Every member the archive records is a CPE or of a kind that can
    /// have a DNS name, over 2 000 draws in each of sixteen worlds.
    #[test]
    fn archive_records_only_cpes_or_dns_visible_kinds() {
        for seed in 1..=8 {
            for cfg in [WorldConfig::tiny(seed), WorldConfig::small(seed)] {
                let w = World::generate(cfg);
                let households = w.household_count();
                for k in 0..2_000 {
                    let h = mix2(seed ^ 0xa5c1, k);
                    let kind = w.meta(archive_member(&w, households, h)).kind;
                    assert!(
                        kind.is_cpe() || dns_probability(kind) > 0.0,
                        "seed {seed}: archive recorded a {kind:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn traceroute_source_finds_only_routers() {
        let w = world();
        let out = named(&w, on_traceroute);
        assert!(!out.is_empty());
        for a in out.iter() {
            let d = w
                .device_at(a, SimTime(0))
                .expect("router address unresolvable");
            assert_eq!(d.kind, DeviceKind::CoreRouter);
        }
    }

    #[test]
    fn rdns_source_skips_dynamic_hosts() {
        let w = world();
        let out = named(&w, in_rdns);
        assert!(!out.is_empty());
        for a in out.iter() {
            let d = w.device_at(a, SimTime(0)).unwrap();
            assert!(matches!(d.attachment, Attachment::Static { .. }));
        }
    }

    #[test]
    fn tga_generates_biased_candidates() {
        let seeds: Vec<Ipv6Addr> = vec![
            "2600:8000::1".parse().unwrap(),
            "2600:8000::2".parse().unwrap(),
            "2600:8000:0:1::53".parse().unwrap(),
        ];
        let tga = TgaSource {
            seeds: seeds.clone(),
            budget: 500,
            seed: 9,
        };
        let out = tga.generate();
        // The budget counts emissions; low-entropy seeds make many
        // candidates collide, so the distinct set is smaller.
        assert!(out.len() > 80, "only {} candidates", out.len());
        // All candidates stay inside the seeds' /48s (bias property).
        let seed_nets: std::collections::HashSet<Prefix> =
            seeds.iter().map(|a| Prefix::of(*a, 48)).collect();
        for a in out.iter() {
            assert!(seed_nets.contains(&Prefix::of(a, 48)), "{a} outside seeds");
        }
    }

    #[test]
    fn tga_empty_inputs() {
        assert!(TgaSource {
            seeds: vec![],
            budget: 100,
            seed: 1
        }
        .generate()
        .is_empty());
        let seeds = vec!["2001:db8::1".parse().unwrap()];
        assert!(TgaSource {
            seeds,
            budget: 0,
            seed: 1
        }
        .generate()
        .is_empty());
    }

    #[test]
    fn aliased_sample_stays_inside_region() {
        let w = world();
        let mut out = AddrSet::new();
        aliased_sample(&w, 64, &mut out);
        assert_eq!(out.len(), 64);
        let region = &w.aliased_regions()[0];
        for a in out.iter() {
            assert!(region.prefix.contains(a));
        }
    }
}
