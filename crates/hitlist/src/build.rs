//! Hitlist assembly: sources → full list → APD → public (responsive)
//! list.

use crate::apd;
use crate::sources::{aliased_sample, archive_sample, in_dns, in_rdns, on_traceroute, TgaSource};
use netsim::time::SimTime;
use netsim::world::World;
use std::net::Ipv6Addr;
use store::CompactSet;
use v6addr::{AddrSet, Prefix};

/// Hitlist build configuration.
#[derive(Debug, Clone)]
pub struct HitlistConfig {
    /// TGA candidate budget (dominates the unresponsive tail of the full
    /// list, as in the real TUM list).
    pub tga_budget: usize,
    /// Aliased addresses retained per detected region (full list only).
    pub aliased_per_region: usize,
    /// Archived (mostly stale) addresses per eyeball AS.
    pub archive_per_as: usize,
    /// TGA RNG seed.
    pub seed: u64,
}

impl HitlistConfig {
    /// Sizes proportionate to a world preset: the TGA tail and aliased
    /// sample scale with the responsive core.
    pub fn for_world(world: &World) -> HitlistConfig {
        let servers = world.config.servers as usize;
        HitlistConfig {
            tga_budget: servers * 8,
            aliased_per_region: servers * 20,
            archive_per_as: (world.config.households as usize
                / world.config.eyeball_ases.max(1) as usize)
                .clamp(10, 400),
            seed: world.config.seed ^ 0x417,
        }
    }
}

/// The assembled hitlist.
#[derive(Debug, Clone)]
pub struct Hitlist {
    /// Every address any source produced (the scanned variant, §4.1).
    pub full: AddrSet,
    /// Responsive, non-aliased addresses (the "public" variant).
    pub public: AddrSet,
    /// Prefixes flagged by aliased-prefix detection.
    pub aliased_prefixes: Vec<Prefix>,
    /// When the list was built.
    pub built_at: SimTime,
}

impl Hitlist {
    /// Builds the hitlist against the world as of `t`.
    pub fn build(world: &World, t: SimTime, cfg: &HitlistConfig) -> Hitlist {
        // 1. One walk over the world for the artefact channels (a device
        //    any of DNS/CT, rDNS or traceroute names enters at its
        //    address as of `t`), then the archive sample.
        let mut full = AddrSet::new();
        for dev in world.metas() {
            if in_dns(world, &dev) || in_rdns(world, &dev) || on_traceroute(world, &dev) {
                full.insert(world.address_of_meta(&dev, t));
            }
        }
        archive_sample(world, t, cfg.archive_per_as, &mut full);

        // 2. Target generation from the seeds found so far.
        let seeds: Vec<Ipv6Addr> = full.sorted();
        let tga = TgaSource {
            seeds,
            budget: cfg.tga_budget,
            seed: cfg.seed,
        };
        full.extend_from(&tga.generate());

        // 3. Aliased-prefix detection over candidate /48s with suspicious
        //    density, plus the routed space of content ASes. The /48
        //    bases fall out of one run-length pass over the compacted
        //    list, already sorted and deduplicated.
        let compact = CompactSet::from(&full);
        let mut cand: Vec<Prefix> = compact
            .masked_counts(48)
            .map(|(base, _)| Prefix::new(Ipv6Addr::from(base), 48))
            .collect();
        for info in world.topology.ases() {
            for alloc in &info.allocations {
                cand.push(alloc.subnet(48, 0));
            }
        }
        cand.sort();
        cand.dedup();
        let aliased48 = apd::detect(world, &cand, t);
        // Collapse detected /48s back to their covering allocations where
        // the whole allocation is aliased (one representative suffices
        // here: the generator aliases whole regions).
        let mut aliased_prefixes: Vec<Prefix> = world
            .aliased_regions()
            .iter()
            .map(|r| r.prefix)
            .filter(|p| aliased48.iter().any(|c| p.covers(c) || c.covers(p)))
            .collect();
        if aliased_prefixes.is_empty() {
            aliased_prefixes = aliased48;
        }

        // 4. The full list keeps a sample inside aliased space (as the
        //    study's scanned variant did).
        aliased_sample(world, cfg.aliased_per_region, &mut full);

        // 5. Public list: responsive and outside aliased prefixes.
        let mut public = AddrSet::new();
        for addr in full.iter() {
            if aliased_prefixes.iter().any(|p| p.contains(addr)) {
                continue;
            }
            if let Some(dev) = world.device_at(addr, t) {
                let responsive = [80u16, 443, 22, 1883, 8883, 5672, 5671, 5683]
                    .iter()
                    .any(|p| dev.services.listens_on(*p));
                if responsive {
                    public.insert(addr);
                }
            }
        }

        Hitlist {
            full,
            public,
            aliased_prefixes,
            built_at: t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::world::{World, WorldConfig};
    use netsim::DeviceKind;

    fn build() -> (World, Hitlist) {
        let w = World::generate(WorldConfig::tiny(66));
        let cfg = HitlistConfig::for_world(&w);
        let h = Hitlist::build(&w, SimTime(0), &cfg);
        (w, h)
    }

    #[test]
    fn full_is_superset_shaped() {
        let (_, h) = build();
        assert!(
            h.full.len() > h.public.len() * 3,
            "full {} public {}",
            h.full.len(),
            h.public.len()
        );
        assert!(!h.public.is_empty());
    }

    #[test]
    fn public_excludes_aliased_space() {
        let (w, h) = build();
        assert!(!h.aliased_prefixes.is_empty());
        let region = w.aliased_regions()[0].prefix;
        assert!(h.aliased_prefixes.contains(&region));
        for addr in h.public.iter() {
            assert!(!region.contains(addr), "{addr} is aliased but public");
        }
        // The full list on the other hand does sample aliased space.
        let sampled = h.full.iter().filter(|a| region.contains(*a)).count();
        assert!(sampled > 0);
    }

    #[test]
    fn public_addresses_all_respond() {
        let (w, h) = build();
        for addr in h.public.iter() {
            let dev = w.device_at(addr, h.built_at).expect("public addr resolves");
            assert!([80u16, 443, 22, 1883, 8883, 5672, 5671, 5683]
                .iter()
                .any(|p| dev.services.listens_on(*p)));
        }
    }

    #[test]
    fn hitlist_is_server_heavy() {
        let (w, h) = build();
        let mut eyeball = 0;
        let mut rest = 0;
        for addr in h.public.iter() {
            match w.device_at(addr, h.built_at) {
                Some(d) if d.kind.is_eyeball() => eyeball += 1,
                Some(_) => rest += 1,
                None => {}
            }
        }
        assert!(rest > eyeball, "servers {rest} vs eyeball {eyeball}");
    }

    #[test]
    fn hitlist_contains_some_fritzboxes() {
        // The MyFRITZ-dyndns channel pulls a few CPEs in (Table 3). Needs
        // the small world: a tiny one has only ~9 FritzBoxes at 8 % DNS
        // probability.
        let w = World::generate(WorldConfig::small(66));
        let cfg = HitlistConfig::for_world(&w);
        let h = Hitlist::build(&w, SimTime(0), &cfg);
        let fritz = h
            .full
            .iter()
            .filter(|a| {
                w.device_at(*a, h.built_at)
                    .is_some_and(|d| d.kind == DeviceKind::FritzBox)
            })
            .count();
        assert!(fritz > 0);
    }

    #[test]
    fn deterministic_build() {
        let w = World::generate(WorldConfig::tiny(66));
        let cfg = HitlistConfig::for_world(&w);
        let a = Hitlist::build(&w, SimTime(0), &cfg);
        let b = Hitlist::build(&w, SimTime(0), &cfg);
        assert_eq!(a.full.len(), b.full.len());
        assert!(a.full.iter().all(|x| b.full.contains(x)));
        assert_eq!(a.public.len(), b.public.len());
    }
}
