//! Eager vs. lazy on the one world: the device table a reader would
//! get by enumerating everything up front (`for_each_device`, collected
//! here) must agree with what the world derives per lookup — for
//! sampled coordinates, seeds and times, every observable (archetype,
//! services, addressing, NTP config, addresses, reverse resolution) is
//! identical between the two.
//!
//! The last test pins a case the locate → verify → derive resolution
//! order must get right: the interface identifier is checked on the
//! candidate's meta, so a stale address whose /64 now belongs to
//! another device resolves to nothing. The closed port is pinned in
//! `proptests::respond_is_total`.

use netsim::device::{Attachment, Device, DeviceId};
use netsim::time::{Duration, SimTime};
use netsim::world::{World, WorldConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv6Addr;
use std::sync::OnceLock;
use v6addr::Prefix;

/// A world and its eagerly enumerated device table. Each seed's is
/// built once and shared by every case; the world keeps no state
/// between lookups, so the order of cases does not matter.
fn tiny(seed: u64) -> &'static (World, Vec<Device>) {
    static TINY: [OnceLock<(World, Vec<Device>)>; 8] = [const { OnceLock::new() }; 8];
    TINY[seed as usize].get_or_init(|| {
        let world = World::generate(WorldConfig::tiny(seed));
        let mut table = Vec::new();
        world.for_each_device(|d| table.push(d.clone()));
        assert!(
            table.windows(2).all(|w| w[0].id < w[1].id),
            "ids not ascending"
        );
        (world, table)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `device_at(address_of(id, t), t)` round-trips for every
    /// enumerated device.
    #[test]
    fn addresses_round_trip(seed in 0u64..8, t in 0u64..90_000_000, pick in any::<u16>()) {
        let (world, table) = tiny(seed);
        let t = SimTime(t);
        let dev = &table[pick as usize % table.len()];
        let addr = world.address_of(dev.id, t);
        prop_assert_eq!(addr, world.address_of_meta(&dev.meta(), t));
        let found = world.device_at(addr, t);
        prop_assert!(found.is_some(), "{addr} unresolvable at {t}");
        prop_assert_eq!(found.unwrap().id, dev.id);
    }

    /// `meta(id)` and `device(id)` equal the enumerated device:
    /// archetype, AS, country, addressing mode, NTP config and the full
    /// derived service stack.
    #[test]
    fn lookups_equal_the_enumerated_device(seed in 0u64..8, pick in any::<u16>()) {
        let (world, table) = tiny(seed);
        let dev = &table[pick as usize % table.len()];
        prop_assert_eq!(dev.meta(), world.meta(dev.id));
        let derived = world.device(dev.id);
        prop_assert_eq!(dev.meta(), derived.meta());
        prop_assert_eq!(&dev.services, &derived.services);
    }

    /// `household_members` equals the enumeration's grouping.
    #[test]
    fn households_equal_the_enumerations_grouping(seed in 0u64..8, pick in any::<u16>()) {
        let (world, table) = tiny(seed);
        let mut grouped: BTreeMap<u32, Vec<DeviceId>> = BTreeMap::new();
        for dev in table {
            if let Attachment::Household { household, .. } = dev.attachment {
                grouped.entry(household).or_default().push(dev.id);
            }
        }
        prop_assert_eq!(grouped.len() as u32, world.household_count());
        let h = u32::from(pick) % world.household_count();
        prop_assert_eq!(&world.household_members(h), &grouped[&h]);
    }

    /// Arbitrary (mostly unassigned) and near-live addresses resolve iff
    /// the enumeration holds a device with that address at `t`.
    #[test]
    fn resolution_agrees_on_arbitrary_addresses(seed in 0u64..8, t in 0u64..90_000_000,
                                                bits in any::<u128>(), pick in any::<u16>()) {
        let (world, table) = tiny(seed);
        let t = SimTime(t);
        // Bias toward routed space: graft random bits onto a real
        // device's address so some probes land near live hosts — a
        // neighbouring IID, and a neighbouring /64 of the same /48
        // (member slots the household fills, does not fill, and ≥ 8).
        let dev = &table[pick as usize % table.len()];
        let base = u128::from(world.address_of(dev.id, t));
        let sub64 = 0xffff_u128 << 64;
        for addr in [
            Ipv6Addr::from(bits),
            Ipv6Addr::from((base & !0xffff_ffff) | (bits & 0xffff_ffff)),
            Ipv6Addr::from((base & !sub64) | ((bits & 0xf) << 64)),
        ] {
            let holder = table.iter().find(|d| world.address_of_meta(&d.meta(), t) == addr);
            let found = world.device_at(addr, t).map(|d| d.id);
            prop_assert_eq!(found, holder.map(|d| d.id), "divergence at {}", addr);
        }
    }
}

/// After a rotation, the /64 a household device held may belong to a
/// neighbour household. Even with the neighbour just resolved at its own
/// address, the stale address must resolve to nothing: the interface
/// identifier is verified on the candidate's meta.
#[test]
fn a_stale_address_does_not_resolve_to_the_cached_neighbour() {
    let (world, table) = tiny(3);
    let t0 = SimTime(1_000);
    let t1 = t0 + Duration::days(1);
    let now_in: HashMap<Prefix, &Device> = table
        .iter()
        .map(|d| (world.net64_of(&d.meta(), t1), d))
        .collect();
    let mut checked = 0;
    for dev in table {
        if !matches!(dev.attachment, Attachment::Household { .. }) {
            continue;
        }
        let stale = world.address_of(dev.id, t0);
        let Some(neighbour) = now_in.get(&Prefix::of(stale, 64)) else {
            continue;
        };
        assert_ne!(neighbour.id, dev.id, "prefix did not rotate");
        let live = world.address_of(neighbour.id, t1);
        // The neighbour holds the /64 at its own address.
        assert_eq!(world.device_at(live, t1).map(|d| d.id), Some(neighbour.id));
        assert!(
            world.device_at(stale, t1).is_none(),
            "{stale} resolved to {:?}",
            neighbour.id
        );
        checked += 1;
    }
    assert!(checked > 0, "no rotated slot landed on a neighbour");
}
