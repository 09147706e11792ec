//! Property-based tests over the simulated world's address plan.

use netsim::device::{Attachment, DeviceId, DeviceMeta};
use netsim::time::SimTime;
use netsim::world::{World, WorldConfig};
use proptest::prelude::*;
use v6addr::Prefix;

fn world_for(seed: u64) -> World {
    World::generate(WorldConfig::tiny(seed % 8))
}

fn pick_device(w: &World, pick: u16) -> DeviceMeta {
    let metas: Vec<DeviceMeta> = w.metas().collect();
    metas[pick as usize % metas.len()]
}

fn pick_household(w: &World, pick: u16) -> Vec<DeviceId> {
    w.household_members(u32::from(pick) % w.household_count())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every device's address resolves back to exactly that device at the
    /// same instant — for arbitrary seeds and times.
    #[test]
    fn address_resolution_roundtrip(seed in 0u64..8, t in 0u64..3_000_000, pick in any::<u16>()) {
        let w = world_for(seed);
        let t = SimTime(t);
        let dev = pick_device(&w, pick);
        let addr = w.address_of(dev.id, t);
        let found = w.device_at(addr, t);
        prop_assert!(found.is_some(), "{addr} unresolvable at {t}");
        prop_assert_eq!(found.unwrap().id, dev.id);
    }

    /// Addresses stay inside the owning AS's allocation at all times.
    #[test]
    fn addresses_stay_in_as_allocation(seed in 0u64..8, t in 0u64..3_000_000, pick in any::<u16>()) {
        let w = world_for(seed);
        let t = SimTime(t);
        let dev = pick_device(&w, pick);
        let addr = w.address_of(dev.id, t);
        prop_assert_eq!(w.topology.origin(addr), Some(dev.asn));
    }

    /// Household members always share their /48 at any single instant,
    /// and the CPE occupies /64 index 0.
    #[test]
    fn household_members_cohabit(seed in 0u64..8, t in 0u64..3_000_000, pick in any::<u16>()) {
        let w = world_for(seed);
        let t = SimTime(t);
        let members = pick_household(&w, pick);
        let net48: Vec<Prefix> = members
            .iter()
            .map(|&m| Prefix::of(w.address_of(m, t), 48))
            .collect();
        prop_assert!(net48.windows(2).all(|w| w[0] == w[1]));
        let cpe = w.device(members[0]);
        prop_assert!(cpe.kind.is_cpe());
        match cpe.attachment {
            Attachment::Household { member, .. } => prop_assert_eq!(member, 0),
            _ => prop_assert!(false, "CPE not household-attached"),
        }
    }

    /// Static devices never move.
    #[test]
    fn static_devices_are_immobile(seed in 0u64..8, t1 in 0u64..3_000_000, t2 in 0u64..3_000_000) {
        let w = world_for(seed);
        for dev in w.metas().filter(|d| matches!(d.attachment, Attachment::Static { .. })).take(20) {
            prop_assert_eq!(
                w.address_of(dev.id, SimTime(t1)),
                w.address_of(dev.id, SimTime(t2))
            );
        }
    }

    /// Dynamic prefixes move across rotation epochs: a household device's
    /// /48 differs between distinct epochs (pool stride is never zero).
    #[test]
    fn dynamic_prefixes_rotate(seed in 0u64..8, pick in any::<u16>()) {
        let w = world_for(seed);
        let cpe = pick_household(&w, pick)[0];
        let day = w.config.rotation.as_secs();
        let a = Prefix::of(w.address_of(cpe, SimTime(0)), 48);
        let b = Prefix::of(w.address_of(cpe, SimTime(day + 1)), 48);
        prop_assert_ne!(a, b);
    }

    /// The probe dispatcher is silent for closed ports regardless of
    /// payload — of a device already in the cache too, which this one is
    /// — and total (never panics) on arbitrary bytes.
    #[test]
    fn respond_is_total(seed in 0u64..8, t in 0u64..1_000_000, port in any::<u16>(),
                        payload in proptest::collection::vec(any::<u8>(), 0..64), pick in any::<u16>()) {
        let w = world_for(seed);
        let dev = w.device(pick_device(&w, pick).id);
        let addr = w.address_of(dev.id, SimTime(t));
        let resp = w.respond(addr, port, &payload, SimTime(t));
        prop_assert!(std::sync::Arc::ptr_eq(&dev, &w.device(dev.id)), "not cached");
        if !dev.services.listens_on(port) {
            prop_assert!(resp.is_none());
        }
    }
}
