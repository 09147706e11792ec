//! Ground-truth statistics over a generated world — what actually exists,
//! independent of what any measurement observes. Used by examples, tests
//! and for sanity-checking calibration against the paper's populations.

use crate::archetype::DeviceKind;
use crate::peeringdb::AsType;
use crate::world::World;
use std::collections::BTreeMap;

/// Ground-truth summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldStats {
    /// Devices per archetype.
    pub devices_by_kind: BTreeMap<DeviceKind, u64>,
    /// ASes per PeeringDB type.
    pub ases_by_type: BTreeMap<AsType, u64>,
    /// Households.
    pub households: u64,
    /// Devices running a pool NTP client.
    pub pool_clients: u64,
    /// Devices with at least one reachable service.
    pub reachable_devices: u64,
}

impl WorldStats {
    /// Computes the summary.
    pub fn of(world: &World) -> WorldStats {
        let mut devices_by_kind: BTreeMap<DeviceKind, u64> = BTreeMap::new();
        let mut pool_clients = 0;
        let mut reachable = 0;
        world.for_each_device(|d| {
            *devices_by_kind.entry(d.kind).or_insert(0) += 1;
            if d.ntp.is_some() {
                pool_clients += 1;
            }
            if [80u16, 443, 22, 1883, 8883, 5672, 5671, 5683]
                .iter()
                .any(|p| d.services.listens_on(*p))
            {
                reachable += 1;
            }
        });
        let mut ases_by_type: BTreeMap<AsType, u64> = BTreeMap::new();
        for a in world.topology.ases() {
            *ases_by_type.entry(a.kind).or_insert(0) += 1;
        }
        WorldStats {
            devices_by_kind,
            ases_by_type,
            households: u64::from(world.household_count()),
            pool_clients,
            reachable_devices: reachable,
        }
    }

    /// Total devices.
    pub fn total_devices(&self) -> u64 {
        self.devices_by_kind.values().sum()
    }

    /// Count for one archetype.
    pub fn count(&self, kind: DeviceKind) -> u64 {
        self.devices_by_kind.get(&kind).copied().unwrap_or(0)
    }

    /// Renders a readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "world: {} devices in {} households; {} pool clients; {} reachable\n",
            self.total_devices(),
            self.households,
            self.pool_clients,
            self.reachable_devices
        );
        for (kind, n) in &self.devices_by_kind {
            out.push_str(&format!("  {:28} {}\n", kind.name(), n));
        }
        for (t, n) in &self.ases_by_type {
            out.push_str(&format!("  AS type {:20} {}\n", t.label(), n));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    #[test]
    fn stats_are_consistent() {
        let w = World::generate(WorldConfig::tiny(13));
        let s = WorldStats::of(&w);
        assert_eq!(s.total_devices(), w.device_count());
        assert_eq!(s.households, u64::from(w.household_count()));
        assert!(s.pool_clients > 0);
        assert!(s.pool_clients <= s.total_devices());
        assert!(s.reachable_devices < s.total_devices());
        // Every configured eyeball AS type appears.
        assert!(s.ases_by_type[&crate::peeringdb::AsType::CableDslIsp] > 0);
        assert!(s.count(crate::archetype::DeviceKind::FritzBox) > 0);
        let text = s.render();
        assert!(text.contains("households"));
        assert!(text.contains("AVM FRITZ!Box"));
    }
}
