//! Synthetic PeeringDB: AS → network-type labels.
//!
//! Figure 1 of the paper compares the share of addresses whose origin AS
//! is labelled `Cable/DSL/ISP` in the PeeringDB — the "eyeball network"
//! signal. This module defines the label vocabulary and a lookup view
//! over the topology; the labels themselves are assigned at world
//! generation, mirroring how real ASes self-describe in the PeeringDB.

use std::fmt;

/// PeeringDB `info_type` values used by the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AsType {
    /// Cable/DSL/ISP — end-user "eyeball" access networks.
    CableDslIsp,
    /// NSP — transit/backbone carriers.
    Nsp,
    /// Content — CDNs, hyperscalers, hosting-adjacent content delivery.
    Content,
    /// Enterprise networks.
    Enterprise,
    /// Educational / research networks.
    Educational,
    /// Cloud / hosting providers.
    Hosting,
    /// Not present in the PeeringDB.
    Unlisted,
}

impl AsType {
    /// The PeeringDB label string.
    pub fn label(&self) -> &'static str {
        match self {
            AsType::CableDslIsp => "Cable/DSL/ISP",
            AsType::Nsp => "NSP",
            AsType::Content => "Content",
            AsType::Enterprise => "Enterprise",
            AsType::Educational => "Educational/Research",
            AsType::Hosting => "Cloud/Hosting",
            AsType::Unlisted => "(unlisted)",
        }
    }

    /// Is this the eyeball-network label of Figure 1?
    pub fn is_eyeball(&self) -> bool {
        matches!(self, AsType::CableDslIsp)
    }
}

impl fmt::Display for AsType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The interned organisation directory: every org name the simulation
/// attributes traffic to, in a fixed order. An [`OrgId`] is an index
/// into this table, so joins on organisations (telescope attribution,
/// scan-source clustering) compare two bytes instead of strings.
const ORG_NAMES: &[&str] = &[
    "Georgia Institute of Technology",
    "Amazon",
    "Linode",
    "Hetzner",
    "OVH",
    "DigitalOcean",
];

/// Interned organisation identifier — an index into the static org
/// directory shared by `netsim` and the telescope attribution layer.
/// Comparing two `OrgId`s is an integer compare; the display name is
/// recovered with [`OrgId::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OrgId(pub u16);

impl OrgId {
    /// Georgia Institute of Technology (the paper's identified scanner).
    pub const GEORGIA_TECH: OrgId = OrgId(0);
    /// Amazon (covert-scanner cloud source).
    pub const AMAZON: OrgId = OrgId(1);
    /// Linode (covert-scanner cloud source).
    pub const LINODE: OrgId = OrgId(2);
    /// Hetzner (prefix-walking actor source).
    pub const HETZNER: OrgId = OrgId(3);
    /// OVH (BGP-adaptive actor source).
    pub const OVH: OrgId = OrgId(4);
    /// DigitalOcean (hitlist-reuse actor source).
    pub const DIGITAL_OCEAN: OrgId = OrgId(5);

    /// Number of interned organisations.
    pub const COUNT: usize = ORG_NAMES.len();

    /// The organisation's display name.
    pub fn name(self) -> &'static str {
        ORG_NAMES
            .get(usize::from(self.0))
            .copied()
            .unwrap_or("(unknown org)")
    }

    /// Looks an organisation up by display name.
    pub fn lookup(name: &str) -> Option<OrgId> {
        ORG_NAMES
            .iter()
            .position(|&n| n == name)
            .map(|i| OrgId(i as u16))
    }
}

impl fmt::Display for OrgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn org_ids_round_trip_through_the_directory() {
        assert_eq!(OrgId::AMAZON.name(), "Amazon");
        assert_eq!(OrgId::lookup("Amazon"), Some(OrgId::AMAZON));
        assert_eq!(OrgId::lookup("Nonexistent Org"), None);
        for i in 0..OrgId::COUNT as u16 {
            let org = OrgId(i);
            assert_eq!(OrgId::lookup(org.name()), Some(org));
        }
        assert_eq!(OrgId(999).name(), "(unknown org)");
        assert_eq!(OrgId::GEORGIA_TECH.to_string(), ORG_NAMES[0]);
    }

    #[test]
    fn labels_and_eyeball_flag() {
        assert_eq!(AsType::CableDslIsp.label(), "Cable/DSL/ISP");
        assert!(AsType::CableDslIsp.is_eyeball());
        assert!(!AsType::Hosting.is_eyeball());
        assert!(!AsType::Unlisted.is_eyeball());
        assert_eq!(AsType::Hosting.to_string(), "Cloud/Hosting");
    }
}
