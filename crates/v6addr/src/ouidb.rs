//! OUI → manufacturer registry (a synthetic stand-in for the IEEE MA-L
//! assignment database, paper reference \[9\]).
//!
//! The real study resolves the OUIs of EUI-64-embedded MACs against the
//! IEEE registry to rank device manufacturers (Table 4). We ship a compact
//! registry covering every vendor the paper names plus filler entries, with
//! stable *synthetic* OUI values — the analysis only needs a consistent
//! join between the simulated world's device vendors and this registry, not
//! the real 35k-entry database.

use crate::mac::Oui;
use std::collections::HashMap;

/// One registry entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OuiEntry {
    /// The assigned OUI.
    pub oui: Oui,
    /// Organisation name as it appears in the registry.
    pub organisation: String,
}

/// An OUI registry with vendor lookup.
#[derive(Debug, Clone, Default)]
pub struct OuiDb {
    by_oui: HashMap<Oui, String>,
}

/// Vendors used by the built-in registry, in the order of the paper's
/// Table 4 (plus vendors needed elsewhere in the study). Each tuple is
/// `(organisation, assigned synthetic OUIs)`.
///
/// AVM appears twice because the IEEE registry lists both the long-form
/// legal name and the newer "AVM GmbH" entity, and the paper reports them
/// as separate rows.
pub const BUILTIN_VENDORS: &[(&str, &[u32])] = &[
    (
        "AVM Audiovisuelles Marketing und Computersysteme GmbH",
        &[0x3CA62F, 0xC80E14, 0x2C3AFD, 0x989BCB, 0xE0286D],
    ),
    ("Amazon Technologies Inc.", &[0x0C47C9, 0x44650D, 0xF0D2F1]),
    ("AVM GmbH", &[0x98DED0, 0x5C4979]),
    (
        "Samsung Electronics Co.,Ltd",
        &[0x8C7712, 0xA02195, 0xE8E5D6],
    ),
    ("Sonos, Inc.", &[0x000E58, 0x347E5C]),
    ("vivo Mobile Communication Co., Ltd.", &[0x50A009, 0x9CE063]),
    ("Shenzhen Ogemray Technology Co.,Ltd", &[0x90A8A2]),
    ("China Dragon Technology Limited", &[0xB4430D]),
    (
        "GUANGDONG OPPO MOBILE TELECOMMUNICATIONS CORP.,LTD",
        &[0x1C77F6, 0x94652D],
    ),
    ("Shenzhen iComm Semiconductor CO.,LTD", &[0x98F428]),
    ("Qingdao Haier Multimedia Limited.", &[0xB0A37E]),
    ("QING DAO HAIER TELECOM CO.,LTD.", &[0x28FAA0]),
    ("Hui Zhou Gaoshengda Technology Co.,LTD", &[0x88D7F6]),
    (
        "Fiberhome Telecommunication Technologies Co.,LTD",
        &[0x48F97C],
    ),
    ("Tenda Technology Co.,Ltd.Dongguan branch", &[0xC83A35]),
    ("Beijing Xiaomi Electronics Co.,Ltd", &[0x7C1DD9, 0x64B473]),
    ("Earda Technologies co Ltd", &[0x08EA40]),
    ("Guangzhou Shiyuan Electronics Co., Ltd.", &[0x08E67E]),
    (
        "Shenzhen Cultraview Digital Technology Co., Ltd",
        &[0x1C6E4C],
    ),
    // Vendors needed by other parts of the study (device archetypes).
    ("Raspberry Pi Trading Ltd", &[0xB827EB, 0xDCA632, 0xE45F01]),
    ("D-Link International", &[0x1C7EE5, 0x14D64D]),
    ("Cisco Systems, Inc", &[0x00562B, 0x4C710C]),
    ("Intel Corporate", &[0x606720, 0x8C8CAA]),
    ("Apple, Inc.", &[0xF0B479, 0x3C2EF9]),
    ("HUAWEI TECHNOLOGIES CO.,LTD", &[0x00E0FC, 0x48DB50]),
    ("TP-LINK TECHNOLOGIES CO.,LTD.", &[0x50C7BF, 0xA42BB0]),
    ("zte corporation", &[0x8C68C8]),
    ("Espressif Inc.", &[0x2462AB, 0x3C6105]),
    ("Nanoleaf", &[0x00554F]),
    ("Ubiquiti Inc", &[0x245A4C]),
];

impl OuiDb {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The built-in registry with every vendor the study references.
    pub fn builtin() -> Self {
        let mut db = Self::new();
        for (org, ouis) in BUILTIN_VENDORS {
            for &o in *ouis {
                db.insert(Oui::from_u32(o), org);
            }
        }
        db
    }

    /// Registers (or replaces) an assignment.
    pub fn insert(&mut self, oui: Oui, organisation: &str) {
        self.by_oui.insert(oui, organisation.to_string());
    }

    /// Organisation for an OUI, if listed.
    pub fn lookup(&self, oui: Oui) -> Option<&str> {
        self.by_oui.get(&oui).map(|s| s.as_str())
    }

    /// Is the OUI listed at all?
    pub fn is_listed(&self, oui: Oui) -> bool {
        self.by_oui.contains_key(&oui)
    }

    /// Number of assignments.
    pub fn len(&self) -> usize {
        self.by_oui.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.by_oui.is_empty()
    }

    /// All OUIs assigned to an organisation (exact name match), sorted.
    pub fn ouis_of(&self, organisation: &str) -> Vec<Oui> {
        let mut v: Vec<Oui> = self
            .by_oui
            .iter()
            .filter(|(_, org)| org.as_str() == organisation)
            .map(|(o, _)| *o)
            .collect();
        v.sort();
        v
    }

    /// Iterates all entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Oui, &str)> + '_ {
        self.by_oui.iter().map(|(o, s)| (*o, s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_covers_paper_vendors() {
        let db = OuiDb::builtin();
        for (org, _) in BUILTIN_VENDORS {
            assert!(
                !db.ouis_of(org).is_empty(),
                "vendor {org} missing from builtin registry"
            );
        }
        // All paper Table 4 named vendors present.
        for needle in [
            "AVM GmbH",
            "Sonos, Inc.",
            "Raspberry Pi Trading Ltd",
            "Shenzhen Ogemray Technology Co.,Ltd",
        ] {
            assert!(db.iter().any(|(_, org)| org == needle));
        }
    }

    #[test]
    fn no_duplicate_oui_assignments_in_builtin() {
        let total: usize = BUILTIN_VENDORS.iter().map(|(_, o)| o.len()).sum();
        assert_eq!(
            OuiDb::builtin().len(),
            total,
            "duplicate OUI in BUILTIN_VENDORS"
        );
    }

    #[test]
    fn lookup_and_listed() {
        let db = OuiDb::builtin();
        let avm = Oui::from_u32(0x3CA62F);
        assert_eq!(
            db.lookup(avm),
            Some("AVM Audiovisuelles Marketing und Computersysteme GmbH")
        );
        assert!(db.is_listed(avm));
        assert!(!db.is_listed(Oui::from_u32(0xDEAD01)));
        assert_eq!(db.lookup(Oui::from_u32(0xDEAD01)), None);
    }

    #[test]
    fn insert_replaces() {
        let mut db = OuiDb::new();
        assert!(db.is_empty());
        let o = Oui::from_u32(0x112233);
        db.insert(o, "First");
        db.insert(o, "Second");
        assert_eq!(db.lookup(o), Some("Second"));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn ouis_of_sorted() {
        let db = OuiDb::builtin();
        let ouis = db.ouis_of("AVM Audiovisuelles Marketing und Computersysteme GmbH");
        assert_eq!(ouis.len(), 5);
        assert!(ouis.windows(2).all(|w| w[0] < w[1]));
    }
}
