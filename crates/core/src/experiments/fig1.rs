//! Figure 1: proportion of addresses grouped by IID class and by
//! Cable/DSL/ISP AS label.

use crate::report::{fmt_pct, TextTable};
use crate::{Derived, SetKind};
use analysis::iid_dist::AddressStructure;
use v6addr::IidClass;

/// Computed Figure 1 data: one structure per dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1 {
    /// Our NTP-sourced addresses.
    pub ours: AddressStructure,
    /// R&L emulation.
    pub rl: AddressStructure,
    /// Public hitlist.
    pub public: AddressStructure,
    /// Full hitlist.
    pub full: AddressStructure,
}

/// Computes Figure 1 from the four memoized set profiles.
pub fn compute(study: &Derived) -> Fig1 {
    let over = |kind| study.set_profile(kind).structure();
    Fig1 {
        ours: over(SetKind::Ours),
        rl: over(SetKind::Rl),
        public: over(SetKind::HitlistPublic),
        full: over(SetKind::HitlistFull),
    }
}

/// Renders Figure 1 as a share table.
pub fn render(study: &Derived) -> String {
    let f = compute(study);
    let mut out = TextTable::new(vec![
        "Figure 1",
        "Our Data",
        "R&L (emul.)",
        "TUM public",
        "TUM full",
    ]);
    for class in IidClass::ALL {
        out.row(vec![
            class.label().to_string(),
            fmt_pct(f.ours.iid.share(class)),
            fmt_pct(f.rl.iid.share(class)),
            fmt_pct(f.public.iid.share(class)),
            fmt_pct(f.full.iid.share(class)),
        ]);
    }
    out.row(vec![
        "structured total".to_string(),
        fmt_pct(f.ours.iid.structured_share()),
        fmt_pct(f.rl.iid.structured_share()),
        fmt_pct(f.public.iid.structured_share()),
        fmt_pct(f.full.iid.structured_share()),
    ]);
    out.row(vec![
        "AS label Cable/DSL/ISP".to_string(),
        fmt_pct(f.ours.eyeball_as_share),
        fmt_pct(f.rl.eyeball_as_share),
        fmt_pct(f.public.eyeball_as_share),
        fmt_pct(f.full.eyeball_as_share),
    ]);
    format!(
        "== Figure 1: address proportions by IID class and AS type ==\n{}",
        out.render()
    )
}
