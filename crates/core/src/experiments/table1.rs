//! Table 1: number of distinct IPs/networks per dataset, overlaps with
//! our NTP-sourced set, and density medians.

use crate::report::{fmt_int, TextTable};
use crate::{Derived, SetKind};
use analysis::overlap::{DatasetStats, OverlapStats};

/// The computed table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Our NTP-sourced dataset.
    pub ours: DatasetStats,
    /// The R&L emulation dataset.
    pub rl: DatasetStats,
    /// The hitlist's public (responsive) variant.
    pub public: DatasetStats,
    /// The hitlist's full variant.
    pub full: DatasetStats,
    /// Our overlap with R&L.
    pub overlap_rl: OverlapStats,
    /// Our overlap with the public hitlist.
    pub overlap_public: OverlapStats,
    /// Our overlap with the full hitlist.
    pub overlap_full: OverlapStats,
}

/// Computes Table 1 from the four memoized set profiles; the sets
/// themselves are decoded only for the three shared-address counts.
pub fn compute(study: &Derived) -> Table1 {
    let profile = |kind| study.set_profile(kind);
    let ours = profile(SetKind::Ours);
    let overlap = |kind| {
        let shared = study
            .compact_set(SetKind::Ours)
            .overlap_count(study.compact_set(kind));
        ours.overlap(profile(kind), shared as u64)
    };
    Table1 {
        ours: ours.stats("Our Data"),
        rl: profile(SetKind::Rl).stats("Rye and Levin (emulated)"),
        public: profile(SetKind::HitlistPublic).stats("TUM public"),
        full: profile(SetKind::HitlistFull).stats("TUM full"),
        overlap_rl: overlap(SetKind::Rl),
        overlap_public: overlap(SetKind::HitlistPublic),
        overlap_full: overlap(SetKind::HitlistFull),
    }
}

/// Renders Table 1.
pub fn render(study: &Derived) -> String {
    let t = compute(study);
    let mut out = TextTable::new(vec![
        "Table 1",
        "Our Data",
        "R&L (emul.)",
        "TUM public",
        "TUM full",
    ]);
    let row = |f: &dyn Fn(&DatasetStats) -> String| -> Vec<String> {
        vec![f(&t.ours), f(&t.rl), f(&t.public), f(&t.full)]
    };
    let mut cells = vec!["IP addresses".to_string()];
    cells.extend(row(&|d| fmt_int(d.addresses)));
    out.row(cells);
    out.row(vec![
        "... overlap w/ ours".to_string(),
        "-".to_string(),
        fmt_int(t.overlap_rl.addresses),
        fmt_int(t.overlap_public.addresses),
        fmt_int(t.overlap_full.addresses),
    ]);
    let mut cells = vec!["/48 networks".to_string()];
    cells.extend(row(&|d| fmt_int(d.nets48)));
    out.row(cells);
    out.row(vec![
        "... overlap w/ ours".to_string(),
        "-".to_string(),
        fmt_int(t.overlap_rl.nets48),
        fmt_int(t.overlap_public.nets48),
        fmt_int(t.overlap_full.nets48),
    ]);
    let mut cells = vec!["ASes".to_string()];
    cells.extend(row(&|d| fmt_int(d.ases)));
    out.row(cells);
    out.row(vec![
        "... overlap w/ ours".to_string(),
        "-".to_string(),
        fmt_int(t.overlap_rl.ases),
        fmt_int(t.overlap_public.ases),
        fmt_int(t.overlap_full.ases),
    ]);
    let mut cells = vec!["median IPs in /48s".to_string()];
    cells.extend(row(&|d| format!("{:.1}", d.median_per_48)));
    out.row(cells);
    let mut cells = vec!["median IPs in ASes".to_string()];
    cells.extend(row(&|d| format!("{:.1}", d.median_per_as)));
    out.row(cells);
    format!(
        "== Table 1: distinct IPs/networks per dataset ==\n{}",
        out.render()
    )
}
