//! Dataset comparison (paper Table 1): distinct counts, overlaps and
//! density medians across address sets.
//!
//! These are the row types only. Every number in them except the shared
//! address count is read off two [`SetProfile`]s — the per-/48 and
//! per-AS group-bys one decode pass over each dataset leaves behind —
//! by [`SetProfile::stats`] and [`SetProfile::overlap`]; shared
//! addresses are one `CompactSet::overlap_count` per pair.
//!
//! [`SetProfile`]: crate::set_profile::SetProfile
//! [`SetProfile::stats`]: crate::set_profile::SetProfile::stats
//! [`SetProfile::overlap`]: crate::set_profile::SetProfile::overlap

/// One dataset column of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Dataset label.
    pub label: String,
    /// Distinct addresses.
    pub addresses: u64,
    /// Distinct /48 networks.
    pub nets48: u64,
    /// Distinct origin ASes.
    pub ases: u64,
    /// Median addresses per /48.
    pub median_per_48: f64,
    /// Median addresses per AS.
    pub median_per_as: f64,
}

/// Overlap of one dataset against a reference (the paper's "⋯ overlap"
/// rows, reference = "Our Data").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapStats {
    /// Shared addresses.
    pub addresses: u64,
    /// Shared /48s.
    pub nets48: u64,
    /// Shared origin ASes.
    pub ases: u64,
}
