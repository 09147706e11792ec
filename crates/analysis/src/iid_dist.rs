//! Figure 1: address structure (IID classes) and AS-type shares.

use v6addr::IidDistribution;

/// The Figure 1 data for one dataset, read off its
/// [`SetProfile`](crate::set_profile::SetProfile) by
/// [`SetProfile::structure`](crate::set_profile::SetProfile::structure).
#[derive(Debug, Clone, PartialEq)]
pub struct AddressStructure {
    /// IID class distribution.
    pub iid: IidDistribution,
    /// Share of addresses whose origin AS is labelled Cable/DSL/ISP.
    pub eyeball_as_share: f64,
    /// Addresses counted.
    pub total: u64,
}
