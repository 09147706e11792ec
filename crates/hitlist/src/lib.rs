//! # hitlist — a TUM-style IPv6 hitlist over the simulated world
//!
//! The study's comparison baseline (paper §2.1, §3.1) is the TUM IPv6
//! Hitlist: a daily-updated list assembled from DNS-centric sources,
//! traceroute data and target-generation algorithms, with aliased-prefix
//! detection, published in a *full* variant and a responsiveness-filtered
//! *public* variant. This crate rebuilds that pipeline against
//! [`netsim::World`]:
//!
//! * [`sources`] — forward DNS / CT logs, reverse-DNS zone walking and
//!   traceroute as predicates on a device, the archive and aliased-region
//!   samples, and an Entropy/IP-style target-generation algorithm
//!   ([`sources::TgaSource`]) extrapolating new candidates from seeds;
//! * [`apd`] — aliased-prefix detection by multi-address probing;
//! * [`build`] — assembly into [`Hitlist`] (full + public + aliased
//!   prefixes): one walk over the world's devices inserts every address
//!   an artefact predicate names, then the archive sample, target
//!   generation, detection and the aliased sample follow.
//!
//! The bias the paper measures — hitlists overrepresent servers and
//! infrastructure, underrepresent eyeball devices — emerges here for the
//! same structural reason as in reality: every source needs a *stable,
//! name-connected* artefact (DNS record, certificate, router interface),
//! which end-user devices with daily-rotating prefixes do not provide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apd;
pub mod build;
pub mod sources;

pub use build::{Hitlist, HitlistConfig};
