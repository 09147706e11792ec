//! Everyone who scans the telescope, and both analyses of what it
//! captured.
//!
//! The source paper (§5) identified two NTP-sourcing scanners — one
//! research group announcing itself (15 pool servers, 1011 ports,
//! reacts within the hour, scans for ~10 minutes), one covert
//! cloud-hosted actor (anonymous, remote-access/database ports,
//! multi-day spread, partial port coverage) — from a single telescope's
//! capture. This crate holds that pair and generalises the finding into
//! an *ecosystem*: a roster of scanner archetypes, each a campaign — a
//! pure function of its inputs that returns every probe it sends — run
//! by [`ecosystem::run`]. Two analyses read the capture: the paper's own
//! scan → query matcher ([`match_captures`]), and the one the paper
//! hints at but could not run — *attribution*. Given only the capture
//! (no ground truth), the [`attribute`] pass clusters probe sources,
//! fingerprints each cluster (port-set width, IID fan-out, revisit
//! ratio, vantage overlap, BGP-announce correlation), names the
//! archetype behind it, and scores itself against the emitting
//! archetypes via a confusion matrix.
//!
//! | module | contents |
//! |---|---|
//! | [`roster`] | [`ActorRoster`] bit set picking the active archetypes |
//! | [`actor`] | [`Actor`] and the paper's pair, [`gt_actor`] and [`covert_actor`] |
//! | [`archetypes`] | the four campaigns (sourcing pair, prefix walker, hitlist reuse, BGP watcher) |
//! | [`ecosystem`] | [`ecosystem::run`] over a roster and its [`EcosystemOutcome`] |
//! | [`matching`] | the §5 matcher: [`match_captures`] → [`TelescopeReport`] |
//! | [`attribution`] | blind [`attribute`] pass producing an [`AttributionTable`] |
//!
//! Every probe is a pure function of the campaign's inputs — no
//! wall-clock, no global RNG — so an ecosystem run is bit-identical
//! however the collection before it was sliced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod archetypes;
pub mod attribution;
pub mod ecosystem;
pub mod matching;
pub mod roster;

pub use actor::{covert_actor, gt_actor, Actor, ActorId, ActorProfile};
pub use archetypes::{org_directory, ECO_TICK};
pub use attribution::{attribute, AttributionTable, ClusterReport, BGP_CORRELATION_WINDOW};
pub use ecosystem::{sourced_intel, EcosystemOutcome};
pub use matching::{match_captures, ActorCharacter, ActorReport, TelescopeReport};
pub use roster::{ActorRoster, FLAG_LABELS};
