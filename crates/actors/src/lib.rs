//! Adversarial scanner ecosystem: per-tick actor state machines and
//! telescope attribution.
//!
//! The source paper (§5) identified two NTP-sourcing scanners — one
//! research group announcing itself, one covert cloud-hosted actor —
//! from a single telescope's capture. This crate generalises that
//! finding into an *ecosystem*: a roster of scanner archetypes, each a
//! deterministic per-tick state machine
//! ([`Sourcing → Dwell → Sweep → Cooldown`](Phase)), driven on a shared
//! simulated clock, plus the analysis the paper hints at but could not
//! run — *attribution*. Given only the capture (no ground truth), the
//! [`attribute`] pass clusters probe sources, fingerprints each cluster
//! (port-set width, IID fan-out, revisit ratio, vantage overlap,
//! BGP-announce correlation), names the archetype behind it, and scores
//! itself against the emitting machines via a confusion matrix.
//!
//! | module | contents |
//! |---|---|
//! | [`roster`] | [`ActorRoster`] bit set picking the active archetypes |
//! | [`machine`] | the [`Machine`] trait, [`Phase`], [`TickCtx`] |
//! | [`archetypes`] | the four machine families (sourcing pair, prefix walker, hitlist reuse, BGP watcher) |
//! | [`ecosystem`] | the [`Ecosystem`] tick driver and its [`EcosystemOutcome`] |
//! | [`attribution`] | blind [`attribute`] pass producing an [`AttributionTable`] |
//!
//! Every emission is a pure function of construction inputs and the
//! tick clock — no wall-clock, no global RNG — so an ecosystem run is
//! bit-identical at any service worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archetypes;
pub mod attribution;
pub mod ecosystem;
pub mod machine;
pub mod roster;

pub use archetypes::{
    org_directory, BgpAdaptiveMachine, HitlistReuseMachine, PrefixWalkMachine, SourcingMachine,
};
pub use attribution::{attribute, AttributionTable, ClusterReport, BGP_CORRELATION_WINDOW};
pub use ecosystem::{sourced_intel, Ecosystem, EcosystemOutcome, ECO_TICK};
pub use machine::{Machine, Phase, TickCtx};
pub use roster::{ActorRoster, FLAG_LABELS};
