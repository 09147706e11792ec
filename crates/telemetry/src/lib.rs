//! # telemetry — deterministic metrics for the study pipeline
//!
//! The paper's headline results *are* operational metrics: per-protocol
//! response rates, NTP client arrival rates, retry and KoD counts, scan
//! timeliness. This crate is the one accounting path every pipeline
//! stage reports through, replacing the ad-hoc per-stage counters that
//! grew alongside the reproduction.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** A [`Snapshot`] taken from the same simulated run
//!    is *byte-identical* regardless of how the run was sliced,
//!    suspended and resumed. Two rules make that hold:
//!    * no metric reads the wall clock — every duration is simulation
//!      time ([`SpanTimer`] takes explicit instants), and anything
//!      scheduling-dependent (memo hit rates, wall-clock profiles) is a
//!      plain value its owner returns, never a registry entry;
//!    * every aggregation is **commutative** (counters add, histograms
//!      add bucket-wise), so [`Registry`] sinks merge to the same
//!      totals in any order.
//! 2. **Lock-cheap.** The hot path ([`Registry::inc`]) is a `HashMap`
//!    bump keyed by a fully-`'static` [`Key`] — no locks, no label
//!    allocation. Each stage owns its registry; merging happens once,
//!    at the end. A value kept outside a registry (the transport's
//!    exchange totals, the collection loop's outcome counts) is plain
//!    data its owner exports in one call.
//! 3. **Static label sets.** Hot-path keys carry
//!    `&'static [("label", "value")]` slices (stage × protocol ×
//!    fault-cause). Owned labels exist only on [`Snapshot`] keys, where
//!    cold-path insertion (e.g. per-actor telescope counts) and the
//!    `stage` label of [`Registry::snapshot_with`] land.
//!
//! A [`RunReport`] bundles run metadata with the snapshot and
//! serializes to a canonical JSON form (sorted keys, integers only)
//! that round-trips through [`Snapshot::from_json`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod key;
pub mod registry;
pub mod report;
pub mod snapshot;

pub use hist::Histogram;
pub use key::{Key, OwnedKey};
pub use registry::{Registry, SpanTimer};
pub use report::RunReport;
pub use snapshot::{Snapshot, Value};
