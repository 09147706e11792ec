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
//!      time (a stage span is the difference of two instants the caller
//!      passes to [`Registry::observe`]), and anything
//!      scheduling-dependent (memo hit rates, wall-clock profiles) is a
//!      plain value its owner returns, never a registry entry;
//!    * every aggregation is **commutative** (counters add, histograms
//!      add bucket-wise), so [`Registry`] sinks merge to the same
//!      totals in any order.
//! 2. **Plain tallies, one export.** No stage writes a registry per
//!    event: the collection loop, the transport and the scanner count
//!    into plain fields (`RunStats`, `TransportTotals`, `ScanStore`) and
//!    export them once, at the stage's end. A [`Registry`] is therefore
//!    one ordered map, the same [`Snapshot`] a report serializes.
//! 3. **Static keys where they are known.** A stage declares its fixed
//!    metrics as `const` [`Key`]s; dynamic labels (per-actor telescope
//!    counts, per-protocol scan counts) are [`OwnedKey`]s, and the
//!    `stage` label lands through [`Registry::snapshot_with`].
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
pub use registry::Registry;
pub use report::RunReport;
pub use snapshot::{Snapshot, Value};
