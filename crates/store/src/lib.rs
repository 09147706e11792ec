//! Compact address-archive subsystem.
//!
//! The paper's collection phase accumulates billions of client sightings
//! over four weeks (§4.1) — a scale where a `HashSet<u128>` per dataset
//! is the binding constraint on memory and where a crash late in the
//! window loses everything. This crate provides the storage layer the
//! long-horizon paths sit on:
//!
//! * [`CompactSet`] — an immutable, sorted set of IPv6 addresses encoded
//!   as ≈256-address delta blocks (raw 16-byte first address + LEB128
//!   varint deltas) behind a fence-pointer index. Supports `contains`,
//!   ordered iteration, and streaming set algebra (union / difference /
//!   overlap counting) without materializing hash sets.
//! * [`Archive`] — an LSM-lite mutable set: a `HashSet` memtable that
//!   spills into frozen [`CompactSet`] segments with deterministic
//!   compaction, plus a canonical little-endian on-disk segment format
//!   ([`segment`]) with magic, version, and FNV-1a checksums.
//! * [`codec`] — the byte writer/reader + varint + FNV primitives the
//!   segment format and the study checkpoint file share, with typed
//!   [`StoreError`]s (truncation and corruption never panic).
//! * [`bloom`] — per-segment bloom filters backing the archive's
//!   lookup prune (no false negatives; deterministic contents).
//! * [`shared`] — a content-addressed [`SegmentPool`] where sealed
//!   segments from completed collections are opened once and shared
//!   behind `Arc`s across every study that references them.
//!
//! Everything here is deterministic: the observable state of an
//! [`Archive`] (membership, length, iteration order) is a pure function
//! of the inserted addresses, independent of when memtables froze or
//! segments compacted.

#![forbid(unsafe_code)]

pub mod archive;
pub mod bloom;
pub mod codec;
pub mod compact;
pub mod error;
pub mod segment;
pub mod shared;

pub use archive::{Archive, BloomStats};
pub use bloom::Bloom;
pub use compact::{CompactSet, BLOCK_CAP};
pub use error::StoreError;
pub use shared::{PoolStats, SegmentId, SegmentPool};
