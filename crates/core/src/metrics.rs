//! Study-level metric keys.
//!
//! Stage-*internal* metrics (`ntp_*`, `scan_*`, `telescope_*`,
//! `transport_*`) are recorded by the crates that own them into
//! per-stage registries and stamped with a `stage` label when
//! [`crate::Study::run`] merges them. The keys here are the few metrics
//! that belong to the study itself: the stage spans (simulated time, so
//! deterministic), the deterministic feed count, and the
//! derived-memoization counters.

use telemetry::Key;

/// Deterministic: first-sight observations handed from collection to
/// the real-time scanner.
pub const PIPELINE_FEED_OBSERVATIONS: Key = Key::bare("pipeline_feed_observations");
/// Deterministic: addresses in the R&L comparison sample.
pub const RL_SAMPLE_ADDRESSES: Key = Key::bare("rl_sample_addresses");
/// Deterministic: addresses on the full TUM-style hitlist.
pub const HITLIST_ADDRESSES: Key = Key::bare("hitlist_addresses");

/// Volatile: derived-analysis memoization cells served from cache.
pub const DERIVED_MEMO_HITS: Key = Key::bare("derived_memo_hits");
/// Volatile: derived-analysis memoization cells actually built.
pub const DERIVED_MEMO_MISSES: Key = Key::bare("derived_memo_misses");
/// Volatile: compact-set cells pre-populated from an external cache
/// instead of being rebuilt (see [`crate::derived::DerivedCells`]).
pub const DERIVED_MEMO_SEEDED: Key = Key::bare("derived_memo_seeded");
/// Volatile: compact-set builds of a kind already built in a previous
/// life of the study — rebuild work the memo layer failed to avoid.
pub const DERIVED_MEMO_REBUILDS: Key = Key::bare("derived_memo_rebuilds");

const STAGE_RL: [(&str, &str); 1] = [("stage", "rl")];
const STAGE_COLLECTION: [(&str, &str); 1] = [("stage", "collection")];
const STAGE_HITLIST: [(&str, &str); 1] = [("stage", "hitlist_scan")];
const STAGE_TELESCOPE: [(&str, &str); 1] = [("stage", "telescope")];

/// Simulated span of the R&L emulation window.
pub const SPAN_RL: Key = Key::new("stage_span_seconds", &STAGE_RL);
/// Simulated span of the collection window.
pub const SPAN_COLLECTION: Key = Key::new("stage_span_seconds", &STAGE_COLLECTION);
/// Simulated span from hitlist build to the end of the study window.
pub const SPAN_HITLIST: Key = Key::new("stage_span_seconds", &STAGE_HITLIST);
/// Simulated span of the telescope's query sweep.
pub const SPAN_TELESCOPE: Key = Key::new("stage_span_seconds", &STAGE_TELESCOPE);
