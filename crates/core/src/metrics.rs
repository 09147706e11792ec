//! Study-level metric keys.
//!
//! Stage-*internal* metrics (`ntp_*`, `scan_*`, `telescope_*`,
//! `transport_*`) are recorded by the crates that own them into
//! per-stage registries and stamped with a `stage` label when
//! [`crate::Study::run`] merges them. The keys here are the few metrics
//! that belong to the study itself: the stage spans (simulated time, so
//! deterministic) and the feed, R&L-sample and hitlist counts.

use telemetry::Key;

/// Deterministic: first-sight observations handed from collection to
/// the real-time scanner.
pub const PIPELINE_FEED_OBSERVATIONS: Key = Key::bare("pipeline_feed_observations");
/// Deterministic: addresses in the R&L comparison sample.
pub const RL_SAMPLE_ADDRESSES: Key = Key::bare("rl_sample_addresses");
/// Deterministic: addresses on the full TUM-style hitlist.
pub const HITLIST_ADDRESSES: Key = Key::bare("hitlist_addresses");

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
