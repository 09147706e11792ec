//! Service-level metric keys.
//!
//! All of these land in the registry's **deterministic** bank: given
//! the same submissions, service configuration, and query sequence, the
//! scheduler admits, advances, evicts, and serves identically, so the
//! counters are reproducible and belong in the service's canonical
//! [`telemetry::RunReport`].

use telemetry::Key;

/// Studies admitted into an active session (first activation only).
pub const SERVICE_ADMISSIONS: Key = Key::bare("service_admissions");
/// Evicted studies re-admitted from their on-disk checkpoint.
pub const SERVICE_RESUMES: Key = Key::bare("service_resumes");
/// Active sessions suspended to disk by the resident-bytes budget.
pub const SERVICE_EVICTIONS: Key = Key::bare("service_evictions");
/// Summed [`timetoscan::StudySession::resident_bytes`] of eviction
/// victims at the moment they were suspended — the budget pressure the
/// cost-aware (bytes × remaining-window) policy relieved.
pub const SERVICE_EVICTED_BYTES: Key = Key::bare("service_evicted_bytes");
/// Studies run to completion (report extracted, sets frozen).
pub const SERVICE_COMPLETIONS: Key = Key::bare("service_completions");
/// Cooperative slices executed across all sessions.
pub const SERVICE_SLICES: Key = Key::bare("service_slices");
/// World snapshots generated (one per distinct [`netsim::world::WorldConfig`]).
pub const SERVICE_WORLD_BUILDS: Key = Key::bare("service_world_builds");
/// Admissions that shared an already-resident world snapshot.
pub const SERVICE_WORLD_SHARES: Key = Key::bare("service_world_shares");
/// Query API calls (reports, sets, overlaps): the sum of the hits and
/// misses below.
pub const SERVICE_QUERIES: Key = Key::bare("service_queries");
/// Queries answered from a resident cache (report table, memoized
/// overlap, or a resident segment).
pub const SERVICE_CACHE_HITS: Key = Key::bare("service_cache_hits");
/// Queries that had to read a segment, compute an overlap, or came up
/// empty.
pub const SERVICE_CACHE_MISSES: Key = Key::bare("service_cache_misses");
