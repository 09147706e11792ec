//! Static metric keys for the collection path.
//!
//! The five poll-outcome counters are, deliberately, a one-to-one image
//! of the [`crate::run::RunStats`] fields: the run's `RunStats` tally is
//! exported to these counters once, at the end of the run, so the two
//! can never disagree.

use telemetry::{Key, OwnedKey};

/// Deterministic: client polls simulated.
pub const NTP_POLLS: Key = Key::bare("ntp_polls");
/// Deterministic: polls answered by a pool server with time.
pub const NTP_RESPONSES: Key = Key::bare("ntp_responses");
/// Deterministic: polls that reached a collecting server (client
/// arrivals — the feed's raw material).
pub const NTP_OBSERVED: Key = Key::bare("ntp_observed");
/// Deterministic: polls answered with a `RATE` Kiss-o'-Death (each one
/// triggers a client backoff).
pub const NTP_KOD: Key = Key::bare("ntp_kod");
/// Deterministic: polls with no usable reply at the client.
pub const NTP_LOST: Key = Key::bare("ntp_lost");
/// Deterministic: distinct client addresses collected across servers.
pub const NTP_DISTINCT_ADDRESSES: Key = Key::bare("ntp_distinct_addresses");
/// Deterministic histogram: simulated seconds of extra delay KoD'd
/// clients wait beyond their normal poll interval.
pub const NTP_KOD_BACKOFF_SECONDS: Key = Key::bare("ntp_kod_backoff_seconds");

/// Dynamic counter key: raw requests one collecting server received.
pub fn server_requests(server: u32) -> OwnedKey {
    OwnedKey::with_labels("ntp_server_requests", &[("server", &server.to_string())])
}

/// Dynamic counter key: distinct client addresses one collecting server
/// logged.
pub fn server_distinct(server: u32) -> OwnedKey {
    OwnedKey::with_labels("ntp_server_distinct", &[("server", &server.to_string())])
}
