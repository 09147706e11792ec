//! # ntppool — the NTP Pool model and address collection
//!
//! Reproduces the collection half of the study (paper §3):
//!
//! * [`pool`] — the pool registry: servers per country zone with operator
//!   netspeed weights, and the client → server mapping (country zone
//!   first, then continent, then global — after Moura et al., ref \[38\]).
//! * [`server`] — pool servers, including *collecting* servers that log
//!   every client address from parsed RFC 5905 mode-3 packets and the
//!   study's 11 deployment locations.
//! * [`collector`] — per-server and global address stores with first-sight
//!   feed (what the real-time scanner consumes) and per-server counters
//!   (Table 7).
//! * [`monitor`] — the netspeed-tuning loop: raise the operator weight
//!   until the request rate approaches the scanning budget (§3.1).
//! * [`run`] — the event-driven collection simulation: every NTP client in
//!   the world polls the pool on its schedule; packets are built and
//!   parsed with [`wire::ntp`]; collecting servers record what they see.
//!   One resumable step (`begin` → `advance` → `finish`) drives it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod metrics;
pub mod monitor;
pub mod pool;
pub mod run;
pub mod server;

pub use collector::{AddressCollector, Observation};
pub use pool::{Pool, ServerId};
pub use run::{
    next_poll, poll_once, CollectionCheckpoint, CollectionRun, PollOutcome, PollReply, RunStats,
};
pub use server::{Operator, PoolServer};
