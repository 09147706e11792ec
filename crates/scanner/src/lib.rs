//! # scanner — the zgrab2-style application-layer scanner
//!
//! Reproduces the scanning half of the study (paper §4.1): eight
//! protocol probers (HTTP, HTTPS, SSH, MQTT, MQTTS, AMQP, AMQPS, CoAP)
//! built on the [`wire`] formats, a per-second admission ledger capped at
//! the study's 100 000 packets/second, per-protocol probe delays
//! (Appendix A.2.1), one probing [`Engine`] the real-time scan drives
//! with the NTP collector's first-sight feed, and a batch mode for
//! hitlist scans ([`BatchScan`]). The engine probes every target it is
//! handed: the feed and the hitlist hold each address once, so the
//! paper's 3-day re-scan cooldown has nothing to skip and is not kept.
//!
//! Everything operates in simulation time against a [`netsim::World`];
//! probe and response bytes are the same the production scanner would put
//! on the wire.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod probers;
mod ratelimit;
pub mod result;
pub mod scheduler;
pub mod store;

pub use engine::{Engine, RetryPolicy, ScanPolicy};
pub use result::{CertMeta, FailureCause, ProbeOutcome, Protocol, ScanRecord, ServiceResult};
pub use scheduler::BatchScan;
pub use store::ScanStore;
