//! # scanner — the zgrab2-style application-layer scanner
//!
//! Reproduces the scanning half of the study (paper §4.1): eight
//! protocol probers (HTTP, HTTPS, SSH, MQTT, MQTTS, AMQP, AMQPS, CoAP)
//! built on the [`wire`] formats, a token-bucket rate limiter capped at
//! the study's 100 000 packets/second, per-protocol probe delays and a
//! 3-day re-scan cooldown (Appendix A.2.1), one probing [`Engine`] the
//! real-time scan drives with the NTP collector's first-sight feed, and a
//! batch mode for hitlist scans ([`BatchScan`]).
//!
//! Everything operates in simulation time against a [`netsim::World`];
//! probe and response bytes are the same the production scanner would put
//! on the wire.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod metrics;
pub mod probers;
pub mod ratelimit;
pub mod result;
pub mod scheduler;
pub mod store;

pub use engine::{Engine, RetryPolicy, ScanPolicy};
pub use result::{CertMeta, FailureCause, ProbeOutcome, Protocol, ScanRecord, ServiceResult};
pub use scheduler::BatchScan;
pub use store::ScanStore;
