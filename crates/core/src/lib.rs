//! # timetoscan — study orchestration
//!
//! The top of the workspace: wires the simulated world, the NTP Pool
//! collection, the real-time and hitlist scans, and the telescope into
//! one reproducible [`Study`], and regenerates every table and figure of
//!
//! > *Time To Scan: Digging into NTP-based IPv6 Scanning* (IMC '25).
//!
//! ```no_run
//! use timetoscan::{Study, StudyConfig};
//!
//! let study = Study::run(StudyConfig::tiny(42));
//! let derived = study.derived();
//! println!("{}", timetoscan::experiments::table1::render(&derived));
//! println!("{}", timetoscan::experiments::security::render(&derived));
//! ```
//!
//! The pipeline is staged: collector → first-sight feed → real-time
//! scanner → the [`derived`] memoization layer → experiments. Every
//! experiment lives in [`experiments`], one module per paper artefact,
//! each with a `compute(&Derived) -> …` returning typed rows and a
//! `render(&Derived) -> String` producing the table as text; [`Derived`]
//! derefs to [`Study`] and computes shared artifacts (title clusters,
//! SSH host parses, fingerprint indexes, network groupings) exactly
//! once per study.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod derived;
pub mod experiments;
pub mod metrics;
pub mod report;
pub mod session;
pub mod study;

pub use actors::ActorRoster;
pub use checkpoint::CheckpointData;
pub use config::StudyConfig;
pub use derived::{Derived, DerivedCells, DerivedStats, SetKind, Source};
pub use netsim::transport::FaultProfile;
pub use session::StudySession;
pub use store::StoreError;
pub use study::{Study, StudyDigest};
