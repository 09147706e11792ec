//! What a study is: the [`Study`] a finished run leaves behind, the
//! deterministic setup every run rebuilds from its config (pool,
//! transport, window), and the report and digest read off the result.
//!
//! There is one driver, [`StudySession`]: it opens on the collection
//! window, advances it in any slicing, and [`StudySession::finish`]
//! runs NTP scan → hitlist → telescope/actors. [`Study::run`] is a
//! session run straight to the end; [`Study::checkpoint`] is one
//! advanced part way and written to disk (see [`crate::checkpoint`]);
//! [`Study::resume`] reads it back and finishes it, producing a
//! [`Study::run_report`] **byte-identical** to an uninterrupted run's
//! (enforced by `tests/checkpoint_resume.rs`).

use crate::checkpoint;
use crate::config::StudyConfig;
use crate::session::StudySession;
use actors::{covert_actor, gt_actor, sourced_intel, Actor, AttributionTable, TelescopeReport};
use hitlist::{Hitlist, HitlistConfig};
use netsim::country::{Country, COLLECTOR_LOCATIONS};
use netsim::mix2;
use netsim::time::{Duration, SimTime};
use netsim::transport::Transport;
use netsim::world::World;
use ntppool::monitor::{tune_collecting_servers, TuneOutcome};
use ntppool::{AddressCollector, Observation, Operator, Pool, PoolServer, RunStats, ServerId};
use scanner::ScanStore;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use store::codec::{fnv1a, fnv1a_extend};
use store::StoreError;
use telemetry::{RunReport, Snapshot};
use telescope::Vantage;
use v6addr::{AddrSet, OuiDb};

/// Gap between the R&L emulation window and the study window (the real
/// gap was ≈ 2 years).
const RL_GAP: Duration = Duration::days(550);

/// Domain separator deriving the transport fault seed from the world
/// seed, so fault draws never correlate with world generation.
const FAULT_SEED_DOMAIN: u64 = 0x7472_616e_7370_6f72; // "transpor"

/// Everything one study run produces. All downstream experiments read
/// from this structure.
pub struct Study {
    /// Configuration.
    pub config: StudyConfig,
    /// The simulated Internet. Behind an `Arc` so many concurrent
    /// studies served over one resident world share a single copy
    /// (see [`Study::run_shared`] and the `service` crate); standalone
    /// runs hold the only reference and nothing changes for them.
    pub world: Arc<World>,
    /// The pool, post-tuning, including actor servers.
    pub pool: Pool,
    /// The 11 collecting servers with their locations.
    pub study_servers: Vec<(ServerId, Country)>,
    /// Collected client addresses (study servers only).
    pub collector: AddressCollector,
    /// First-sight feed, in observation order.
    pub feed: Vec<Observation>,
    /// The Rye & Levin comparison set.
    pub rl_set: AddrSet,
    /// The TUM-style hitlist.
    pub hitlist: Hitlist,
    /// Results of the real-time NTP-fed scan.
    pub ntp_scan: ScanStore,
    /// Results of the hitlist scan (full list).
    pub hitlist_scan: ScanStore,
    /// Telescope findings (when enabled).
    pub telescope: Option<TelescopeReport>,
    /// Blind attribution of the telescope capture: per-cluster
    /// fingerprints, archetype verdicts, and the ground-truth confusion
    /// matrix (when the telescope is enabled).
    pub attribution: Option<AttributionTable>,
    /// Collection run statistics.
    pub run_stats: RunStats,
    /// Netspeed tuning outcomes.
    pub tuning: Vec<TuneOutcome>,
    /// OUI registry used by the vendor analyses.
    pub oui_db: OuiDb,
    /// Telemetry from the whole run: every stage's metrics, stamped with
    /// a `stage` label; bit-identical for equal configs. This is what
    /// [`Study::run_report`] serializes.
    pub telemetry: Snapshot,
    /// The study's derived-artifact memo cells — shared by every
    /// [`Study::derived`] view, seedable by a serving layer (see
    /// [`crate::derived::DerivedCells`]).
    pub derived_cells: Arc<crate::derived::DerivedCells>,
}

/// FNV-1a digests of everything deterministic a finished study prints
/// (see [`Study::digest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StudyDigest {
    /// The canonical [`RunReport`] JSON followed by
    /// [`crate::experiments::render_all`] — the definition the repo
    /// benchmark prints as `sim_digest`.
    pub combined: u64,
    /// The run report JSON alone.
    pub report: u64,
    /// The rendered tables alone.
    pub tables: u64,
}

/// Domain separator for the stale-hitlist sample.
const STALE_HITLIST_DOMAIN: u64 = 0x7374_616c; // "stal"

/// Cap on the stale public-hitlist snapshot's size.
const STALE_HITLIST_CAP: usize = 256;

/// The stale public-hitlist snapshot the hitlist-reuse archetype
/// replays: a deterministic sample of the *public* hitlist as it stood
/// at collection start, plus every vantage address the actor-operated
/// pool servers sourced — the leak that makes the reuse campaign
/// visible to the telescope at all.
pub(crate) fn stale_hitlist(
    world: &World,
    pool: &Pool,
    vantages: &[Vantage],
    t: SimTime,
) -> Vec<std::net::Ipv6Addr> {
    let snapshot = Hitlist::build(world, t, &HitlistConfig::for_world(world));
    let mut sample = snapshot.public.sorted();
    sample.sort_by_key(|a| {
        let bits = u128::from(*a);
        mix2(STALE_HITLIST_DOMAIN, (bits >> 64) as u64 ^ bits as u64)
    });
    sample.truncate(STALE_HITLIST_CAP);
    sample.extend(sourced_intel(pool, vantages).into_iter().map(|(a, _)| a));
    sample.sort_unstable();
    sample.dedup();
    sample
}

/// The transport the config's fault profile builds, seeded from the
/// world seed through a domain separator.
pub(crate) fn build_transport(config: &StudyConfig) -> Box<dyn Transport> {
    config
        .fault
        .build(netsim::mix2(config.world.seed, FAULT_SEED_DOMAIN))
}

/// Everything [`build_pool`] materializes.
pub(crate) struct PoolSetup {
    /// The pool, post-tuning, including actor servers.
    pub(crate) pool: Pool,
    /// Our collecting servers with their countries.
    pub(crate) study_servers: Vec<(ServerId, Country)>,
    /// Their netspeed tuning outcomes.
    pub(crate) tuning: Vec<TuneOutcome>,
    /// The third-party actors.
    pub(crate) actors: Vec<Actor>,
}

/// Builds the pool a study collects over: background servers, the 11
/// collecting servers at [`COLLECTOR_LOCATIONS`], netspeed tuning, and
/// (when the telescope is enabled) the third-party actor servers.
/// Deterministic in `(config, world)` — a resumed or shared-world run
/// rebuilds the identical pool.
pub(crate) fn build_pool(config: &StudyConfig, world: &World) -> PoolSetup {
    // --- Pool setup: background + our 11 servers, then tuning. ---
    let mut pool = Pool::with_background();
    let mut study_servers = Vec::new();
    for (i, c) in COLLECTOR_LOCATIONS.iter().enumerate() {
        let id = pool.add(PoolServer {
            operator: Operator::Study {
                location_index: i as u8,
            },
            ..PoolServer::background(*c)
        });
        study_servers.push((id, *c));
    }
    let tuning = tune_collecting_servers(&mut pool, world, config.target_rps);

    // --- Third-party actors join the pool after our tuning. ---
    let mut actors = Vec::new();
    if config.telescope {
        let mut gt = gt_actor();
        gt.register(&mut pool);
        let mut covert = covert_actor();
        covert.register(&mut pool);
        actors.push(gt);
        actors.push(covert);
    }
    PoolSetup {
        pool,
        study_servers,
        tuning,
        actors,
    }
}

impl Study {
    /// Runs the full pipeline. Deterministic in the config.
    pub fn run(config: StudyConfig) -> Study {
        let world = Arc::new(World::generate(config.world.clone()));
        Study::run_shared(config, world)
    }

    /// [`Study::run`] over a pre-generated shared world snapshot: the
    /// study holds the `Arc` instead of generating its own copy. The
    /// snapshot must come from `World::generate(config.world.clone())`
    /// (asserted against the snapshot's embedded config). Generation is
    /// deterministic, so results are bit-identical to a standalone
    /// [`Study::run`]; only the memory accounting differs.
    pub fn run_shared(config: StudyConfig, world: Arc<World>) -> Study {
        StudySession::new(config, world).finish()
    }

    /// Runs collection until `at` past the study start, then persists a
    /// checkpoint to `dir/study.ckpt` and returns its path. The rest of
    /// the pipeline does *not* run — [`Study::resume`] finishes it.
    /// A [`StudySession`] advanced once and suspended: the file is the
    /// same state a service eviction writes.
    pub fn checkpoint(
        config: StudyConfig,
        at: Duration,
        dir: &Path,
    ) -> Result<PathBuf, StoreError> {
        let world = Arc::new(World::generate(config.world.clone()));
        let mut session = StudySession::new(config, world);
        session.advance(at);
        checkpoint::write(&session.into_checkpoint(), dir)
    }

    /// Restores a checkpoint written by [`Study::checkpoint`] and runs
    /// the study to completion. The resulting [`Study::run_report`] is
    /// byte-identical to an uninterrupted [`Study::run`] of the same
    /// config. A file that is sealed but does not fit the pool and
    /// world its own config rebuilds is a typed error, as
    /// [`StudySession::from_checkpoint`] reports it.
    pub fn resume(dir: &Path) -> Result<Study, StoreError> {
        let data = checkpoint::read(dir)?;
        let world = Arc::new(World::generate(data.config.world.clone()));
        Ok(StudySession::from_checkpoint(data, world)?.finish())
    }

    /// The study's collection window.
    pub fn window(&self) -> (SimTime, SimTime) {
        let s = study_start(&self.config);
        (s, s + self.config.collection)
    }

    /// The canonical run report: the study's metadata plus every
    /// metric, serializing to canonical JSON.
    ///
    /// Byte-identical for equal configs, however the run was sliced,
    /// suspended or scheduled.
    pub fn run_report(&self) -> RunReport {
        let seed = self.config.world.seed.to_string();
        let days = (self.config.collection.as_secs() / 86_400).to_string();
        let households = self.config.world.households.to_string();
        RunReport::new(
            &[
                ("collection_days", &days),
                ("fault_profile", self.config.fault.name()),
                ("households", &households),
                ("seed", &seed),
            ],
            &self.telemetry,
        )
    }

    /// Digests the run report and every rendered table. Equal configs
    /// digest equally; the halves are also digested
    /// on their own so a mismatch names which one moved
    /// (`tests/golden_digests.rs` pins them).
    pub fn digest(&self) -> StudyDigest {
        let report = fnv1a(self.run_report().to_json().as_bytes());
        let tables = crate::experiments::render_all(&self.derived());
        StudyDigest {
            combined: fnv1a_extend(report, tables.as_bytes()),
            report,
            tables: fnv1a(tables.as_bytes()),
        }
    }
}

/// Length of the R&L emulation window: scaled down alongside shortened
/// collection windows (full study: 210 days ≈ R&L's seven months).
pub fn rl_window(config: &StudyConfig) -> Duration {
    Duration::days((config.collection.as_secs() / 86_400) * 15 / 2)
}

/// Start of the study window: after the R&L window plus the two-year-ish
/// gap, scaled.
pub fn study_start(config: &StudyConfig) -> SimTime {
    let scale = (config.collection.as_secs() / 86_400).max(1) as f64 / 28.0;
    let gap = Duration::days((RL_GAP.as_secs() as f64 / 86_400.0 * scale) as u64);
    SimTime::EPOCH + rl_window(config) + gap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_study_runs_end_to_end() {
        let study = Study::run(StudyConfig::tiny(7));
        assert!(study.run_stats.polls > 0);
        assert!(
            study.collector.global().len() > 100,
            "{}",
            study.collector.global().len()
        );
        assert_eq!(study.feed.len(), study.collector.global().len());
        assert!(!study.rl_set.is_empty());
        assert!(!study.hitlist.full.is_empty());
        assert!(study.ntp_scan.targets() > 0);
        assert!(study.hitlist_scan.targets() > 0);
        let telescope = study.telescope.as_ref().expect("telescope enabled");
        assert_eq!(telescope.unmatched_packets, 0);
        assert_eq!(telescope.actors.len(), 2);
    }

    #[test]
    fn telemetry_reconciles_with_legacy_accounting() {
        let study = Study::run(StudyConfig::tiny(7));
        let det = &study.telemetry;
        // Collection: the registry is the same accounting path RunStats
        // is derived from, so the two agree exactly.
        assert_eq!(det.counter_total("ntp_polls"), study.run_stats.polls);
        assert_eq!(
            det.counter_total("ntp_responses"),
            study.run_stats.responses
        );
        assert_eq!(det.counter_total("ntp_observed"), study.run_stats.observed);
        assert_eq!(det.counter_total("ntp_kod"), study.run_stats.kod);
        assert_eq!(det.counter_total("ntp_lost"), study.run_stats.lost);
        assert_eq!(
            det.counter_total("ntp_distinct_addresses"),
            study.collector.global().len() as u64
        );
        // Scan stages: both stores' registries were merged in.
        assert_eq!(
            det.counter_total("scan_targets"),
            study.ntp_scan.targets() + study.hitlist_scan.targets()
        );
        assert_eq!(
            det.counter_total("pipeline_feed_observations"),
            study.feed.len() as u64
        );
        assert!(det.counter_total("telescope_queries") > 0);
        // The run report round-trips through canonical JSON.
        let report = study.run_report();
        let json = report.to_json();
        assert_eq!(
            telemetry::RunReport::from_json(&json).expect("parses"),
            report
        );
    }

    #[test]
    fn study_is_deterministic() {
        let a = Study::run(StudyConfig::tiny(9));
        let b = Study::run(StudyConfig::tiny(9));
        assert_eq!(a.collector.global().len(), b.collector.global().len());
        assert_eq!(a.ntp_scan.records().len(), b.ntp_scan.records().len());
        assert_eq!(a.hitlist.full.len(), b.hitlist.full.len());
        assert_eq!(a.feed.len(), b.feed.len());
    }

    #[test]
    fn windows_do_not_overlap_rl() {
        let cfg = StudyConfig::tiny(1);
        let rl_end = SimTime::EPOCH + rl_window(&cfg);
        assert!(study_start(&cfg) > rl_end);
    }

    /// Checkpoint at mid-window, resume, and compare against the
    /// uninterrupted run — the full matrix lives in
    /// `tests/checkpoint_resume.rs`; this is the fast smoke version.
    #[test]
    fn checkpoint_resume_smoke() {
        let cfg = StudyConfig::tiny(11);
        let dir = std::env::temp_dir().join(format!("study-ckpt-smoke-{}", std::process::id()));
        Study::checkpoint(cfg.clone(), Duration::days(3), &dir).unwrap();
        let resumed = Study::resume(&dir).unwrap();
        let baseline = Study::run(cfg);
        assert_eq!(resumed.feed, baseline.feed);
        assert_eq!(resumed.run_stats, baseline.run_stats);
        assert_eq!(
            resumed.run_report().to_json(),
            baseline.run_report().to_json()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
