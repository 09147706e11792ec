//! The end-to-end study pipeline.
//!
//! Collection and the NTP-fed scan are one straight-line path: the
//! collection run records its first-sight feed, then the real-time
//! scanner replays it. "Real time" is a property of *simulated* time —
//! every probe is scheduled 10 s … 10 min after its observation's
//! `seen` instant — so nothing is gained by scanning on a second host
//! thread (DESIGN.md §3 records the measurement).
//!
//! Long-horizon runs can stop mid-collection and continue later:
//! [`Study::checkpoint`] persists the engine cursor, the collector's
//! dedup archive, the feed prefix, and the transport totals to disk (see
//! [`crate::checkpoint`]); [`Study::resume`] restores them and finishes
//! the window, producing a [`Study::run_report`] **byte-identical** to
//! an uninterrupted run's (enforced by `tests/checkpoint_resume.rs`).

use crate::checkpoint::{self, CheckpointData};
use crate::config::StudyConfig;
use crate::metrics;
use crate::session::StudySession;
use actors::{attribute, org_directory, sourced_intel, ActorRoster, AttributionTable, Ecosystem};
use hitlist::{Hitlist, HitlistConfig};
use netsim::country::{Country, COLLECTOR_LOCATIONS};
use netsim::time::{Duration, SimTime};
use netsim::transport::Transport;
use netsim::world::World;
use netsim::{mix2, Asn, BgpEvent, BgpFeed, Instrumented, TransportTotals};
use ntppool::collector::VecSink;
use ntppool::monitor::{tune_collecting_servers, TuneOutcome};
use ntppool::{
    AddressCollector, CollectionCheckpoint, CollectionRun, CollectorParts, Observation, Operator,
    Pool, PoolServer, RunStats, ServerId,
};
use scanner::{BatchScan, RealTimeScanner, ScanPolicy, ScanStore};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use store::codec::{fnv1a, fnv1a_extend};
use store::StoreError;
use telemetry::{Registry, RunReport, Snapshot, SpanTimer};
use telescope::{covert_actor, gt_actor, match_captures, Actor, TelescopeReport, Vantage};
use v6addr::{AddrSet, OuiDb, Prefix};

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
    /// The simulated actors (for §5 reporting).
    pub actors: Vec<Actor>,
    /// Collection run statistics.
    pub run_stats: RunStats,
    /// Netspeed tuning outcomes.
    pub tuning: Vec<TuneOutcome>,
    /// OUI registry used by the vendor analyses.
    pub oui_db: OuiDb,
    /// Telemetry from the whole run: every stage's metrics, stamped with
    /// a `stage` label. Deterministic entries are bit-identical for
    /// equal configs at any shard count; volatile ones (the sharded
    /// engine's shape metrics, memo hit counts) are excluded from
    /// [`Study::run_report`].
    pub telemetry: Snapshot,
    /// Study-scoped memo cells for the derived compact sets — shared by
    /// every [`Study::derived`] wrapper, seedable by a serving layer
    /// (see [`crate::derived::DerivedCells`]).
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

/// Everything deterministic the study sets up *before* collection:
/// recomputed identically on a fresh run and on a resume, so only the
/// collection-stage state needs persisting.
struct Prelude {
    world: Arc<World>,
    transport: Box<dyn Transport>,
    study_reg: Registry,
    rl_set: AddrSet,
    pool: Pool,
    study_servers: Vec<(ServerId, Country)>,
    tuning: Vec<TuneOutcome>,
    actors: Vec<Actor>,
    start: SimTime,
    end: SimTime,
}

/// Checkpointed collection-stage state handed to
/// [`run_collection_and_scan`] on resume.
struct ResumeState {
    collection: CollectionCheckpoint,
    collector: CollectorParts,
    feed_prefix: Vec<Observation>,
    transport: TransportTotals,
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
fn stale_hitlist(
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

/// Everything [`build_pool`] materializes: the pool, our collecting
/// servers with their countries, their tuning outcomes, and the
/// third-party actors.
pub(crate) type PoolSetup = (Pool, Vec<(ServerId, Country)>, Vec<TuneOutcome>, Vec<Actor>);

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
    (pool, study_servers, tuning, actors)
}

/// The world a run uses: the shared snapshot when one was provided (it
/// must have been generated from this config's world parameters), a
/// freshly generated one otherwise. Generation is deterministic, so the
/// two paths yield indistinguishable worlds — sharing changes memory,
/// never results.
fn world_for(config: &StudyConfig, shared: Option<Arc<World>>) -> Arc<World> {
    match shared {
        Some(world) => {
            assert_eq!(
                world.config, config.world,
                "shared world was generated from a different WorldConfig"
            );
            world
        }
        None => Arc::new(World::generate(config.world.clone())),
    }
}

/// Generates the world, the pool (tuned, with actors), the R&L set, and
/// the study window — every input the collection stage needs. A shared
/// world snapshot (if any) substitutes for generation.
fn prelude(config: &StudyConfig, shared: Option<Arc<World>>) -> Prelude {
    let world = world_for(config, shared);
    let transport = build_transport(config);
    // Study-level metrics: stage spans (simulated time), the feed
    // count, set sizes. Stage-internal metrics are recorded into
    // per-stage registries and merged with a `stage` label.
    let mut study_reg = Registry::new();

    // --- R&L emulation: an earlier, longer collection (Table 1). ---
    let rl_span = SpanTimer::start(metrics::SPAN_RL, SimTime::EPOCH.as_secs());
    let rl_end = SimTime::EPOCH + rl_window(config);
    let rl_set = ntppool::run::sample_addresses(&world, SimTime::EPOCH, rl_end, config.rl_samples);
    rl_span.finish(&mut study_reg, rl_end.as_secs());
    study_reg.add(metrics::RL_SAMPLE_ADDRESSES, rl_set.len() as u64);

    let start = study_start(config);
    let end = start + config.collection;

    let (pool, study_servers, tuning, actors) = build_pool(config, &world);

    Prelude {
        world,
        transport,
        study_reg,
        rl_set,
        pool,
        study_servers,
        tuning,
        actors,
        start,
        end,
    }
}

impl Study {
    /// Runs the full pipeline. Deterministic in the config.
    pub fn run(config: StudyConfig) -> Study {
        Study::run_with(config, None, None)
    }

    /// [`Study::run`] over a pre-generated shared world snapshot: the
    /// study holds the `Arc` instead of generating its own copy. The
    /// snapshot must come from `World::generate(config.world.clone())`
    /// (asserted against the snapshot's embedded config) — results are
    /// bit-identical to a standalone [`Study::run`]; only the memory
    /// accounting differs.
    pub fn run_shared(config: StudyConfig, world: Arc<World>) -> Study {
        Study::run_with(config, Some(world), None)
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
        let world = world_for(&config, None);
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
        let world = world_for(&data.config, None);
        Ok(StudySession::from_checkpoint(data, world)?.finish())
    }

    /// Finishes a study from in-memory checkpoint state: restores the
    /// collection stage from `data` and runs the remainder of the
    /// pipeline, optionally over a shared world snapshot. This is what
    /// [`StudySession::finish`] calls — the study service uses it to
    /// complete suspended sessions, and the report is byte-identical to
    /// an uninterrupted run's. State read from a file goes through
    /// [`StudySession::from_checkpoint`] first.
    pub fn run_resumed(data: CheckpointData, world: Option<Arc<World>>) -> Study {
        let CheckpointData {
            config,
            collection,
            collector,
            feed_prefix,
            transport,
        } = data;
        Study::run_with(
            config,
            world,
            Some(ResumeState {
                collection,
                collector,
                feed_prefix,
                transport,
            }),
        )
    }

    /// Shared body of [`Study::run`] and [`Study::resume`].
    fn run_with(
        config: StudyConfig,
        shared: Option<Arc<World>>,
        resume: Option<ResumeState>,
    ) -> Study {
        let Prelude {
            world,
            transport,
            mut study_reg,
            rl_set,
            pool,
            study_servers,
            tuning,
            actors,
            start,
            end,
        } = prelude(&config, shared);

        // --- Four weeks of collection, feeding the scanner. ---
        let span = SpanTimer::start(metrics::SPAN_COLLECTION, start.as_secs());
        let (collector, feed, run_stats, ntp_scan, mut telemetry) = run_collection_and_scan(
            &world,
            &pool,
            start,
            end,
            config.collection_shards,
            transport.as_ref(),
            resume,
        );
        span.finish(&mut study_reg, end.as_secs());
        study_reg.add(metrics::PIPELINE_FEED_OBSERVATIONS, feed.len() as u64);

        // --- Hitlist build + batch scan in the last week. ---
        let span = SpanTimer::start(
            metrics::SPAN_HITLIST,
            (start + config.hitlist_scan_offset).as_secs(),
        );
        let hitlist_t = start + config.hitlist_scan_offset;
        let hitlist = Hitlist::build(&world, hitlist_t, &HitlistConfig::for_world(&world));
        // Scan in sorted address order: the token bucket turns submission
        // order into probe times, so sorting keeps the store bit-identical
        // across runs.
        let (hl_transport, hl_stats) = Instrumented::new(transport.clone_box());
        let hitlist_scan = BatchScan::with_transport(ScanPolicy::default(), Box::new(hl_transport))
            .run(&world, hitlist.full.sorted(), hitlist_t);
        span.finish(&mut study_reg, end.as_secs());
        study_reg.add(metrics::HITLIST_ADDRESSES, hitlist.full.len() as u64);
        let mut hl_reg = Registry::new();
        hl_reg.merge(hitlist_scan.telemetry());
        hl_stats.export_into(&mut hl_reg);
        telemetry.merge(&hl_reg.snapshot_with(&[("stage", "hitlist_scan")]));

        // --- Telescope + adversarial ecosystem (§5). ---
        let telescope_run = config.telescope.then(|| {
            let mut tel_reg = Registry::new();
            let (tel_transport, tel_stats) = Instrumented::new(transport.clone_box());
            let sweep_start = start + config.telescope_offset;
            let gap = Duration::secs(7);
            let span = SpanTimer::start(metrics::SPAN_TELESCOPE, sweep_start.as_secs());
            // Two vantages: the paper's single telescope plus a second
            // sweeping 12 h later, giving the attribution pass a
            // vantage-overlap feature.
            let mut primary = Vantage::new("3fff:909::/48".parse().unwrap());
            primary.query_all_instrumented(&pool, &tel_transport, sweep_start, gap, &mut tel_reg);
            let sweep_end = sweep_start + Duration::secs(gap.as_secs() * primary.queried() as u64);
            let mut secondary = Vantage::new("3fff:90a::/48".parse().unwrap());
            secondary.query_all_via(
                &pool,
                &tel_transport,
                sweep_start + Duration::hours(12),
                gap,
            );
            span.finish(&mut tel_reg, sweep_end.as_secs());
            let vantages = [primary, secondary];

            // The route-event feed the BGP-adaptive archetype watches:
            // synthesized AS flaps plus injected events for the vantage
            // prefixes — both announced when the sweep starts, and the
            // secondary flapping once mid-campaign.
            let mut feed = BgpFeed::synthesize(&world, (start, end));
            for v in &vantages {
                feed.push(BgpEvent {
                    time: sweep_start,
                    prefix: v.prefix,
                    asn: Asn(0),
                    announce: true,
                });
            }
            for (hours, announce) in [(36, false), (40, true)] {
                feed.push(BgpEvent {
                    time: sweep_start + Duration::hours(hours),
                    prefix: vantages[1].prefix,
                    asn: Asn(0),
                    announce,
                });
            }
            feed.seal();

            // The stale public-hitlist snapshot the hitlist-reuse actor
            // bought (built only when that archetype runs).
            let stale = if config.actors.contains(ActorRoster::HITLIST_REUSE) {
                stale_hitlist(&world, &pool, &vantages, start)
            } else {
                Vec::new()
            };

            // Drive every rostered machine on the shared tick clock.
            let prefixes: Vec<Prefix> = vantages.iter().map(|v| v.prefix).collect();
            let outcome = Ecosystem::assemble(
                config.actors,
                &actors,
                &vantages,
                &pool,
                &stale,
                &feed,
                sweep_start,
            )
            .run(sweep_start, &feed, &prefixes);

            // The paper's §5 matcher sees the primary telescope's slice
            // of the capture, exactly as before the ecosystem existed.
            let log = outcome.capture_within(vantages[0].prefix);
            let report = match_captures(&vantages[0], &pool, &log, &actors);
            tel_reg.add(
                telescope::metrics::TELESCOPE_CAPTURES,
                outcome.records.len() as u64,
            );
            tel_reg.add(
                telescope::metrics::TELESCOPE_ATTRIBUTED,
                report.matched_packets,
            );

            // Blind attribution over the combined capture, scored
            // against the emitting machines.
            let table = attribute(&outcome, &prefixes, &feed, &org_directory(&actors));
            outcome.export_into(&mut tel_reg);
            table.export_into(&mut tel_reg);

            tel_stats.export_into(&mut tel_reg);
            telemetry.merge(&tel_reg.snapshot_with(&[("stage", "telescope")]));
            (report, table)
        });
        let (telescope, attribution) = match telescope_run {
            Some((r, t)) => (Some(r), Some(t)),
            None => (None, None),
        };
        telemetry.merge(&study_reg.snapshot());

        Study {
            config,
            world,
            pool,
            study_servers,
            collector,
            feed,
            rl_set,
            hitlist,
            ntp_scan,
            hitlist_scan,
            telescope,
            attribution,
            actors,
            run_stats,
            tuning,
            oui_db: OuiDb::builtin(),
            telemetry,
            derived_cells: Arc::new(crate::derived::DerivedCells::new()),
        }
    }

    /// The study's collection window.
    pub fn window(&self) -> (SimTime, SimTime) {
        let s = study_start(&self.config);
        (s, s + self.config.collection)
    }

    /// The canonical deterministic run report: the study's metadata plus
    /// every *deterministic* metric, serializing to canonical JSON.
    ///
    /// Byte-identical for equal configs regardless of the collection
    /// shard count — which is why the metadata deliberately excludes it.
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
    /// digest equally at any shard count; the halves are also digested
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

/// Runs the collection window, then the real-time NTP-fed scan over
/// the first-sight feed it recorded.
///
/// Returns `(collector, feed, run_stats, ntp_scan)` plus a [`Snapshot`]
/// carrying the collection- and scan-stage metrics (stamped
/// `stage=collection` / `stage=ntp_scan`).
///
/// `shards` is the collection engine's shard count (see
/// [`ntppool::CollectionRun::advance`], which picks the poll loop from
/// it): feed, stats, and deterministic telemetry are bit-identical for
/// any shard count (enforced by `tests/shard_equivalence.rs`).
///
/// With a [`ResumeState`], the collector restarts from its checkpointed
/// dedup state, the engine replays its pending events from the saved
/// cursor, and the remainder of the window is recorded behind the
/// checkpointed feed prefix, in the same `Vec` — after which the saved
/// transport totals are exported next to the live remainder, making
/// every deterministic metric equal to an uninterrupted run's.
fn run_collection_and_scan(
    world: &World,
    pool: &Pool,
    start: SimTime,
    end: SimTime,
    shards: usize,
    transport: &dyn Transport,
    resume: Option<ResumeState>,
) -> (
    AddressCollector,
    Vec<Observation>,
    RunStats,
    ScanStore,
    Snapshot,
) {
    let mut coll_reg = Registry::new();
    let (coll_transport, coll_stats) = Instrumented::new(transport.clone_box());
    let run = CollectionRun::with_transport(world, pool, start, end, Box::new(coll_transport));
    let (mut collection, mut parts, feed_prefix, saved_transport) = match resume {
        Some(r) => (r.collection, r.collector, r.feed_prefix, Some(r.transport)),
        None => (run.begin(), CollectorParts::new(shards), Vec::new(), None),
    };
    // The sink starts out holding the checkpointed prefix, so the
    // scanner sees the same full feed as an uninterrupted run.
    let sink = VecSink::with_prefix(feed_prefix);
    run.advance(
        &mut collection,
        end,
        &mut parts,
        Box::new(sink.clone()),
        &mut coll_reg,
    );
    let feed = sink.take();
    let (scan_transport, scan_stats) = Instrumented::new(transport.clone_box());
    let ntp_scan = RealTimeScanner::with_transport(ScanPolicy::default(), Box::new(scan_transport))
        .run(world, &feed);
    let run_stats = collection.finish(&mut coll_reg);
    let collector = AddressCollector::from_parts(parts, None);
    collector.export_into(&mut coll_reg);
    coll_stats.export_into(&mut coll_reg);
    if let Some(totals) = saved_transport {
        // Prefix totals + live remainder: counters add and histograms
        // merge, so the sum equals one uninterrupted sink's export.
        totals.export_into(&mut coll_reg);
    }
    let mut scan_reg = Registry::new();
    scan_reg.merge(ntp_scan.telemetry());
    scan_stats.export_into(&mut scan_reg);
    let mut snap = coll_reg.snapshot_with(&[("stage", "collection")]);
    snap.merge(&scan_reg.snapshot_with(&[("stage", "ntp_scan")]));
    (collector, feed, run_stats, ntp_scan, snap)
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
        let det = study.telemetry.deterministic();
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
