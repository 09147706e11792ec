//! The one study driver: cooperative, slice-resumable sessions.
//!
//! Every run is a [`StudySession`]: opened on the collection window
//! ([`StudySession::new`], or [`StudySession::from_checkpoint`] for a
//! suspended one), moved forward in any slicing by
//! [`StudySession::advance`], and completed by
//! [`StudySession::finish`], which runs whatever is left of the window
//! and then NTP scan → hitlist → telescope/actors. [`Study::run`] is a
//! session finished straight away; the study service holds sessions
//! resident between bucket-sized slices.
//!
//! The session holds exactly one [`CheckpointData`] — the engine's
//! [`CollectionCheckpoint`](ntppool::CollectionCheckpoint), the
//! collector, the feed so far and the
//! accumulated transport totals — so suspending one
//! ([`StudySession::suspend`]) *is* cloning a checkpoint. Next to it
//! sits what every session rebuilds from the config instead of
//! persisting: the shared world, the tuned pool with its actors, the
//! fault transport and the window. They are built once, by the
//! constructors.
//!
//! Slicing changes nothing observable: each `advance` moves the one
//! engine step ([`CollectionRun::advance`]) from the saved cursor to the
//! next stop, and per-slice transport totals merge into one running
//! [`TransportTotals`]. Composing any sequence of slices — interleaved
//! with suspends, restores, and a final [`StudySession::finish`] —
//! yields a [`Study`] whose [`crate::Study::run_report`] is
//! byte-identical to a single-slice run of the same config (enforced
//! by the tests below and by the service's eviction tests).
//!
//! The world is shared: sessions take an `Arc<World>` so any number of
//! concurrent studies over the same `(WorldConfig, seed)` pay for one
//! resident copy; [`StudySession::resident_bytes`] deliberately counts
//! only the session's *marginal* state beyond that shared snapshot.

use crate::checkpoint::CheckpointData;
use crate::config::StudyConfig;
use crate::metrics;
use crate::study::{
    build_pool, build_transport, rl_window, stale_hitlist, study_start, PoolSetup, Study,
};
use actors::{attribute, match_captures, org_directory, ActorRoster, Ecosystem};
use hitlist::{Hitlist, HitlistConfig};
use netsim::time::{Duration, SimTime};
use netsim::transport::Transport;
use netsim::world::World;
use netsim::{Asn, BgpEvent, BgpFeed, DeviceId, Instrumented, TransportTotals};
use ntppool::{AddressCollector, CollectionRun, Observation, ServerId};
use scanner::{BatchScan, Engine, ScanPolicy};
use std::sync::Arc;
use store::StoreError;
use telemetry::{Registry, SpanTimer};
use telescope::Vantage;
use v6addr::{OuiDb, Prefix};

/// Approximate heap bytes per entry of a `u128` hash set (value plus
/// control byte) — the same convention the store benches compare
/// archive footprints against.
const HASH_SLOT_BYTES: usize = 17;

/// One study, resident between cooperative slices of its collection
/// stage.
pub struct StudySession {
    /// Everything a checkpoint persists.
    data: CheckpointData,
    world: Arc<World>,
    setup: PoolSetup,
    /// The config's fault transport — the prototype each stage wraps in
    /// a fresh [`Instrumented`] sink. Stateless across exchanges, so
    /// re-wrapping per slice changes no behaviour.
    transport: Box<dyn Transport>,
    start: SimTime,
    end: SimTime,
}

impl StudySession {
    /// Opens a session for `config` over a shared world snapshot,
    /// positioned at the start of the collection window (no events
    /// processed yet). The snapshot must have been generated from this
    /// config's world parameters.
    pub fn new(config: StudyConfig, world: Arc<World>) -> StudySession {
        assert_eq!(
            world.config, config.world,
            "shared world was generated from a different WorldConfig"
        );
        let setup = build_pool(&config, &world);
        let start = study_start(&config);
        // No poll crosses a transport before the first `advance`.
        let run = CollectionRun::new(&world, &setup.pool, start, start + config.collection);
        let data = CheckpointData {
            collection: run.begin(),
            collector: AddressCollector::new(),
            feed_prefix: Vec::new(),
            transport: TransportTotals::zero(),
            config,
        };
        StudySession::over(data, world, setup)
    }

    /// Restores a session from checkpoint state (in-memory or read back
    /// via [`crate::checkpoint::read`]) over a shared world snapshot —
    /// the eviction/readmission path of the study service. This is the
    /// one place checkpoint state meets the pool, world and window it
    /// will be advanced over, so it is where they are checked against
    /// each other: a mismatch — a config naming another world, a cursor
    /// outside the window — is [`StoreError::Corrupt`], never an index
    /// panic inside the engine or a study that silently covers a
    /// different span.
    pub fn from_checkpoint(
        data: CheckpointData,
        world: Arc<World>,
    ) -> Result<StudySession, StoreError> {
        if world.config != data.config.world {
            return Err(StoreError::Corrupt(
                "checkpoint config names a different world",
            ));
        }
        let setup = build_pool(&data.config, &world);
        data.collection
            .validate(&world, &setup.pool)
            .map_err(StoreError::Corrupt)?;
        let session = StudySession::over(data, world, setup);
        if !(session.start..=session.end).contains(&session.cursor()) {
            return Err(StoreError::Corrupt(
                "collection cursor outside the study window",
            ));
        }
        Ok(session)
    }

    /// A session over `data`, next to what its config rebuilds.
    fn over(data: CheckpointData, world: Arc<World>, setup: PoolSetup) -> StudySession {
        let start = study_start(&data.config);
        StudySession {
            transport: build_transport(&data.config),
            start,
            end: start + data.config.collection,
            data,
            world,
            setup,
        }
    }

    /// Drives collection forward by (up to) `slice` of simulated time,
    /// clamped to the window end. Returns [`StudySession::done`].
    pub fn advance(&mut self, slice: Duration) -> bool {
        if self.done() {
            return true;
        }
        let stop = self.data.collection.cursor + slice;
        let (coll_transport, coll_totals) = Instrumented::new(self.transport.clone_box());
        let run = CollectionRun::with_transport(
            &self.world,
            &self.setup.pool,
            self.start,
            self.end,
            Box::new(coll_transport),
        );
        // First sights land behind the feed so far, in the same buffer.
        run.advance(
            &mut self.data.collection,
            stop,
            &mut self.data.collector,
            &mut self.data.feed_prefix,
        );
        self.data
            .transport
            .merge(&TransportTotals::snapshot(&coll_totals));
        self.done()
    }

    /// Whether the collection window has been fully processed.
    pub fn done(&self) -> bool {
        self.data.collection.cursor >= self.end
    }

    /// The engine cursor: simulated time processed so far.
    pub fn cursor(&self) -> SimTime {
        self.data.collection.cursor
    }

    /// The collection window.
    pub fn window(&self) -> (SimTime, SimTime) {
        (self.start, self.end)
    }

    /// The session's config.
    pub fn config(&self) -> &StudyConfig {
        &self.data.config
    }

    /// The shared world snapshot.
    pub fn world(&self) -> &Arc<World> {
        &self.world
    }

    /// Snapshots the session as checkpoint data — what
    /// [`crate::checkpoint::write`] persists on eviction. The session
    /// stays usable; pair with [`StudySession::into_checkpoint`] when
    /// tearing it down.
    pub fn suspend(&self) -> CheckpointData {
        self.data.clone()
    }

    /// [`StudySession::suspend`] by value — no state is cloned.
    pub fn into_checkpoint(self) -> CheckpointData {
        self.data
    }

    /// Completes the study: runs whatever is left of the collection
    /// window, then the rest of the pipeline — the real-time NTP-fed
    /// scan over the feed, the hitlist build and batch scan, the
    /// telescope and the actor ecosystem — over the pool and world the
    /// session already holds. The result is byte-identical at any
    /// cursor position and for any slicing that led here.
    pub fn finish(mut self) -> Study {
        // One window-long slice reaches the end from any cursor.
        self.advance(self.data.config.collection);
        let StudySession {
            data,
            world,
            setup,
            transport,
            start,
            end,
        } = self;
        let CheckpointData {
            config,
            collection,
            collector,
            feed_prefix: feed,
            transport: coll_transport,
        } = data;
        let PoolSetup {
            pool,
            study_servers,
            tuning,
            actors,
        } = setup;
        // Study-level metrics: stage spans (simulated time), the feed
        // count, set sizes. Stage-internal metrics are recorded into
        // per-stage registries and merged with a `stage` label.
        let mut study_reg = Registry::new();

        // --- R&L emulation: an earlier, longer collection (Table 1). ---
        let rl_span = SpanTimer::start(metrics::SPAN_RL, SimTime::EPOCH.as_secs());
        let rl_end = SimTime::EPOCH + rl_window(&config);
        let rl_set =
            ntppool::run::sample_addresses(&world, SimTime::EPOCH, rl_end, config.rl_samples);
        rl_span.finish(&mut study_reg, rl_end.as_secs());
        study_reg.add(metrics::RL_SAMPLE_ADDRESSES, rl_set.len() as u64);

        // --- Four weeks of collection, then the real-time scan as a
        // replay of its feed: "real time" is *simulated* time (a probe
        // 10 s … 10 min after each observation's `seen` instant), so a
        // second host thread buys nothing (DESIGN.md §3). ---
        SpanTimer::start(metrics::SPAN_COLLECTION, start.as_secs())
            .finish(&mut study_reg, end.as_secs());
        study_reg.add(metrics::PIPELINE_FEED_OBSERVATIONS, feed.len() as u64);
        let (scan_transport, scan_totals) = Instrumented::new(transport.clone_box());
        let mut scanner = Engine::with_transport(ScanPolicy::default(), Box::new(scan_transport));
        for obs in &feed {
            scanner.scan_target(&world, obs.addr, obs.seen);
        }
        let ntp_scan = scanner.into_store();
        // The first deterministic accounting of the stage: totals and
        // transport counters summed over every slice, persisted ones
        // included, equal a single-slice run's.
        let mut coll_reg = Registry::new();
        let run_stats = collection.finish(&mut coll_reg);
        collector.export_into(&mut coll_reg);
        coll_transport.export_into(&mut coll_reg);
        let mut scan_reg = Registry::new();
        scan_reg.merge(ntp_scan.telemetry());
        TransportTotals::snapshot(&scan_totals).export_into(&mut scan_reg);
        let mut telemetry = coll_reg.snapshot_with(&[("stage", "collection")]);
        telemetry.merge(&scan_reg.snapshot_with(&[("stage", "ntp_scan")]));

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
        let (hl_transport, hl_totals) = Instrumented::new(transport.clone_box());
        let hitlist_scan = BatchScan::with_transport(ScanPolicy::default(), Box::new(hl_transport))
            .run(&world, hitlist.full.sorted(), hitlist_t);
        span.finish(&mut study_reg, end.as_secs());
        study_reg.add(metrics::HITLIST_ADDRESSES, hitlist.full.len() as u64);
        let mut hl_reg = Registry::new();
        hl_reg.merge(hitlist_scan.telemetry());
        TransportTotals::snapshot(&hl_totals).export_into(&mut hl_reg);
        telemetry.merge(&hl_reg.snapshot_with(&[("stage", "hitlist_scan")]));

        // --- Telescope + adversarial ecosystem (§5). ---
        let telescope_run = config.telescope.then(|| {
            let mut tel_reg = Registry::new();
            let (tel_transport, tel_totals) = Instrumented::new(transport.clone_box());
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

            TransportTotals::snapshot(&tel_totals).export_into(&mut tel_reg);
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
            run_stats,
            tuning,
            oui_db: OuiDb::builtin(),
            telemetry,
            derived_cells: Arc::new(crate::derived::DerivedCells::new()),
        }
    }

    /// Background maintenance between slices: compacts the collector's
    /// dedup archive into a single merged segment
    /// ([`store::Archive::optimize`]) once it has fragmented past
    /// `max_segments` sealed segments. Membership is untouched — only
    /// layout changes — so observables stay bit-identical; the payoff
    /// is fewer segments to probe per lookup and a smaller resident
    /// footprint. Returns the number of archives compacted (0 or 1).
    pub fn maintain(&mut self, max_segments: usize) -> u32 {
        let global = &mut self.data.collector.global;
        if global.segments().len() <= max_segments {
            return 0;
        }
        global.optimize();
        1
    }

    /// Approximate heap bytes of the session's *marginal* state — the
    /// dedup archive, pending events, RPS windows, and buffered feed
    /// this study adds on top of the shared world snapshot (which is
    /// deliberately excluded: it is counted once, not per study).
    pub fn resident_bytes(&self) -> usize {
        let CheckpointData {
            collection,
            collector,
            feed_prefix,
            ..
        } = &self.data;
        let tables = collector.global.heap_bytes()
            + collector
                .per_server
                .iter()
                .map(|(_, set)| set.len() * HASH_SLOT_BYTES)
                .sum::<usize>()
            + collector.requests.len() * std::mem::size_of::<(ServerId, u64)>();
        let engine = collection.pending.len() * std::mem::size_of::<(SimTime, DeviceId, u64)>()
            + collection.rps.len() * std::mem::size_of::<Option<(u64, u64)>>();
        let feed = feed_prefix.len() * std::mem::size_of::<Observation>();
        tables + engine + feed
    }
}

/// The study service's worker pool moves whole sessions onto scoped
/// worker threads for a slice and back; that is only sound if every
/// field — including the boxed `dyn Transport`, whose trait bound is
/// `Send + Sync` — travels. Assert it at compile time so a future field
/// (an `Rc`, a raw pointer, a non-`Send` trait object) fails here, with
/// a readable error, rather than deep inside the service's
/// `thread::scope`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<StudySession>();
    assert_send::<CheckpointData>();
};

impl std::fmt::Debug for StudySession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StudySession")
            .field("seed", &self.data.config.world.seed)
            .field("cursor", &self.data.collection.cursor)
            .field("end", &self.end)
            .field("distinct", &self.data.collector.global.len())
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint;

    fn shared_world(config: &StudyConfig) -> Arc<World> {
        Arc::new(World::generate(config.world.clone()))
    }

    /// Slicing the collection window (uneven slices) and
    /// finishing produces the run report of `Study::run`, which is the
    /// same session advanced once.
    #[test]
    fn sliced_session_matches_uninterrupted_run() {
        let cfg = StudyConfig::tiny(21);
        let world = shared_world(&cfg);
        let mut session = StudySession::new(cfg.clone(), Arc::clone(&world));
        assert!(!session.done());
        assert_eq!(session.cursor(), session.window().0);
        let mut slices = 0;
        while !session.advance(Duration::secs(11 * 3600)) {
            slices += 1;
            assert!(session.resident_bytes() > 0);
        }
        assert!(slices > 2, "window should span several slices: {slices}");
        let study = session.finish();
        let baseline = Study::run(cfg);
        assert_eq!(study.feed, baseline.feed);
        assert_eq!(study.run_stats, baseline.run_stats);
        assert_eq!(
            study.run_report().to_json(),
            baseline.run_report().to_json()
        );
        // The session's study holds the shared snapshot, not a copy.
        assert!(Arc::ptr_eq(&study.world, &world));
    }

    /// A session suspended mid-window restores bit-identically — both
    /// in memory (`from_checkpoint`) and through the on-disk checkpoint
    /// file (`Study::resume`).
    #[test]
    fn suspend_and_restore_mid_window_is_bit_identical() {
        let cfg = StudyConfig::tiny(22);
        let world = shared_world(&cfg);
        let baseline = Study::run(cfg.clone());

        let mut session = StudySession::new(cfg.clone(), Arc::clone(&world));
        session.advance(Duration::days(2));
        let data = session.suspend();

        // On-disk round trip: the suspended state is a real checkpoint.
        let dir = std::env::temp_dir().join(format!("session-suspend-{}", std::process::id()));
        checkpoint::write(&data, &dir).unwrap();
        let resumed = Study::resume(&dir).unwrap();
        assert_eq!(
            resumed.run_report().to_json(),
            baseline.run_report().to_json()
        );
        std::fs::remove_dir_all(&dir).ok();

        // In-memory restore, more slices, then finish early (the
        // remainder runs inside `finish`).
        drop(session);
        let mut restored = StudySession::from_checkpoint(data, Arc::clone(&world)).unwrap();
        restored.advance(Duration::days(1));
        let study = restored.finish();
        assert_eq!(study.feed, baseline.feed);
        assert_eq!(
            study.run_report().to_json(),
            baseline.run_report().to_json()
        );
    }
}
