//! Cooperative, slice-resumable study sessions.
//!
//! A [`StudySession`] is the unit the study service schedules: one
//! study's collection stage, held resident between bucket-sized
//! [`StudySession::advance`] slices instead of running to completion in
//! one call. The session owns exactly the state a study checkpoint
//! persists — the engine's [`CollectionCheckpoint`], the collector's
//! dedup parts (shard archives included), the feed prefix, and the
//! accumulated transport totals — so suspending one
//! ([`StudySession::suspend`]) *is* writing a checkpoint, and restoring
//! one ([`StudySession::from_checkpoint`]) is byte-equivalent to
//! [`crate::Study::resume`].
//!
//! Slicing changes nothing observable: each `advance` moves the same
//! engine step the standalone run uses
//! ([`CollectionRun::advance`]) from the saved cursor to the next stop,
//! and per-slice transport totals merge into one running
//! [`TransportTotals`]. Composing any sequence of slices — interleaved
//! with suspends, restores, and a final [`StudySession::finish`] —
//! yields a [`Study`] whose [`crate::Study::run_report`] is
//! byte-identical to an uninterrupted [`Study::run`] of the same config
//! (enforced by the tests below and by the service's eviction tests).
//!
//! The world is shared: sessions take an `Arc<World>` so any number of
//! concurrent studies over the same `(WorldConfig, seed)` pay for one
//! resident copy; [`StudySession::resident_bytes`] deliberately counts
//! only the session's *marginal* state beyond that shared snapshot.

use crate::checkpoint::CheckpointData;
use crate::config::StudyConfig;
use crate::study::{build_pool, build_transport, study_start, Study};
use netsim::time::{Duration, SimTime};
use netsim::transport::Transport;
use netsim::world::World;
use netsim::{DeviceId, Instrumented, TransportTotals};
use ntppool::collector::VecSink;
use ntppool::{CollectionCheckpoint, CollectionRun, CollectorParts, Observation, Pool, ServerId};
use std::sync::Arc;
use store::{Archive, StoreError};
use telemetry::Registry;

/// Approximate heap bytes per entry of a `u128` hash set (value plus
/// control byte) — the same convention the store benches compare
/// archive footprints against.
const HASH_SLOT_BYTES: usize = 17;

/// One study's collection stage, resident between cooperative slices.
pub struct StudySession {
    config: StudyConfig,
    world: Arc<World>,
    pool: Pool,
    /// The config's fault transport — the prototype each slice wraps in
    /// a fresh [`Instrumented`] sink. Stateless across exchanges, so
    /// re-wrapping per slice changes no behaviour.
    transport: Box<dyn Transport>,
    start: SimTime,
    end: SimTime,
    collection: CollectionCheckpoint,
    collector: CollectorParts,
    feed_prefix: Vec<Observation>,
    transport_totals: TransportTotals,
}

/// The deterministic setup both constructors share: the pool (tuned,
/// with actors), the fault transport, and the collection window.
fn setup(config: &StudyConfig, world: &World) -> (Pool, Box<dyn Transport>, SimTime, SimTime) {
    assert_eq!(
        world.config, config.world,
        "shared world was generated from a different WorldConfig"
    );
    let (pool, _servers, _tuning, _actors) = build_pool(config, world);
    let start = study_start(config);
    (
        pool,
        build_transport(config),
        start,
        start + config.collection,
    )
}

impl StudySession {
    /// Opens a session for `config` over a shared world snapshot,
    /// positioned at the start of the collection window (no events
    /// processed yet). The snapshot must have been generated from this
    /// config's world parameters.
    pub fn new(config: StudyConfig, world: Arc<World>) -> StudySession {
        let (pool, transport, start, end) = setup(&config, &world);
        // No poll crosses a transport before the first `advance`.
        let collection = CollectionRun::new(&world, &pool, start, end).begin();
        StudySession {
            collector: CollectorParts::new(config.collection_shards),
            config,
            world,
            pool,
            transport,
            start,
            end,
            collection,
            feed_prefix: Vec::new(),
            transport_totals: TransportTotals::zero(),
        }
    }

    /// Restores a session from checkpoint state (in-memory or read back
    /// via [`crate::checkpoint::read`]) over a shared world snapshot —
    /// the eviction/readmission path of the study service. This is the
    /// one place checkpoint state meets the pool and world it will be
    /// advanced over, so it is where the two are checked against each
    /// other: a mismatch — a config naming another world included — is
    /// [`StoreError::Corrupt`], never an index panic inside the engine.
    pub fn from_checkpoint(
        data: CheckpointData,
        world: Arc<World>,
    ) -> Result<StudySession, StoreError> {
        if world.config != data.config.world {
            return Err(StoreError::Corrupt(
                "checkpoint config names a different world",
            ));
        }
        let (pool, transport, start, end) = setup(&data.config, &world);
        data.collection
            .validate(&world, &pool)
            .map_err(StoreError::Corrupt)?;
        Ok(StudySession {
            config: data.config,
            world,
            pool,
            transport,
            start,
            end,
            collection: data.collection,
            collector: data.collector,
            feed_prefix: data.feed_prefix,
            transport_totals: data.transport,
        })
    }

    /// Drives collection forward by (up to) `slice` of simulated time,
    /// clamped to the window end. Returns [`StudySession::done`].
    pub fn advance(&mut self, slice: Duration) -> bool {
        if self.done() {
            return true;
        }
        let stop = self.collection.cursor + slice;
        // First sights land behind the prefix, in the same buffer.
        let feed = VecSink::with_prefix(std::mem::take(&mut self.feed_prefix));
        let (coll_transport, coll_stats) = Instrumented::new(self.transport.clone_box());
        let run = CollectionRun::with_transport(
            &self.world,
            &self.pool,
            self.start,
            self.end,
            Box::new(coll_transport),
        );
        // The engine's volatile shape metrics are not session state.
        run.advance(
            &mut self.collection,
            stop,
            &mut self.collector,
            Box::new(feed.clone()),
            &mut Registry::new(),
        );
        self.feed_prefix = feed.take();
        self.transport_totals.merge(&coll_stats.totals());
        self.done()
    }

    /// Whether the collection window has been fully processed.
    pub fn done(&self) -> bool {
        self.collection.cursor >= self.end
    }

    /// The engine cursor: simulated time processed so far.
    pub fn cursor(&self) -> SimTime {
        self.collection.cursor
    }

    /// The collection window.
    pub fn window(&self) -> (SimTime, SimTime) {
        (self.start, self.end)
    }

    /// The session's config.
    pub fn config(&self) -> &StudyConfig {
        &self.config
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
        CheckpointData {
            config: self.config.clone(),
            collection: self.collection.clone(),
            collector: self.collector.clone(),
            feed_prefix: self.feed_prefix.clone(),
            transport: self.transport_totals.clone(),
        }
    }

    /// [`StudySession::suspend`] by value — no state is cloned.
    pub fn into_checkpoint(self) -> CheckpointData {
        CheckpointData {
            config: self.config,
            collection: self.collection,
            collector: self.collector,
            feed_prefix: self.feed_prefix,
            transport: self.transport_totals,
        }
    }

    /// Completes the study: finishes any remaining collection and runs
    /// the rest of the pipeline (scans, hitlist, telescope) over the
    /// shared world. Byte-identical to an uninterrupted
    /// [`Study::run`] of the same config, at any cursor position.
    pub fn finish(self) -> Study {
        let world = Arc::clone(&self.world);
        Study::run_resumed(self.into_checkpoint(), Some(world))
    }

    /// Background maintenance between slices: compacts any dedup
    /// archive (the flat collector's global archive and each shard's)
    /// that has fragmented past `max_segments` sealed segments into a
    /// single merged segment ([`Archive::optimize`]). Membership is
    /// untouched — only layout changes — so observables stay
    /// bit-identical; the payoff is fewer segments to probe per lookup
    /// and a smaller resident footprint. Returns the number of archives
    /// compacted.
    pub fn maintain(&mut self, max_segments: usize) -> u32 {
        let mut compacted = 0;
        let CollectorParts { global, shards, .. } = &mut self.collector;
        let archives = std::iter::once(global).chain(shards);
        for archive in archives {
            if archive.segments().len() > max_segments {
                archive.optimize();
                compacted += 1;
            }
        }
        compacted
    }

    /// Approximate heap bytes of the session's *marginal* state — the
    /// dedup archives, pending events, RPS windows, and buffered feed
    /// this study adds on top of the shared world snapshot (which is
    /// deliberately excluded: it is counted once, not per study).
    pub fn resident_bytes(&self) -> usize {
        let collector = self.collector.global.heap_bytes()
            + self
                .collector
                .per_server
                .iter()
                .map(|(_, set)| set.len() * HASH_SLOT_BYTES)
                .sum::<usize>()
            + self.collector.requests.len() * std::mem::size_of::<(ServerId, u64)>();
        let shards: usize = self.collector.shards.iter().map(Archive::heap_bytes).sum();
        let engine = self.collection.pending.len()
            * std::mem::size_of::<(SimTime, DeviceId, u64)>()
            + self.collection.rps.len() * std::mem::size_of::<Option<(u64, u64)>>();
        let feed = self.feed_prefix.len() * std::mem::size_of::<Observation>();
        collector + shards + engine + feed
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
            .field("seed", &self.config.world.seed)
            .field("cursor", &self.collection.cursor)
            .field("end", &self.end)
            .field("distinct", &self.collector.global.len())
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

    /// Slicing the collection window (uneven slices, flat engine) and
    /// finishing produces a byte-identical run report.
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
    /// file (`Study::resume`) — under the sharded engine.
    #[test]
    fn suspend_and_restore_mid_window_is_bit_identical() {
        let mut cfg = StudyConfig::tiny(22);
        cfg.collection_shards = 2;
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
