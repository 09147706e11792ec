//! Study service: concurrent multi-study serving over one shared
//! resident world.
//!
//! A research group reproducing the paper rarely runs one study: it
//! runs a *matrix* — the same world under several fault profiles
//! and actor rosters — and each standalone
//! [`Study::run`](timetoscan::Study::run) regenerates the world and re-materializes every
//! derived set from scratch. At paper scale the world snapshot is the
//! dominant resident cost, so N concurrent studies paid N× for data
//! that is bit-identical across all of them.
//!
//! [`StudyService`] is the serving layer that removes that
//! multiplication:
//!
//! * **Shared worlds** — snapshots are keyed by [`WorldConfig`] (which
//!   includes the seed) and held behind `Arc`s; every study over the
//!   same config shares one resident copy ([`Study::run_shared`](timetoscan::Study::run_shared)).
//! * **Shared segments** — sealed compact sets from completed studies
//!   are frozen into a content-addressed [`SegmentPool`]; identical
//!   sets (e.g. the hitlist baseline of every study over one world)
//!   converge on one file and one resident copy, and seed the derived
//!   cells of later studies so they are never rebuilt.
//! * **Deterministic parallel scheduling** — each [`StudyService::tick`]
//!   admits queued studies in id order up to the admission budget, fans
//!   active [`StudySession`]s out over a pool of
//!   [`ServiceConfig::workers`] scoped threads for their slice, then
//!   applies every result (telemetry, completion, segment-pool
//!   contributions) *sequentially in study-id order*. Sessions never
//!   share mutable state while advancing and the apply order is fixed,
//!   so every observable — study reports, set contents, service
//!   telemetry — is byte-identical at any worker count.
//! * **Cost-aware eviction** — after each tick the resident-bytes
//!   budget is enforced by suspending the session with the highest
//!   *eviction score*: [`StudySession::resident_bytes`] × (remaining
//!   collection window + 1), ties broken toward the higher study id.
//!   Bytes freed matter, but so does how much work a resume has to
//!   re-establish — a nearly-finished session is a poor victim even
//!   when it is large, because it will be readmitted (and pay the
//!   checkpoint round-trip) almost immediately. An evicted study
//!   resumes byte-identically — eviction is checkpoint/resume used as
//!   admission control — and each victim's size lands in the
//!   `service_evicted_bytes` counter.
//! * **Idle-slot compaction** — after advancing its slice, each tick
//!   worker runs [`StudySession::maintain`] on the sessions it was
//!   handed, merging any dedup archive that fragmented past
//!   [`COMPACTION_SEGMENT_THRESHOLD`] sealed segments. Compaction
//!   changes archive *layout*, never membership, so it is invisible in
//!   every study report; the count lands in the
//!   `service_compactions` counter.
//! * **Concurrent memoized queries** — completed-study state (reports,
//!   frozen set ids, overlap memos) lives behind an `Arc`-shared
//!   [`QueryClient`]: [`StudyService::queries`] hands out cheap clones
//!   that serve [`QueryClient::report`], [`QueryClient::set`], and
//!   [`QueryClient::overlap`] from any thread *while the scheduler
//!   ticks*, with query/cache counters folded into the service report.
//!
//! Everything observable is bit-identical to standalone runs: every
//! completed study's [`Study::run_report`](timetoscan::Study::run_report) equals the report an
//! uninterrupted `Study::run` of the same config produces, across
//! any number of forced evictions and any worker count
//! (enforced by `tests/service.rs`). The
//! service's own telemetry — admissions, evictions, resumes,
//! completions, query and cache counters — is itself deterministic and
//! exported as a canonical [`RunReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;

use netsim::time::Duration;
use netsim::world::{World, WorldConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use store::{CompactSet, SegmentId, SegmentPool, StoreError};
use telemetry::{Registry, RunReport};
use timetoscan::checkpoint;
use timetoscan::{SetKind, StudyConfig, StudySession};

/// Admission and scheduling parameters of a [`StudyService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Simulated time each active session advances per tick.
    pub slice: Duration,
    /// Maximum concurrently active (resident) sessions.
    pub max_active: usize,
    /// Budget for the summed *marginal* resident bytes of active
    /// sessions ([`StudySession::resident_bytes`] — the shared world is
    /// deliberately outside it). When exceeded after a tick's advances,
    /// the largest sessions are evicted to disk until the total fits
    /// (at least one session always stays resident so the service makes
    /// progress).
    pub max_resident_bytes: usize,
    /// Worker threads a tick fans active sessions over. `1` advances
    /// inline on the caller's thread; higher counts use scoped threads.
    /// Results are applied sequentially in study-id order either way,
    /// so the worker count is *never observable* in any report — it
    /// only changes wall-clock time.
    pub workers: usize,
    /// Root directory: `segments/` holds the shared segment pool,
    /// `study-<id>/` the eviction checkpoints.
    pub dir: PathBuf,
}

impl ServiceConfig {
    /// A config with effectively unbounded budgets — scheduling without
    /// eviction pressure — and the default worker pool.
    pub fn unbounded(dir: impl Into<PathBuf>, slice: Duration) -> ServiceConfig {
        ServiceConfig {
            slice,
            max_active: usize::MAX,
            max_resident_bytes: usize::MAX,
            workers: default_workers(),
            dir: dir.into(),
        }
    }

    /// The same config with `workers` worker threads per tick.
    pub fn with_workers(mut self, workers: usize) -> ServiceConfig {
        self.workers = workers.max(1);
        self
    }
}

/// The default tick worker count: the host's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sealed-segment count past which a tick worker compacts a session's
/// dedup archive ([`StudySession::maintain`]).
pub const COMPACTION_SEGMENT_THRESHOLD: usize = 6;

/// Handle to a submitted study. Ids are assigned in submission order
/// and double as the scheduler's priority (lower id first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StudyId(pub u32);

/// What one tick did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TickStats {
    /// Studies newly admitted (fresh or resumed from eviction).
    pub admitted: usize,
    /// Sessions advanced by one slice.
    pub advanced: usize,
    /// Studies completed this tick.
    pub completed: usize,
    /// Sessions evicted by the resident-bytes budget.
    pub evicted: usize,
}

/// A completed study's cached artifacts.
#[derive(Debug)]
struct Completed {
    report: RunReport,
    report_json: String,
}

/// One submitted study's lifecycle state.
enum Slot {
    /// Submitted, never yet admitted.
    Queued(StudyConfig),
    /// Resident, advancing slice by slice.
    Active(Box<StudySession>),
    /// Suspended to `study-<id>/` by the budget; config kept for the
    /// world lookup on readmission.
    Evicted(StudyConfig),
    /// Finished: report and sets live in the shared [`QueryState`].
    Done,
}

/// Cache key for derived sets that are pure functions of the world and
/// window geometry — identical across studies that differ only in
/// fault profile or engine knobs — so a later study's
/// cells can be seeded from an earlier study's frozen segment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SharedSetKey {
    world: WorldConfig,
    collection_secs: u64,
    /// `rl_samples` for the R&L set, the hitlist offset for hitlist
    /// kinds — the remaining input of each build.
    param: u64,
    kind: SetKind,
}

fn shared_set_key(config: &StudyConfig, kind: SetKind) -> Option<SharedSetKey> {
    let param = match kind {
        // "Ours" depends on the whole collection run — never shared.
        SetKind::Ours => return None,
        SetKind::Rl => u64::from(config.rl_samples),
        SetKind::HitlistFull | SetKind::HitlistPublic => config.hitlist_scan_offset.as_secs(),
    };
    Some(SharedSetKey {
        world: config.world.clone(),
        collection_secs: config.collection.as_secs(),
        param,
        kind,
    })
}

/// Immutable-once-published completed-study state, shared between the
/// service and every [`QueryClient`]. Entries are only ever *added*
/// (by [`StudyService::tick`], under short write locks); queries take
/// read locks and atomics, so any number of threads can serve while
/// the scheduler runs.
struct QueryState {
    /// The shared content-addressed segment pool (internally synced).
    segments: SegmentPool,
    /// Completed studies' cached reports, keyed by study id.
    completed: RwLock<HashMap<u32, Arc<Completed>>>,
    /// Frozen segment of each completed study's compact sets.
    sets: RwLock<HashMap<(u32, SetKind), SegmentId>>,
    /// Memoized overlap counts, keyed `(low id, high id, kind)`.
    overlaps: RwLock<HashMap<(u32, u32, SetKind), u64>>,
    /// Query accounting. Kept in atomics (not the registry) so `&self`
    /// queries work from any thread; folded into the deterministic
    /// registry snapshot by [`StudyService::run_report`]. A *sum* of
    /// increments is order-independent, so the fold is deterministic
    /// for a given query multiset.
    queries: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl QueryState {
    fn count(&self, hit: bool) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let c = if hit {
            &self.cache_hits
        } else {
            &self.cache_misses
        };
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// A cheap, cloneable, thread-safe handle to the service's completed
/// studies: reports, frozen sets, and overlap memos. Obtained from
/// [`StudyService::queries`]; every clone shares the same state and
/// counters, and all methods take `&self`, so clients on other threads
/// keep serving while [`StudyService::tick`] runs.
#[derive(Clone)]
pub struct QueryClient {
    state: Arc<QueryState>,
}

impl QueryClient {
    /// The completed study's canonical run report, if it has finished.
    pub fn report(&self, id: StudyId) -> Option<RunReport> {
        let got = self
            .state
            .completed
            .read()
            .expect("query state poisoned")
            .get(&id.0)
            .cloned();
        self.state.count(got.is_some());
        got.map(|c| c.report.clone())
    }

    /// The completed study's report as canonical JSON — byte-identical
    /// to `Study::run(config).run_report().to_json()`.
    pub fn report_json(&self, id: StudyId) -> Option<String> {
        let got = self
            .state
            .completed
            .read()
            .expect("query state poisoned")
            .get(&id.0)
            .cloned();
        self.state.count(got.is_some());
        got.map(|c| c.report_json.clone())
    }

    /// A completed study's compact set, served from the shared segment
    /// pool (the resident `Arc` when cached, read back from disk and
    /// re-validated otherwise).
    pub fn set(&self, id: StudyId, kind: SetKind) -> Result<Option<Arc<CompactSet>>, StoreError> {
        let seg = self
            .state
            .sets
            .read()
            .expect("query state poisoned")
            .get(&(id.0, kind))
            .copied();
        let Some(seg) = seg else {
            self.state.count(false);
            return Ok(None);
        };
        let (set, hit) = self.state.segments.open_with_hit(seg)?;
        self.state.count(hit);
        Ok(Some(set))
    }

    /// Overlap count between two completed studies' sets of `kind`,
    /// memoized service-side (symmetric in the ids).
    pub fn overlap(
        &self,
        a: StudyId,
        b: StudyId,
        kind: SetKind,
    ) -> Result<Option<u64>, StoreError> {
        let key = if a.0 <= b.0 {
            (a.0, b.0, kind)
        } else {
            (b.0, a.0, kind)
        };
        if let Some(&n) = self
            .state
            .overlaps
            .read()
            .expect("query state poisoned")
            .get(&key)
        {
            self.state.count(true);
            return Ok(Some(n));
        }
        self.state.count(false);
        let (sa, sb) = {
            let sets = self.state.sets.read().expect("query state poisoned");
            match (sets.get(&(key.0, kind)), sets.get(&(key.1, kind))) {
                (Some(&sa), Some(&sb)) => (sa, sb),
                _ => return Ok(None),
            }
        };
        let (set_a, set_b) = (self.state.segments.open(sa)?, self.state.segments.open(sb)?);
        let n = set_a.overlap_count(&set_b) as u64;
        self.state
            .overlaps
            .write()
            .expect("query state poisoned")
            .insert(key, n);
        Ok(Some(n))
    }
}

impl std::fmt::Debug for QueryClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryClient")
            .field(
                "completed",
                &self
                    .state
                    .completed
                    .read()
                    .expect("query state poisoned")
                    .len(),
            )
            .finish()
    }
}

/// The long-running study service. See the crate docs.
pub struct StudyService {
    config: ServiceConfig,
    slots: Vec<Slot>,
    worlds: HashMap<WorldConfig, Arc<World>>,
    /// Completed-study state shared with every [`QueryClient`].
    query: Arc<QueryState>,
    /// World-determined sets already frozen by an earlier study.
    shared_sets: HashMap<SharedSetKey, SegmentId>,
    reg: Registry,
}

impl StudyService {
    /// Opens a service (creating its directories).
    pub fn new(config: ServiceConfig) -> Result<StudyService, StoreError> {
        let segments = SegmentPool::new(config.dir.join("segments"))?;
        Ok(StudyService {
            config,
            slots: Vec::new(),
            worlds: HashMap::new(),
            query: Arc::new(QueryState {
                segments,
                completed: RwLock::new(HashMap::new()),
                sets: RwLock::new(HashMap::new()),
                overlaps: RwLock::new(HashMap::new()),
                queries: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                cache_misses: AtomicU64::new(0),
            }),
            shared_sets: HashMap::new(),
            reg: Registry::new(),
        })
    }

    /// Enqueues a study. Nothing runs until [`StudyService::tick`].
    pub fn submit(&mut self, config: StudyConfig) -> StudyId {
        let id = StudyId(self.slots.len() as u32);
        self.slots.push(Slot::Queued(config));
        id
    }

    /// A thread-safe handle to the completed-study query path. Clones
    /// are cheap; all methods take `&self` and can run concurrently
    /// with [`StudyService::tick`] on this service.
    pub fn queries(&self) -> QueryClient {
        QueryClient {
            state: Arc::clone(&self.query),
        }
    }

    /// All submitted studies have completed.
    pub fn idle(&self) -> bool {
        self.slots.iter().all(|s| matches!(s, Slot::Done))
    }

    /// The shared snapshot for `wc`, generating it on first use.
    fn world(&mut self, wc: &WorldConfig) -> Arc<World> {
        if let Some(w) = self.worlds.get(wc) {
            self.reg.add(metrics::SERVICE_WORLD_SHARES, 1);
            return Arc::clone(w);
        }
        self.reg.add(metrics::SERVICE_WORLD_BUILDS, 1);
        let w = Arc::new(World::generate(wc.clone()));
        self.worlds.insert(wc.clone(), Arc::clone(&w));
        w
    }

    fn study_dir(&self, id: u32) -> PathBuf {
        self.config.dir.join(format!("study-{id}"))
    }

    /// Number of currently resident (active) sessions.
    fn active_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, Slot::Active(_)))
            .count()
    }

    /// Summed marginal resident bytes of the active sessions; the
    /// shared world snapshots are not counted.
    fn resident_bytes(&self) -> usize {
        self.slots
            .iter()
            .filter_map(|s| match s {
                Slot::Active(session) => Some(session.resident_bytes()),
                _ => None,
            })
            .sum()
    }

    /// Usage counters of the shared segment pool.
    pub fn segment_stats(&self) -> store::PoolStats {
        self.query.segments.stats()
    }

    /// One deterministic scheduling round: admit (ascending id, up to
    /// `max_active`), fan every active session out over the worker pool
    /// for one slice, apply the results in ascending id order
    /// (telemetry, completions, segment freezes), then enforce the
    /// resident-bytes budget by evicting the largest session until the
    /// total fits.
    ///
    /// The fan-out is a pure plan/apply split: workers only ever touch
    /// the one session they were handed (sessions are `Send` and share
    /// no mutable state), and every side effect on the service — the
    /// registry, the pool, the query state — happens on the calling
    /// thread afterwards, in id order. Observable state is therefore
    /// independent of [`ServiceConfig::workers`].
    pub fn tick(&mut self) -> Result<TickStats, StoreError> {
        let mut stats = TickStats::default();

        // --- Admission, ascending id. ---
        for i in 0..self.slots.len() {
            if self.active_count() >= self.config.max_active {
                break;
            }
            match &self.slots[i] {
                Slot::Queued(cfg) => {
                    let cfg = cfg.clone();
                    let world = self.world(&cfg.world);
                    self.slots[i] = Slot::Active(Box::new(StudySession::new(cfg, world)));
                    self.reg.add(metrics::SERVICE_ADMISSIONS, 1);
                    stats.admitted += 1;
                }
                Slot::Evicted(cfg) => {
                    let wc = cfg.world.clone();
                    let world = self.world(&wc);
                    let data = checkpoint::read(&self.study_dir(i as u32))?;
                    self.slots[i] =
                        Slot::Active(Box::new(StudySession::from_checkpoint(data, world)?));
                    self.reg.add(metrics::SERVICE_RESUMES, 1);
                    stats.admitted += 1;
                }
                _ => {}
            }
        }

        // --- Plan: pull every active session out of its slot. ---
        let mut work: Vec<(usize, Box<StudySession>, bool, u32)> = Vec::new();
        for i in 0..self.slots.len() {
            if matches!(self.slots[i], Slot::Active(_)) {
                let slot = std::mem::replace(&mut self.slots[i], Slot::Queued(placeholder()));
                let Slot::Active(session) = slot else {
                    unreachable!("slot was Active above")
                };
                work.push((i, session, false, 0));
            }
        }

        // --- Advance: fan out over the worker pool. Each worker owns
        // its chunk of sessions exclusively; nothing else is shared.
        // After its slice, each surviving session gets its idle-slot
        // maintenance (archive compaction) on the same worker — layout
        // only, so the work split is never observable. ---
        let slice = self.config.slice;
        let advance = |session: &mut StudySession, done: &mut bool, compacted: &mut u32| {
            *done = session.advance(slice);
            if !*done {
                *compacted = session.maintain(COMPACTION_SEGMENT_THRESHOLD);
            }
        };
        let workers = self.config.workers.clamp(1, work.len().max(1));
        if workers <= 1 {
            for (_, session, done, compacted) in &mut work {
                advance(session, done, compacted);
            }
        } else {
            let chunk = work.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for part in work.chunks_mut(chunk) {
                    scope.spawn(move || {
                        for (_, session, done, compacted) in part {
                            advance(session, done, compacted);
                        }
                    });
                }
            });
        }

        // --- Apply, ascending id (`work` is id-sorted by build order):
        // counters, completions, and pool contributions land in the
        // same sequence regardless of which worker ran what. ---
        for (i, session, done, compacted) in work {
            self.reg.add(metrics::SERVICE_SLICES, 1);
            self.reg
                .add(metrics::SERVICE_COMPACTIONS, u64::from(compacted));
            stats.advanced += 1;
            if done {
                self.complete(i as u32, *session)?;
                self.slots[i] = Slot::Done;
                stats.completed += 1;
            } else {
                self.slots[i] = Slot::Active(session);
            }
        }

        // --- Budget: evict the session with the highest cost-aware
        // score — resident bytes × (remaining window + 1), ties broken
        // toward the higher id — keep at least one. Weighting by the
        // remaining window steers eviction away from nearly-finished
        // sessions, whose checkpoint round-trip buys almost no
        // breathing room before they are readmitted. ---
        loop {
            let active: Vec<(usize, usize, u64)> = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match s {
                    Slot::Active(session) => {
                        let remaining = session.window().1.since(session.cursor()).as_secs();
                        Some((i, session.resident_bytes(), remaining))
                    }
                    _ => None,
                })
                .collect();
            let total: usize = active.iter().map(|(_, b, _)| b).sum();
            if active.len() <= 1 || total <= self.config.max_resident_bytes {
                break;
            }
            let (victim, bytes) = active
                .iter()
                .map(|&(i, b, remaining)| ((b as u128) * (u128::from(remaining) + 1), i, b))
                .max_by_key(|&(score, i, _)| (score, i))
                .map(|(_, i, b)| (i, b))
                .expect("len > 1");
            let slot = std::mem::replace(&mut self.slots[victim], Slot::Queued(placeholder()));
            let Slot::Active(session) = slot else {
                unreachable!("victim was Active above")
            };
            let cfg = session.config().clone();
            checkpoint::write(&session.into_checkpoint(), &self.study_dir(victim as u32))?;
            self.slots[victim] = Slot::Evicted(cfg);
            self.reg.add(metrics::SERVICE_EVICTIONS, 1);
            self.reg.add(metrics::SERVICE_EVICTED_BYTES, bytes as u64);
            stats.evicted += 1;
        }

        Ok(stats)
    }

    /// Ticks until every submitted study completes.
    pub fn run_to_completion(&mut self) -> Result<(), StoreError> {
        // Generous bound: with ≥1 session resident, every tick advances
        // at least one study by one slice.
        let slices_per_study = |cfg: &StudyConfig| {
            (cfg.collection.as_secs() / self.config.slice.as_secs().max(1) + 2) as usize
        };
        let budget: usize = self
            .slots
            .iter()
            .map(|s| match s {
                Slot::Queued(c) | Slot::Evicted(c) => slices_per_study(c),
                Slot::Active(sess) => slices_per_study(sess.config()),
                Slot::Done => 0,
            })
            .sum::<usize>()
            * self.slots.len().max(1)
            + 16;
        for _ in 0..budget {
            if self.idle() {
                return Ok(());
            }
            self.tick()?;
        }
        panic!("scheduler failed to converge within {budget} ticks");
    }

    /// Finishes a completed session: runs the pipeline remainder over
    /// the shared world, seeds world-determined derived sets from
    /// earlier studies' frozen segments, freezes all four compact sets
    /// into the pool, and publishes the canonical report to the shared
    /// query state.
    fn complete(&mut self, id: u32, session: StudySession) -> Result<(), StoreError> {
        let study = session.finish();
        for kind in SetKind::ALL {
            if let Some(key) = shared_set_key(&study.config, kind) {
                if let Some(&seg) = self.shared_sets.get(&key) {
                    study
                        .derived_cells
                        .seed(kind, self.query.segments.open(seg)?);
                }
            }
        }
        let derived = study.derived();
        {
            let mut sets = self.query.sets.write().expect("query state poisoned");
            for kind in SetKind::ALL {
                let set = derived.compact_set_shared(kind);
                let seg = self.query.segments.freeze(&set)?;
                sets.insert((id, kind), seg);
                if let Some(key) = shared_set_key(&study.config, kind) {
                    self.shared_sets.entry(key).or_insert(seg);
                }
            }
        }
        let seeded = study.derived_cells.stats().seeded;
        self.reg
            .add(metrics::SERVICE_SETS_SEEDED, u64::from(seeded));
        self.reg.add(metrics::SERVICE_COMPLETIONS, 1);
        let report = study.run_report();
        let report_json = report.to_json();
        self.query
            .completed
            .write()
            .expect("query state poisoned")
            .insert(
                id,
                Arc::new(Completed {
                    report,
                    report_json,
                }),
            );
        Ok(())
    }

    /// The completed study's report as canonical JSON — byte-identical
    /// to `Study::run(config).run_report().to_json()`.
    pub fn report_json(&self, id: StudyId) -> Option<String> {
        self.queries().report_json(id)
    }

    /// The service's own canonical telemetry report: admission,
    /// eviction, resume, completion, slice, query, and cache counters.
    /// Deterministic for a given submission and query sequence — and
    /// independent of [`ServiceConfig::workers`], which deliberately
    /// appears nowhere in the meta or counters.
    pub fn run_report(&self) -> RunReport {
        let studies = self.slots.len().to_string();
        let max_active = if self.config.max_active == usize::MAX {
            "unbounded".to_string()
        } else {
            self.config.max_active.to_string()
        };
        let slice = self.config.slice.as_secs().to_string();
        // Fold the query-path atomics into a snapshot of the scheduler
        // registry: sums are order-independent, so the folded counters
        // depend only on the multiset of queries served.
        let mut reg = self.reg.clone();
        reg.add(
            metrics::SERVICE_QUERIES,
            self.query.queries.load(Ordering::Relaxed),
        );
        reg.add(
            metrics::SERVICE_CACHE_HITS,
            self.query.cache_hits.load(Ordering::Relaxed),
        );
        reg.add(
            metrics::SERVICE_CACHE_MISSES,
            self.query.cache_misses.load(Ordering::Relaxed),
        );
        RunReport::new(
            &[
                ("component", "study_service"),
                ("max_active", &max_active),
                ("slice_secs", &slice),
                ("studies", &studies),
            ],
            &reg.snapshot(),
        )
    }
}

/// Placeholder config for `mem::replace` on a slot about to be
/// overwritten — never observed.
fn placeholder() -> StudyConfig {
    StudyConfig::tiny(0)
}

impl std::fmt::Debug for StudyService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StudyService")
            .field("studies", &self.slots.len())
            .field("active", &self.active_count())
            .field("workers", &self.config.workers)
            .field("resident_bytes", &self.resident_bytes())
            .field("worlds", &self.worlds.len())
            .finish()
    }
}
