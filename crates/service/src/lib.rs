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
//!   converge on one file and one resident copy.
//! * **One scheduling loop** — each [`StudyService::tick`] admits
//!   queued studies in id order up to the admission budget, then
//!   advances every active [`StudySession`] in place by one slice, in
//!   ascending study id, on the calling thread. A session that finished
//!   is completed there (report published, sets frozen into the pool),
//!   in the same id order, so every observable — study reports, set
//!   contents, service telemetry — is a function of the submissions.
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
//! any number of forced evictions (enforced by `tests/service.rs`). The
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
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
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
    /// sessions are evicted to disk, highest cost-aware score first
    /// (resident bytes × (remaining window + 1), ties to the higher id),
    /// until the total fits (at least one session always stays resident
    /// so the service makes progress).
    pub max_resident_bytes: usize,
    /// Ignored. A tick advances its sessions in place on the calling
    /// thread, in ascending id; the field stays so that configs built
    /// as struct literals (the frozen benchmark builds one) compile.
    pub workers: usize,
    /// Root directory: `segments/` holds the shared segment pool,
    /// `study-<id>/` the eviction checkpoints.
    pub dir: PathBuf,
}

impl ServiceConfig {
    /// A config with effectively unbounded budgets — scheduling without
    /// eviction pressure.
    pub fn unbounded(dir: impl Into<PathBuf>, slice: Duration) -> ServiceConfig {
        ServiceConfig {
            slice,
            max_active: usize::MAX,
            max_resident_bytes: usize::MAX,
            workers: 1,
            dir: dir.into(),
        }
    }
}

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
    /// Query accounting: every query is exactly one hit or one miss.
    /// Kept in atomics (not the registry) so `&self` queries work from
    /// any thread; folded into the deterministic registry snapshot by
    /// [`StudyService::run_report`]. A *sum* of increments is
    /// order-independent, so the fold is deterministic for a given
    /// query multiset.
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

/// Read-locks one query-state map. Every critical section is a
/// whole-entry `get` or `insert`, so a map whose lock a panic elsewhere
/// poisoned is still consistent: the lock is recovered, not propagated.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks one query-state map; see [`read`].
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

impl QueryState {
    fn count(&self, hit: bool) {
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
        self.completed(id).map(|c| c.report.clone())
    }

    /// The completed study's report as canonical JSON — byte-identical
    /// to `Study::run(config).run_report().to_json()`.
    pub fn report_json(&self, id: StudyId) -> Option<String> {
        self.completed(id).map(|c| c.report_json.clone())
    }

    /// The completed study's cached artifacts, counted as a hit or miss.
    fn completed(&self, id: StudyId) -> Option<Arc<Completed>> {
        let got = read(&self.state.completed).get(&id.0).cloned();
        self.state.count(got.is_some());
        got
    }

    /// A completed study's compact set, served from the shared segment
    /// pool (the resident `Arc` when cached, read back from disk and
    /// re-validated otherwise).
    pub fn set(&self, id: StudyId, kind: SetKind) -> Result<Option<Arc<CompactSet>>, StoreError> {
        let seg = read(&self.state.sets).get(&(id.0, kind)).copied();
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
        if let Some(&n) = read(&self.state.overlaps).get(&key) {
            self.state.count(true);
            return Ok(Some(n));
        }
        self.state.count(false);
        let (sa, sb) = {
            let sets = read(&self.state.sets);
            match (sets.get(&(key.0, kind)), sets.get(&(key.1, kind))) {
                (Some(&sa), Some(&sb)) => (sa, sb),
                _ => return Ok(None),
            }
        };
        let (set_a, set_b) = (self.state.segments.open(sa)?, self.state.segments.open(sb)?);
        let n = set_a.overlap_count(&set_b) as u64;
        write(&self.state.overlaps).insert(key, n);
        Ok(Some(n))
    }
}

impl std::fmt::Debug for QueryClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryClient")
            .field("completed", &read(&self.state.completed).len())
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
                cache_hits: AtomicU64::new(0),
                cache_misses: AtomicU64::new(0),
            }),
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

    /// One deterministic scheduling round, all on the calling thread:
    /// admit (ascending id, up to `max_active`); advance every active
    /// session in place by one slice, in ascending id, completing each
    /// one that finished; then enforce the resident-bytes budget by
    /// evicting the session with the highest cost-aware score until the
    /// total fits.
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

        // --- Advance in place, ascending id: one slice each; a finished
        // session is completed. ---
        for i in 0..self.slots.len() {
            let Slot::Active(session) = &mut self.slots[i] else {
                continue;
            };
            let done = session.advance(self.config.slice);
            self.reg.add(metrics::SERVICE_SLICES, 1);
            stats.advanced += 1;
            if done {
                let session = self.take_active(i, Slot::Done);
                self.complete(i as u32, *session)?;
                stats.completed += 1;
            }
        }

        // --- Budget: evict by cost-aware score (see `victim`) until
        // the total fits, keeping at least one session resident. ---
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
            if total <= self.config.max_resident_bytes {
                break;
            }
            let Some((i, bytes)) = victim(&active) else {
                break;
            };
            let data = self.take_active(i, Slot::Done).into_checkpoint();
            self.slots[i] = Slot::Evicted(data.config.clone());
            checkpoint::write(&data, &self.study_dir(i as u32))?;
            self.reg.add(metrics::SERVICE_EVICTIONS, 1);
            self.reg.add(metrics::SERVICE_EVICTED_BYTES, bytes as u64);
            stats.evicted += 1;
        }

        Ok(stats)
    }

    /// Finishes a completed session: runs the pipeline remainder over
    /// the shared world, freezes all four compact sets into the pool
    /// (whose content addressing gives a set equal to an earlier
    /// study's the same segment and resident copy), and publishes the
    /// canonical report to the shared query state.
    fn complete(&mut self, id: u32, session: StudySession) -> Result<(), StoreError> {
        let study = session.finish();
        // Build and freeze (each freeze a `sync_all`) before taking the
        // write lock, so queries wait only for the four inserts.
        let derived = study.derived();
        let mut frozen = Vec::with_capacity(SetKind::ALL.len());
        for kind in SetKind::ALL {
            let seg = self.query.segments.freeze(derived.compact_set(kind))?;
            frozen.push(((id, kind), seg));
        }
        write(&self.query.sets).extend(frozen);
        self.reg.add(metrics::SERVICE_COMPLETIONS, 1);
        let report = study.run_report();
        let report_json = report.to_json();
        let completed = Arc::new(Completed {
            report,
            report_json,
        });
        write(&self.query.completed).insert(id, completed);
        Ok(())
    }

    /// Takes the active session out of slot `i`, leaving `next` there.
    fn take_active(&mut self, i: usize, next: Slot) -> Box<StudySession> {
        match std::mem::replace(&mut self.slots[i], next) {
            Slot::Active(session) => session,
            _ => unreachable!("slot {i} holds no active session"),
        }
    }

    /// The completed study's report as canonical JSON — byte-identical
    /// to `Study::run(config).run_report().to_json()`.
    pub fn report_json(&self, id: StudyId) -> Option<String> {
        self.queries().report_json(id)
    }

    /// The service's own canonical telemetry report: admission,
    /// eviction, resume, completion, slice, query, and cache counters.
    /// Deterministic for a given submission and query sequence.
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
        // depend only on the multiset of queries served. Every query is
        // one hit or one miss, so the query count is their sum.
        let hits = self.query.cache_hits.load(Ordering::Relaxed);
        let misses = self.query.cache_misses.load(Ordering::Relaxed);
        let mut reg = self.reg.clone();
        reg.add(metrics::SERVICE_QUERIES, hits + misses);
        reg.add(metrics::SERVICE_CACHE_HITS, hits);
        reg.add(metrics::SERVICE_CACHE_MISSES, misses);
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

/// The session the budget evicts next, from `(slot, resident bytes,
/// remaining window secs)` of every active session: the highest
/// cost-aware score, resident bytes × (remaining window + 1), ties to
/// the higher slot. Returns `(slot, resident bytes)`, or `None` below
/// two sessions — the last one always stays. Weighting by the remaining
/// window spares nearly-finished sessions, whose checkpoint round-trip
/// buys almost no room before they are readmitted.
fn victim(active: &[(usize, usize, u64)]) -> Option<(usize, usize)> {
    if active.len() < 2 {
        return None;
    }
    active
        .iter()
        .max_by_key(|&&(i, bytes, remaining)| ((bytes as u128) * (u128::from(remaining) + 1), i))
        .map(|&(i, bytes, _)| (i, bytes))
}

impl std::fmt::Debug for StudyService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StudyService")
            .field("studies", &self.slots.len())
            .field("active", &self.active_count())
            .field("resident_bytes", &self.resident_bytes())
            .field("worlds", &self.worlds.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_weighs_bytes_by_remaining_window() {
        // Slot 0 is four times larger but nearly finished: 400 × 1
        // against 100 × 11 — the smaller session with more window
        // left goes.
        assert_eq!(victim(&[(0, 400, 0), (1, 100, 10)]), Some((1, 100)));
    }

    #[test]
    fn victim_breaks_ties_toward_the_higher_id() {
        // 100 × 4 = 200 × 2 = 400 × 1.
        assert_eq!(
            victim(&[(0, 100, 3), (2, 400, 0), (5, 200, 1)]),
            Some((5, 200))
        );
    }

    #[test]
    fn victim_never_evicts_the_last_session() {
        assert_eq!(victim(&[(3, usize::MAX, u64::MAX)]), None);
        assert_eq!(victim(&[]), None);
    }

    /// A panic while a query-state lock is held must not take the query
    /// path down with it. The panic is caught on this thread: poisoning
    /// needs an unwind through the guard, not a second thread.
    #[test]
    fn poisoned_query_state_still_serves() {
        let dir = std::env::temp_dir().join(format!("service-poison-{}", std::process::id()));
        let svc =
            StudyService::new(ServiceConfig::unbounded(&dir, Duration::days(1))).expect("service");
        let report = RunReport::new(&[("component", "poison_test")], &Registry::new().snapshot());
        let json = report.to_json();
        let completed = Arc::new(Completed {
            report,
            report_json: json.clone(),
        });
        write(&svc.query.completed).insert(7, completed);

        let q = svc.queries();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = q.state.completed.write();
            panic!("poisoning the report table");
        }));
        assert!(unwound.is_err());
        assert!(q.state.completed.is_poisoned());

        assert_eq!(q.report_json(StudyId(7)), Some(json));
        assert_eq!(q.report_json(StudyId(8)), None);
        assert!(format!("{q:?}").contains("completed: 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
