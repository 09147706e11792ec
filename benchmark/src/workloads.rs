//! The five workloads: what each sets up, what its body does, what it
//! counts as an event, and how its outputs are checked.
//!
//! Why these five (see README.md for the full rationale): `study_mid`
//! is the reference end-to-end run in which every stage works;
//! `study_hostile` drives the same layers down their fault, retry,
//! KoD, shard and full-roster paths; `collect_centi` bypasses
//! everything but collection, the procedural device cache and the
//! archive; `service_evict` is dominated by the service scheduler,
//! checkpoints and mmap-backed segments; `analyze_mid` bypasses
//! collection and scanning and does analysis only.

use crate::harness::{Fnv, SplitMix};
use crate::metrics::{put, Metrics, RENDER_MODULES};
use crate::trace::Tracer;
use hitlist::{Hitlist, HitlistConfig};
use netsim::country::COLLECTOR_LOCATIONS;
use netsim::time::{Duration, SimTime};
use netsim::world::{World, WorldConfig};
use ntppool::{AddressCollector, CollectionRun, Operator, Pool, PoolServer, RunStats};
use scanner::{BatchScan, ScanPolicy};
use service::{QueryClient, ServiceConfig, StudyId, StudyService};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use telemetry::Snapshot;
use telescope::Vantage;
use timetoscan::experiments as ex;
use timetoscan::{
    checkpoint, ActorRoster, Derived, DerivedCells, FaultProfile, SetKind, Study, StudyConfig,
    StudySession,
};

/// Full scale is what `BENCHMARK.json` runs; smoke is a tiny pass over
/// the same code for CI (`--smoke`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Operations attempted and failed: repetitions, output checks, and
/// service queries. A failed check, or a `None`/`Err` where a value is
/// due, is a failed operation.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("check FAILED: {what}");
        }
    }
}

/// What one repetition produced, reduced to what the harness compares.
pub struct Outcome {
    /// The workload's fixed, deterministic event count.
    pub events: u64,
    /// FNV-1a of the simulated results (canonical reports, rendered
    /// tables, set sizes): equal across repetitions, runs and — for a
    /// change that only makes the simulator faster — commits.
    pub digest: u64,
}

/// One workload. `setup` is the timed set-up closure; `body` is one
/// repetition; `traced` is the staged, span-recorded pass that yields
/// the per-layer numbers (it does its own set-up, under a span). A
/// span named like a `*_s` metric becomes that metric; the span named
/// `body` covers what one repetition covers.
pub trait Workload {
    type State;
    /// Times `setup` runs back to back for `setup_s` (the median is
    /// reported), sized so the timed total is 2–4 s on the 2-core
    /// reference host.
    const SETUP_REPS: u32;
    /// Whether `body` consumes its state, so that every repetition
    /// after the first needs an (untimed) set-up of its own.
    const FRESH_STATE_PER_REP: bool;
    fn setup(&self) -> Self::State;
    fn body(&self, state: &mut Self::State, ops: &mut Ops) -> Outcome;
    fn traced(&self, tr: &mut Tracer, m: &mut Metrics, ops: &mut Ops) -> Outcome;
    /// Checks too costly to sit inside a repetition; run once, untimed,
    /// on the last repetition's state.
    fn verify(&self, _state: &Self::State, _ops: &mut Ops) {}
}

// ---------------------------------------------------------------------
// The `mid` study: between `small` (1.5 s) and `medium` (46 s).
// ---------------------------------------------------------------------

pub fn mid_world(seed: u64, scale: Scale) -> WorldConfig {
    match scale {
        Scale::Full => WorldConfig {
            households: 4_500,
            servers: 2_600,
            routers: 400,
            eyeball_ases: 110,
            hosting_ases: 70,
            nsp_ases: 20,
            ..WorldConfig::medium(seed)
        },
        Scale::Smoke => WorldConfig::tiny(seed),
    }
}

fn mid_config(seed: u64, scale: Scale) -> StudyConfig {
    match scale {
        Scale::Full => StudyConfig {
            world: mid_world(seed, scale),
            target_rps: 0.87,
            ..StudyConfig::medium(seed)
        },
        Scale::Smoke => StudyConfig::tiny(seed),
    }
}

fn hostile_config(seed: u64, scale: Scale) -> StudyConfig {
    let mut cfg = mid_config(seed, scale);
    cfg.world.sntp_iot_pct = 30;
    cfg.with_fault(FaultProfile::Congested)
        .with_actors(ActorRoster::ALL)
        .with_collection_shards(2)
}

type Renderer = for<'a, 'b> fn(&'a Derived<'b>) -> String;

/// The 19 experiment renderers in `render_all` order, index-aligned
/// with [`RENDER_MODULES`].
const RENDERERS: [Renderer; 19] = [
    ex::table1::render,
    ex::fig1::render,
    ex::table2::render,
    ex::table3::render,
    ex::fig2::render,
    ex::fig3::render,
    ex::fig5::render,
    ex::fig6::render,
    ex::actors::render,
    ex::keyreuse::render,
    ex::security::render,
    ex::table5::render,
    ex::table6::render,
    ex::fig4::render,
    ex::table7::render,
    ex::table8::render,
    ex::table9::render,
    ex::takeaways::render,
    ex::metrics::render,
];

/// `render_all` taken apart: the four compact sets first, then each
/// experiment module under its own span. Joined the way `render_all`
/// joins, so the text is byte-equal to it (checked by the callers).
/// Also returns how many derived artifacts the pass had to build.
fn staged_render(tr: &mut Tracer, study: &Study) -> (String, u64) {
    let derived = study.derived();
    tr.span("core.derived_set_build_s", |_| {
        for kind in SetKind::ALL {
            black_box(derived.compact_set(kind).len());
        }
    });
    let tables = tr.span("core.render_all_s", |tr| {
        let parts: Vec<String> = RENDER_MODULES
            .iter()
            .zip(RENDERERS)
            .map(|(module, render)| {
                tr.span(&format!("core.render.{module}_s"), |_| render(&derived))
            })
            .collect();
        parts.join("\n")
    });
    (tables, derived.memo_misses())
}

/// `Study::run_shared` taken apart along the session path (pinned
/// byte-identical to it): open, collect the whole window, finish.
fn staged_study(tr: &mut Tracer, cfg: &StudyConfig, world: &Arc<World>) -> Study {
    let mut session = tr.span("core.session_open_s", |_| {
        StudySession::new(cfg.clone(), Arc::clone(world))
    });
    tr.span("ntppool.collect_s", |_| {
        while !session.advance(cfg.collection) {}
    });
    tr.span("core.finish_s", |_| session.finish())
}

fn study_events(t: &Snapshot) -> u64 {
    t.counter_total("ntp_polls") + t.counter_total("scan_attempts")
}

/// Reduces a finished study and its rendered report to an [`Outcome`],
/// checking the collection invariants on the way.
fn study_outcome(study: &Study, report_json: &str, tables: &str, ops: &mut Ops) -> Outcome {
    let t = &study.telemetry;
    let stats = study.run_stats;
    let distinct = study.collector.global().len() as u64;
    // Not `responses >= observed`: under loss a collecting server
    // records a request whose reply never reaches the client.
    ops.check(
        stats.polls >= stats.responses
            && stats.polls >= stats.observed
            && stats.observed >= distinct,
        "polls >= responses, polls >= observed >= distinct",
    );
    ops.check(
        study.feed.len() as u64 == distinct
            && distinct == t.counter_total("ntp_distinct_addresses"),
        "feed length = distinct addresses",
    );
    let mut digest = Fnv::new();
    digest.write(report_json.as_bytes());
    digest.write(tables.as_bytes());
    Outcome {
        events: study_events(t),
        digest: digest.finish(),
    }
}

/// Copies the study's exact-repeat counts into the metric map.
fn put_study_counts(study: &Study, derived_misses: u64, m: &mut Metrics) {
    let t = &study.telemetry;
    for (metric, counter) in [
        ("netsim.transport_exchanges", "transport_exchanges"),
        ("netsim.transport_lost", "transport_lost"),
        ("netsim.transport_truncated", "transport_truncated"),
        ("ntppool.polls", "ntp_polls"),
        ("ntppool.responses", "ntp_responses"),
        ("ntppool.distinct_addresses", "ntp_distinct_addresses"),
        ("ntppool.kod", "ntp_kod"),
        ("ntppool.lost", "ntp_lost"),
        ("scanner.targets", "scan_targets"),
        ("scanner.attempts", "scan_attempts"),
        ("hitlist.addresses", "hitlist_addresses"),
        ("telescope.captures", "telescope_captures"),
        ("telescope.attributed", "telescope_attributed"),
        ("actors.eco_probes", "eco_probes"),
        ("core.feed_observations", "pipeline_feed_observations"),
    ] {
        put(m, metric, t.counter_total(counter) as f64);
    }
    let targets = t.counter_total("scan_targets").max(1);
    put(
        m,
        "scanner.attempts_per_target",
        t.counter_total("scan_attempts") as f64 / targets as f64,
    );
    let accuracy = study
        .attribution
        .as_ref()
        .and_then(|table| table.confusion.accuracy());
    put(m, "actors.attribution_accuracy", accuracy.unwrap_or(0.0));
    put(m, "core.derived_memo_misses", derived_misses as f64);
    put_archive_shape(study.collector.global(), m);
}

fn put_archive_shape(archive: &store::Archive, m: &mut Metrics) {
    put(m, "store.archive_segments", archive.segments().len() as f64);
    put(
        m,
        "store.bloom_prune_ratio",
        archive.bloom_stats().prune_ratio(),
    );
    put(m, "store.archive_heap_bytes", archive.heap_bytes() as f64);
    put(
        m,
        "store.bytes_per_addr",
        archive.heap_bytes() as f64 / archive.len().max(1) as f64,
    );
}

/// `study_mid` and `study_hostile`: one full study per repetition.
pub struct StudyRun {
    cfg: StudyConfig,
}

impl StudyRun {
    pub fn mid(seed: u64, scale: Scale) -> StudyRun {
        StudyRun {
            cfg: mid_config(seed, scale),
        }
    }

    pub fn hostile(seed: u64, scale: Scale) -> StudyRun {
        StudyRun {
            cfg: hostile_config(seed, scale),
        }
    }
}

impl Workload for StudyRun {
    type State = Arc<World>;
    const SETUP_REPS: u32 = 800;
    const FRESH_STATE_PER_REP: bool = false;

    fn setup(&self) -> Arc<World> {
        Arc::new(World::generate(self.cfg.world.clone()))
    }

    fn body(&self, world: &mut Arc<World>, ops: &mut Ops) -> Outcome {
        let study = Study::run_shared(self.cfg.clone(), Arc::clone(world));
        let tables = ex::render_all(&study.derived());
        study_outcome(&study, &study.run_report().to_json(), &tables, ops)
    }

    fn traced(&self, tr: &mut Tracer, m: &mut Metrics, ops: &mut Ops) -> Outcome {
        let cfg = &self.cfg;
        let world = tr.span("netsim.world_generate_s", |_| self.setup());
        // What `body` does in two calls, stage by stage.
        let (study, misses, outcome) = tr.span("body", |tr| {
            let study = staged_study(tr, cfg, &world);
            let (tables, misses) = staged_render(tr, &study);
            let report_json = tr.span("core.run_report_s", |_| study.run_report().to_json());
            let outcome = study_outcome(&study, &report_json, &tables, ops);
            (study, misses, outcome)
        });

        // The stages `finish` runs internally, once more on their own:
        // the only way to time them through public calls.
        let (start, _) = study.window();
        let hitlist_t = start + cfg.hitlist_scan_offset;
        let hl = tr.span("hitlist.build_s", |_| {
            Hitlist::build(&world, hitlist_t, &HitlistConfig::for_world(&world))
        });
        ops.check(
            hl.full.len() == study.hitlist.full.len(),
            "standalone hitlist build matches the study's",
        );
        let transport = cfg.fault.build(cfg.world.seed);
        let scan = tr.span("scanner.batch_scan_s", |_| {
            BatchScan::with_transport(ScanPolicy::default(), transport.clone_box()).run(
                &world,
                hl.full.sorted(),
                hitlist_t,
            )
        });
        ops.check(
            scan.targets() == study.hitlist_scan.targets(),
            "standalone batch scan probes the study's targets",
        );
        tr.span("telescope.sweep_s", |_| {
            let mut vantage = Vantage::new("3fff:909::/48".parse().expect("literal prefix"));
            black_box(vantage.query_all_via(
                &study.pool,
                transport.as_ref(),
                start + cfg.telescope_offset,
                Duration::secs(7),
            ))
        });

        put_study_counts(&study, misses, m);
        outcome
    }
}

// ---------------------------------------------------------------------
// collect_centi: collection only, on the procedural 1:100 world.
// ---------------------------------------------------------------------

pub struct CollectCenti {
    world: WorldConfig,
    window: Duration,
}

pub struct CollectState {
    world: World,
    pool: Pool,
    collector: AddressCollector,
}

impl CollectCenti {
    pub fn new(seed: u64, scale: Scale) -> CollectCenti {
        CollectCenti {
            world: WorldConfig::paper_centi(seed),
            window: match scale {
                Scale::Full => Duration::mins(45),
                Scale::Smoke => Duration::mins(2),
            },
        }
    }

    fn collect(&self, st: &mut CollectState) -> RunStats {
        let CollectState {
            world,
            pool,
            collector,
        } = st;
        let end = SimTime(self.window.as_secs());
        CollectionRun::new(world, pool, SimTime(0), end).run(|server, addr, t| {
            if matches!(pool.server(server).operator, Operator::Study { .. }) {
                collector.record(server, addr, t);
            }
        })
    }

    fn outcome(st: &CollectState, stats: RunStats, ops: &mut Ops) -> Outcome {
        let global = st.collector.global();
        ops.check(
            stats.polls >= stats.responses
                && stats.polls >= stats.observed
                && stats.observed >= global.len() as u64
                && !global.is_empty(),
            "polls >= responses, polls >= observed >= distinct > 0",
        );
        let mut digest = Fnv::new();
        for v in [
            stats.polls,
            stats.responses,
            stats.observed,
            stats.kod,
            stats.lost,
        ] {
            digest.write_u64(v);
        }
        for addr in global.iter() {
            digest.write(&addr.octets());
        }
        Outcome {
            events: stats.polls,
            digest: digest.finish(),
        }
    }
}

impl Workload for CollectCenti {
    type State = CollectState;
    const SETUP_REPS: u32 = 3_000;
    const FRESH_STATE_PER_REP: bool = true;

    fn setup(&self) -> CollectState {
        let world = World::generate(self.world.clone());
        // The study-shaped pool: background servers plus the 11
        // collectors, at the netspeed the repository's own collection
        // bench gives them.
        let mut pool = Pool::with_background();
        for (i, c) in COLLECTOR_LOCATIONS.iter().enumerate() {
            pool.add(PoolServer {
                netspeed: 50_000,
                operator: Operator::Study {
                    location_index: i as u8,
                },
                ..PoolServer::background(*c)
            });
        }
        let collector = AddressCollector::sized_for(None, world.client_count_estimate());
        CollectState {
            world,
            pool,
            collector,
        }
    }

    fn body(&self, st: &mut CollectState, ops: &mut Ops) -> Outcome {
        let stats = self.collect(st);
        CollectCenti::outcome(st, stats, ops)
    }

    fn traced(&self, tr: &mut Tracer, m: &mut Metrics, ops: &mut Ops) -> Outcome {
        let mut st = tr.span("netsim.world_generate_s", |_| self.setup());
        let (stats, outcome) = tr.span("body", |tr| {
            let stats = tr.span("ntppool.collect_s", |_| self.collect(&mut st));
            (stats, CollectCenti::outcome(&st, stats, ops))
        });
        put(m, "ntppool.polls", stats.polls as f64);
        put(m, "ntppool.responses", stats.responses as f64);
        put(m, "ntppool.kod", stats.kod as f64);
        put(m, "ntppool.lost", stats.lost as f64);
        put(
            m,
            "ntppool.distinct_addresses",
            st.collector.global().len() as f64,
        );
        put_archive_shape(st.collector.global(), m);
        outcome
    }
}

// ---------------------------------------------------------------------
// service_evict: four small studies under an 8 MiB resident budget.
// ---------------------------------------------------------------------

/// A scratch directory under `benchmark/out/work`, removed on drop.
pub struct WorkDir(PathBuf);

static WORK_DIRS: AtomicU32 = AtomicU32::new(0);

impl WorkDir {
    fn new(label: &str) -> WorkDir {
        let n = WORK_DIRS.fetch_add(1, Ordering::Relaxed);
        let dir = crate::out_dir()
            .join("work")
            .join(format!("{label}-{}-{n}", std::process::id()));
        WorkDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // A failure here leaves files under the ignored out/ directory
        // and changes no result.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Number of distinct queries the service can be asked about four
/// completed studies: 4 reports, 16 sets, 24 pairwise overlaps.
const QUERY_FORMS: u64 = 44;

pub struct ServiceEvict {
    seed: u64,
    configs: Vec<StudyConfig>,
    slice: Duration,
    hot_queries: usize,
}

pub struct ServiceState {
    svc: StudyService,
    ids: Vec<StudyId>,
    /// The hot pass: indices into the [`QUERY_FORMS`] query forms.
    schedule: Vec<u8>,
    // Declared last: dropped after the service that writes into it.
    _dir: WorkDir,
}

impl ServiceEvict {
    pub fn new(seed: u64, scale: Scale) -> ServiceEvict {
        let base = |s: u64| match scale {
            Scale::Full => StudyConfig::small(s),
            Scale::Smoke => StudyConfig::tiny(s),
        };
        ServiceEvict {
            seed,
            // Two worlds, each shared by two studies; one faulty
            // transport, one sharded engine, one full roster.
            configs: vec![
                base(seed),
                base(seed).with_fault(FaultProfile::Lossy1Pct),
                base(seed + 1).with_collection_shards(2),
                base(seed + 1).with_actors(ActorRoster::ALL),
            ],
            slice: match scale {
                Scale::Full => Duration::days(2),
                Scale::Smoke => Duration::days(3),
            },
            hot_queries: match scale {
                Scale::Full => 1_000_000,
                Scale::Smoke => 20_000,
            },
        }
    }

    /// Ticks until every study is done; with a tracer, one span a tick.
    fn schedule_all(svc: &mut StudyService, mut tr: Option<&mut Tracer>, ops: &mut Ops) {
        let mut ticks = 0;
        while !svc.idle() && ticks < 10_000 {
            let result = match tr.as_deref_mut() {
                Some(tr) => tr.span("service.tick", |_| svc.tick()),
                None => svc.tick(),
            };
            ops.check(result.is_ok(), "service tick");
            ticks += 1;
        }
        ops.check(svc.idle(), "service reached idle");
    }

    /// Answers query form `form` (`0..QUERY_FORMS`), folding the answer
    /// into `acc`; `false` when a value that is due did not come.
    fn ask(q: &QueryClient, ids: &[StudyId], form: u64, acc: &mut Fnv) -> bool {
        const PAIRS: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let got = match form {
            0..=3 => q.report_json(ids[form as usize]).map(|j| j.len() as u64),
            4..=19 => {
                let (id, kind) = (
                    ids[(form as usize - 4) / 4],
                    SetKind::ALL[(form as usize - 4) % 4],
                );
                q.set(id, kind).ok().flatten().map(|s| s.len() as u64)
            }
            _ => {
                let (a, b) = PAIRS[(form as usize - 20) / 4];
                let kind = SetKind::ALL[(form as usize - 20) % 4];
                q.overlap(ids[a], ids[b], kind).ok().flatten()
            }
        };
        if let Some(v) = got {
            acc.write_u64(v);
        }
        got.is_some()
    }

    /// The cold pass: every query form once, in order.
    fn cold_pass(q: &QueryClient, ids: &[StudyId], ops: &mut Ops) -> u64 {
        let mut acc = Fnv::new();
        for form in 0..QUERY_FORMS {
            let ok = ServiceEvict::ask(q, ids, form, &mut acc);
            ops.check(ok, "cold query answered");
        }
        acc.finish()
    }

    /// The hot pass: the seeded schedule, every answer memoized.
    fn hot_pass(q: &QueryClient, ids: &[StudyId], schedule: &[u8], ops: &mut Ops) -> u64 {
        let mut acc = Fnv::new();
        let mut unanswered = 0;
        for &form in schedule {
            if !ServiceEvict::ask(q, ids, u64::from(form), &mut acc) {
                unanswered += 1;
            }
        }
        ops.attempted += schedule.len() as u64;
        ops.failed += unanswered;
        acc.finish()
    }

    fn outcome(st: &ServiceState, cold: u64, hot: u64, ops: &mut Ops) -> Outcome {
        let q = st.svc.queries();
        let mut events = 0;
        let mut digest = Fnv::new();
        for &id in &st.ids {
            let report = q.report(id);
            ops.check(report.is_some(), "completed study has a report");
            if let Some(report) = report {
                events += study_events(&report.metrics);
                digest.write(report.to_json().as_bytes());
            }
        }
        digest.write_u64(cold);
        digest.write_u64(hot);
        Outcome {
            events,
            digest: digest.finish(),
        }
    }
}

impl Workload for ServiceEvict {
    type State = ServiceState;
    const SETUP_REPS: u32 = 2_000;
    const FRESH_STATE_PER_REP: bool = true;

    fn setup(&self) -> ServiceState {
        let dir = WorkDir::new("service");
        let mut svc = StudyService::new(ServiceConfig {
            slice: self.slice,
            max_active: 3,
            max_resident_bytes: 8 << 20,
            workers: 2,
            dir: dir.path().to_owned(),
        })
        .expect("service directories are creatable under benchmark/out");
        let ids = self.configs.iter().map(|c| svc.submit(c.clone())).collect();
        let mut rng = SplitMix(self.seed ^ 0x7365_7276);
        let schedule = (0..self.hot_queries)
            .map(|_| (rng.next() % QUERY_FORMS) as u8)
            .collect();
        ServiceState {
            svc,
            ids,
            schedule,
            _dir: dir,
        }
    }

    fn body(&self, st: &mut ServiceState, ops: &mut Ops) -> Outcome {
        ServiceEvict::schedule_all(&mut st.svc, None, ops);
        let q = st.svc.queries();
        let cold = ServiceEvict::cold_pass(&q, &st.ids, ops);
        let hot = ServiceEvict::hot_pass(&q, &st.ids, &st.schedule, ops);
        ServiceEvict::outcome(st, cold, hot, ops)
    }

    fn traced(&self, tr: &mut Tracer, m: &mut Metrics, ops: &mut Ops) -> Outcome {
        let mut st = tr.span("service.open", |_| self.setup());
        let q = st.svc.queries();
        let outcome = tr.span("body", |tr| {
            tr.span("service.schedule", |tr| {
                ServiceEvict::schedule_all(&mut st.svc, Some(tr), ops)
            });
            let cold = tr.span("service.query_cold_s", |_| {
                ServiceEvict::cold_pass(&q, &st.ids, ops)
            });
            let hot = tr.span("service.query_hot", |_| {
                ServiceEvict::hot_pass(&q, &st.ids, &st.schedule, ops)
            });
            ServiceEvict::outcome(&st, cold, hot, ops)
        });

        let ticks = tr.durations("service.tick");
        put(m, "service.ticks", ticks.len() as f64);
        if !ticks.is_empty() {
            put(m, "service.tick_p50_s", crate::harness::median(&ticks));
            put(
                m,
                "service.tick_max_s",
                ticks.iter().copied().fold(0.0, f64::max),
            );
        }
        put(
            m,
            "service.query_hot_ns",
            tr.total_s("service.query_hot").unwrap_or(0.0) * 1e9 / st.schedule.len().max(1) as f64,
        );
        let report = st.svc.run_report();
        for (metric, counter) in [
            ("service.admissions", "service_admissions"),
            ("service.evictions", "service_evictions"),
            ("service.resumes", "service_resumes"),
            ("service.evicted_bytes", "service_evicted_bytes"),
            ("service.slices", "service_slices"),
            ("service.compactions", "service_compactions"),
            ("service.world_builds", "service_world_builds"),
            ("service.world_shares", "service_world_shares"),
            ("service.cache_hits", "service_cache_hits"),
            ("service.cache_misses", "service_cache_misses"),
            ("service.set_rebuilds", "service_set_rebuilds"),
        ] {
            put(m, metric, report.metrics.counter_total(counter) as f64);
        }
        put(
            m,
            "service.segment_mapped_bytes",
            st.svc.segment_stats().mapped_bytes as f64,
        );

        self.trace_persistence(tr, m, &q, &st.ids, ops);
        outcome
    }

    /// One sampled study's service report must be byte-equal to a
    /// standalone run of the same config.
    fn verify(&self, st: &ServiceState, ops: &mut Ops) {
        let pick = (self.seed % self.configs.len() as u64) as usize;
        let standalone = Study::run(self.configs[pick].clone())
            .run_report()
            .to_json();
        ops.check(
            st.svc.report_json(st.ids[pick]).as_deref() == Some(standalone.as_str()),
            "service report byte-equal to standalone Study::run",
        );
    }
}

impl ServiceEvict {
    /// The persistence calls the service makes internally, once more on
    /// their own: a mid-window checkpoint round trip, and a freeze /
    /// re-open of the first study's four sets in a pool of their own.
    fn trace_persistence(
        &self,
        tr: &mut Tracer,
        m: &mut Metrics,
        q: &QueryClient,
        ids: &[StudyId],
        ops: &mut Ops,
    ) {
        let dir = WorkDir::new("persist");
        let cfg = self.configs[0].clone();
        let world = Arc::new(World::generate(cfg.world.clone()));
        let mut session = StudySession::new(cfg.clone(), world);
        session.advance(Duration::secs(cfg.collection.as_secs() / 2));
        let data = session.suspend();
        let written = tr.span("core.checkpoint_write_s", |_| {
            checkpoint::write(&data, dir.path())
        });
        ops.check(written.is_ok(), "checkpoint written");
        let bytes = written
            .ok()
            .and_then(|path| std::fs::metadata(path).ok())
            .map_or(0, |md| md.len());
        let read = tr.span("core.checkpoint_read_s", |_| checkpoint::read(dir.path()));
        ops.check(
            read.is_ok_and(|back| back.feed_prefix == data.feed_prefix),
            "checkpoint read back",
        );
        put(m, "core.checkpoint_bytes", bytes as f64);

        let sets: Vec<_> = SetKind::ALL
            .iter()
            .filter_map(|&kind| q.set(ids[0], kind).ok().flatten())
            .collect();
        ops.check(sets.len() == SetKind::ALL.len(), "four sets served");
        let Ok(pool) = store::SegmentPool::new(dir.path().join("segments")) else {
            ops.check(false, "segment pool opened");
            return;
        };
        let frozen: Vec<_> = tr.span("store.segment_freeze_s", |_| {
            sets.iter()
                .filter_map(|set| pool.freeze(set).ok())
                .collect()
        });
        ops.check(frozen.len() == sets.len(), "four sets frozen");
        for &id in &frozen {
            pool.evict(id);
        }
        let reopened = tr.span("store.segment_open_s", |_| {
            frozen.iter().filter(|&&id| pool.open(id).is_ok()).count()
        });
        ops.check(reopened == frozen.len(), "four segments re-opened");
    }
}

// ---------------------------------------------------------------------
// analyze_mid: analysis only, over one finished `mid` study.
// ---------------------------------------------------------------------

pub struct AnalyzeMid {
    cfg: StudyConfig,
    passes: u32,
}

impl AnalyzeMid {
    pub fn new(seed: u64, scale: Scale) -> AnalyzeMid {
        AnalyzeMid {
            cfg: mid_config(seed, scale),
            passes: match scale {
                Scale::Full => 6,
                Scale::Smoke => 2,
            },
        }
    }

    /// Sizes of the four compact sets and their pairwise overlaps,
    /// folded into `digest`.
    fn set_algebra(derived: &Derived<'_>, digest: &mut Fnv) {
        for (i, a) in SetKind::ALL.iter().enumerate() {
            digest.write_u64(derived.compact_set(*a).len() as u64);
            for b in &SetKind::ALL[i + 1..] {
                let n = derived
                    .compact_set(*a)
                    .overlap_count(derived.compact_set(*b));
                digest.write_u64(n as u64);
            }
        }
    }

    fn outcome(&self, pass_digests: &[u64], ops: &mut Ops) -> Outcome {
        ops.check(
            pass_digests.windows(2).all(|w| w[0] == w[1]),
            "renders byte-equal across passes",
        );
        Outcome {
            events: u64::from(self.passes) * RENDERERS.len() as u64,
            digest: pass_digests[0],
        }
    }
}

impl Workload for AnalyzeMid {
    type State = Study;
    /// Once: the set-up is a whole study, as long as a body repetition.
    const SETUP_REPS: u32 = 1;
    const FRESH_STATE_PER_REP: bool = false;

    fn setup(&self) -> Study {
        let world = Arc::new(World::generate(self.cfg.world.clone()));
        Study::run_shared(self.cfg.clone(), world)
    }

    fn body(&self, study: &mut Study, ops: &mut Ops) -> Outcome {
        let mut pass_digests = Vec::new();
        for _ in 0..self.passes {
            // Fresh cells: every pass rebuilds the derived sets, as the
            // first query after a study does.
            study.derived_cells = Arc::new(DerivedCells::new());
            let derived = study.derived();
            let mut digest = Fnv::new();
            digest.write(ex::render_all(&derived).as_bytes());
            AnalyzeMid::set_algebra(&derived, &mut digest);
            pass_digests.push(digest.finish());
        }
        self.outcome(&pass_digests, ops)
    }

    fn traced(&self, tr: &mut Tracer, m: &mut Metrics, ops: &mut Ops) -> Outcome {
        // The input, staged: the same session path `study_mid` traces.
        let world = tr.span("netsim.world_generate_s", |_| {
            Arc::new(World::generate(self.cfg.world.clone()))
        });
        let mut study = staged_study(tr, &self.cfg, &world);

        let mut misses = 0;
        let outcome = tr.span("body", |tr| {
            let mut pass_digests = Vec::new();
            for _ in 0..self.passes {
                study.derived_cells = Arc::new(DerivedCells::new());
                let mut digest = Fnv::new();
                let (tables, built) = staged_render(tr, &study);
                digest.write(tables.as_bytes());
                let derived = study.derived();
                tr.span("store.set_algebra", |_| {
                    AnalyzeMid::set_algebra(&derived, &mut digest)
                });
                misses = built;
                pass_digests.push(digest.finish());
            }
            self.outcome(&pass_digests, ops)
        });
        put_study_counts(&study, misses, m);
        outcome
    }
}
