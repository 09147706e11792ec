//! Collection-engine throughput: events/sec of the inline loop and of
//! the sharded loop at several shard counts.
//!
//! Besides the criterion samples, this bench *always* (including
//! `--test` smoke mode) runs each loop once over the same workload,
//! asserts their feeds and stats are **bit-identical** (the determinism
//! contract the sharded loop ships under), and writes the measured
//! throughput + speedups to
//! `target/bench-reports/BENCH_collection.json` as a CI artifact. The
//! sharded rows are compared with `first_sight` — the inline loop
//! recording into the flat collector, the same work on one thread. The
//! recorded `cpus` field qualifies them: shard speedup needs cores.
//!
//! It also runs a **scale slice**: a 1:100-of-the-paper world (~13 M
//! nominal devices) collected through the same engine, asserting
//! resident memory stays under [`PROCEDURAL_RESIDENT_BOUND`] (the world
//! stores no device) and recording the measured events/sec + resident
//! bytes under the artifact's `procedural` key.

use criterion::{criterion_group, criterion_main, Criterion};
use netsim::country;
use netsim::time::{Duration, SimTime};
use netsim::world::{World, WorldConfig};
use ntppool::collector::VecSink;
use ntppool::{AddressCollector, CollectorParts, Operator, Pool, PoolServer, ServerId};
use std::hint::black_box;
use std::net::Ipv6Addr;
use std::time::Instant;

/// The study-shaped pool: background servers plus the 11 collectors.
fn study_pool() -> Pool {
    let mut pool = Pool::with_background();
    for (i, c) in country::COLLECTOR_LOCATIONS.iter().enumerate() {
        pool.add(PoolServer {
            netspeed: 50_000,
            operator: Operator::Study {
                location_index: i as u8,
            },
            ..PoolServer::background(*c)
        });
    }
    pool
}

#[derive(Debug, PartialEq, Eq, Default)]
struct Outcome {
    polls: u64,
    responses: u64,
    observed: u64,
    feed: Vec<(ServerId, Ipv6Addr, SimTime)>,
}

/// The inline loop, feeding a closure every raw observation.
fn run_engine(world: &World, pool: &Pool, start: SimTime, end: SimTime) -> Outcome {
    let run = ntppool::CollectionRun::new(world, pool, start, end);
    let mut out = Outcome::default();
    let stats = run.run(|server, addr, t| out.feed.push((server, addr, t)));
    out.polls = stats.polls;
    out.responses = stats.responses;
    out.observed = stats.observed;
    out
}

/// First-sight collection through the inline loop + the flat
/// `AddressCollector`: the ground truth and the like-for-like baseline
/// for the sharded rows, whose feed is the deduplicated first-sight
/// stream rather than the raw observation stream.
fn run_first_sight(world: &World, pool: &Pool, start: SimTime, end: SimTime) -> Outcome {
    let sink = VecSink::default();
    let buf = sink.0.clone();
    let mut collector = AddressCollector::with_sink(Box::new(sink));
    let run = ntppool::CollectionRun::new(world, pool, start, end);
    let stats = run.run(|server, addr, t| collector.record(server, addr, t));
    let feed = buf
        .lock()
        .iter()
        .map(|o| (o.server, o.addr, o.seen))
        .collect();
    Outcome {
        polls: stats.polls,
        responses: stats.responses,
        observed: stats.observed,
        feed,
    }
}

/// begin → advance → finish at a given shard count (one shard runs the
/// inline loop, more run the sharded one).
fn run_sharded(world: &World, pool: &Pool, start: SimTime, end: SimTime, shards: usize) -> Outcome {
    let sink = VecSink::default();
    let run = ntppool::CollectionRun::new(world, pool, start, end);
    let mut ckpt = run.begin();
    run.advance(
        &mut ckpt,
        end,
        &mut CollectorParts::new(shards),
        Box::new(sink.clone()),
        &mut telemetry::Registry::new(),
    );
    let stats = ckpt.finish(&mut telemetry::Registry::new());
    let feed = sink
        .0
        .lock()
        .iter()
        .map(|o| (o.server, o.addr, o.seen))
        .collect();
    Outcome {
        polls: stats.polls,
        responses: stats.responses,
        observed: stats.observed,
        feed,
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_nanos())
}

fn events_per_sec(events: u64, nanos: u128) -> u64 {
    ((events as f64) * 1e9 / nanos.max(1) as f64) as u64
}

/// Resident set size of this process in bytes (Linux `VmRSS`), or
/// `None` where `/proc` is unavailable (non-Linux dev machines).
fn resident_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Hard ceiling for the scale run's resident memory. A device table of
/// the same nominal size would need tens of bytes per device times
/// ~13 M devices *before* the engine allocates anything; deriving
/// devices on demand keeps the whole run comfortably under this.
const PROCEDURAL_RESIDENT_BOUND: u64 = 2 * 1024 * 1024 * 1024;

/// The throughput measurement + equivalence guard + artifact writer.
/// Runs in smoke mode too (on a smaller workload) — CI uploads the
/// artifact either way.
fn collection_throughput(c: &mut Criterion) {
    let smoke = c.is_test_mode();
    let (world, days) = if smoke {
        (World::generate(WorldConfig::tiny(bench::BENCH_SEED)), 2u64)
    } else {
        (World::generate(WorldConfig::small(bench::BENCH_SEED)), 14)
    };
    let pool = study_pool();
    let (start, end) = (SimTime(0), SimTime(Duration::days(days).as_secs()));

    // Untimed warmup so the first timed pass doesn't absorb cold-cache
    // and allocator start-up costs.
    black_box(run_engine(&world, &pool, start, end));

    let (sequential, sequential_ns) = time(|| run_engine(&world, &pool, start, end));

    // The sharded loop's feed is the first-sight stream, so its rows
    // are checked against the flat collector's rather than the raw
    // feed (poll counters match the raw run exactly).
    let (first_sight, first_sight_ns) = time(|| run_first_sight(&world, &pool, start, end));
    assert_eq!(first_sight.polls, sequential.polls);
    assert_eq!(first_sight.observed, sequential.observed);
    let mut sharded_ns = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let (sharded, ns) = time(|| run_sharded(&world, &pool, start, end, shards));
        assert_eq!(sharded, first_sight, "{shards}-shard engine diverged");
        sharded_ns.push((shards, ns));
    }

    let events = sequential.polls;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "collection/throughput: {events} events, {cpus} cpus — sequential {} ev/s",
        events_per_sec(events, sequential_ns),
    );
    println!(
        "collection/throughput: first sight (inline loop + flat collector) {} ev/s",
        events_per_sec(events, first_sight_ns),
    );
    for &(shards, ns) in &sharded_ns {
        println!(
            "collection/throughput: {shards} shards {} ev/s ({:.2}x vs first sight)",
            events_per_sec(events, ns),
            first_sight_ns as f64 / ns.max(1) as f64,
        );
    }

    // Scale run: a 1:100-of-the-paper world (~13 M nominal devices) —
    // clients stream out of the derivation layer and only touched
    // devices ever exist. The resident-memory assert is the point of
    // the exercise: collection cost is O(observed), not O(declared).
    let proc_world = World::generate(WorldConfig::paper_centi(bench::BENCH_SEED));
    let proc_devices = proc_world.device_count();
    let baseline_devices = world.device_count();
    assert!(
        proc_devices >= 20 * baseline_devices,
        "the scale world must declare at least 20x the devices of the \
         throughput world ({proc_devices} vs {baseline_devices})"
    );
    let proc_slice = if smoke {
        Duration::mins(15)
    } else {
        Duration::hours(1)
    };
    let (proc_out, proc_ns) =
        time(|| run_engine(&proc_world, &pool, start, SimTime(proc_slice.as_secs())));
    let proc_rss = resident_bytes();
    if let Some(rss) = proc_rss {
        assert!(
            rss < PROCEDURAL_RESIDENT_BOUND,
            "procedural scale run resident memory {rss} bytes exceeds the \
             {PROCEDURAL_RESIDENT_BOUND}-byte bound"
        );
    }
    println!(
        "collection/procedural: {} devices ({}x baseline), {} events in {:.1}s ({} ev/s), resident {} MiB",
        proc_devices,
        proc_devices / baseline_devices.max(1),
        proc_out.polls,
        proc_ns as f64 / 1e9,
        events_per_sec(proc_out.polls, proc_ns),
        proc_rss.map_or(0, |r| r / (1024 * 1024)),
    );
    drop(proc_world);
    let proc_json = format!(
        concat!(
            "{{\"world\": \"paper_centi\", \"world_devices\": {}, ",
            "\"baseline_world_devices\": {}, \"scale_factor\": {:.1}, ",
            "\"slice_secs\": {}, \"events\": {}, \"events_per_sec\": {}, ",
            "\"resident_bytes\": {}, \"resident_bound_bytes\": {}}}"
        ),
        proc_devices,
        baseline_devices,
        proc_devices as f64 / baseline_devices.max(1) as f64,
        proc_slice.as_secs(),
        proc_out.polls,
        events_per_sec(proc_out.polls, proc_ns),
        proc_rss.map_or_else(|| "null".to_owned(), |r| r.to_string()),
        PROCEDURAL_RESIDENT_BOUND,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"collection_throughput\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"world\": \"{}\",\n",
            "  \"days\": {},\n",
            "  \"cpus\": {},\n",
            "  \"events\": {},\n",
            "  \"sequential_ns\": {},\n",
            "  \"first_sight_ns\": {},\n",
            "  \"sharded_ns\": {{\"shards_1\": {}, \"shards_2\": {}, \"shards_4\": {}, \"shards_8\": {}}},\n",
            "  \"events_per_sec\": {{\"sequential\": {}, \"first_sight\": {}, ",
            "\"shards_1\": {}, \"shards_2\": {}, \"shards_4\": {}, \"shards_8\": {}}},\n",
            "  \"speedup_vs_first_sight\": {{\"shards_1\": {:.3}, \"shards_2\": {:.3}, \"shards_4\": {:.3}, \"shards_8\": {:.3}}},\n",
            "  \"procedural\": {}\n",
            "}}\n"
        ),
        if smoke { "smoke" } else { "full" },
        if smoke { "tiny" } else { "small" },
        days,
        cpus,
        events,
        sequential_ns,
        first_sight_ns,
        sharded_ns[0].1,
        sharded_ns[1].1,
        sharded_ns[2].1,
        sharded_ns[3].1,
        events_per_sec(events, sequential_ns),
        events_per_sec(events, first_sight_ns),
        events_per_sec(events, sharded_ns[0].1),
        events_per_sec(events, sharded_ns[1].1),
        events_per_sec(events, sharded_ns[2].1),
        events_per_sec(events, sharded_ns[3].1),
        first_sight_ns as f64 / sharded_ns[0].1.max(1) as f64,
        first_sight_ns as f64 / sharded_ns[1].1.max(1) as f64,
        first_sight_ns as f64 / sharded_ns[2].1.max(1) as f64,
        first_sight_ns as f64 / sharded_ns[3].1.max(1) as f64,
        proc_json,
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-reports");
    std::fs::create_dir_all(&dir).expect("create target/bench-reports");
    let path = dir.join("BENCH_collection.json");
    std::fs::write(&path, &json).expect("write collection bench artifact");
    println!(
        "collection/artifact: {} bytes -> {}",
        json.len(),
        path.display()
    );

    // Criterion samples over a one-day slice, so `cargo bench` timings
    // track regressions in both loops.
    let slice_end = SimTime(Duration::days(1).as_secs());
    c.bench_function("collection/sequential", |b| {
        b.iter(|| black_box(run_engine(&world, &pool, start, slice_end).polls))
    });
    c.bench_function("collection/sharded_4", |b| {
        b.iter(|| black_box(run_sharded(&world, &pool, start, slice_end, 4).polls))
    });
}

criterion_group! {
    name = benches;
    config = bench::criterion();
    targets = collection_throughput
}
criterion_main!(benches);
