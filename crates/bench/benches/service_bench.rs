//! Study-service benchmark: the marginal resident cost of an extra
//! concurrent study over one shared world, the query throughput of the
//! memoized serving layer, and its cache hit rate.
//!
//! Besides the criterion samples, this bench *always* (including
//! `--test` smoke mode) schedules a four-study matrix over a single
//! shared world snapshot, samples the per-study marginal resident bytes
//! while the sessions are live, asserts the ISSUE's sharing target —
//! an extra concurrent study costs **well under half** of a standalone
//! study's resident footprint (world + session) — and writes the
//! measurements to `target/bench-reports/BENCH_service.json` as a CI
//! artifact.

use criterion::{criterion_group, criterion_main, Criterion};
use netsim::time::Duration;
use service::{ServiceConfig, StudyService};
use std::hint::black_box;
use std::time::Instant;
use timetoscan::{ActorRoster, FaultProfile, SetKind, StudyConfig};

/// The study matrix: one world, varied fault profile, actor roster,
/// and engine shape — the shape a research group actually submits.
fn matrix(smoke: bool) -> Vec<StudyConfig> {
    let base = |seed| {
        if smoke {
            StudyConfig::tiny(seed)
        } else {
            StudyConfig::small(seed)
        }
    };
    vec![
        base(41),
        base(41).with_actors(ActorRoster::ALL),
        base(41)
            .with_fault(FaultProfile::Lossy1Pct)
            .with_collection_shards(2),
        base(41).with_collection_shards(3),
    ]
}

fn service_bench(c: &mut Criterion) {
    let smoke = c.is_test_mode();
    let configs = matrix(smoke);
    let slice = if smoke {
        Duration::hours(36)
    } else {
        Duration::days(3)
    };

    let dir = std::env::temp_dir().join(format!("service-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- Scheduling: run the same matrix at each worker count, timing
    // the tick loop and sampling the live marginal resident bytes per
    // active session at every step. Worker count must change only
    // wall-clock time, never an observable — asserted on study 0's
    // report below. ---
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let worker_counts = [1usize, 2, 4, 8];
    let mut parallel_runs: Vec<(usize, u128)> = Vec::new();
    let mut kept: Option<(StudyService, Vec<service::StudyId>, usize, usize)> = None;
    let mut reference_report: Option<String> = None;
    for &workers in &worker_counts {
        let run_dir = dir.join(format!("w{workers}"));
        let mut svc =
            StudyService::new(ServiceConfig::unbounded(&run_dir, slice).with_workers(workers))
                .expect("service");
        let ids: Vec<_> = configs.iter().map(|cfg| svc.submit(cfg.clone())).collect();
        let sched_start = Instant::now();
        let mut peak_marginal = 0usize;
        let mut ticks = 0usize;
        while !svc.idle() {
            svc.tick().expect("tick");
            ticks += 1;
            if let Some(marginal) = svc.resident_bytes().checked_div(svc.active_count()) {
                peak_marginal = peak_marginal.max(marginal);
            }
            assert!(ticks < 10_000, "scheduler failed to converge");
        }
        let sched_ns = sched_start.elapsed().as_nanos();
        let report = svc.report_json(ids[0]).expect("study 0 completed");
        match &reference_report {
            None => reference_report = Some(report),
            Some(expected) => assert_eq!(
                &report, expected,
                "study report diverged at workers={workers}"
            ),
        }
        parallel_runs.push((workers, sched_ns));
        if workers == 1 {
            kept = Some((svc, ids, peak_marginal, ticks));
        }
    }
    let (svc, ids, peak_marginal, ticks) = kept.expect("workers=1 run kept");
    let sched_ns = parallel_runs[0].1;

    let world_bytes = svc.world_resident_bytes();
    // What a standalone run of one of these studies keeps resident: its
    // own world snapshot plus the same session state. Every *extra*
    // concurrent study in the service pays only the session part.
    let standalone_bytes = world_bytes + peak_marginal;
    let marginal_ratio = peak_marginal as f64 / standalone_bytes.max(1) as f64;
    assert!(
        peak_marginal * 2 < standalone_bytes,
        "marginal resident cost {peak_marginal} B is not well under a standalone \
         footprint of {standalone_bytes} B (world {world_bytes} B)"
    );

    // --- Query throughput over the memoized serving layer. ---
    let rounds = if smoke { 200 } else { 2_000 };
    let mut queries = 0usize;
    let query_start = Instant::now();
    for _ in 0..rounds {
        for &id in &ids {
            black_box(svc.report_json(id).expect("completed").len());
            for kind in SetKind::ALL {
                black_box(svc.set(id, kind).expect("io").expect("completed").len());
            }
            queries += 1 + SetKind::ALL.len();
        }
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                black_box(svc.overlap(a, b, SetKind::Ours).expect("io"));
                queries += 1;
            }
        }
    }
    let query_ns = query_start.elapsed().as_nanos();
    let queries_per_sec = (queries as f64 * 1e9 / query_ns.max(1) as f64) as u64;

    let report = svc.run_report();
    let counter = |name: &str| report.metrics.counter_total(name);
    let hits = counter("service_cache_hits");
    let misses = counter("service_cache_misses");
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    // After the first round every query is memoized (report table,
    // resident segments, overlap memo): a serving layer that re-derives
    // per query would show up here immediately.
    assert!(
        hit_rate > 0.9,
        "cache hit rate {hit_rate:.3} — the serving layer is not memoizing"
    );
    assert_eq!(
        counter("service_world_builds"),
        1,
        "matrix shares one world"
    );
    assert_eq!(
        counter("service_set_rebuilds"),
        0,
        "memo cells rebuilt sets"
    );

    let pool = svc.segment_stats();
    // --- Mmap economics: a completed (evicted-from-active) study's
    // sets stay queryable through the pool, but their data bytes are
    // now page-cache windows into the sealed files — the private heap
    // left behind is just the fence indexes. The owned baseline is
    // what the same pool cost before mmap backing: heap + data. ---
    let pool_owned_baseline = pool.resident_bytes + pool.mapped_bytes;
    let mapped_ratio = pool.resident_bytes as f64 / pool_owned_baseline.max(1) as f64;
    if pool.mapped_segments > 0 {
        assert!(
            pool.resident_bytes < pool_owned_baseline,
            "mapped segments must shed their data bytes from the heap"
        );
    }
    println!(
        "service/resident: world {world_bytes} B shared across {} studies, \
         peak marginal {peak_marginal} B/study ({:.1}% of a standalone footprint)",
        ids.len(),
        marginal_ratio * 100.0,
    );
    println!(
        "service/mmap: {} of {} pool segments mapped — {} B heap vs {} B owned baseline \
         ({:.1}% resident)",
        pool.mapped_segments,
        pool.resident_segments,
        pool.resident_bytes,
        pool_owned_baseline,
        mapped_ratio * 100.0,
    );
    let base_ns = parallel_runs[0].1.max(1);
    for &(workers, ns) in &parallel_runs {
        println!(
            "service/parallel: workers={workers} sched {ns} ns (speedup {:.2}x, cpus {cpus})",
            base_ns as f64 / ns.max(1) as f64,
        );
    }
    println!(
        "service/sched: {ticks} ticks, {} slices, {} seeded sets, {} pool dedups in {sched_ns} ns",
        counter("service_slices"),
        counter("service_sets_seeded"),
        pool.freeze_dedups,
    );
    println!(
        "service/queries: {queries} in {query_ns} ns ({queries_per_sec}/s), hit rate {hit_rate:.4}",
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"service\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"studies\": {},\n",
            "  \"worlds\": 1,\n",
            "  \"world_bytes\": {},\n",
            "  \"peak_marginal_bytes_per_study\": {},\n",
            "  \"standalone_footprint_bytes\": {},\n",
            "  \"marginal_ratio\": {:.4},\n",
            "  \"schedule\": {{\"ticks\": {}, \"slices\": {}, \"evictions\": {}, \"sets_seeded\": {}, \"pool_freeze_dedups\": {}, \"ns\": {}}},\n",
            "  \"parallel\": {{\"cpus\": {}, \"runs\": [{}]}},\n",
            "  \"mmap\": {{\"pool_segments\": {}, \"mapped_segments\": {}, \"pool_heap_bytes\": {}, \"pool_mapped_bytes\": {}, \"owned_baseline_bytes\": {}, \"resident_ratio\": {:.4}}},\n",
            "  \"queries\": {},\n",
            "  \"query_ns\": {},\n",
            "  \"queries_per_sec\": {},\n",
            "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}}\n",
            "}}\n"
        ),
        if smoke { "smoke" } else { "full" },
        ids.len(),
        world_bytes,
        peak_marginal,
        standalone_bytes,
        marginal_ratio,
        ticks,
        counter("service_slices"),
        counter("service_evictions"),
        counter("service_sets_seeded"),
        pool.freeze_dedups,
        sched_ns,
        cpus,
        parallel_runs
            .iter()
            .map(|&(workers, ns)| format!(
                "{{\"workers\": {workers}, \"sched_ns\": {ns}, \"speedup\": {:.3}}}",
                base_ns as f64 / ns.max(1) as f64
            ))
            .collect::<Vec<_>>()
            .join(", "),
        pool.resident_segments,
        pool.mapped_segments,
        pool.resident_bytes,
        pool.mapped_bytes,
        pool_owned_baseline,
        mapped_ratio,
        queries,
        query_ns,
        queries_per_sec,
        hits,
        misses,
        hit_rate,
    );
    let out_dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-reports");
    std::fs::create_dir_all(&out_dir).expect("create target/bench-reports");
    let path = out_dir.join("BENCH_service.json");
    std::fs::write(&path, &json).expect("write service bench artifact");
    println!(
        "service/artifact: {} bytes -> {}",
        json.len(),
        path.display()
    );

    // Criterion sample on the steady-state query path.
    c.bench_function("service/query_round", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for &id in &ids {
                n += svc.report_json(id).expect("completed").len();
            }
            n += svc
                .overlap(ids[0], ids[1], SetKind::Ours)
                .expect("io")
                .expect("completed") as usize;
            black_box(n)
        })
    });

    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = bench::criterion();
    targets = service_bench
}
criterion_main!(benches);
